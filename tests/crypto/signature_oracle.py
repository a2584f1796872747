"""God's-eye check of a combined threshold signature.

No party can run this: it takes the dealer's secret shares (the dealing
:meth:`~repro.crypto.threshold_sig.ThresholdSignatureScheme.keygen`
returned), interpolates the key ``x`` and recomputes the unique
signature ``H(m)^x``.  Tests use it as the oracle a combine must match.
"""

from repro.crypto.polynomial import lagrange_coefficients_at


def verify_signature(scheme, shares, signature: int, message: bytes) -> bool:
    """Is ``signature`` the unique ``H(message)^x`` of the key that
    ``shares`` (every secret share of ``scheme``'s dealing) share?"""
    chosen = sorted(shares, key=lambda s: s.index)[: scheme.k]
    lambdas = lagrange_coefficients_at(scheme.field, [s.index for s in chosen], 0)
    x = scheme.field.sum(scheme.field.mul(lam, s.value) for lam, s in zip(lambdas, chosen))
    group = scheme.group
    h = group.decode_root(scheme.message_root(message))
    return signature == group.power(h, x)
