"""God's-eye check of a combined threshold signature.

No party can run this: it reads the dealer's secret shares off the
scheme object, interpolates the key ``x`` and recomputes the unique
signature ``H(m)^x``.  Tests use it as the oracle a combine must match.
"""

from repro.crypto.polynomial import lagrange_coefficients_at


def verify_signature(scheme, signature: int, message: bytes) -> bool:
    """Is ``signature`` the unique ``H(message)^x`` of ``scheme``'s key?"""
    secrets = scheme._secret_shares
    xs = sorted(secrets)[: scheme.k]
    lambdas = lagrange_coefficients_at(scheme.field, xs, 0)
    x = scheme.field.sum(scheme.field.mul(lam, secrets[i]) for lam, i in zip(lambdas, xs))
    group = scheme.group
    h = group.decode_root(scheme.message_root(message))
    return signature == group.power(h, x)
