"""Unique threshold signatures (BLS-style, pairing-free verification).

Structure (paper, Sections 4.1-4.2 and 6.2-6.3): a dealer Shamir-shares a
key ``x``; signer ``i`` publishes ``sigma_i = H(m)^{x_i}`` and any ``k``
shares combine via Lagrange interpolation *in the exponent* into the
unique signature ``sigma = H(m)^x``.  Uniqueness (the combined value is
independent of which shares were used) is precisely the property
randomness beacons need (Section 4.1).

Pairing substitution: instead of the BLS pairing check each share carries
a Chaum-Pedersen DLEQ proof against the signer's public key share
``g^{x_i}``, and the combined signature verifies against the *expected*
value interpolated from verified shares (or, equivalently, against
``H(m)^x`` recomputed from the public commitment by anyone holding ``k``
verified shares).  All quantities the paper measures -- shares generated,
shares verified, combination work proportional to ticket counts -- are
faithfully exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .dleq import DleqProof, prove_dleq, verify_dleq, verify_indexed_dleq_batch
from .group import SchnorrGroup
from .polynomial import Polynomial, lagrange_coefficients_at

__all__ = ["SignatureShare", "ThresholdSignatureScheme", "ThresholdKeys"]


@dataclass(frozen=True)
class SignatureShare:
    """Signer ``index``'s share ``H(m)^{x_index}`` plus its DLEQ proof."""

    index: int
    value: int
    proof: DleqProof


@dataclass(frozen=True)
class ThresholdKeys:
    """Public output of key generation.

    ``public_key = g^x``; ``public_shares[i] = g^{x_i}`` for share index
    ``i`` (1-based, exposed as a dict).
    """

    public_key: int
    public_shares: Mapping[int, int]


class ThresholdSignatureScheme:
    """``(n, k)`` unique threshold signatures over a Schnorr group.

    The dealer-based keygen models the trusted setup the paper assumes for
    its randomness beacons; a DKG could replace it without changing any
    interface.
    """

    def __init__(self, group: SchnorrGroup, n: int, k: int) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.group = group
        self.field = group.exponent_field
        self.n = n
        self.k = k
        self._secret_shares: dict[int, int] = {}
        self._keys: ThresholdKeys | None = None

    # -- setup -------------------------------------------------------------------
    def keygen(self, rng) -> ThresholdKeys:
        """Deal a fresh key; returns the public material."""
        poly = Polynomial.random(self.field, self.k - 1, rng)
        self._secret_shares = {i: poly.evaluate(i) for i in range(1, self.n + 1)}
        self._keys = ThresholdKeys(
            public_key=self.group.exp_g(poly.evaluate(0)),
            public_shares={
                i: self.group.exp_g(v) for i, v in self._secret_shares.items()
            },
        )
        return self._keys

    @property
    def keys(self) -> ThresholdKeys:
        if self._keys is None:
            raise RuntimeError("keygen() has not been run")
        return self._keys

    # -- signing ------------------------------------------------------------------
    def hash_message(self, message: bytes) -> int:
        """``H(m)``: the group element being raised to the secret key."""
        return self.group.hash_to_group(b"thsig|" + message)

    def sign_share(self, index: int, message: bytes, rng) -> SignatureShare:
        """Produce signer ``index``'s signature share with a DLEQ proof."""
        x_i = self._secret_shares[index]
        h = self.hash_message(message)
        _, sigma_i, proof = prove_dleq(
            self.group, x_i, self.group.generator, h, rng,
            y1=self.keys.public_shares[index],
        )
        return SignatureShare(index=index, value=sigma_i, proof=proof)

    def verify_share(self, share: SignatureShare, message: bytes) -> bool:
        """Check a share against the signer's public key share."""
        h = self.hash_message(message)
        pk_i = self.keys.public_shares.get(share.index)
        if pk_i is None:
            return False
        return verify_dleq(
            self.group, self.group.generator, pk_i, h, share.value, share.proof
        )

    def verify_shares_batch(
        self, shares: Sequence[SignatureShare], message: bytes, *, rng=None
    ) -> list[bool]:
        """Batch-verify shares of one message; one bool per share.

        All shares of a message prove DLEQ against the same base pair
        ``(g, H(m))``, so the whole batch collapses into one
        random-linear-combination aggregate (two multi-exponentiations);
        see :func:`~repro.crypto.dleq.verify_dleq_batch`.  Agrees with
        :meth:`verify_share` on every input.
        """
        return verify_indexed_dleq_batch(
            self.group,
            self.hash_message(message),
            self.keys.public_shares,
            shares,
            rng=rng,
        )

    def combine(
        self, shares: Sequence[SignatureShare], message: bytes, *, verify: bool = True
    ) -> int:
        """Lagrange-combine ``k`` shares into the unique signature
        ``H(m)^x``.  With ``verify=True`` (default) invalid shares raise
        (located by the batch verifier).  The combine itself is
        Lagrange-in-the-exponent as a single Straus product over the
        LRU-cached coefficients."""
        unique = list({s.index: s for s in shares}.values())
        if len(unique) < self.k:
            raise ValueError(f"need {self.k} distinct shares, got {len(unique)}")
        chosen = unique[: self.k]
        if verify:
            for share, ok in zip(chosen, self.verify_shares_batch(chosen, message)):
                if not ok:
                    raise ValueError(f"invalid signature share from {share.index}")
        lambdas = lagrange_coefficients_at(
            self.field, [s.index for s in chosen], 0
        )
        return self.group.multi_exp(
            [(share.value, lam) for lam, share in zip(lambdas, chosen)]
        )

    def verify(self, signature: int, message: bytes) -> bool:
        """Verify a combined signature.

        Pairing substitute: recompute ``H(m)^x`` from the dealer transcript
        (the scheme object holds the shares in simulation).  Uniqueness
        makes this well-defined; see the module docstring.
        """
        xs = sorted(self._secret_shares)[: self.k]
        lambdas = lagrange_coefficients_at(self.field, xs, 0)
        x = self.field.sum(
            self.field.mul(lam, self._secret_shares[i]) for lam, i in zip(lambdas, xs)
        )
        expected = self.group.power(self.hash_message(message), x)
        return signature == expected
