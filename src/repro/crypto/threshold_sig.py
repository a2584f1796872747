"""Unique threshold signatures (BLS-style, pairing-free verification).

Structure (paper, Sections 4.1-4.2 and 6.2-6.3): a dealer shares a key
``x`` by a Feldman dealing (:class:`~repro.crypto.feldman.FeldmanVSS`)
and hands each signer its shares; signer ``i`` publishes
``sigma_i = H(m)^{x_i}`` and any ``k`` shares combine via Lagrange
interpolation *in the exponent* into the unique signature
``sigma = H(m)^x``.  Uniqueness (the combined value is independent of
which shares were used) is precisely the property randomness beacons
need (Section 4.1).

Pairing substitution: instead of the BLS pairing check each share carries
a Chaum-Pedersen DLEQ proof against the signer's public key share
``g^{x_i}``, and the combined signature verifies against the *expected*
value interpolated from verified shares (or, equivalently, against
``H(m)^x`` recomputed from the public commitment by anyone holding ``k``
verified shares).  All quantities the paper measures -- shares generated,
shares verified, combination work proportional to ticket counts -- are
faithfully exercised.

Wire form: a share's value and its proof's commitments travel as
canonical roots (see :mod:`~repro.crypto.dleq`), signed on ``H(m)``'s
root ``u`` -- ``sigma_i = canon(u^{x_i})`` -- which verifiers reuse for
``H(m)^e = (u^e)^2``.  The combine runs on the roots and
squares once: ``sigma = (prod_i sigma_i^{lambda_i})^2``, the same
signature the element form gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .dleq import DleqProof, prove_dleq, verify_dleq, verify_indexed_dleq_batch
from .feldman import FeldmanDealing, FeldmanVSS, Share
from .group import SchnorrGroup
from .polynomial import lagrange_coefficients_at

__all__ = ["SignatureShare", "ThresholdSignatureScheme", "ThresholdKeys"]


@dataclass(frozen=True)
class SignatureShare:
    """Signer ``index``'s share: the canonical root of ``H(m)^{x_index}``
    plus its DLEQ proof."""

    index: int
    value: int
    proof: DleqProof


@dataclass(frozen=True)
class ThresholdKeys:
    """Public output of key generation.

    ``public_key = g^x`` (the dealing's commitment ``C_0``);
    ``public_shares[i] = g^{x_i}`` for share index ``i`` (1-based,
    exposed as a dict).
    """

    public_key: int
    public_shares: Mapping[int, int]


class ThresholdSignatureScheme:
    """``(n, k)`` unique threshold signatures over a Schnorr group: the
    public operations only.

    The scheme holds no secret.  :meth:`keygen` is the trusted dealer the
    paper assumes for its randomness beacons: it keeps the public
    :class:`ThresholdKeys` and returns the dealing, whose shares its
    caller hands to the signers; a signer passes its own
    :class:`~repro.crypto.feldman.Share` to :meth:`sign_share`.  A DKG
    could replace the dealer without changing any other interface.
    """

    def __init__(self, group: SchnorrGroup, n: int, k: int) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.group = group
        self.field = group.exponent_field
        self.n = n
        self.k = k
        self._keys: ThresholdKeys | None = None

    # -- setup -------------------------------------------------------------------
    def keygen(self, rng) -> FeldmanDealing:
        """Deal a fresh random key; keeps the public material and returns
        the dealing (the secret shares travel no further than the caller)."""
        dealing = FeldmanVSS(self.group, self.n, self.k).deal(None, rng)
        self._keys = ThresholdKeys(
            public_key=dealing.commitment.public_key,
            public_shares={s.index: self.group.exp_g(s.value) for s in dealing.shares},
        )
        return dealing

    @property
    def keys(self) -> ThresholdKeys:
        if self._keys is None:
            raise RuntimeError("keygen() has not been run")
        return self._keys

    # -- signing ------------------------------------------------------------------
    def message_root(self, message: bytes) -> int:
        """The canonical root of ``H(m)``, the element raised to the key."""
        return self.group.hash_to_root(b"thsig|" + message)

    def sign_share(self, share: Share, message: bytes, rng) -> SignatureShare:
        """Sign with the secret ``share``: its signature share with a DLEQ
        proof."""
        _, sigma_i, proof = prove_dleq(
            self.group, share.value, self.group.generator_root, self.message_root(message),
            rng, y1=self.keys.public_shares[share.index],
        )
        return SignatureShare(index=share.index, value=sigma_i, proof=proof)

    def verify_share(self, share: SignatureShare, message: bytes) -> bool:
        """Check a share against the signer's public key share."""
        pk_i = self.keys.public_shares.get(share.index)
        if pk_i is None:
            return False
        return verify_dleq(
            self.group, self.group.generator_root, pk_i, self.message_root(message),
            share.value, share.proof,
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
            self.message_root(message),
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
        Lagrange-in-the-exponent as one multi-exponentiation over the
        roots and the LRU-cached coefficients, squared once: a root's
        power is right up to sign, and the square removes it.  The
        coefficients depend only on the public indices, so the
        multi-exponentiation runs variable-time, two roots per kernel
        call; a contiguous quorum's coefficients are a few bits each as
        signed residues (``6, -15, 20, -15, 6, -1`` for ``{1..6}``), so
        six shares cost four short calls and one inverse."""
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
        root = self.group.multi_exp(
            [(share.value, lam) for lam, share in zip(lambdas, chosen)]
        )
        return root * root % self.group.p
