"""Threshold ElGamal encryption (paper rows: "Blunt/Tight Threshold
Encryption", Sections 4.2-4.3), kept as a second consumer of the DLEQ
layer's root form; never imported from ``src/``.

The key is dealt by :class:`~repro.crypto.feldman.FeldmanVSS`; a ciphertext is ``(g^r, m * pk^r)`` with
``c1 = g^r`` carried as its canonical root, because each decryption share
``c1^{x_i}`` (a canonical root too) proves DLEQ with ``c1`` as the second
base.  ``k`` verified shares Lagrange-combine into ``c1^x``, unblinding
the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.dleq import DleqProof, prove_dleq, verify_dleq, verify_indexed_dleq_batch
from repro.crypto.feldman import FeldmanVSS
from repro.crypto.group import SchnorrGroup
from repro.crypto.polynomial import lagrange_coefficients_at

__all__ = ["Ciphertext", "DecryptionShare", "ThresholdElGamal"]


@dataclass(frozen=True)
class Ciphertext:
    """ElGamal pair ``(c1, c2) = (g^r, m * pk^r)``, ``c1`` as its canonical root."""

    c1: int
    c2: int


@dataclass(frozen=True)
class DecryptionShare:
    """Party ``index``'s share: the canonical root of ``c1^{x_index}``
    plus DLEQ proof."""

    index: int
    value: int
    proof: DleqProof


class ThresholdElGamal:
    """``(n, k)``-threshold ElGamal over a Schnorr group."""

    def __init__(self, group: SchnorrGroup, n: int, k: int) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.group = group
        self.field = group.exponent_field
        self.n = n
        self.k = k
        self._secret_shares: dict[int, int] = {}
        self.public_key: int | None = None
        self.public_shares: dict[int, int] = {}

    def keygen(self, rng) -> int:
        """Deal a fresh key pair; returns the public key ``g^x``."""
        dealing = FeldmanVSS(self.group, self.n, self.k).deal(None, rng)
        self._secret_shares = {s.index: s.value for s in dealing.shares}
        self.public_key = dealing.commitment.public_key
        self.public_shares = {
            i: self.group.exp_g(v) for i, v in self._secret_shares.items()
        }
        return self.public_key

    def encrypt(self, message: int, rng) -> Ciphertext:
        """Encrypt a group element ``message``."""
        if self.public_key is None:
            raise RuntimeError("keygen() has not been run")
        if not self.group.is_member(message):
            raise ValueError("message must be a group element")
        group = self.group
        r = group.random_exponent(rng)
        return Ciphertext(
            c1=group.canonical_root(group.fast_power(group.generator_root, r)),
            c2=message * group.power(self.public_key, r) % group.p,
        )

    def decryption_share(self, index: int, ct: Ciphertext, rng) -> DecryptionShare:
        """Party ``index``'s decryption share with a correctness proof."""
        x_i = self._secret_shares[index]
        _, d_i, proof = prove_dleq(
            self.group, x_i, self.group.generator_root, ct.c1, rng,
            y1=self.public_shares[index],
        )
        return DecryptionShare(index=index, value=d_i, proof=proof)

    def verify_share(self, share: DecryptionShare, ct: Ciphertext) -> bool:
        """Publicly verify a decryption share."""
        pk_i = self.public_shares.get(share.index)
        if pk_i is None:
            return False
        return verify_dleq(
            self.group, self.group.generator_root, pk_i, ct.c1, share.value, share.proof
        )

    def verify_shares_batch(
        self, shares: Sequence[DecryptionShare], ct: Ciphertext, *, rng=None
    ) -> list[bool]:
        """Batch-verify decryption shares of one ciphertext.

        All shares of a ciphertext prove DLEQ against ``(g, c1)``, so
        they aggregate into one random-linear-combination check; agrees
        with :meth:`verify_share` per share.
        """
        return verify_indexed_dleq_batch(
            self.group, ct.c1, self.public_shares, shares, rng=rng
        )

    def combine(
        self,
        shares: Sequence[DecryptionShare],
        ct: Ciphertext,
        *,
        verify: bool = True,
    ) -> int:
        """Recover the plaintext from ``k`` decryption shares.

        Verification is batched; the Lagrange-in-the-exponent unblinding
        runs as a single multi-exponentiation over the share roots,
        squared once.
        """
        unique = list({s.index: s for s in shares}.values())
        if len(unique) < self.k:
            raise ValueError(f"need {self.k} distinct shares, got {len(unique)}")
        chosen = unique[: self.k]
        if verify:
            for share, ok in zip(chosen, self.verify_shares_batch(chosen, ct)):
                if not ok:
                    raise ValueError(f"invalid decryption share from {share.index}")
        lambdas = lagrange_coefficients_at(self.field, [s.index for s in chosen], 0)
        root = self.group.multi_exp(
            [(share.value, lam) for lam, share in zip(lambdas, chosen)]
        )
        return ct.c2 * self.group.inv(root * root) % self.group.p
