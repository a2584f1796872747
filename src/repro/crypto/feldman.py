"""Feldman verifiable secret sharing: the one dealing (paper, Sections
4.1-4.2).

The dealer draws a random degree-``k-1`` polynomial ``f`` (Shamir), hands
out ``f(1), ..., f(n)`` and publishes commitments ``C_j = g^{a_j}`` to its
coefficients, so every shareholder can verify its share against
``g^{f(i)} = prod_j C_j^{i^j}`` without interaction.  Every threshold key
in this package is such a dealing
(:meth:`~repro.crypto.threshold_sig.ThresholdSignatureScheme.keygen`);
the weighted layout hands each party one share per ticket of a Weight
Restriction solution (:class:`~repro.crypto.common_coin.WeightedCoin`).
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Sequence

from .group import SchnorrGroup, batch_bisect
from .polynomial import Polynomial, interpolate_at

__all__ = ["Share", "FeldmanCommitment", "FeldmanVSS", "FeldmanDealing"]


@dataclass(frozen=True)
class Share:
    """One secret share: the evaluation ``value = f(index)``, ``index >= 1``."""

    index: int
    value: int


@dataclass(frozen=True)
class FeldmanCommitment:
    """Public commitments ``(g^{a_0}, ..., g^{a_{k-1}})``."""

    group: SchnorrGroup
    values: tuple[int, ...]

    @property
    def public_key(self) -> int:
        """``g^{secret}``: the commitment to the constant term."""
        return self.values[0]

    def expected_share_commitment(self, index: int) -> int:
        """``g^{f(index)}`` as one Straus product ``prod_j C_j^{index^j}``."""
        q = self.group.order
        pairs = []
        power = 1
        for c in self.values:
            pairs.append((c, power))
            power = power * index % q
        return self.group.multi_exp(pairs)

    def verify_share(self, share: Share) -> bool:
        """Check ``g^{share.value} == g^{f(share.index)}``."""
        return self.group.exp_g(share.value) == self.expected_share_commitment(
            share.index
        )

    def verify_shares_batch(self, shares: Sequence[Share], *, rng=None) -> list[bool]:
        """Batch-verify many shares against the commitment.

        With random small ``z_i`` the per-share checks aggregate into

        ``g^{sum_i z_i v_i}  ==  prod_j C_j^{sum_i z_i i^j}``

        -- one fixed-base exponentiation plus one ``k``-base Straus
        product for the *whole* batch.  On aggregate failure (or a
        non-subgroup commitment, which only a Byzantine dealer
        produces), falls back to bisection ending in the per-share
        oracle, so results always agree with :meth:`verify_share`.
        """
        if not shares:
            return []
        if rng is None:
            rng = _random.SystemRandom()
        group, q = self.group, self.group.order
        if not all(group.is_member_fast(c) for c in self.values):
            return [self.verify_share(s) for s in shares]

        def aggregate_holds(chunk: Sequence[Share]) -> bool:
            lhs_exp = 0
            col_exps = [0] * len(self.values)
            for share in chunk:
                z = rng.getrandbits(64) | 1
                lhs_exp += z * share.value
                power = 1
                for j in range(len(self.values)):
                    col_exps[j] = (col_exps[j] + z * power) % q
                    power = power * share.index % q
            lhs = group.exp_g(lhs_exp % q)
            rhs = group.multi_exp(list(zip(self.values, col_exps)))
            return lhs == rhs

        return batch_bisect(list(shares), aggregate_holds, self.verify_share)


@dataclass(frozen=True)
class FeldmanDealing:
    """A dealer's output: the shares and the public commitment."""

    shares: tuple[Share, ...]
    commitment: FeldmanCommitment


class FeldmanVSS:
    """``(n, k)``-threshold Feldman VSS over a Schnorr group."""

    def __init__(self, group: SchnorrGroup, n: int, k: int) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if n >= group.order:
            raise ValueError("field too small for the share count")
        self.group = group
        self.field = group.exponent_field
        self.n = n
        self.k = k

    def deal(self, secret: int | None, rng) -> FeldmanDealing:
        """Share ``secret`` (an exponent; ``None`` draws a random one) with
        public verifiability."""
        poly = Polynomial.random(self.field, self.k - 1, rng, constant=secret)
        coeffs = poly.coefficients + (0,) * (self.k - len(poly.coefficients))
        commitment = FeldmanCommitment(
            group=self.group,
            values=tuple(self.group.exp_g(c) for c in coeffs),
        )
        shares = tuple(
            Share(index=i, value=poly.evaluate(i)) for i in range(1, self.n + 1)
        )
        return FeldmanDealing(shares=shares, commitment=commitment)

    def reconstruct(self, shares: Sequence[Share]) -> int:
        """Recover the secret from ``k`` verified shares."""
        if len({s.index for s in shares}) < self.k:
            raise ValueError(f"need {self.k} distinct shares")
        chosen = list({s.index: s for s in shares}.values())[: self.k]
        return interpolate_at(self.field, [(s.index, s.value) for s in chosen])
