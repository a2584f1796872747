"""Common coin / randomness beacon from unique threshold signatures.

The paper's motivating application (Section 4.1): a trusted dealer shares
a signing key; for each epoch the unique signature on the epoch number is
hashed into an unpredictable, common random value.  Weighted operation
assigns each party one *virtual signer* per ticket of a
``WR(f_w, alpha_n)`` solution with ``alpha_n <= 1/2``: honest parties
always hold enough shares to open the coin, corrupt parties never do.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Sequence

from ..core.types import TicketAssignment
from ..weighted.virtual import VirtualUserMap
from .feldman import Share
from .group import SchnorrGroup
from .threshold_sig import SignatureShare, ThresholdSignatureScheme

__all__ = ["EPOCH_PREFIX", "CommonCoin", "WeightedCoin", "coin_value", "epoch_message"]

#: the first bytes of every epoch message; an 8-byte epoch number follows
EPOCH_PREFIX = b"coin-epoch|"


def epoch_message(epoch: int) -> bytes:
    """The message whose unique threshold signature is ``epoch``'s coin."""
    return EPOCH_PREFIX + epoch.to_bytes(8, "big")


def coin_value(sigma: int) -> int:
    """The random value of an epoch: a hash of its unique signature."""
    digest = hashlib.sha256(
        b"coin-value|" + sigma.to_bytes((sigma.bit_length() + 7) // 8 or 1, "big")
    ).digest()
    return int.from_bytes(digest, "big")


class CommonCoin:
    """Nominal common coin over ``n`` signers with threshold ``k``; the
    trusted dealer, holding every signer's secret share."""

    def __init__(self, group: SchnorrGroup, n: int, k: int, rng) -> None:
        self.scheme = ThresholdSignatureScheme(group, n, k)
        #: signer ``i``'s secret share is ``shares[i - 1]``
        self.shares = self.scheme.keygen(rng).shares
        self.n = n
        self.k = k

    def share(self, signer: int, epoch: int, rng) -> SignatureShare:
        """Signer's coin share for ``epoch`` (signers are 1-based)."""
        return self.scheme.sign_share(self.shares[signer - 1], epoch_message(epoch), rng)

    def verify_share(self, share: SignatureShare, epoch: int) -> bool:
        """Publicly verify a coin share (per-share oracle)."""
        return self.scheme.verify_share(share, epoch_message(epoch))

    def verify_shares(
        self, shares: Sequence[SignatureShare], epoch: int, *, rng=None
    ) -> list[bool]:
        """Batch-verify an epoch's coin shares (one aggregate check).

        A weighted coin receives one share per *ticket*, so this is the
        hot path: thousands of shares collapse into two
        multi-exponentiations instead of thousands of scalar ``pow``
        chains.  Agrees with :meth:`verify_share` per share.
        """
        return self.scheme.verify_shares_batch(
            shares, epoch_message(epoch), rng=rng
        )

    def open(
        self, shares: Sequence[SignatureShare], epoch: int, *, verify: bool = True
    ) -> int:
        """Combine ``k`` shares into the epoch's random value (a large int).

        Uniqueness of the threshold signature makes the value independent
        of which shares were combined -- every honest opener agrees.
        Callers that already batch-verified at the quorum point pass
        ``verify=False`` to skip the (batched) re-verification.
        """
        return coin_value(self.scheme.combine(shares, epoch_message(epoch), verify=verify))


class WeightedCoin:
    """The weighted threshold setup: party ``i`` controls ``t_i`` virtual
    signers of one dealing, for the beacon's coin and for checkpoints
    alike (the name stays because the ledger imports it).

    Built from a Weight Restriction solution (paper, Theorem 4.2): with
    ``alpha_w = f_w`` and ``alpha_n <= 1/2`` the resulting blunt access
    structure gives honest liveness and adversary exclusion.  It is the
    trusted dealer; a party is handed only its own :meth:`key`.
    """

    def __init__(
        self,
        group: SchnorrGroup,
        assignment: TicketAssignment | Sequence[int],
        alpha_n,
        rng,
    ) -> None:
        #: ticket -> signer layout: virtual id ``v`` signs as index ``v + 1``
        self.vmap = VirtualUserMap(assignment)
        total = self.vmap.total_virtual
        if total == 0:
            raise ValueError("assignment has no tickets")
        self.threshold = math.ceil(Fraction(alpha_n) * total)
        self.total_shares = total
        self.coin = CommonCoin(group, n=total, k=self.threshold, rng=rng)

    def key(self, party: int) -> tuple[Share, ...]:
        """Party ``party``'s secret key: the shares of its tickets."""
        return tuple(self.coin.shares[v] for v in self.vmap.virtual_ids(party))

    def shares_of_party(self, party: int, epoch: int, rng) -> list[SignatureShare]:
        """All coin shares party ``party`` contributes (one per ticket)."""
        return [self.coin.share(v + 1, epoch, rng) for v in self.vmap.virtual_ids(party)]

    def verify_shares(
        self, shares: Sequence[SignatureShare], epoch: int, *, rng=None
    ) -> list[bool]:
        """Batch-verify coin shares (see :meth:`CommonCoin.verify_shares`)."""
        return self.coin.verify_shares(shares, epoch, rng=rng)

    def open_with_parties(
        self, parties: Sequence[int], epoch: int, rng
    ) -> int:
        """Open the epoch coin using all shares of a coalition."""
        shares: list[SignatureShare] = []
        for p in parties:
            shares.extend(self.shares_of_party(p, epoch, rng))
        return self.coin.open(shares, epoch)

    def coalition_can_open(self, parties: Sequence[int]) -> bool:
        """Does the coalition control at least ``threshold`` virtual signers?"""
        held = sum(self.vmap.tickets[p] for p in parties)
        return held >= self.threshold
