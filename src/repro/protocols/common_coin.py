"""Distributed randomness beacon protocol (paper, Sections 4.1 and 6.1).

Wraps :class:`repro.crypto.common_coin.WeightedCoin` in network messages:
each party broadcasts the signature shares of all its virtual signers for
an epoch; every party combines the first ``ceil(alpha_n T)`` verified
shares it receives and obtains the *same* value (threshold uniqueness).
Corrupt parties cannot predict the value before some honest party starts
the epoch, because they hold fewer than ``alpha_n T`` shares (WR).

Share verification is **batched at the quorum decision point**
(:class:`~repro.protocols.batching.BatchedQuorumCollector`): arriving
shares are buffered unverified, and only once a quorum's worth is
pending does one random-linear-combination aggregate
(:meth:`~repro.crypto.common_coin.CommonCoin.verify_shares`) check them
all -- a weighted coin with thousands of tickets opens in a handful of
multi-exponentiations instead of thousands of scalar ``pow`` chains.
Invalid shares are pinpointed by the batch verifier's bisection and only
the survivors count toward the threshold.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..crypto.common_coin import CommonCoin, WeightedCoin
from ..crypto.group import SchnorrGroup
from ..crypto.threshold_sig import SignatureShare
from ..sim.process import Party
from .batching import BatchedQuorumCollector

__all__ = ["CoinShareMsg", "BeaconParty", "ThresholdCoin", "deterministic_coin"]


def deterministic_coin(tag: str) -> Callable[[int], int]:
    """A stand-in epoch coin: a pure function of ``(tag, epoch)``.

    Drivers that need a common coin but not unpredictability (CLI runs,
    benchmarks, examples) share this instead of the full threshold-
    signature beacon; ``tag`` domain-separates independent experiments.
    """

    def coin(epoch: int) -> int:
        digest = hashlib.sha256(f"{tag}|{epoch}".encode()).digest()
        return int.from_bytes(digest[:4], "big")

    return coin


@dataclass(frozen=True)
class CoinShareMsg:
    """One virtual signer's coin share for an epoch."""

    epoch: int
    share: SignatureShare

    def wire_size(self) -> int:
        # share value + DLEQ proof (challenge, response, and the two
        # Sigma commitments that make the proof batch-verifiable)
        return 64 + 96 + 128


class ThresholdCoin:
    """A threshold-signature round coin pluggable into VABA.

    Callable as ``coin(round) -> int``: the dealer-trusted simulation
    setup signs one share per virtual signer, batch-verifies them in a
    single aggregate at the moment the round's value is demanded (the
    quorum decision point in :class:`~repro.protocols.vaba.VabaParty`),
    and opens the unique signature.  Values are cached per round, so
    every party sharing one instance -- the same trust model as the
    ``coin_seed`` hash stand-in it replaces -- sees the same leader at a
    fraction of the per-share verification cost.
    """

    def __init__(self, group: SchnorrGroup, n: int, k: int, rng) -> None:
        self.coin = CommonCoin(group, n=n, k=k, rng=rng)
        self.n = n
        self.k = k
        self.rng = rng
        self._values: dict[int, int] = {}
        #: total shares batch-verified (exposed for benchmarks/tests)
        self.shares_verified = 0

    def __call__(self, rnd: int) -> int:
        value = self._values.get(rnd)
        if value is None:
            shares = [self.coin.share(i, rnd, self.rng) for i in range(1, self.k + 1)]
            valid = [
                s
                for s, ok in zip(shares, self.coin.verify_shares(shares, rnd))
                if ok
            ]
            self.shares_verified += len(shares)
            value = self._values[rnd] = self.coin.open(valid, rnd, verify=False)
        return value


class BeaconParty(Party):
    """One beacon participant controlling ``t_i`` virtual signers."""

    def __init__(
        self,
        pid: int,
        coin: WeightedCoin,
        rng: random.Random,
        *,
        on_value: Optional[Callable[[int, int, int], None]] = None,
    ) -> None:
        super().__init__(pid)
        self.coin = coin
        self.rng = rng
        self.on_value = on_value
        self.values: dict[int, int] = {}
        #: per-epoch verify-in-batches quorum state
        self._collectors: dict[int, BatchedQuorumCollector] = {}
        self.on(CoinShareMsg, self._handle_share)

    def start_epoch(self, epoch: int) -> None:
        """Contribute this party's shares for ``epoch`` (one per ticket)."""
        for share in self.coin.shares_of_party(self.pid, epoch, self.rng):
            self.bump("shares_signed")
            self.broadcast(CoinShareMsg(epoch=epoch, share=share))

    def _collector(self, epoch: int) -> BatchedQuorumCollector:
        collector = self._collectors.get(epoch)
        if collector is None:
            collector = self._collectors[epoch] = BatchedQuorumCollector(
                self.coin.threshold,
                lambda batch, epoch=epoch: self.coin.verify_shares(batch, epoch),
            )
        return collector

    def _handle_share(self, message: CoinShareMsg, sender: int) -> None:
        """Buffer the share; verify in batches at the quorum point.

        A frame whose epoch is no 8-byte epoch number, or whose share is
        not a :class:`SignatureShare`, is dropped here: the collector or
        the batch verifier would raise on it.
        """
        epoch = message.epoch
        if not (isinstance(epoch, int) and 0 <= epoch < 1 << 64):
            return
        if not isinstance(message.share, SignatureShare) or epoch in self.values:
            return
        collector = self._collector(epoch)
        outcome = collector.add(message.share)
        if outcome is None:
            return
        accepted, rejected = outcome
        if accepted:
            self.bump("shares_verified", accepted)
        if rejected:
            self.bump("invalid_shares", rejected)
        if collector.has_quorum:
            value = self.coin.coin.open(collector.quorum_shares(), epoch, verify=False)
            self.values[epoch] = value
            del self._collectors[epoch]
            self.bump("epochs_opened")
            if self.on_value is not None:
                self.on_value(self.pid, epoch, value)
