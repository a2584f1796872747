"""Distributed randomness beacon protocol (paper, Sections 4.1 and 6.1).

The beacon is PoS checkpointing in blunt mode
(:class:`~repro.protocols.checkpointing.CheckpointParty`) on one message
per epoch, :func:`~repro.crypto.common_coin.epoch_message`: each party
broadcasts one :class:`~repro.protocols.checkpointing.CheckpointShare`
per ticket of a :class:`~repro.crypto.common_coin.WeightedCoin`; every
party combines the first ``ceil(alpha_n T)`` verified shares it receives
into the *same* unique signature (threshold uniqueness), hashed by
:func:`~repro.crypto.common_coin.coin_value` into the epoch's value.
Corrupt parties cannot predict the value before some honest party starts
the epoch, because they hold fewer than ``alpha_n T`` shares (WR).

Share verification is batched at the quorum decision point, as for
every checkpoint: a weighted coin with thousands of tickets opens in a
handful of multi-exponentiations, and Byzantine shares are pinpointed by
the batch verifier's bisection.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Optional

from ..crypto.common_coin import EPOCH_PREFIX, WeightedCoin, coin_value, epoch_message
from .checkpointing import CheckpointParty

__all__ = ["BeaconParty", "deterministic_coin"]


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


class BeaconParty(CheckpointParty):
    """One beacon participant controlling ``t_i`` virtual signers.

    A blunt checkpointing party on ``coin``'s scheme, ticket layout and
    its own key that admits only epoch messages; an epoch's certificate
    is its value.
    """

    def __init__(
        self,
        pid: int,
        coin: WeightedCoin,
        rng: random.Random,
        *,
        on_value: Optional[Callable[[int, int, int], None]] = None,
    ) -> None:
        super().__init__(pid, coin, rng, on_certified=self._opened)
        self.on_value = on_value
        self.values: dict[int, int] = {}

    def start_epoch(self, epoch: int) -> None:
        """Contribute this party's shares for ``epoch`` (one per ticket)."""
        self.sign_checkpoint(epoch_message(epoch))

    def _admits(self, checkpoint: bytes) -> bool:
        """Only an epoch message: the prefix and an 8-byte epoch number."""
        return len(checkpoint) == len(EPOCH_PREFIX) + 8 and checkpoint.startswith(EPOCH_PREFIX)

    def _opened(self, pid: int, checkpoint: bytes, sigma: int) -> None:
        epoch = int.from_bytes(checkpoint[len(EPOCH_PREFIX) :], "big")
        value = self.values[epoch] = coin_value(sigma)
        self.bump("epochs_opened")
        if self.on_value is not None:
            self.on_value(self.pid, epoch, value)
