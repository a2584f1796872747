"""Calibrated synthetic snapshots of the paper's four blockchain datasets.

The paper evaluates on live stake snapshots (Aptos, Tezos, Filecoin,
Algorand; March 2023).  The offline reproduction regenerates each as a
deterministic synthetic distribution matching the published aggregates --
party count ``n`` and total weight ``W`` from Table 2 -- with skew models
chosen per system:

* **Aptos** (n=104): a permissioned-size validator set with delegation;
  moderate lognormal skew.  Paper: max tickets saturate near single
  digits, total tickets well below n.
* **Tezos** (n=382): bakers with a few exchanges holding large stakes;
  lognormal with heavier sigma.
* **Filecoin** (n=3700): storage-power distribution, heavy Pareto tail.
* **Algorand** (n=42920): open accounts down to dust; extreme Pareto tail
  plus a dust floor, the regime where tickets fall far below n.

The substitution preserves what the experiments measure (DESIGN.md §4):
ticket totals track (n, W, skew), not the identity of individual holders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .synthetic import lognormal_weights, mixture_weights, pareto_weights

__all__ = ["ChainSnapshot", "aptos", "tezos", "filecoin", "algorand", "ALL_CHAINS", "load_chain"]


@dataclass(frozen=True)
class ChainSnapshot:
    """A named weight distribution with its published aggregates."""

    name: str
    weights: tuple[int, ...]
    declared_n: int
    declared_total: int

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)

    def __post_init__(self) -> None:
        if self.n != self.declared_n or self.total != self.declared_total:
            raise ValueError(
                f"{self.name}: generated aggregates do not match declaration"
            )


def aptos(seed: int = 2023) -> ChainSnapshot:
    """Aptos validators: n=104, W=8.47e8 (paper, Table 2)."""
    n, total = 104, int(8.47e8)
    return ChainSnapshot(
        name="aptos",
        weights=tuple(lognormal_weights(n, total, sigma=1.0, seed=seed)),
        declared_n=n,
        declared_total=total,
    )


def tezos(seed: int = 2023) -> ChainSnapshot:
    """Tezos bakers: n=382, W=6.76e8 (paper, Table 2)."""
    n, total = 382, int(6.76e8)
    return ChainSnapshot(
        name="tezos",
        weights=tuple(lognormal_weights(n, total, sigma=1.6, seed=seed)),
        declared_n=n,
        declared_total=total,
    )


def filecoin(seed: int = 2023) -> ChainSnapshot:
    """Filecoin storage power: n=3700, W=2.52e19 (paper, Table 2)."""
    n, total = 3700, int(2.52e19)
    return ChainSnapshot(
        name="filecoin",
        weights=tuple(pareto_weights(n, total, alpha=1.05, seed=seed)),
        declared_n=n,
        declared_total=total,
    )


def algorand(seed: int = 2023) -> ChainSnapshot:
    """Algorand accounts: n=42920, W=9.72e9 (paper, Table 2).

    Mixture: a tiny whale class, a mid class, and a dominant dust class --
    the regime where the paper observes total tickets far below n.
    """
    n, total = 42920, int(9.72e9)

    def whale(rng: random.Random) -> float:
        return rng.paretovariate(0.9) * 10_000.0

    def mid(rng: random.Random) -> float:
        return rng.lognormvariate(4.0, 1.5)

    def dust(rng: random.Random) -> float:
        return rng.lognormvariate(0.0, 1.0)

    weights = mixture_weights(
        n,
        total,
        components=[(0.002, whale), (0.098, mid), (0.9, dust)],
        seed=seed,
    )
    return ChainSnapshot(
        name="algorand",
        weights=tuple(weights),
        declared_n=n,
        declared_total=total,
    )


#: Factory registry, ordered as in the paper's Table 2.
ALL_CHAINS: dict[str, Callable[..., ChainSnapshot]] = {
    "aptos": aptos,
    "tezos": tezos,
    "filecoin": filecoin,
    "algorand": algorand,
}


def load_chain(name: str, seed: int = 2023) -> ChainSnapshot:
    """Load a calibrated snapshot by chain name (case-insensitive); an
    unknown name is a ``ValueError``, as in :class:`~repro.datasets.WeightSpec`."""
    factory = ALL_CHAINS.get(name.lower())
    if factory is None:
        raise ValueError(f"unknown chain {name!r}; options: {sorted(ALL_CHAINS)}")
    return factory(seed=seed)
