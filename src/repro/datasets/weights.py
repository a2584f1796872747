"""Where a weight vector comes from: the one recipe type.

A :class:`WeightSpec` names an explicit vector, a seeded synthetic
distribution (:mod:`.synthetic`) or a calibrated chain snapshot
(:mod:`.chains`); :meth:`WeightSpec.materialize` is the one place a
kind turns into a concrete vector, deterministically in the seed.
Scenario specs, fuzz replays and the :class:`~repro.api.Committee`
constructors all build from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import synthetic
from .chains import ALL_CHAINS, load_chain

__all__ = ["WeightSpec", "SYNTHETIC_KINDS", "WEIGHT_KINDS"]

#: synthetic kind -> (generator, name of the generator parameter ``skew``
#: feeds; ``None`` for the kinds without a shape parameter)
_SYNTHETIC = {
    "constant": (lambda n, total, seed: synthetic.constant_weights(n, total), None),
    "uniform": (synthetic.uniform_weights, None),
    "zipf": (synthetic.zipf_weights, "s"),
    "pareto": (synthetic.pareto_weights, "alpha"),
    "lognormal": (synthetic.lognormal_weights, "sigma"),
    "exponential": (synthetic.exponential_weights, "rate"),
}

#: generator names of :mod:`.synthetic` a spec can name
SYNTHETIC_KINDS = tuple(_SYNTHETIC)

#: every kind understood by :meth:`WeightSpec.materialize`
WEIGHT_KINDS = ("explicit", *SYNTHETIC_KINDS, "chain")


@dataclass(frozen=True)
class WeightSpec:
    """A recipe for a weight vector.

    ``kind`` selects a generator from :mod:`.synthetic`, a calibrated
    chain snapshot from :mod:`.chains` (truncated to the ``n`` heaviest
    parties so the resulting cluster stays runnable), or an explicit
    vector.
    """

    kind: str
    n: int = 0
    total: int = 0
    #: skew parameter: ``s`` for zipf, ``alpha`` for pareto, ``sigma`` for
    #: lognormal, ``rate`` for exponential (unused otherwise)
    skew: float = 1.0
    #: chain name for ``kind="chain"``
    chain: str = ""
    #: the vector itself for ``kind="explicit"``
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}; one of {WEIGHT_KINDS}")
        if self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit weights need a non-empty values tuple")
        elif self.kind == "chain":
            if not self.chain or self.n < 1:
                raise ValueError("chain weights need a chain name and n >= 1")
            if self.chain.lower() not in ALL_CHAINS:
                raise ValueError(
                    f"unknown chain {self.chain!r}; one of {sorted(ALL_CHAINS)}"
                )
        elif self.n < 1 or self.total < self.n:
            raise ValueError("generated weights need n >= 1 and total >= n")

    def materialize(self, seed: int) -> list[int]:
        """The concrete integer weight vector (deterministic in ``seed``)."""
        if self.kind == "explicit":
            return list(self.values)
        if self.kind == "chain":
            weights = load_chain(self.chain).weights
            if len(weights) < self.n:
                raise ValueError(
                    f"chain {self.chain!r} has {len(weights)} parties, fewer than n={self.n}"
                )
            return sorted(weights, reverse=True)[: self.n]
        generate, shape = _SYNTHETIC[self.kind]
        shaped = {shape: self.skew} if shape else {}
        return generate(self.n, self.total, seed=seed, **shaped)

    def describe(self) -> str:
        """One-line provenance recorded on the committees built from it."""
        if self.kind == "explicit":
            return f"inline[{len(self.values)}]"
        if self.kind == "chain":
            return f"chain:{self.chain}[top {self.n}]"
        return f"{self.kind}(n={self.n}, total={self.total}, skew={self.skew})"
