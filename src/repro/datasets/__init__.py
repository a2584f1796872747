"""Weight-distribution datasets: the :class:`WeightSpec` recipe, synthetic
generators, calibrated chain snapshots, and the bootstrap harness
(paper, Section 7)."""

from .bootstrap import BootstrapResult, bootstrap_average, resample
from .chains import ALL_CHAINS, ChainSnapshot, algorand, aptos, filecoin, load_chain, tezos
from .synthetic import (
    constant_weights,
    exponential_weights,
    lognormal_weights,
    mixture_weights,
    normalize_to_total,
    pareto_weights,
    uniform_weights,
    zipf_weights,
)
from .weights import SYNTHETIC_KINDS, WEIGHT_KINDS, WeightSpec

__all__ = [
    "WeightSpec",
    "SYNTHETIC_KINDS",
    "WEIGHT_KINDS",
    "ChainSnapshot",
    "ALL_CHAINS",
    "load_chain",
    "aptos",
    "tezos",
    "filecoin",
    "algorand",
    "BootstrapResult",
    "bootstrap_average",
    "resample",
    "normalize_to_total",
    "pareto_weights",
    "lognormal_weights",
    "zipf_weights",
    "exponential_weights",
    "uniform_weights",
    "constant_weights",
    "mixture_weights",
]
