"""Synthetic weight-distribution generators.

The paper's empirical section works on stake snapshots whose defining
feature is heavy skew: a few giants and a long tail of small holders.
These generators produce integer weight vectors with controllable skew,
normalized so the weights sum *exactly* to a requested total -- matching
the published aggregate ``W`` of each chain while remaining deterministic
for a fixed seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Sequence

__all__ = [
    "normalize_to_total",
    "pareto_weights",
    "lognormal_weights",
    "zipf_weights",
    "exponential_weights",
    "uniform_weights",
    "constant_weights",
    "mixture_weights",
]


def normalize_to_total(raw: Sequence[float], total: int) -> list[int]:
    """Scale positive reals to non-negative integers summing to ``total``.

    Uses largest-remainder rounding, then guarantees every party at least
    one unit when possible (stake snapshots never list zero balances).
    """
    if total < len(raw):
        raise ValueError("total must be at least the number of parties")
    if any(x < 0 for x in raw) or not any(raw):
        raise ValueError("raw weights must be non-negative, not all zero")
    # Exact scaling: float arithmetic loses integer precision at
    # chain-scale totals (Filecoin's W is 2.5e19), breaking the invariant
    # sum(weights) == total.  Each raw value is an exact ratio; over their
    # common denominator the shares are integers r_i with sum s, party i
    # is due r_i * total / s, and the remainders are compared as integers.
    ratios = [
        x.as_integer_ratio()
        if isinstance(x, (int, float))
        else Fraction(x).as_integer_ratio()  # numpy integers, Decimals, strings
        for x in raw
    ]
    denom = math.lcm(*(d for _, d in ratios))
    shares = [p * (denom // d) for p, d in ratios]
    s = sum(shares)
    floors, remainders = [], []
    for r in shares:
        whole, rest = divmod(r * total, s)
        floors.append(whole)
        remainders.append(rest)
    remainder = total - sum(floors)
    by_frac = sorted(range(len(raw)), key=remainders.__getitem__, reverse=True)
    for i in by_frac[:remainder]:
        floors[i] += 1
    # Lift zeros to one unit, taking units from the largest entries.
    zeros = [i for i, v in enumerate(floors) if v == 0]
    if zeros:
        donors = sorted(range(len(floors)), key=lambda i: -floors[i])
        d = 0
        for z in zeros:
            while floors[donors[d]] <= 1:
                d += 1
            floors[donors[d]] -= 1
            floors[z] = 1
    assert sum(floors) == total
    return floors


def pareto_weights(n: int, total: int, *, alpha: float = 1.2, seed: int = 0) -> list[int]:
    """Pareto(alpha) tail -- very heavy skew for small ``alpha``."""
    rng = random.Random(seed)
    raw = [rng.paretovariate(alpha) for _ in range(n)]
    return normalize_to_total(raw, total)


def lognormal_weights(
    n: int, total: int, *, sigma: float = 1.5, seed: int = 0
) -> list[int]:
    """Lognormal(0, sigma) -- moderate, validator-set-like skew."""
    rng = random.Random(seed)
    raw = [rng.lognormvariate(0.0, sigma) for _ in range(n)]
    return normalize_to_total(raw, total)


def zipf_weights(n: int, total: int, *, s: float = 1.0, seed: int = 0) -> list[int]:
    """Deterministic Zipf ranks ``1/k^s`` shuffled by ``seed``."""
    rng = random.Random(seed)
    raw = [1.0 / (k ** s) for k in range(1, n + 1)]
    rng.shuffle(raw)
    return normalize_to_total(raw, total)


def exponential_weights(
    n: int, total: int, *, rate: float = 1.0, seed: int = 0
) -> list[int]:
    """Exponential(rate) -- light tail, near-egalitarian."""
    rng = random.Random(seed)
    raw = [rng.expovariate(rate) for _ in range(n)]
    return normalize_to_total(raw, total)


def uniform_weights(n: int, total: int, *, seed: int = 0) -> list[int]:
    """Uniform(0, 1) raw weights."""
    rng = random.Random(seed)
    raw = [rng.random() for _ in range(n)]
    return normalize_to_total(raw, total)


def constant_weights(n: int, total: int) -> list[int]:
    """Perfectly egalitarian distribution (the nominal model in disguise)."""
    return normalize_to_total([1.0] * n, total)


def mixture_weights(
    n: int,
    total: int,
    components: Sequence[tuple[float, Callable[[random.Random], float]]],
    *,
    seed: int = 0,
) -> list[int]:
    """Mixture model: ``components`` is ``[(probability, sampler), ...]``.

    Used to model chains with distinct whale / mid / dust populations.
    """
    rng = random.Random(seed)
    probs = [p for p, _ in components]
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError("component probabilities must sum to 1")
    raw = []
    for _ in range(n):
        u = rng.random()
        acc = 0.0
        for p, sampler in components:
            acc += p
            if u <= acc:
                raw.append(sampler(rng))
                break
        else:
            raw.append(components[-1][1](rng))
    return normalize_to_total(raw, total)
