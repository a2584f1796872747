"""The numpy tier's readings as they were computed before the folded table.

``max_profit_under_numpy`` is ``K(cap)`` before one table served both
capacities: a full-width table per capacity, read by a scan.
``min_weight_for_profit_numpy`` and ``max_profit_in`` read one
``min_weight_table`` over *every* item, the largest equal-profit group
included.  ``repro.core.knapsack.FoldedTable`` builds the table without
that group and folds it in at read time; ``test_knapsack.py`` holds its
readings to these functions and to the exact big-integer DP.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.knapsack import min_weight_table

_INT64_INF = np.int64(1) << np.int64(62)


def max_profit_under_numpy(
    weights64: np.ndarray, profits: Sequence[int], cap: int
) -> int:
    """Numpy counterpart of ``knapsack.max_profit_under`` (scaled units)."""
    if cap < 0:
        return 0
    total_profit = sum(t for t in profits if t > 0)
    if total_profit == 0:
        return 0
    dp = np.full(total_profit + 1, _INT64_INF, dtype=np.int64)
    dp[0] = 0
    shifted = np.empty_like(dp)
    for w, t in zip(weights64.tolist(), profits):
        if t <= 0:
            continue
        shifted[:t] = dp[0] + w
        shifted[t:] = dp[:-t] + w
        np.minimum(dp, shifted, out=dp)
    feasible = np.nonzero(dp <= np.int64(cap))[0]
    return int(feasible[-1]) if feasible.size else 0


def max_profit_in(table: np.ndarray, cap: int) -> int:
    """Largest ``p`` with ``table[p] <= cap``: the maximum profit of a
    subset of weight at most ``cap``, or the table's width if that is
    smaller; ``0`` for ``cap < 0``."""
    if cap < 0:
        return 0
    return int(np.searchsorted(table, cap, side="right")) - 1


def min_weight_for_profit_numpy(
    weights64: np.ndarray, profits: Sequence[int], target: int
) -> Optional[int]:
    """The last entry of the table of width ``target`` over every item, in
    the units of ``weights64``; ``None`` where no subset reaches it."""
    if target <= 0:
        return 0
    result = int(min_weight_table(weights64, profits, target)[target])
    return None if result >= int(_INT64_INF) else result
