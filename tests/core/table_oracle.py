"""The numpy tier's ``K(cap)`` as it was computed before one table served
both capacities: a full-width table per capacity, read by a scan.

``repro.core.knapsack`` now builds the table once per rounding, no wider
than the probe's LP bound, and reads each capacity off it
(``min_weight_table`` + ``max_profit_in``); ``test_knapsack.py`` holds
that pair to this function and to the exact ``max_profit_under``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
