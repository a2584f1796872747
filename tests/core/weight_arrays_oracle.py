"""The two-conversion build of :class:`repro.core.types.WeightArrays`.

``WeightArrays.of`` once converted the ints twice when the total fits
``int64``: to floats (their logs taken from those) and, separately, to the
one ``int64`` limb row.  It now converts once, to the limb row, and casts
the floats from it.  This is the old body, kept as the oracle the new one
must equal bitwise.
"""

import math

import numpy as np

from repro.core.types import WeightArrays

_LIMB_BITS = 31


def weight_arrays(ints: list[int], total: int) -> WeightArrays:
    """The arrays of weights ``ints`` that sum to ``total``, two conversions."""
    shift = max(0, total.bit_length() - 1000)
    if shift:
        floats = np.array([a >> shift for a in ints], dtype=np.float64)
        logs = np.array([math.log(a) if a else -math.inf for a in ints])
    else:
        floats = np.array(ints, dtype=np.float64)
        logs = np.log(floats, out=np.full(len(ints), -math.inf), where=floats > 0)
    if total >> 63 == 0:
        return WeightArrays(logs, floats, shift, np.array([ints], dtype=np.int64), 63)
    exact = np.array(ints, dtype=object)
    count = -(-total.bit_length() // _LIMB_BITS)
    limbs = np.array(
        [(exact >> (_LIMB_BITS * l)) & ((1 << _LIMB_BITS) - 1) for l in range(count)],
        dtype=np.int64,
    )
    return WeightArrays(logs, floats, shift, limbs, _LIMB_BITS)
