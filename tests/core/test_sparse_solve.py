"""A solve stays sparse past the one scaling of the weights.

Three equivalences let it: an assignment packed from its holders is the
assignment packed from its dense vector (same counts, same typecodes,
same holders-or-dense form); a patched view's arrays are bitwise the
arrays a fresh build of its weights gives; and that fresh build, which
converts the ints once, is bitwise the two-conversion build it replaced
(``weight_arrays_oracle.py``).
"""

from array import array
from itertools import compress
from random import Random

import numpy as np
import pytest
import weight_arrays_oracle as oracle

from repro.api import Committee
from repro.core import Swiper, WeightQualification, WeightRestriction, WeightSeparation
from repro.core.prices import PriceStream
from repro.core.types import ScaledWeights, TicketAssignment, WeightArrays
from repro.datasets import load_chain

PROBLEMS = {
    "wr": WeightRestriction("1/3", "1/2"),
    "wq": WeightQualification("1/3", "1/4"),
    "ws": WeightSeparation("1/3", "1/2"),
}
LEDGER_CELLS = [(chain, problem) for chain in ("aptos", "tezos", "filecoin") for problem in PROBLEMS]
LEDGER_CELLS.append(("algorand", "wr"))


def _narrowest(top: int):
    return next((c for c in "BHIQ" if top >> 8 * array(c).itemsize == 0), None)


def packed_as_before(tickets: list[int]):
    """``(holders, packed)`` as ``TicketAssignment`` packed a dense list
    before it packed from holders."""
    code = _narrowest(max(tickets, default=0))
    if code is None:
        return None, tuple(tickets)
    holders = array(_narrowest(len(tickets)), compress(range(len(tickets)), tickets))
    size = array(code).itemsize
    if len(holders) * (holders.itemsize + size) < len(tickets) * size:
        return holders, array(code, [tickets[i] for i in holders])
    return None, array(code, tickets)


def assert_packed_as_before(t: TicketAssignment, tickets: list[int]) -> None:
    holders, packed = packed_as_before(tickets)
    assert type(t._packed) is type(packed) and t._packed == packed
    if isinstance(packed, array):
        assert t._packed.typecode == packed.typecode
    assert (t._holders is None) == (holders is None)
    if holders is not None:
        assert (t._holders.typecode, t._holders) == (holders.typecode, holders)


def random_vector(rng: np.random.Generator, n: int, share: float, top: int) -> list[int]:
    dense = np.zeros(n, dtype=np.int64)
    held = rng.random(n) < share
    dense[held] = rng.integers(1, top + 1, size=int(held.sum()))
    return dense.tolist()


class TestPackingFromHolders:
    @pytest.mark.parametrize("n", [1, 5, 300, 10_000])
    @pytest.mark.parametrize("top", [1, 255, 256, 70_000])
    def test_random_vectors_pack_as_their_dense_list(self, n, top):
        rng = np.random.default_rng([n, top])
        for share in (0.0, 0.002, 0.05, 0.5, 1.0):
            tickets = random_vector(rng, n, share, top)
            holders = np.flatnonzero(tickets)
            counts = np.asarray(tickets, dtype=np.int64)[holders]
            listed = TicketAssignment(tickets)
            assert_packed_as_before(listed, tickets)
            # np.unique's shapes (intp or C-int holders, int64 counts) and lists.
            for sparse in (
                TicketAssignment.from_holders(n, holders, counts),
                TicketAssignment.from_holders(n, holders.astype(np.intc), counts),
                TicketAssignment.from_holders(n, holders.tolist(), counts.tolist()),
            ):
                assert_packed_as_before(sparse, tickets)
                assert sparse == listed and sparse.tickets == tuple(tickets)

    @pytest.mark.parametrize("chain, problem", LEDGER_CELLS)
    def test_every_ledger_cell_packs_as_its_dense_vector(self, chain, problem):
        weights = load_chain(chain).weights
        result = Swiper().solve(PROBLEMS[problem], weights)
        effective = PROBLEMS[problem]
        if isinstance(effective, WeightQualification):
            effective = effective.to_restriction()
        dense = PriceStream(weights, effective.rounding_constant).assignment(
            result.total_tickets
        )
        assert_packed_as_before(result.assignment, dense)
        assert result.assignment == TicketAssignment(dense)

    @pytest.mark.parametrize(
        "tickets",
        [[], [0, 0, 0], [3, 0, 1, 0, 2], [0] * 500 + [7], [2**64 - 1, 0, 1], [2**70, 0, 1]],
    )
    def test_holders_round_trip(self, tickets):
        t = TicketAssignment(tickets)
        indices, counts = t.sparse_counts()
        assert indices.dtype == np.intp
        assert indices.tolist() == [i for i, c in enumerate(tickets) if c]
        assert counts.tolist() == [c for c in tickets if c]
        back = TicketAssignment.from_holders(len(tickets), indices, counts)
        assert back == t and back.tickets == tuple(tickets)
        assert_packed_as_before(back, tickets)

    def test_zeros_pack_as_before(self):
        for n in (0, 1, 300):
            assert_packed_as_before(TicketAssignment.zeros(n), [0] * n)


def assert_bitwise(got: WeightArrays, want: WeightArrays) -> None:
    assert (got.float_shift, got.limb_bits) == (want.float_shift, want.limb_bits)
    for name in ("logs", "floats", "limbs"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def layout(arrays: WeightArrays) -> tuple[int, int, int]:
    return arrays.float_shift, arrays.limb_bits, len(arrays.limbs)


def drift(ints: list[int], seed: int) -> list[dict[int, int]]:
    """Patches in the ledger's drift style (a seeded party gains 1/16 to
    1/4 of its stake), with joining parties and a weight that goes to 0
    and comes back among them."""
    rng = Random(seed)
    current = list(ints)
    steps = []

    def step(changes: dict[int, int]) -> None:
        for i, a in changes.items():
            if i < len(current):
                current[i] = a
            else:
                current.append(a)
        steps.append(changes)

    for k in range(12):
        i = rng.randrange(len(current))
        step({i: current[i] + max(1, current[i] // rng.randint(4, 16))})
        if k == 3:
            step({len(current): current[0] // 3})
        if k == 5:
            gone, before = 1, current[1]
            step({gone: 0, len(current): 1, len(current) + 1: current[2]})
        if k == 8:
            step({gone: before})
    return steps


class TestPatchedArrays:
    @pytest.mark.parametrize(
        "ints",
        [
            Committee.synthetic("zipf", n=2_000, total=1_000_000, skew=1.3, seed=42).weights,
            [(1 << 62) + 977 * i for i in range(40)],  # 31-bit limbs
            [(1 << 1005) + 31 * i for i in range(12)],  # float-shifted
        ],
        ids=["int64", "limbs31", "shifted"],
    )
    def test_patched_arrays_equal_a_fresh_build_bitwise(self, ints):
        view = ScaledWeights(ints)
        view.arrays
        patched = 0
        for changes in drift(list(ints), seed=len(ints)):
            base, view = view, view.patched(changes)
            fresh = WeightArrays.of(view.ints, view.total)
            if layout(fresh) == layout(base.arrays):
                assert view._arrays is not None
                assert_bitwise(view._arrays, fresh)
                patched += 1
            else:
                assert view._arrays is None
            assert_bitwise(view.arrays, fresh)
        assert patched >= 12

    def test_a_total_crossing_int64_rebuilds_on_first_use(self):
        view = ScaledWeights([1 << 61, 1 << 61, 1 << 61, 5])
        assert view.arrays.limb_bits == 63
        crossed = view.patched({3: 1 << 61})
        assert crossed.total >> 63 == 1 and crossed._arrays is None
        assert crossed.arrays.limb_bits == 31
        assert_bitwise(crossed.arrays, oracle.weight_arrays(crossed.ints, crossed.total))

    def test_a_base_without_arrays_patches_none(self):
        view = ScaledWeights([5, 3, 2])
        assert view.patched({0: 4})._arrays is None


@pytest.mark.parametrize("chain", ["aptos", "tezos", "filecoin", "algorand", "zipf-10000"])
def test_one_conversion_equals_the_two_conversion_oracle(chain):
    if chain == "zipf-10000":
        weights = Committee.synthetic("zipf", n=10_000, total=10**12, skew=1.1, seed=7).weights
    else:
        weights = load_chain(chain).weights
    view = ScaledWeights(weights)
    assert_bitwise(view.arrays, oracle.weight_arrays(view.ints, view.total))
