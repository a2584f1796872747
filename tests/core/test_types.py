"""Unit tests for :mod:`repro.core.types`."""

import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest

from repro.core import Swiper, WeightQualification, WeightRestriction, WeightSeparation
from repro.core.types import (
    SCALE_BITS,
    ScaledWeights,
    TicketAssignment,
    as_fraction,
    normalize_weights,
    scale_ints_rounded,
    weight_of,
)


class TestAsFraction:
    def test_int(self):
        assert as_fraction(7) == Fraction(7)

    def test_fraction_passthrough(self):
        f = Fraction(2, 3)
        assert as_fraction(f) is f

    def test_string_ratio(self):
        assert as_fraction("1/3") == Fraction(1, 3)

    def test_string_decimal(self):
        assert as_fraction("0.25") == Fraction(1, 4)

    def test_float_exact(self):
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_float_binary_expansion_is_exact(self):
        # 0.1 is not representable; conversion must be the exact binary value.
        assert as_fraction(0.1) == Fraction(0.1)
        assert as_fraction(0.1) != Fraction(1, 10)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(True)

    @pytest.mark.parametrize("value", [np.int64(7), np.int32(7), np.uint8(7)])
    def test_numpy_integers(self, value):
        assert as_fraction(value) == Fraction(7)
        assert type(as_fraction(value).numerator) is int

    @pytest.mark.parametrize("value", [True, np.True_])
    def test_bools_stay_rejected(self, value):
        with pytest.raises(TypeError):
            as_fraction(value)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("inf"))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(object())


class TestNormalizeWeights:
    def test_mixed_types(self):
        ws = normalize_weights([1, "1/2", 0.25, Fraction(3)])
        assert ws == (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights([1, -1])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            normalize_weights([0, 0, 0])

    def test_some_zeros_allowed(self):
        ws = normalize_weights([0, 1, 0])
        assert sum(ws) == 1


class TestScaledWeights:
    def test_integer_vector_is_its_own_scaling(self):
        view = ScaledWeights((5, 0, 3))
        assert (view.ints, view.denom, view.total) == ([5, 0, 3], 1, 8)
        assert tuple(view) == (Fraction(5), Fraction(0), Fraction(3))

    def test_mixed_inputs_share_one_denominator(self):
        view = ScaledWeights([1, "1/2", 0.25, Fraction(2, 3)])
        assert view.denom == 12
        assert view.ints == [12, 6, 3, 8]
        assert view.total == 29
        assert view.fractions == normalize_weights([1, "1/2", 0.25, Fraction(2, 3)])
        assert len(view) == 4 and view[3] == Fraction(2, 3)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_integer_arrays_take_the_int_path(self, dtype):
        view = ScaledWeights(np.array([5, 0, 3], dtype=dtype))
        assert (view.ints, view.denom, view.total) == ([5, 0, 3], 1, 8)
        assert all(type(a) is int for a in view.ints)
        assert view == ScaledWeights([5, 0, 3])

    def test_shift_covers_the_square_of_the_heaviest_weight(self):
        view = ScaledWeights([3, 2**70 + 1, 9])
        assert 2**view.shift >= max(view.ints) ** 2

    def test_of_passes_a_view_through(self):
        view = ScaledWeights([1, 2])
        assert ScaledWeights.of(view) is view
        assert ScaledWeights.of([1, 2]) == view
        assert ScaledWeights.of([2, 4]) != view

    @pytest.mark.parametrize(
        "bad",
        [[], [1, -1], [0, 0], [True, 1], [Fraction(-1, 2), 1], np.array([3, -1]), np.array([0, 0])],
    )
    def test_rejects_what_normalize_weights_rejects(self, bad):
        with pytest.raises((ValueError, TypeError)):
            ScaledWeights(bad)

    def test_patched_changes_and_appends(self):
        view = ScaledWeights([Fraction(1, 2), 3, 1])
        new = view.patched({1: 5, 3: Fraction(3, 2)})
        assert (new.ints, new.denom, new.total) == ([1, 10, 2, 3], 2, 16)
        assert new.shift == view.shift
        assert new == ScaledWeights([Fraction(1, 2), 5, 1, Fraction(3, 2)])
        assert view.ints == [1, 6, 2]  # the base is untouched

    def test_equality_is_of_the_weights_not_of_their_scaling(self):
        # A patched view keeps its base's denominator (30), a fresh view of
        # the same weights finds the least one (10).
        patched = ScaledWeights(
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
        ).patched({1: Fraction(1, 2)})
        fresh = ScaledWeights([Fraction(1, 2), Fraction(1, 2), Fraction(1, 5)])
        assert (patched.denom, fresh.denom) == (30, 10)
        assert patched == fresh and fresh == patched
        assert patched != ScaledWeights([Fraction(1, 2), Fraction(1, 2), Fraction(2, 5)])
        assert patched != ScaledWeights([Fraction(1, 2), Fraction(1, 2)])

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({0: Fraction(1, 3)}, "denominator"),
            ({0: 1 << 40}, "precision"),
            ({0: -1}, "negative"),
            ({5: 1}, "contiguously"),
            ({0: 0, 1: 0, 2: 0}, "non-zero"),
        ],
    )
    def test_patched_refuses_what_it_cannot_keep_exact(self, changes, message):
        with pytest.raises(ValueError, match=message):
            ScaledWeights([4, 2, 1]).patched(changes)

    def test_rounded_scalings_bracket_the_exact_value(self):
        view = ScaledWeights([Fraction(1, 3), Fraction(2, 3), 1, 0])
        down, up = (
            scale_ints_rounded(view.ints, 1 << SCALE_BITS, view.total, round_up=round_up)
            for round_up in (False, True)
        )
        scale = Fraction(1 << SCALE_BITS) / sum(view)
        for i, w in enumerate(view):
            assert down[i] <= w * scale <= up[i]
            assert up[i] - down[i] <= 1


class TestWeightArrays:
    """The view's numpy forms: exact limbs, monotone floats, logs."""

    @pytest.mark.parametrize(
        "weights, limb_bits",
        [
            ([5, 0, 3, 1 << 40], 63),
            ([(1 << 62) + 1, 3, 0, (1 << 62) - 1], 31),  # the total overflows int64
            ([10**400, 7, 0, 3 * 10**399], 31),  # past the float range
            ([Fraction(1, 10**400), Fraction(2, 3), 0], 31),
        ],
    )
    def test_limbs_are_exact_and_floats_order(self, weights, limb_bits):
        view = ScaledWeights(weights)
        arrays = view.arrays
        assert arrays is view.arrays  # built once per view
        assert arrays.limb_bits == limb_bits
        rebuilt = [
            sum(int(v) << (limb_bits * l) for l, v in enumerate(column))
            for column in arrays.limbs.T.tolist()
        ]
        assert rebuilt == view.ints
        assert float(view.total >> arrays.float_shift) < float("inf")
        shifted = [float(a >> arrays.float_shift) for a in view.ints]
        assert arrays.floats.tolist() == shifted
        assert [x == -np.inf for x in arrays.logs.tolist()] == [a == 0 for a in view.ints]
        for a, log in zip(view.ints, arrays.logs.tolist()):
            if a:
                assert log == pytest.approx(math.log(a), rel=1e-12)

    @pytest.mark.parametrize(
        "changes",
        [
            {1: 9},
            {0: 0, 3: 2},
            {4: 7, 5: 0},  # joining parties
            {2: 1 << 62},  # the total outgrows int64: another layout
        ],
    )
    def test_a_patched_view_has_the_arrays_of_a_fresh_one(self, changes):
        base = ScaledWeights([5, 0, 3, (1 << 62) - 1])
        assert base.arrays.limb_bits == 63
        patched = base.patched(changes)
        fresh = ScaledWeights(patched.ints).arrays
        for got, want in zip(patched.arrays, fresh):
            assert np.array_equal(got, want)


class TestTicketAssignment:
    def test_basic_metrics(self):
        t = TicketAssignment((3, 0, 1, 0, 2))
        assert t.total == 6
        assert t.max_tickets == 3
        assert t.holders == 3
        assert t.support == (0, 2, 4)
        assert len(t) == 5
        assert list(t) == [3, 0, 1, 0, 2]
        assert t[0] == 3

    def test_subset_total(self):
        t = TicketAssignment((3, 0, 1, 0, 2))
        assert t.subset_total([0, 4]) == 5
        assert t.subset_total([]) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TicketAssignment((1, -1))

    def test_zeros_constructor(self):
        t = TicketAssignment.zeros(4)
        assert t.total == 0
        assert t.holders == 0
        assert len(t) == 4

    def test_to_list_is_copy(self):
        t = TicketAssignment((1, 2))
        lst = t.to_list()
        lst[0] = 99
        assert t[0] == 1

    def test_value_equality(self):
        assert TicketAssignment((1, 2)) == TicketAssignment((1, 2))
        assert TicketAssignment((1, 2)) != TicketAssignment((2, 1))

    @pytest.mark.parametrize("top", [0, 255, 256, 2**16, 2**32, 2**64 - 1, 2**64, 2**300])
    def test_packed_counts_read_back_as_ints(self, top):
        counts = (top, 0, 1)
        t = TicketAssignment(counts)
        assert t.tickets == counts and tuple(t) == counts and t.to_list() == list(counts)
        assert all(type(x) is int for x in t)
        assert (t[0], t[-1], t[0:2]) == (top, 1, counts[0:2])
        assert (t.total, t.max_tickets, t.holders) == (top + 1, max(top, 1), 2 if top else 1)
        assert t == TicketAssignment(list(counts)) and hash(t) == hash(TicketAssignment(counts))
        assert t != TicketAssignment((top, 0, 2)) and t != counts
        assert repr(t) == f"TicketAssignment(tickets={counts})"
        assert pickle.loads(pickle.dumps(t)) == t

    def test_any_iterable_of_integer_likes(self):
        assert TicketAssignment(iter([1, 2])).tickets == (1, 2)
        assert TicketAssignment(tickets=np.array([3, 0])).tickets == (3, 0)
        t = TicketAssignment([np.int64(1), np.uint8(2)])
        assert t.tickets == (1, 2) and all(type(x) is int for x in t)
        assert TicketAssignment(()).tickets == () and TicketAssignment(()).max_tickets == 0

    def test_immutable(self):
        with pytest.raises(AttributeError):
            TicketAssignment((1, 2)).tickets = (3, 4)

    def test_a_kept_result_costs_a_byte_a_party(self):
        # Results outlive solves (one per epoch, per round of an
        # experiment): n = 42 920 zeros and ones must not cost 8 n bytes.
        t = TicketAssignment([0, 1] * 21_460)
        assert sys.getsizeof(t._packed) < 2 * len(t)

    def test_few_holders_among_many_keep_only_the_holders(self):
        # Algorand's shape: ~97 holders among 42 920 parties reads back
        # like the dense vector but keeps a few hundred bytes, not 42 920.
        counts = [0] * 42_920
        for k, i in enumerate(range(7, 42_920, 443)):
            counts[i] = 1 + k % 3
        t = TicketAssignment(counts)
        assert sys.getsizeof(t._packed) + sys.getsizeof(t._holders) < 1_000
        assert t.tickets == tuple(counts) and list(t) == counts and t.to_list() == counts
        assert len(t) == len(counts)
        for i in (0, 7, 8, 450, 42_919, -1, -42_920):
            assert t[i] == counts[i]
        with pytest.raises(IndexError):
            t[42_920]
        assert t[5:460] == tuple(counts[5:460])
        assert (t.total, t.max_tickets, t.holders) == (
            sum(counts), max(counts), sum(1 for c in counts if c)
        )
        assert t.support == tuple(i for i, c in enumerate(counts) if c)
        assert t.subset_total([7, 8, 450]) == counts[7] + counts[450]
        assert t == TicketAssignment(tuple(counts)) and hash(t) == hash(tuple(counts))
        assert t != TicketAssignment(counts + [0])
        assert pickle.loads(pickle.dumps(t)) == t
        assert TicketAssignment.zeros(10_000).tickets == (0,) * 10_000


def test_weight_of():
    ws = normalize_weights([1, 2, 3])
    assert weight_of(ws, [0, 2]) == 4
    assert weight_of(ws, []) == 0


class TestNumpyWeightsSolve:
    """Integer arrays and lists of numpy integers solve to the same tickets
    as the plain-int vector."""

    WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1, 0, 7]

    @pytest.mark.parametrize(
        "problem",
        [WeightRestriction("1/3", "1/2"), WeightQualification("1/3", "1/4"), WeightSeparation("1/3", "1/2")],
    )
    @pytest.mark.parametrize(
        "as_numpy",
        [np.array, lambda ws: np.array(ws, dtype=np.int32), lambda ws: [np.int64(w) for w in ws]],
    )
    def test_tickets_equal_the_plain_int_solve(self, problem, as_numpy):
        expected = Swiper().solve(problem, self.WEIGHTS).assignment
        assert Swiper().solve(problem, as_numpy(self.WEIGHTS)).assignment == expected
