"""Tests for the validity checkers against the brute-force oracle."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    WeightQualification,
    WeightRestriction,
    WeightSeparation,
    brute_force_valid,
    is_valid_assignment,
    knapsack,
    make_checker,
)
from repro.core.types import TicketAssignment, normalize_weights
from repro.core.verify import Verdict


def wr_problems():
    return [
        WeightRestriction("1/4", "1/3"),
        WeightRestriction("1/3", "3/8"),
        WeightRestriction("1/3", "1/2"),
        WeightRestriction("2/3", "3/4"),
    ]


class TestRestrictionChecker:
    def test_zero_total_invalid(self):
        ws = normalize_weights([1, 1, 1])
        checker = make_checker(WeightRestriction("1/3", "1/2"), ws)
        assert checker.check([0, 0, 0]) is False

    def test_violation_target(self):
        ws = normalize_weights([1, 1, 1])
        checker = make_checker(WeightRestriction("1/3", "1/2"), ws)
        # alpha_n * T = 1.5 -> violating from 2 tickets up.
        assert checker.violation_target(3) == 2
        # alpha_n * T = 2 -> violating from 2 (strict inequality).
        assert checker.violation_target(4) == 2

    def test_known_valid(self):
        # Single giant party with > 2/3 of the weight: one ticket suffices.
        ws = normalize_weights([100, 1, 1])
        checker = make_checker(WeightRestriction("1/3", "1/2"), ws)
        assert checker.check([1, 0, 0]) is True

    def test_known_invalid(self):
        # Uniform weights, one party with all tickets: the singleton subset
        # holds 1/4 < 1/3 of weight but 100% of tickets.
        ws = normalize_weights([1, 1, 1, 1])
        checker = make_checker(WeightRestriction("1/3", "1/2"), ws)
        assert checker.check([1, 0, 0, 0]) is False

    def test_uniform_equal_tickets_valid(self):
        ws = normalize_weights([1] * 9)
        checker = make_checker(WeightRestriction("1/3", "1/2"), ws)
        assert checker.check([1] * 9) is True

    @settings(max_examples=80, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=9
        ).filter(any),
        tickets=st.data(),
        problem_idx=st.integers(min_value=0, max_value=3),
    )
    def test_property_matches_oracle(self, weights, tickets, problem_idx):
        problem = wr_problems()[problem_idx]
        ws = normalize_weights(weights)
        ts = tickets.draw(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=len(ws),
                max_size=len(ws),
            )
        )
        checker = make_checker(problem, ws)
        assert checker.check(ts) == brute_force_valid(problem, ws, ts)

    def test_quick_test_verdicts_are_sound(self):
        # Whenever quick() is decisive it must agree with the oracle.
        import random

        rng = random.Random(3)
        problem = WeightRestriction("1/3", "1/2")
        for _ in range(100):
            n = rng.randint(1, 8)
            weights = [rng.randint(0, 30) for _ in range(n)]
            if not any(weights):
                continue
            ws = normalize_weights(weights)
            ts = [rng.randint(0, 3) for _ in range(n)]
            if sum(ts) == 0:
                continue
            checker = make_checker(problem, ws)
            verdict = checker.quick(ts, sum(ts))
            truth = brute_force_valid(problem, ws, ts)
            if verdict is Verdict.VALID:
                assert truth is True
            elif verdict is Verdict.INVALID:
                assert truth is False

    def test_linear_mode_never_accepts_invalid(self):
        import random

        rng = random.Random(5)
        problem = WeightRestriction("1/3", "1/2")
        for _ in range(100):
            n = rng.randint(1, 8)
            weights = [rng.randint(0, 30) for _ in range(n)]
            if not any(weights):
                continue
            ws = normalize_weights(weights)
            ts = [rng.randint(0, 3) for _ in range(n)]
            checker = make_checker(problem, ws, linear_mode=True)
            if checker.check(ts):
                assert brute_force_valid(problem, ws, ts) is True


class TestQualificationViaReduction:
    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=9
        ).filter(any),
        data=st.data(),
    )
    def test_reduction_equals_direct_definition(self, weights, data):
        """Theorem 2.2: checking WQ via WR(1-bw, 1-bn) matches Problem 2."""
        problem = WeightQualification("2/3", "1/2")
        ws = normalize_weights(weights)
        ts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=len(ws),
                max_size=len(ws),
            )
        )
        checker = make_checker(problem, ws)
        assert checker.check(ts) == brute_force_valid(problem, ws, ts)


class TestSeparationChecker:
    def test_zero_total_invalid(self):
        ws = normalize_weights([1, 1])
        checker = make_checker(WeightSeparation("1/4", "1/3"), ws)
        assert checker.check([0, 0]) is False

    def test_uniform_equal_tickets(self):
        ws = normalize_weights([1] * 12)
        checker = make_checker(WeightSeparation("1/4", "1/3"), ws)
        # With equal tickets, sets below 3 units must out-ticket... low sets
        # have < 3 tickets, high sets have > 4: separated.
        assert checker.check([1] * 12) is True

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=8
        ).filter(any),
        data=st.data(),
    )
    def test_property_matches_oracle(self, weights, data):
        problem = WeightSeparation("1/3", "1/2")
        ws = normalize_weights(weights)
        ts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=len(ws),
                max_size=len(ws),
            )
        )
        checker = make_checker(problem, ws)
        assert checker.check(ts) == brute_force_valid(problem, ws, ts)


    @pytest.mark.parametrize("use_quick_test", [False, True])
    def test_table_width_follows_the_larger_capacity_not_the_second(
        self, use_quick_test
    ):
        """``alpha W`` and ``(1 - beta) W`` are not ordered.  Here
        ``alpha = 2/3 > 1 - beta = 1/4``: the LP bound is 1 ticket under
        the first capacity and 1/2 under the second, so a DP table clipped
        by the second would be 0 wide, read ``K = 0`` at both and call an
        assignment valid whose only holder sits below ``alpha W``."""
        problem = WeightSeparation("2/3", "3/4")
        ws = normalize_weights([1, 1])
        assert brute_force_valid(problem, ws, [1, 0]) is False
        checker = make_checker(problem, ws, use_quick_test=use_quick_test)
        assert checker.check([1, 0]) is False
        assert checker.check_sparse(np.array([0]), np.array([1]), 1) is False

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=8
        ).filter(any),
        data=st.data(),
        alpha=st.sampled_from(["1/4", "1/3", "1/2", "2/3"]),
        gap=st.sampled_from(["1/12", "1/4", "1/3"]),
    )
    def test_dp_alone_matches_oracle_at_any_capacity_order(
        self, weights, data, alpha, gap
    ):
        """Quick test off: the verdict is the table's, whichever of the
        two capacities is the larger."""
        beta = Fraction(alpha) + Fraction(gap)
        problem = WeightSeparation(alpha, min(beta, Fraction(99, 100)))
        ws = normalize_weights(weights)
        ts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=len(ws),
                max_size=len(ws),
            )
        )
        checker = make_checker(problem, ws, use_quick_test=False)
        assert checker.check(ts) == brute_force_valid(problem, ws, ts)


class TestRoundingLadder:
    """The DP's three rungs, quick test off so each probe reaches it: one
    rounded-down table settles whatever is a unit per holder clear of the
    capacity, a rounded-up table is built only inside that margin, and the
    exact DP only when the two roundings still disagree."""

    @staticmethod
    def _check(problem, weights, tickets):
        checker = make_checker(problem, weights, use_quick_test=False)
        with mock.patch.object(
            knapsack, "min_weight_table", wraps=knapsack.min_weight_table
        ) as builds:
            verdict = checker.check(tickets)
        assert verdict == brute_force_valid(problem, normalize_weights(weights), tickets)
        return verdict, builds.call_count, checker.stats.exact_fallbacks

    @pytest.mark.parametrize(
        "problem",
        [WeightRestriction("1/3", "1/2"), WeightSeparation("1/3", "1/2")],
        ids=["wr", "ws"],
    )
    def test_one_table_certifies_a_clear_violation(self, problem):
        # One party of four holds every ticket with a quarter of the weight.
        assert self._check(problem, [1, 1, 1, 1], [1, 0, 0, 0]) == (False, 1, 0)

    @pytest.mark.parametrize(
        "problem",
        [WeightRestriction("1/3", "1/2"), WeightSeparation("1/3", "1/2")],
        ids=["wr", "ws"],
    )
    def test_one_table_certifies_a_clear_pass(self, problem):
        assert self._check(problem, [1, 1, 1, 1], [1, 1, 1, 1]) == (True, 1, 0)

    @pytest.mark.parametrize(
        "problem",
        [WeightRestriction("1/3", "1/2"), WeightSeparation("1/3", "2/3")],
        ids=["wr", "ws"],
    )
    def test_a_holder_exactly_at_the_capacity_goes_to_the_exact_dp(self, problem):
        """``w_0 = W / 3`` is not *below* the capacity ``W / 3``, but
        ``2**40 / 3`` rounds down to a weight that fits and up to one
        that does not: both tables are built, they disagree, and the
        big-integer DP has the last word."""
        assert self._check(problem, [1, 1, 1], [1, 0, 0]) == (True, 2, 1)


class TestCheckStats:
    def test_stats_accumulate(self):
        ws = normalize_weights([3, 2, 1, 1])
        checker = make_checker(WeightRestriction("1/3", "1/2"), ws)
        checker.check([1, 1, 0, 0])
        checker.check([2, 1, 1, 0])
        assert checker.stats.checks == 2
        total_verdicts = (
            checker.stats.quick_valid
            + checker.stats.quick_invalid
            + checker.stats.quick_uncertain
        )
        assert total_verdicts == 2

    def test_merge(self):
        from repro.core import CheckStats

        a = CheckStats(checks=1, dp_calls=2)
        b = CheckStats(checks=3, quick_valid=1)
        a.merge(b)
        assert a.checks == 4
        assert a.dp_calls == 2
        assert a.quick_valid == 1

    def test_no_quick_test_goes_straight_to_dp(self):
        ws = normalize_weights([3, 2, 1, 1])
        checker = make_checker(
            WeightRestriction("1/3", "1/2"), ws, use_quick_test=False
        )
        checker.check([1, 1, 0, 0])
        assert checker.stats.quick_valid == 0
        assert checker.stats.quick_uncertain == 0
        assert checker.stats.dp_calls == 1


class TestMalformedAssignments:
    """A dense assignment has one non-negative count per party; anything
    else is refused, never judged on whatever holders it happens to have."""

    WEIGHTS = [5, 3, 2, 1]

    @pytest.mark.parametrize(
        "problem",
        [WeightRestriction("1/3", "1/2"), WeightSeparation("1/3", "1/2")],
        ids=["wr", "ws"],
    )
    @pytest.mark.parametrize(
        "tickets, message",
        [
            ([1, 1, 0], "equal length"),
            ([1, 1, 0, 0, 5], "equal length"),
            ([], "equal length"),
            ([1, -1, 1, 0], "#1 is negative"),
            ([0, 0, 0, -2], "#3 is negative"),
        ],
    )
    def test_check_and_quick_raise(self, problem, tickets, message):
        checker = make_checker(problem, self.WEIGHTS)
        with pytest.raises(ValueError, match=message):
            checker.check(tickets)
        with pytest.raises(ValueError, match=message):
            checker.quick(tickets, 3)
        with pytest.raises(ValueError, match=message):
            is_valid_assignment(problem, self.WEIGHTS, tickets)
        assert checker.stats.checks == 0

    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", True, None, np.float64(1.0), np.True_])
    def test_non_integral_counts_raise_type_error(self, bad):
        # A float count was truncated by the int64 conversion, and a bool
        # read as 1: both got judged as if they were integer counts.
        tickets = [1, 1, bad, 0]
        with pytest.raises(TypeError, match="ticket count #2 must be an integer"):
            TicketAssignment(tickets)
        for problem in (WeightRestriction("1/3", "1/2"), WeightSeparation("1/3", "1/2")):
            with pytest.raises(TypeError, match="ticket count #2 must be an integer"):
                is_valid_assignment(problem, self.WEIGHTS, tickets)

    def test_numpy_integer_counts_are_accepted(self):
        problem = WeightRestriction("1/3", "1/2")
        plain = is_valid_assignment(problem, self.WEIGHTS, [1, 1, 1, 0])
        for tickets in (
            [np.int64(1), np.int32(1), np.uint8(1), 0],
            np.array([1, 1, 1, 0]),
            np.array([1, 1, 1, 0], dtype=np.uint16),
        ):
            assert TicketAssignment(tickets).tickets == (1, 1, 1, 0)
            assert is_valid_assignment(problem, self.WEIGHTS, tickets) is plain

    @pytest.mark.parametrize("top", [2**63, 2**64 - 1, 2**70])
    @pytest.mark.parametrize("shape", [list, TicketAssignment])
    def test_counts_past_int64_raise_value_error(self, top, shape):
        # The greedy bounds and the DP are int64: such a count used to
        # escape numpy's conversion as a raw OverflowError.
        tickets = shape([1, top, 1, 0])
        for problem in (WeightRestriction("1/3", "1/2"), WeightSeparation("1/3", "1/2")):
            with pytest.raises(ValueError, match=r"#1 .*int64 limit, 2\*\*63 - 1"):
                is_valid_assignment(problem, self.WEIGHTS, tickets)
        # ... and so does a total past it, of counts that each fit.
        with pytest.raises(ValueError, match=r"ticket total is past .*int64 limit"):
            make_checker(WeightRestriction("1/3", "1/2"), self.WEIGHTS).check(
                shape([1, 2**63 - 1, 1, 0])
            )

    def test_well_formed_vectors_still_decide(self):
        checker = make_checker(WeightRestriction("1/3", "1/2"), self.WEIGHTS)
        assert checker.check([1, 1, 0, 0]) == brute_force_valid(
            WeightRestriction("1/3", "1/2"), normalize_weights(self.WEIGHTS), [1, 1, 0, 0]
        )
        assert checker.check((0, 0, 0, 0)) is False


class TestZeroWeightHolders:
    """A zero-weight party holding tickets fits under every positive
    capacity: the dense check must count it, on the quick test and on the
    DP alike."""

    @settings(max_examples=80, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 6), min_size=2, max_size=8).filter(
            lambda ws: any(ws) and not all(ws)
        ),
        data=st.data(),
        problem=st.sampled_from(
            [WeightRestriction("1/3", "1/2"), WeightSeparation("1/3", "1/2")]
        ),
        use_quick_test=st.booleans(),
    )
    def test_dense_check_matches_brute_force(self, weights, data, problem, use_quick_test):
        ws = normalize_weights(weights)
        zero = weights.index(0)
        ts = data.draw(st.lists(st.integers(0, 3), min_size=len(ws), max_size=len(ws)))
        ts[zero] = data.draw(st.integers(1, 3))
        checker = make_checker(problem, ws, use_quick_test=use_quick_test)
        assert checker.check(ts) == brute_force_valid(problem, ws, ts)

    def test_only_zero_weight_holders_are_invalid(self):
        checker = make_checker(WeightRestriction("1/3", "1/2"), [0, 4, 4])
        assert checker.quick([2, 0, 0], 2) is Verdict.INVALID
        assert checker.check([2, 0, 0]) is False
