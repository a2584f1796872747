"""The solver-policy registry and its uniform result type."""

from fractions import Fraction

import pytest

from repro.api import (
    POLICIES,
    Committee,
    TicketAssignmentResult,
    get_policy,
    register_policy,
    solve_with_policy,
)
from repro.core import (
    ScaledWeights,
    Swiper,
    TicketAssignment,
    WeightRestriction,
    WeightSeparation,
    is_valid_assignment,
)

STAKE = (40, 25, 15, 10, 5, 3, 1, 1)
WR = WeightRestriction("1/3", "1/2")


class TestRegistry:
    def test_builtin_policies_present(self):
        assert {"swiper", "swiper-linear", "milp", "brute-force"} <= set(POLICIES)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown solver policy"):
            get_policy("simulated-annealing")

    def test_custom_policy_hook(self):
        # The `custom` hook: any callable returning a ticket sequence.
        def everyone_one(problem, weights):
            return [1] * len(tuple(weights))

        register_policy("everyone-one", everyone_one, description="test stub")
        try:
            result = Committee.from_weights(STAKE).solve(WR, "everyone-one")
            assert result.policy == "everyone-one"
            assert result.assignment.to_list() == [1] * len(STAKE)
            # n tickets spread over every party fails WR(1/3, 1/2) here,
            # and the uniform verdict must say so.
            assert result.verdict == (
                "valid" if is_valid_assignment(WR, STAKE, result.assignment) else "invalid"
            )
        finally:
            del POLICIES["everyone-one"]

    def test_custom_policy_receives_the_scaled_view_and_is_timed_with_it(self):
        seen = []

        def spy(problem, weights):
            seen.append((weights, Swiper().solve(problem, weights)))
            return seen[-1][1]

        register_policy("spy", spy)
        try:
            result = Committee.from_weights(STAKE).solve(WR, "spy")
        finally:
            del POLICIES["spy"]
        weights, inner = seen[0]
        assert isinstance(weights, ScaledWeights)
        assert list(weights) == [Fraction(w) for w in STAKE]
        # The wrapper's clock starts before the weights are scaled.
        assert result.elapsed_seconds >= inner.elapsed_seconds
        assert result.probes == inner.probes


class TestUniformResult:
    @pytest.mark.parametrize("policy", ["swiper", "swiper-linear", "milp", "brute-force"])
    def test_bound_achieved_verdict(self, policy):
        committee = Committee.from_weights(STAKE)
        result = committee.solve(WR, policy)
        assert isinstance(result, TicketAssignmentResult)
        assert result.verdict == "valid"
        assert result.achieved == result.assignment.total == result.total_tickets
        assert result.bound == WR.ticket_bound(committee.n)
        assert result.within_bound
        assert is_valid_assignment(WR, STAKE, result.assignment)

    def test_exact_policies_never_beat_by_swiper(self):
        committee = Committee.from_weights(STAKE)
        swiper = committee.solve(WR, "swiper")
        milp = committee.solve(WR, "milp")
        family = committee.solve(WR, "brute-force")
        assert milp.achieved <= family.achieved <= swiper.achieved

    def test_swiper_result_metadata_preserved(self):
        result = Committee.from_weights(STAKE).solve(WR, "swiper")
        assert result.probes is not None and result.probes >= 1
        assert result.elapsed_seconds >= 0

    def test_unverified_skips_the_checker(self):
        result = Committee.from_weights(STAKE).solve(WR, "swiper", verify=False)
        assert result.verdict == "unverified"

    def test_as_dict_is_json_ready(self):
        import json

        payload = Committee.from_weights(STAKE).solve(WR, "swiper").as_dict()
        json.dumps(payload)
        assert payload["policy"] == "swiper"
        assert payload["total_tickets"] <= payload["ticket_bound"]

    def test_ws_problems_supported(self):
        result = Committee.from_weights(STAKE).solve(WeightSeparation("1/3", "1/2"))
        assert result.verdict == "valid"

    def test_accepts_raw_weight_sequences(self):
        # solve_with_policy duck-types: anything with .weights, or a
        # plain sequence.
        direct = solve_with_policy(WR, STAKE, "swiper")
        via_committee = solve_with_policy(WR, Committee.from_weights(STAKE), "swiper")
        assert direct.assignment == via_committee.assignment
