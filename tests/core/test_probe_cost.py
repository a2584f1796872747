"""What a probe may cost, as assertions on the ledger's own cells.

``solve-chains`` times ten cold solves on chain snapshots.  These tests
run the same ten and hold the counts the timings rest on: the binary
search examines the same family members it always did (the family is not
monotone -- a different probe sequence can end on a different local
minimum), each settled on the same rung of the verdict ladder, every probe is judged on its holders and never on a dense
``n``-vector, a probe the quick test leaves uncertain builds one DP table
however many capacities read it (a second only at the edge of the
rounding), and none of it depends on the quick test having run.  Nor
is a dense ``n``-vector built around the probes: the assignment returned
is packed from its holders, and a re-check reads them back.
"""

from unittest import mock

import pytest

from repro.core import (
    Swiper,
    WeightQualification,
    WeightRestriction,
    WeightSeparation,
    knapsack,
)
from repro.api import IncrementalSolver, solve_with_policy
from repro.core.prices import PriceStream
from repro.core.types import TicketAssignment
from repro.core.verify import SeparationChecker
from repro.datasets import load_chain

PROBLEMS = {
    "wr": WeightRestriction("1/3", "1/2"),
    "wq": WeightQualification("1/3", "1/4"),
    "ws": WeightSeparation("1/3", "1/2"),
}

#: (chain, problem) -> (family members examined, tickets of the answer)
LEDGER_CELLS = {
    ("aptos", "wr"): (7, 63),
    ("aptos", "wq"): (9, 139),
    ("aptos", "ws"): (9, 156),
    ("tezos", "wr"): (9, 125),
    ("tezos", "wq"): (10, 439),
    ("tezos", "ws"): (10, 409),
    ("filecoin", "wr"): (12, 1683),
    ("filecoin", "wq"): (14, 6811),
    ("filecoin", "ws"): (13, 6553),
    ("algorand", "wr"): (16, 97),
}

#: (chain, problem) -> the verdict ladder of its solve: (checks,
#: quick_valid, quick_invalid, quick_uncertain, dp_calls, exact_fallbacks)
VERDICT_LADDER = {
    ("aptos", "wr"): (7, 3, 4, 0, 0, 0),
    ("aptos", "wq"): (9, 1, 8, 0, 0, 0),
    ("aptos", "ws"): (9, 2, 6, 1, 1, 0),
    ("tezos", "wr"): (9, 3, 6, 0, 0, 0),
    ("tezos", "wq"): (10, 4, 6, 0, 0, 0),
    ("tezos", "ws"): (10, 5, 4, 1, 1, 0),
    ("filecoin", "wr"): (12, 5, 5, 2, 2, 0),
    ("filecoin", "wq"): (14, 6, 8, 0, 0, 0),
    ("filecoin", "ws"): (13, 9, 1, 3, 3, 0),
    ("algorand", "wr"): (16, 10, 3, 3, 3, 0),
}


@pytest.mark.parametrize("chain, problem", LEDGER_CELLS)
def test_ledger_cells_examine_the_same_family_members(chain, problem):
    """Same probes, same answer, and no dense ``n``-vector of picks: the
    assignment returned is packed from the stream's holders (algorand:
    42 920 parties, 16 probes of under a hundred holders each)."""
    weights = load_chain(chain).weights
    with mock.patch.object(
        PriceStream, "assignment", autospec=True, side_effect=PriceStream.assignment
    ) as dense:
        result = Swiper().solve(PROBLEMS[problem], weights)
    assert (result.probes, result.total_tickets) == LEDGER_CELLS[chain, problem]
    assert dense.call_count == 0
    assert len(result.assignment) == len(weights)
    # Each probe is settled on the same rung as ever: the quick test's
    # verdicts, the DP calls and the (absent) exact fallbacks.
    stats = result.stats
    assert (
        stats.checks,
        stats.quick_valid,
        stats.quick_invalid,
        stats.quick_uncertain,
        stats.dp_calls,
        stats.exact_fallbacks,
    ) == VERDICT_LADDER[chain, problem]


def test_filecoin_ws_builds_at_most_two_tables_per_dp_probe():
    """One table serves both capacities, and a second (rounded up) is
    built only for a probe within a unit per holder of a capacity: none
    on this snapshot."""
    builds = mock.Mock(wraps=knapsack.min_weight_table)
    per_probe = []
    full = SeparationChecker._full

    def counted_full(self, *args):
        before = builds.call_count
        verdict = full(self, *args)
        per_probe.append(builds.call_count - before)
        return verdict

    with mock.patch.object(knapsack, "min_weight_table", builds), mock.patch.object(
        SeparationChecker, "_full", counted_full
    ):
        result = Swiper().solve(PROBLEMS["ws"], load_chain("filecoin").weights)
    assert len(per_probe) == result.stats.dp_calls > 0
    assert result.stats.exact_fallbacks == 0
    assert all(1 <= count <= 2 for count in per_probe), per_probe
    assert per_probe.count(2) == 0
    # ... each clipped at its probe's LP bound, well short of its tickets.
    widths = [call.args[2] for call in builds.call_args_list]
    assert max(widths) < result.total_tickets


@pytest.mark.parametrize("problem", PROBLEMS)
def test_dp_verdicts_do_not_depend_on_the_quick_test(problem):
    """With the quick test off every probe goes to the DP, which must then
    find its own table width: same probes, same assignment."""
    weights = load_chain("tezos").weights
    with_quick = Swiper().solve(PROBLEMS[problem], weights)
    without = Swiper(use_quick_test=False).solve(PROBLEMS[problem], weights)
    assert without.assignment == with_quick.assignment
    assert without.probes == with_quick.probes
    assert without.stats.dp_calls == without.probes >= with_quick.stats.dp_calls


def _no_dense_expansion():
    """Fails a test that expands a :class:`TicketAssignment` party by party."""
    return mock.patch.multiple(
        TicketAssignment,
        _dense=mock.Mock(side_effect=AssertionError("dense expansion")),
        __iter__=mock.Mock(side_effect=AssertionError("dense iteration")),
    )


def test_a_verified_algorand_solve_expands_no_assignment():
    """The re-check of ``verify=True`` reads the result's holders."""
    weights = load_chain("algorand").weights
    with mock.patch.object(
        PriceStream, "assignment", autospec=True, side_effect=PriceStream.assignment
    ) as dense, _no_dense_expansion():
        result = solve_with_policy(PROBLEMS["wr"], weights, "swiper", verify=True)
    assert (result.verdict, result.achieved) == ("valid", LEDGER_CELLS["algorand", "wr"][1])
    assert dense.call_count == 0


def test_a_patched_re_solve_expands_no_assignment():
    """An incremental re-solve on a patched stream, verified, builds no
    dense vector either: not of picks, not of its result."""
    weights = list(load_chain("algorand").weights)
    solver = IncrementalSolver(PROBLEMS["wr"], verify=True)
    first = solver.solve(weights)
    weights[3] += 1_000
    weights.append(5)
    with mock.patch.object(
        PriceStream, "assignment", autospec=True, side_effect=PriceStream.assignment
    ) as dense, _no_dense_expansion():
        result = solver.solve(weights)
    assert solver.last_mode == "incremental"
    assert result.verdict == first.verdict == "valid"
    assert dense.call_count == 0
