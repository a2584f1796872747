"""IncrementalSolver: the fast path must be invisible in the output.

Oracle property: for any small stake delta, solving on the patched
price stream yields ticket-for-ticket the same assignment (and the same
probe sequence) as a cold solve of the new weights.  The fast path is an
optimization, never an approximation.
"""

import random

import numpy as np
import pytest

from repro.api import Committee, IncrementalSolver, solve_with_policy
from repro.core import WeightRestriction

PROBLEM = WeightRestriction("1/3", "1/2")


def _zipf_weights(n, seed=7):
    return tuple(Committee.synthetic("zipf", n=n, total=n * 100, skew=1.2, seed=seed).int_weights)


def _cold(ws):
    solver = IncrementalSolver(PROBLEM)
    result = solver.solve(ws)
    assert solver.last_mode == "cold"
    return result


class TestOracleEquality:
    def test_single_party_deltas_match_cold_solve(self):
        base = _zipf_weights(160)
        rng = random.Random(13)
        mismatches = 0
        for _ in range(20):
            i = rng.randrange(len(base))
            bump = rng.choice([-1, 1]) * max(1, base[i] // 10)
            ws = list(base)
            ws[i] = max(1, ws[i] + bump)
            ws = tuple(ws)

            solver = IncrementalSolver(PROBLEM)
            solver.solve(base)
            inc = solver.solve(ws)
            assert solver.last_mode == "incremental"
            assert solver.last_changed == (1 if ws != base else 0)
            assert solver.incremental_hits == 1

            cold = _cold(ws)
            if (
                inc.assignment.tickets != cold.assignment.tickets
                or inc.achieved != cold.achieved
                or inc.probes != cold.probes
            ):
                mismatches += 1
        assert mismatches == 0

    def test_matches_the_registry_swiper_policy(self):
        base = _zipf_weights(60)
        ws = (base[0] + 5, *base[1:])
        solver = IncrementalSolver(PROBLEM)
        solver.solve(base)
        inc = solver.solve(ws)
        assert solver.last_mode == "incremental"
        oracle = solve_with_policy(PROBLEM, Committee.from_weights(ws), "swiper")
        assert inc.assignment.tickets == oracle.assignment.tickets
        assert inc.achieved == oracle.achieved

    def test_numpy_weights_equal_the_plain_int_solves(self):
        base = list(_zipf_weights(60))
        drifted = [base[0] + 5, *base[1:]]
        expected = [_cold(base).assignment, _cold(drifted).assignment]
        for as_numpy in (np.array, lambda ws: [np.int64(w) for w in ws]):
            solver = IncrementalSolver(PROBLEM)
            assert solver.solve(as_numpy(base)).assignment == expected[0]
            assert solver.solve(as_numpy(drifted)).assignment == expected[1]
            assert solver.last_mode == "incremental"

    def test_chained_drifts_stay_equal(self):
        ws = list(_zipf_weights(80))
        solver = IncrementalSolver(PROBLEM)
        solver.solve(tuple(ws))
        for step in range(6):
            i = step % len(ws)
            ws[i] += max(1, ws[i] // 8)
            inc = solver.solve(tuple(ws))
            assert solver.last_mode == "incremental"
            cold = _cold(tuple(ws))
            assert inc.assignment.tickets == cold.assignment.tickets
            assert inc.probes == cold.probes
        assert solver.incremental_hits == 6

    def test_patch_chain_cap_compacts_and_stays_oracle_equal(self):
        """Regression: the patched-stream chain is capped at _MAX_CHAIN.

        A service that rotates many times would otherwise stack one
        _PatchedPriceStream per epoch, and every extension would walk the
        whole tower.  Past the cap the cached stream is flattened to a
        plain (chain-0) stream -- equivalent to a cold rebuild of the
        price stream -- and the next drifts start a fresh chain.  The
        flattening must be invisible: every solve along a long drift
        chain stays ticket-for-ticket equal to a cold solve.
        """
        cap = IncrementalSolver._MAX_CHAIN
        ws = list(_zipf_weights(80))
        solver = IncrementalSolver(PROBLEM)
        solver.solve(tuple(ws))
        chains = []
        for step in range(2 * cap + 2):
            i = step % len(ws)
            ws[i] += max(1, ws[i] // 8)
            inc = solver.solve(tuple(ws))
            assert solver.last_mode == "incremental"
            chains.append(solver._stream._chain)
            cold = _cold(tuple(ws))
            assert inc.assignment.tickets == cold.assignment.tickets
            assert inc.achieved == cold.achieved
            assert inc.probes == cold.probes
        # The cached chain never reaches the cap (a chain that grows to
        # _MAX_CHAIN is compacted before being cached) ...
        assert max(chains) == cap - 1
        # ... and the flattening actually happened: after the cap the
        # cached stream is a plain chain-0 one -- the cold-rebuilt
        # stream -- rather than a tower that grows without bound.
        assert 0 in chains[1:]
        assert solver.incremental_hits == 2 * cap + 2


class TestFallbacks:
    def test_first_solve_is_cold(self):
        solver = IncrementalSolver(PROBLEM)
        solver.solve(_zipf_weights(20))
        assert solver.last_mode == "cold"
        assert solver.incremental_hits == 0

    def test_large_delta_falls_back_to_cold(self):
        base = _zipf_weights(40)
        solver = IncrementalSolver(PROBLEM, max_delta=4)
        solver.solve(base)
        ws = tuple(w + 1 for w in base)  # every party changed
        result = solver.solve(ws)
        assert solver.last_mode == "cold"
        assert result.assignment.tickets == _cold(ws).assignment.tickets

    def test_shrinking_committee_falls_back_to_cold(self):
        base = _zipf_weights(40)
        solver = IncrementalSolver(PROBLEM)
        solver.solve(base)
        solver.solve(base[:-1])
        assert solver.last_mode == "cold"

    def test_joining_party_is_incremental(self):
        base = _zipf_weights(40)
        solver = IncrementalSolver(PROBLEM)
        solver.solve(base)
        ws = (*base, 50)
        inc = solver.solve(ws)
        assert solver.last_mode == "incremental"
        assert inc.assignment.tickets == _cold(ws).assignment.tickets

    def test_unchanged_weights_reuse_the_stream(self):
        base = _zipf_weights(40)
        solver = IncrementalSolver(PROBLEM)
        first = solver.solve(base)
        again = solver.solve(base)
        assert solver.last_mode == "incremental"
        assert solver.last_changed == 0
        assert again.assignment.tickets == first.assignment.tickets


class TestResultsOutliveTheSolve:
    """A caller that keeps one result per epoch pays for an assignment
    once per *change* of the tickets, not once per epoch."""

    def test_an_epoch_that_moves_no_ticket_returns_the_same_object(self):
        base = _zipf_weights(200)
        solver = IncrementalSolver(PROBLEM)
        first = solver.solve(base)
        # The lightest party gains a unit of stake: it holds no ticket
        # before or after.
        light = min(range(len(base)), key=base.__getitem__)
        drifted = tuple(w + (i == light) for i, w in enumerate(base))
        second = solver.solve(drifted)
        assert solver.last_mode == "incremental" and solver.last_changed == 1
        assert second.assignment is first.assignment
        assert solver.solve(drifted).assignment is first.assignment
        cold = _cold(drifted)
        assert (second.assignment, second.achieved, second.probes) == (
            cold.assignment,
            cold.achieved,
            cold.probes,
        )

    def test_an_epoch_that_moves_a_ticket_returns_a_fresh_object(self):
        base = _zipf_weights(200)
        solver = IncrementalSolver(PROBLEM)
        first = solver.solve(base)
        kept = first.assignment.tickets
        # The heaviest party sheds nine tenths of its stake.
        heavy = max(range(len(base)), key=base.__getitem__)
        moved = tuple(w // 10 if i == heavy else w for i, w in enumerate(base))
        second = solver.solve(moved)
        assert solver.last_mode == "incremental"
        assert second.assignment is not first.assignment
        assert second.assignment != first.assignment
        assert second.assignment == _cold(moved).assignment
        # The epoch before keeps what it was handed.
        assert first.assignment.tickets == kept
        # Back to the first epoch's weights: equal tickets, but the object
        # remembered is the last epoch's, so this one is fresh too.
        third = solver.solve(base)
        assert third.assignment == first.assignment
        assert third.assignment is not second.assignment


class TestValidation:
    def test_zero_total_weight_raises(self):
        solver = IncrementalSolver(PROBLEM)
        with pytest.raises((ValueError, ZeroDivisionError)):
            solver.solve((0, 0, 0))
