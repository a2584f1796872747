"""The legacy import surface and the frozen API surface.

Every pre-facade public name must keep importing and keep producing the
same results through the facade; the facade's own exports are frozen in
``api_surface.txt`` so drift fails the build (locally here, and in the
CI api-surface job).
"""

from pathlib import Path

import pytest

import repro
import repro.api
import repro.core
import repro.scenarios


class TestLegacyImportsStillResolve:
    @pytest.mark.parametrize("name", sorted(repro.core.__all__))
    def test_core_all_names_import(self, name):
        assert getattr(repro.core, name) is not None

    @pytest.mark.parametrize("name", sorted(repro.scenarios.__all__))
    def test_scenarios_all_names_import(self, name):
        assert getattr(repro.scenarios, name) is not None

    @pytest.mark.parametrize("name", sorted(n for n in repro.__all__ if n != "__version__"))
    def test_top_level_all_names_import(self, name):
        assert getattr(repro, name) is not None

    def test_legacy_results_match_facade(self):
        # Old entry point and facade entry point agree ticket for ticket.
        from repro.api import Committee
        from repro.core import WeightRestriction, solve

        stake = (40, 25, 15, 10, 5, 3, 1, 1)
        problem = WeightRestriction("1/3", "1/2")
        legacy = solve(problem, stake)
        facade = Committee.from_weights(stake).solve(problem)
        assert legacy.assignment == facade.assignment
        assert legacy.ticket_bound == facade.bound


class TestApiSurfaceGuard:
    def test_all_matches_checked_in_snapshot(self):
        snapshot = Path(__file__).resolve().parents[2] / "api_surface.txt"
        frozen = snapshot.read_text().split()
        assert sorted(repro.api.__all__) == frozen, (
            "repro.api.__all__ drifted from api_surface.txt; if the change "
            "is intentional, regenerate the snapshot (see .github/workflows/ci.yml)"
        )

    def test_every_export_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_benchmark_json_is_the_one_committed_baseline(self):
        # A timing is a cell of the ledger BENCHMARK.json declares
        # (benchmarks/ledger/); per-PR baseline files do not come back.
        root = Path(__file__).resolve().parents[2]
        assert [p.name for p in root.glob("BENCH_[0-9]*.json")] == []
