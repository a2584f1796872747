"""Tests for synthetic generators, chain snapshots, and bootstrap."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.bootstrap import bootstrap_average, resample
from repro.datasets.chains import ALL_CHAINS, aptos, load_chain, tezos
from repro.datasets.synthetic import (
    constant_weights,
    exponential_weights,
    lognormal_weights,
    mixture_weights,
    normalize_to_total,
    pareto_weights,
    uniform_weights,
    zipf_weights,
)


class TestNormalizeToTotal:
    def test_exact_total(self):
        out = normalize_to_total([1.5, 2.5, 3.0], 100)
        assert sum(out) == 100

    def test_every_party_positive(self):
        out = normalize_to_total([1000.0, 0.001, 0.001], 50)
        assert all(w >= 1 for w in out)

    def test_total_too_small(self):
        with pytest.raises(ValueError):
            normalize_to_total([1.0, 1.0, 1.0], 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_to_total([1.0, -1.0], 10)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            normalize_to_total([0.0, 0.0], 10)

    def test_huge_totals_stay_exact(self):
        total = int(2.52e19)
        out = normalize_to_total([random.Random(0).random() for _ in range(50)], total)
        assert sum(out) == total

    def test_proportionality(self):
        out = normalize_to_total([1.0, 3.0], 400)
        assert out == [100, 300]

    def test_accepts_whatever_fraction_accepts(self):
        import decimal

        import numpy as np

        expected = normalize_to_total([1.0, 2.0, 3.0], 60)
        assert normalize_to_total(list(np.array([1, 2, 3])), 60) == expected
        assert normalize_to_total(list(np.array([1.0, 2.0, 3.0])), 60) == expected
        assert normalize_to_total([decimal.Decimal(1), 2, 3.0], 60) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        raw=st.lists(
            st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        total=st.integers(min_value=1, max_value=10**12),
    )
    def test_property_sum_and_nonneg(self, raw, total):
        if total < len(raw):
            return
        out = normalize_to_total(raw, total)
        assert sum(out) == total
        assert all(w >= 0 for w in out)


class TestGenerators:
    @pytest.mark.parametrize(
        "gen",
        [
            lambda: pareto_weights(50, 10**6, seed=1),
            lambda: lognormal_weights(50, 10**6, seed=1),
            lambda: zipf_weights(50, 10**6, seed=1),
            lambda: exponential_weights(50, 10**6, seed=1),
            lambda: uniform_weights(50, 10**6, seed=1),
            lambda: constant_weights(50, 10**6),
        ],
    )
    def test_invariants(self, gen):
        ws = gen()
        assert len(ws) == 50
        assert sum(ws) == 10**6
        assert all(w >= 1 for w in ws)

    def test_determinism(self):
        assert pareto_weights(30, 1000, seed=5) == pareto_weights(30, 1000, seed=5)
        assert pareto_weights(30, 1000, seed=5) != pareto_weights(30, 1000, seed=6)

    def test_pareto_heavier_than_uniform(self):
        """Skew sanity: Pareto's top holder dwarfs uniform's."""
        p = sorted(pareto_weights(200, 10**9, alpha=1.05, seed=2))
        u = sorted(uniform_weights(200, 10**9, seed=2))
        assert p[-1] > u[-1]

    def test_constant_is_flat(self):
        ws = constant_weights(10, 100)
        assert ws == [10] * 10

    def test_mixture_probabilities_validated(self):
        with pytest.raises(ValueError):
            mixture_weights(
                10, 1000, components=[(0.5, lambda rng: 1.0)], seed=0
            )

    def test_mixture_runs(self):
        ws = mixture_weights(
            100,
            10**6,
            components=[(0.1, lambda rng: 1000.0), (0.9, lambda rng: 1.0)],
            seed=3,
        )
        assert sum(ws) == 10**6


class TestChains:
    def test_aggregates_match_paper(self):
        snap = aptos()
        assert snap.n == 104 and snap.total == int(8.47e8)
        snap = tezos()
        assert snap.n == 382 and snap.total == int(6.76e8)

    def test_registry(self):
        assert set(ALL_CHAINS) == {"aptos", "tezos", "filecoin", "algorand"}
        assert load_chain("Tezos").name == "tezos"
        with pytest.raises(KeyError):
            load_chain("bitcoin")

    def test_determinism(self):
        assert aptos().weights == aptos().weights
        assert aptos(seed=1).weights != aptos(seed=2).weights

    def test_skew_present(self):
        """Chain snapshots are heavy-tailed: top 10% of holders own the
        majority of stake (the regime the paper's Section 7 relies on)."""
        snap = tezos()
        ws = sorted(snap.weights, reverse=True)
        top = sum(ws[: max(1, snap.n // 10)])
        assert top > snap.total / 2


def _digest(weights):
    return hashlib.sha256(repr(list(weights)).encode()).hexdigest()[:16]


class TestPinnedVectors:
    """``normalize_to_total`` rounds on integer remainders; the vectors it
    produces are held to the digests of the Fraction-based version it
    replaced (largest remainder first, ties to the lower index)."""

    @pytest.mark.parametrize(
        "chain, digest",
        [
            ("aptos", "8bdacd3b7261adb9"),
            ("tezos", "ae4e785762da1314"),
            ("filecoin", "507236343e091f59"),
            ("algorand", "30acc268724bc800"),
        ],
    )
    def test_chain_snapshots(self, chain, digest):
        assert _digest(load_chain(chain).weights) == digest

    def test_every_synthetic_kind(self):
        from repro.api import Committee
        from repro.datasets import SYNTHETIC_KINDS

        digests = {
            kind: _digest(
                Committee.synthetic(kind, n=500, total=10**7 + 3, skew=1.3, seed=5).weights
            )
            for kind in SYNTHETIC_KINDS
        }
        assert digests == {
            "constant": "f7828fdd56e3d4a8",
            "uniform": "a70c7dac6a94c5a7",
            "zipf": "859a15a6c7078b08",
            "pareto": "9a46e6b9d70bcc4a",
            "lognormal": "3a6a4ac3d88c2f97",
            "exponential": "9a4116cea1f1e1df",
        }


class TestBootstrap:
    def test_resample_size(self):
        rng = random.Random(0)
        out = resample([1, 2, 3], 10, rng)
        assert len(out) == 10
        assert set(out) <= {1, 2, 3}

    def test_resample_validation(self):
        with pytest.raises(ValueError):
            resample([1], 0, random.Random(0))

    def test_bootstrap_average(self):
        res = bootstrap_average(
            [1, 2, 3, 4], 8, metric=lambda ws: sum(ws), trials=20, seed=1
        )
        assert res.minimum <= res.mean <= res.maximum
        assert res.trials == 20
        # Mean of sums of 8 draws from mean-2.5 population: near 20.
        assert 12 <= res.mean <= 28

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            bootstrap_average([1], 1, metric=len, trials=0)

    def test_deterministic_for_seed(self):
        a = bootstrap_average([5, 1, 9], 5, metric=max, trials=5, seed=3)
        b = bootstrap_average([5, 1, 9], 5, metric=max, trials=5, seed=3)
        assert a == b
