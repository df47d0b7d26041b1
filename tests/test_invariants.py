"""Cross-module invariants not covered by the per-module suites.

Each test pins one mathematical identity that ties two parts of the
library together (Chapman-Kolmogorov, time-shift invariance, the
engine against possible-world enumeration, ...).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    PossibleWorldEnumerator,
    PSTExistsQuery,
    QueryBasedEvaluator,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
    ktimes_distribution,
    ob_exists_probability,
)

from conftest import random_chain, random_distribution, random_window


class TestChapmanKolmogorov:
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_propagate_composes(self, a, b, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(5, rng)
        dist = random_distribution(5, rng)
        combined = chain.propagate(dist, a + b)
        stepwise = chain.propagate(chain.propagate(dist, a), b)
        assert combined.allclose(stepwise, tol=1e-9)

    @given(st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_matrix_power_matches_marginals(self, steps, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(4, rng)
        dist = random_distribution(4, rng)
        via_power = dist.vector @ chain.power(steps).toarray()
        via_steps = chain.propagate(dist, steps).vector
        assert np.allclose(via_power, via_steps, atol=1e-12)

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_power_stays_stochastic(self, steps, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(4, rng)
        rows = np.asarray(chain.power(steps).sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0, atol=1e-10)


class TestTimeShiftInvariance:
    """Homogeneous chains: only elapsed time matters, not absolute time."""

    def test_ob_shift(self):
        rng = np.random.default_rng(0)
        chain = random_chain(5, rng)
        initial = random_distribution(5, rng)
        window = random_window(5, rng, max_time=4)
        baseline = ob_exists_probability(chain, initial, window)
        for shift in (1, 3, 10):
            shifted = SpatioTemporalWindow(
                window.region,
                frozenset(t + shift for t in window.times),
            )
            assert ob_exists_probability(
                chain, initial, shifted, start_time=shift
            ) == pytest.approx(baseline, abs=1e-12)

    def test_qb_shift(self):
        rng = np.random.default_rng(1)
        chain = random_chain(4, rng)
        window = random_window(4, rng, max_time=4)
        base = QueryBasedEvaluator(chain, window).backward_vector
        shifted_window = SpatioTemporalWindow(
            window.region, frozenset(t + 5 for t in window.times)
        )
        shifted = QueryBasedEvaluator(
            chain, shifted_window, start_time=5
        ).backward_vector
        assert np.allclose(base, shifted, atol=1e-12)

    def test_ktimes_shift(self):
        rng = np.random.default_rng(2)
        chain = random_chain(4, rng)
        initial = random_distribution(4, rng)
        window = random_window(4, rng, max_time=4)
        baseline = ktimes_distribution(chain, initial, window)
        shifted_window = SpatioTemporalWindow(
            window.region, frozenset(t + 7 for t in window.times)
        )
        assert np.allclose(
            ktimes_distribution(
                chain, initial, shifted_window, start_time=7
            ),
            baseline,
            atol=1e-12,
        )


class TestDegenerateWindows:
    def test_whole_space_region_every_time_is_certain(self):
        rng = np.random.default_rng(3)
        chain = random_chain(4, rng)
        initial = random_distribution(4, rng)
        window = SpatioTemporalWindow(
            frozenset(range(4)), frozenset({1, 2, 3})
        )
        assert ob_exists_probability(
            chain, initial, window
        ) == pytest.approx(1.0)
        distribution = ktimes_distribution(chain, initial, window)
        # the object is inside at every query time, surely
        assert distribution[-1] == pytest.approx(1.0)

    def test_backward_vector_is_probability_vector(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            chain = random_chain(5, rng)
            window = random_window(5, rng, max_time=5)
            vector = QueryBasedEvaluator(chain, window).backward_vector
            assert (vector >= -1e-12).all()
            assert (vector <= 1.0 + 1e-12).all()

    def test_backward_vector_monotone_in_region(self):
        rng = np.random.default_rng(5)
        chain = random_chain(5, rng)
        times = frozenset({1, 3})
        small = SpatioTemporalWindow(frozenset({0}), times)
        large = SpatioTemporalWindow(frozenset({0, 1, 2}), times)
        v_small = QueryBasedEvaluator(chain, small).backward_vector
        v_large = QueryBasedEvaluator(chain, large).backward_vector
        assert (v_large >= v_small - 1e-12).all()


class TestEngineAgainstEnumeration:
    def test_engine_ob_equals_possible_worlds(self):
        rng = np.random.default_rng(6)
        n = 8
        chain = random_chain(n, rng)
        database = TrajectoryDatabase.with_chain(chain)
        for index in range(6):
            database.add(
                UncertainObject.at_state(
                    f"o{index}", n, int(rng.integers(0, n))
                )
            )
        window = SpatioTemporalWindow(
            frozenset({0, 1}), frozenset({2, 3})
        )
        result = QueryEngine(database).evaluate(
            PSTExistsQuery(window), method="ob"
        )
        for obj in database:
            expected = PossibleWorldEnumerator(
                chain, obj.initial.distribution, window.t_end
            ).exists_probability(window)
            assert result.values[obj.object_id] == pytest.approx(
                expected, abs=1e-12
            )


class TestFusionAlgebra:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_fusion_associative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_distribution(5, rng)
        b = random_distribution(5, rng)
        c = random_distribution(5, rng)
        left = a.fuse(b).fuse(c)
        right = a.fuse(b.fuse(c))
        assert left.allclose(right, tol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_restrict_equals_fuse_with_uniform_indicator(self, seed):
        rng = np.random.default_rng(seed)
        dist = random_distribution(6, rng)
        region = [0, 2, 4]
        indicator = StateDistribution.uniform(6, region)
        assert dist.restrict(region).allclose(
            dist.fuse(indicator), tol=1e-9
        )
