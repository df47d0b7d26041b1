"""Tests for the Monte-Carlo baseline (Section VIII-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MonteCarloResult,
    MonteCarloSampler,
    Observation,
    ObservationSet,
    PlanOptions,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
    ktimes_distribution,
    mc_exists_probability,
    mc_forall_probability,
    mc_ktimes_distribution,
    ob_exists_probability,
    ob_forall_probability,
)
from repro.core.errors import (
    InfeasibleEvidenceError,
    QueryError,
    ValidationError,
)
from repro.store.sharded import ShardedTrajectoryStore
from repro.workloads.synthetic import make_line_chain

from conftest import random_chain, random_distribution


def reference_paths(chain, observations, window, n_samples, seed):
    """Independent per-object sampler: ``rng.choice`` for the first
    state, then per step ``rng.random`` and a ``searchsorted`` on the
    current state's transition CDF.  Returns each path's number of
    window times in the region and its likelihood of the later
    observations."""
    rng = np.random.default_rng(seed)
    first, matrix = observations.first, chain.matrix
    paths = [rng.choice(
        chain.n_states, n_samples, p=first.distribution.vector
    )]
    for _ in range(first.time, max(window.t_end, observations.last.time)):
        step = []
        for state, draw in zip(paths[-1], rng.random(n_samples)):
            lo, hi = matrix.indptr[state], matrix.indptr[state + 1]
            cdf = np.cumsum(matrix.data[lo:hi])
            cdf /= cdf[-1]
            step.append(matrix.indices[lo + np.searchsorted(cdf, draw)])
        paths.append(step)
    paths = np.array(paths)
    inside = np.isin(paths, window.region.array)
    counts = inside[[t - first.time for t in window.times]].sum(axis=0)
    weights = np.ones(n_samples)
    for observation in observations.after(first.time):
        weights *= observation.distribution.vector[
            paths[observation.time - first.time]
        ]
    return counts, weights


def reference_exists(chain, observations, window, n_samples, seed):
    """The self-normalised importance estimate over
    :func:`reference_paths` (the plain fraction without evidence)."""
    counts, weights = reference_paths(
        chain, observations, window, n_samples, seed
    )
    if weights.sum() <= 0.0:
        raise InfeasibleEvidenceError("every reference path contradicts")
    return float((weights * (counts > 0)).sum() / weights.sum())


class TestResultContainer:
    def test_standard_error_formula(self):
        result = MonteCarloResult(estimate=0.5, n_samples=100)
        # the paper: sigma = sqrt(p(1-p)/n) = 0.05 at p=0.5, n=100
        assert result.standard_error == pytest.approx(0.05)

    def test_standard_error_extremes(self):
        assert MonteCarloResult(0.0, 100).standard_error == 0.0
        assert MonteCarloResult(1.0, 100).standard_error == 0.0

    def test_confidence_interval_clipped(self):
        low, high = MonteCarloResult(0.99, 10).confidence_interval()
        assert 0.0 <= low <= high <= 1.0


class TestSampling:
    def test_paths_shape(self, paper_chain):
        sampler = MonteCarloSampler(paper_chain, seed=0)
        paths = sampler.sample_paths(
            StateDistribution.point(3, 1), horizon=5, n_samples=64
        )
        assert paths.shape == (64, 6)
        assert (paths[:, 0] == 1).all()

    def test_paths_follow_transitions(self, paper_chain):
        sampler = MonteCarloSampler(paper_chain, seed=1)
        paths = sampler.sample_paths(
            StateDistribution.point(3, 0), horizon=4, n_samples=50
        )
        for path in paths:
            for a, b in zip(path, path[1:]):
                assert paper_chain.transition_probability(
                    int(a), int(b)
                ) > 0

    def test_seed_determinism(self, paper_chain):
        start = StateDistribution.uniform(3)
        a = MonteCarloSampler(paper_chain, seed=7).sample_paths(
            start, 5, 20
        )
        b = MonteCarloSampler(paper_chain, seed=7).sample_paths(
            start, 5, 20
        )
        assert (a == b).all()

    def test_invalid_args(self, paper_chain):
        sampler = MonteCarloSampler(paper_chain, seed=0)
        start = StateDistribution.point(3, 0)
        with pytest.raises(ValidationError):
            sampler.sample_paths(start, 5, 0)
        with pytest.raises(ValidationError):
            sampler.sample_paths(start, -1, 5)
        with pytest.raises(ValidationError):
            sampler.sample_paths(StateDistribution.point(4, 0), 5, 5)


class TestConvergence:
    """MC must converge to the exact matrix-based answers."""

    def test_exists_converges(self, paper_chain, paper_window,
                              paper_start):
        exact = 0.864
        result = mc_exists_probability(
            paper_chain, paper_start, paper_window,
            n_samples=40_000, seed=2,
        )
        assert result.estimate == pytest.approx(exact, abs=0.01)

    def test_forall_converges(self):
        rng = np.random.default_rng(3)
        chain = random_chain(4, rng)
        initial = random_distribution(4, rng)
        window = SpatioTemporalWindow(
            frozenset({0, 1}), frozenset({1, 2})
        )
        exact = ob_forall_probability(chain, initial, window)
        result = mc_forall_probability(
            chain, initial, window, n_samples=40_000, seed=4
        )
        assert result.estimate == pytest.approx(exact, abs=0.01)

    def test_ktimes_converges(self, paper_chain, paper_window,
                              paper_start):
        exact = ktimes_distribution(
            paper_chain, paper_start, paper_window
        )
        estimate = mc_ktimes_distribution(
            paper_chain, paper_start, paper_window,
            n_samples=40_000, seed=5,
        )
        assert np.allclose(estimate, exact, atol=0.01)

    def test_error_shrinks_with_samples(self, paper_chain, paper_window,
                                        paper_start):
        exact = 0.864
        errors = []
        for n_samples in (50, 5_000):
            batch = [
                abs(
                    mc_exists_probability(
                        paper_chain,
                        paper_start,
                        paper_window,
                        n_samples=n_samples,
                        seed=seed,
                    ).estimate
                    - exact
                )
                for seed in range(8)
            ]
            errors.append(float(np.mean(batch)))
        assert errors[1] < errors[0]

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = SpatioTemporalWindow(
                frozenset({0}), frozenset({1, 2, 3})
            )
            exact = ob_exists_probability(chain, initial, window)
            result = mc_exists_probability(
                chain, initial, window, n_samples=20_000, seed=trial
            )
            assert result.estimate == pytest.approx(exact, abs=0.02)


class TestWindowChecks:
    def test_query_before_start(self, paper_chain, paper_start):
        sampler = MonteCarloSampler(paper_chain, seed=0)
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        with pytest.raises(QueryError):
            sampler.exists_probability(
                paper_start, window, 10, start_time=3
            )

    def test_region_out_of_range(self, paper_chain, paper_start):
        sampler = MonteCarloSampler(paper_chain, seed=0)
        window = SpatioTemporalWindow(frozenset({9}), frozenset({1}))
        with pytest.raises(QueryError):
            sampler.exists_probability(paper_start, window, 10)

    def test_start_time_in_window_counts_t0(self, paper_chain):
        """When t=0 is a query time the initial state can already hit."""
        sampler = MonteCarloSampler(paper_chain, seed=0)
        start = StateDistribution.point(3, 0)
        window = SpatioTemporalWindow(frozenset({0}), frozenset({0}))
        result = sampler.exists_probability(start, window, 100)
        assert result.estimate == 1.0


class TestCdfTable:
    """The vectorised row-CDF table and its grouped fallback."""

    def test_table_built_lazily_once(self, paper_chain):
        sampler = MonteCarloSampler(paper_chain, seed=0)
        assert sampler._cdf_table is None
        sampler.sample_paths(StateDistribution.point(3, 1), 4, 32)
        table = sampler._cdf_table
        assert table is not None
        sampler.sample_paths(StateDistribution.point(3, 1), 4, 32)
        assert sampler._cdf_table is table

    def test_table_rows_end_at_one(self, paper_chain):
        sampler = MonteCarloSampler(paper_chain, seed=0)
        sampler.sample_paths(StateDistribution.point(3, 1), 1, 8)
        cdf, targets = sampler._cdf_table
        assert np.allclose(cdf[:, -1], 1.0)
        assert targets.shape == cdf.shape

    def test_fallback_paths_follow_transitions(
        self, paper_chain, monkeypatch
    ):
        sampler = MonteCarloSampler(paper_chain, seed=3)
        monkeypatch.setattr(sampler, "_CDF_TABLE_MAX_BYTES", 0)
        paths = sampler.sample_paths(
            StateDistribution.point(3, 1), horizon=5, n_samples=40
        )
        assert sampler._cdf_table is None
        for path in paths:
            for a, b in zip(path, path[1:]):
                assert paper_chain.transition_probability(
                    int(a), int(b)
                ) > 0

    def test_fallback_draws_the_table_paths(self, paper_chain):
        start = StateDistribution.point(3, 1)
        window = SpatioTemporalWindow(
            frozenset({0, 1}), frozenset({2, 3})
        )
        for seed in range(4):
            table = MonteCarloSampler(paper_chain, seed=seed)
            fallback = MonteCarloSampler(paper_chain, seed=seed)
            fallback._CDF_TABLE_MAX_BYTES = 0
            assert fallback.exists_probability(
                start, window, 2_000
            ) == table.exists_probability(start, window, 2_000)
            assert (
                fallback.sample_paths(start, 6, 50)
                == table.sample_paths(start, 6, 50)
            ).all()
            assert fallback._cdf_table is None


# ----------------------------------------------------------------------
# the columnar sampler against the per-object reference
# ----------------------------------------------------------------------
ORACLE_STATES = 80
ORACLE_WINDOW = SpatioTemporalWindow.from_ranges(30, 45, 6, 9)
# later sightings of the multi-observation rows: before the window,
# before and inside it, inside it, and after t_end
ORACLE_SIGHTINGS = [(3,), (4, 8), (7,), (11,)]


def oracle_database(multi=True, seed=5):
    """Single-observation rows first seen at t = 0..6 (up to t_start),
    plus, with ``multi``, rows re-sighted with broad evidence (point
    re-sightings would leave no consistent path among 100 samples)."""
    rng = np.random.default_rng(seed)
    chain = make_line_chain(ORACLE_STATES, max_step=8, rng=rng)
    database = TrajectoryDatabase.with_chain(chain)
    for index in range(10):
        low = int(rng.integers(20, 50))
        database.add(UncertainObject(f"single-{index}", ObservationSet.of(
            Observation.uniform(index % 7, ORACLE_STATES, range(low, low + 4))
        )))
    for index in range(8 if multi else 0):
        low = int(rng.integers(25, 45))
        broad = range(max(0, low - 30), min(ORACLE_STATES, low + 34))
        database.add(UncertainObject(f"multi-{index}", ObservationSet.of(
            Observation.uniform(index % 3, ORACLE_STATES, range(low, low + 4)),
            # uneven weights, so every sighting moves the estimate
            *(Observation.weighted(time, ORACLE_STATES, dict(
                zip(broad, rng.random(len(broad)) + 0.05)
            )) for time in ORACLE_SIGHTINGS[index % 4]),
        )))
    return database


def oracle_answers(database, query, seed, n_samples=100):
    """Every object's answer from :func:`reference_paths`, seeded by
    the engine's rule (base seed + the object's database position)."""
    chain = database.chain()
    answers = {}
    for position, object_id in enumerate(database.object_ids):
        observations = database.get(object_id).observations
        window, row_seed = query.window, seed + position
        if isinstance(query, PSTKTimesQuery):
            counts, _ = reference_paths(
                chain, observations, window, n_samples, row_seed
            )
            distribution = np.bincount(
                counts, minlength=window.duration + 1
            ) / n_samples
            answers[object_id] = (
                distribution if query.k is None else distribution[query.k]
            )
        elif isinstance(query, PSTForAllQuery):
            # the engine answers for-all as 1 - exists(complement)
            complement = window.with_region(
                query.region.complement(ORACLE_STATES)
            )
            answers[object_id] = 1.0 - reference_exists(
                chain, observations, complement, n_samples, row_seed
            )
        else:
            answers[object_id] = reference_exists(
                chain, observations, window, n_samples, row_seed
            )
    return answers


def _engine_target(tmp_path, database, layout):
    if layout == "in-RAM":
        return database
    return ShardedTrajectoryStore.create(
        tmp_path / "store", database, shards_per_chain=2
    )


class TestColumnarOracle:
    """Seeded MC answers equal the per-object reference sampler's (==,
    not approx): the columnar sampler takes each object's draws in the
    reference's order, whichever rows share a call."""

    @pytest.mark.parametrize("layout", ["in-RAM", "store"])
    @pytest.mark.parametrize("dispatch", ["serial", "process"])
    def test_engine_equals_reference(self, tmp_path, layout, dispatch):
        cases = [
            (oracle_database(), PSTExistsQuery(ORACLE_WINDOW)),
            (oracle_database(), PSTForAllQuery(ORACLE_WINDOW)),
            (oracle_database(multi=False),
             PSTKTimesQuery(ORACLE_WINDOW, None)),
            (oracle_database(multi=False), PSTKTimesQuery(ORACLE_WINDOW, 2)),
        ]
        options = PlanOptions(dispatch=dispatch, max_workers=2)
        for index, (database, query) in enumerate(cases):
            target = _engine_target(tmp_path / str(index), database, layout)
            result = QueryEngine(target).evaluate(
                query, method="mc", seed=11, options=options
            )
            expected = oracle_answers(database, query, seed=11)
            assert set(result.values) == set(expected)
            for object_id, value in expected.items():
                assert np.array_equal(
                    result.values[object_id], value
                ), (type(query).__name__, object_id)
            assert any(np.any(value) for value in expected.values())

    def test_small_draw_blocks_change_nothing(self, monkeypatch):
        database = oracle_database()
        query = PSTExistsQuery(ORACLE_WINDOW)
        # a few bytes: every row becomes a chunk of its own
        monkeypatch.setattr(MonteCarloSampler, "_DRAW_BLOCK_MAX_BYTES", 64)
        result = QueryEngine(database).evaluate(query, method="mc", seed=3)
        assert result.values == oracle_answers(database, query, seed=3)

    def test_sampler_estimators_equal_reference(self):
        database = oracle_database()
        chain = database.chain()
        window = ORACLE_WINDOW
        for position, object_id in enumerate(database.object_ids):
            observations = database.get(object_id).observations
            first = observations.first
            sampler = MonteCarloSampler(chain, seed=position)
            assert sampler.exists_probability_multi(
                observations, window, 100
            ).estimate == reference_exists(
                chain, observations, window, 100, position
            )
            single = ObservationSet.of(first)
            counts, _ = reference_paths(chain, single, window, 100, position)
            for estimator, expected in [
                ("exists_probability", (counts > 0).mean()),
                ("forall_probability", (counts == window.duration).mean()),
            ]:
                estimate = getattr(
                    MonteCarloSampler(chain, seed=position), estimator
                )(first.distribution, window, 100, start_time=first.time)
                assert estimate.estimate == expected
            assert np.array_equal(
                MonteCarloSampler(chain, seed=position).ktimes_distribution(
                    first.distribution, window, 100, start_time=first.time
                ),
                np.bincount(counts, minlength=window.duration + 1) / 100,
            )

    def test_paths_that_all_contradict_the_evidence_raise(self):
        """A row whose sampled paths all miss both the window and its
        later sighting (unreachable in one step) has no estimate."""
        database = oracle_database(multi=False)
        database.add(UncertainObject("lost", ObservationSet.of(
            Observation.uniform(0, ORACLE_STATES, range(0, 4)),
            Observation.uniform(1, ORACLE_STATES, range(70, 74)),
        )))
        with pytest.raises(InfeasibleEvidenceError):
            QueryEngine(database).evaluate(
                PSTExistsQuery(ORACLE_WINDOW), method="mc", seed=1,
                options=PlanOptions(prefilter=False, bfs_prune=False),
            )
