"""Tests for multiple-observation processing (Section VI)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MonteCarloSampler,
    Observation,
    ObservationSet,
    PlanOptions,
    PossibleWorldEnumerator,
    PSTExistsQuery,
    PSTForAllQuery,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
    ob_exists_probability,
    ob_exists_probability_multi,
)
from repro.core.batch import batch_exists_multi
from repro.core.errors import (
    InfeasibleEvidenceError,
    QueryError,
    ValidationError,
)
from repro.core.state_space import LineStateSpace
from repro.exec.operators import PosteriorCollapse
from repro.store.sharded import ShardedTrajectoryStore
from repro.workloads.synthetic import make_line_chain

from augmented import build_doubled_matrices
from conftest import random_chain, random_distribution


def section6_setup(paper_chain_section6):
    """The paper's Fig. 7 scenario.

    Observed at s1 at t=0 and s2 at t=3; the query window covers
    {s1, s2} x {1, 2} (the region the example's printed M+ redirects).
    """
    observations = ObservationSet.of(
        Observation.precise(0, 3, 0),
        Observation.precise(3, 3, 1),
    )
    window = SpatioTemporalWindow(frozenset({0, 1}), frozenset({1, 2}))
    return observations, window


class TestPaperSection6Example:
    def test_posterior_excludes_window(self, paper_chain_section6):
        observations, window = section6_setup(paper_chain_section6)
        assert ob_exists_probability_multi(
            paper_chain_section6, observations, window
        ) == pytest.approx(0.0)

    def test_intermediate_vector_at_t3(self, paper_chain_section6):
        """The paper's P(o,3) = (0, 0.16, 0.04, 0.4, 0, 0.4) before fusion."""
        matrices = build_doubled_matrices(paper_chain_section6, {0, 1})
        vector = matrices.extend_initial(
            np.array([1.0, 0.0, 0.0]), 0, frozenset({1, 2})
        )
        for time in (1, 2, 3):
            matrix = (
                matrices.m_plus if time in {1, 2} else matrices.m_minus
            )
            vector = np.asarray(vector @ matrix).ravel()
        assert np.allclose(vector, [0, 0.16, 0.04, 0.4, 0, 0.4])

    def test_uncertain_second_observation(self, paper_chain_section6):
        """The paper's obs2 = (0, 0.5, 0, 0, 0.5, 0) -- pdf on s2 only --
        still forces the object onto the window-avoiding path."""
        observations = ObservationSet.of(
            Observation.precise(0, 3, 0),
            Observation.weighted(3, 3, {1: 1.0}),
        )
        window = SpatioTemporalWindow(
            frozenset({0, 1}), frozenset({1, 2})
        )
        assert ob_exists_probability_multi(
            paper_chain_section6, observations, window
        ) == pytest.approx(0.0)


class TestAgainstConditionedEnumeration:
    def test_random_instances(self):
        rng = np.random.default_rng(60)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            first = random_distribution(n, rng, sparse=True)
            horizon = int(rng.integers(2, 6))
            obs_time = int(rng.integers(1, horizon + 1))
            obs_dist = random_distribution(n, rng)
            region = frozenset(
                int(s)
                for s in rng.choice(
                    n, size=int(rng.integers(1, n)), replace=False
                )
            )
            times = frozenset(
                int(t)
                for t in rng.choice(
                    np.arange(1, horizon + 1),
                    size=int(rng.integers(1, horizon + 1)),
                    replace=False,
                )
            )
            window = SpatioTemporalWindow(region, times)
            observations = ObservationSet.of(
                Observation(0, first), Observation(obs_time, obs_dist)
            )
            enumerator = PossibleWorldEnumerator(
                chain, first, max(window.t_end, obs_time)
            )
            try:
                expected = enumerator.conditioned_on_observations(
                    [(obs_time, obs_dist)]
                ).exists_probability(window)
            except ValidationError:
                continue  # contradictory draw; skip
            actual = ob_exists_probability_multi(
                chain, observations, window
            )
            assert actual == pytest.approx(expected, abs=1e-10)
            checked += 1

    def test_three_observations(self):
        rng = np.random.default_rng(61)
        chain = random_chain(4, rng)
        first = StateDistribution.uniform(4)
        obs1 = random_distribution(4, rng)
        obs2 = random_distribution(4, rng)
        window = SpatioTemporalWindow(frozenset({1}), frozenset({1, 3}))
        observations = ObservationSet.of(
            Observation(0, first),
            Observation(2, obs1),
            Observation(4, obs2),
        )
        enumerator = PossibleWorldEnumerator(chain, first, 4)
        expected = enumerator.conditioned_on_observations(
            [(2, obs1), (4, obs2)]
        ).exists_probability(window)
        assert ob_exists_probability_multi(
            chain, observations, window
        ) == pytest.approx(expected, abs=1e-10)

    def test_observation_beyond_window(self):
        """An observation after t_end still re-weights the result."""
        rng = np.random.default_rng(62)
        chain = random_chain(3, rng)
        first = StateDistribution.uniform(3)
        later = random_distribution(3, rng)
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        observations = ObservationSet.of(
            Observation(0, first), Observation(4, later)
        )
        enumerator = PossibleWorldEnumerator(chain, first, 4)
        expected = enumerator.conditioned_on_observations(
            [(4, later)]
        ).exists_probability(window)
        assert ob_exists_probability_multi(
            chain, observations, window
        ) == pytest.approx(expected, abs=1e-10)

    def test_single_observation_reduces_to_plain_ob(self):
        rng = np.random.default_rng(63)
        chain = random_chain(4, rng)
        initial = random_distribution(4, rng)
        window = SpatioTemporalWindow(frozenset({2}), frozenset({1, 3}))
        observations = ObservationSet.single(Observation(0, initial))
        assert ob_exists_probability_multi(
            chain, observations, window
        ) == pytest.approx(
            ob_exists_probability(chain, initial, window)
        )


class TestMonteCarloAgreement:
    def test_importance_sampling_converges(self, paper_chain_section6):
        rng = np.random.default_rng(64)
        chain = paper_chain_section6
        observations = ObservationSet.of(
            Observation(0, StateDistribution.uniform(3)),
            Observation.weighted(3, 3, {1: 0.5, 2: 0.5}),
        )
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1, 2}))
        exact = ob_exists_probability_multi(chain, observations, window)
        sampler = MonteCarloSampler(chain, rng=rng)
        estimate = sampler.exists_probability_multi(
            observations, window, n_samples=30_000
        )
        assert estimate.estimate == pytest.approx(exact, abs=0.02)


class TestValidation:
    def test_contradictory_observations(self, paper_chain):
        # from s1 the object is certainly at s3 at t=1
        observations = ObservationSet.of(
            Observation.precise(0, 3, 0),
            Observation.precise(1, 3, 0),
        )
        window = SpatioTemporalWindow(frozenset({1}), frozenset({1}))
        with pytest.raises(InfeasibleEvidenceError):
            ob_exists_probability_multi(
                paper_chain, observations, window
            )

    def test_dimension_mismatch(self, paper_chain):
        observations = ObservationSet.single(
            Observation.precise(0, 5, 0)
        )
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        with pytest.raises(ValidationError):
            ob_exists_probability_multi(
                paper_chain, observations, window
            )

    def test_query_before_first_observation(self, paper_chain):
        observations = ObservationSet.single(
            Observation.precise(2, 3, 0)
        )
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        with pytest.raises(QueryError):
            ob_exists_probability_multi(
                paper_chain, observations, window
            )

    def test_matrices_argument_removed(self, paper_chain):
        observations = ObservationSet.single(
            Observation.precise(0, 3, 0)
        )
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        with pytest.raises(TypeError):
            ob_exists_probability_multi(
                paper_chain, observations, window, matrices=None
            )


# ----------------------------------------------------------------------
# Lemma 1 collapse: evidence before the window rides the single kernel
# ----------------------------------------------------------------------
GRID_STATES = 80
GRID_WINDOW = SpatioTemporalWindow.from_ranges(30, 50, 6, 9)
# re-sighting times relative to the window's T_q = [6, 9]
SIGHTED = {"before": (3,), "twice-before": (2, 4), "at": (6,),
           "inside": (8,), "after": (12,)}


def sighting(chain, observations, time, width=3):
    """A feasible, informative sighting at ``time``: the states around
    the likeliest one given ``observations``."""
    pdf, at = observations.first.distribution, observations.first.time
    for seen in observations.after(at):
        pdf = StateDistribution(
            chain.propagate(pdf, seen.time - at).vector
            * seen.distribution.vector,
            normalize=True,
        )
        at = seen.time
    center = chain.propagate(pdf, time - at).mode()
    low, high = max(0, center - width), min(chain.n_states, center + width)
    return Observation.uniform(time, chain.n_states, range(low, high + 1))


def grid_database(seed=71):
    """Single-observation objects plus objects re-sighted before, at,
    inside and after ``GRID_WINDOW``."""
    rng = np.random.default_rng(seed)
    chain = make_line_chain(GRID_STATES, max_step=10, rng=rng)
    database = TrajectoryDatabase.with_chain(
        chain, state_space=LineStateSpace(GRID_STATES)
    )
    for label, times in [("single", ())] + list(SIGHTED.items()):
        for index in range(4):
            low = int(rng.integers(22, 54))
            observations = ObservationSet.of(Observation.uniform(
                int(rng.integers(0, 2)), GRID_STATES, range(low, low + 4)
            ))
            for time in times:
                observations = ObservationSet(
                    observations.observations
                    + (sighting(chain, observations, time),)
                )
            database.add(UncertainObject(f"{label}-{index}", observations))
    return database


def section6(database, query):
    """Every object's answer by the Section VI doubled sweep."""
    ids = database.object_ids
    window = query.window
    if isinstance(query, PSTForAllQuery):
        window = window.with_region(
            query.region.complement(database.n_states)
        )
    answers = batch_exists_multi(
        database.chain(), [database.get(i).observations for i in ids],
        window,
    )
    if isinstance(query, PSTForAllQuery):
        answers = 1.0 - answers
    return dict(zip(ids, answers.tolist()))


def count_collapses(monkeypatch):
    calls = []
    original = PosteriorCollapse.run

    def counting(self, inputs, *args, **kwargs):
        calls.append(len(inputs[0]))
        return original(self, inputs, *args, **kwargs)

    monkeypatch.setattr(PosteriorCollapse, "run", counting)
    return calls


class TestLemma1Collapse:
    """A re-sighted object whose evidence all precedes the window
    answers from its filtered posterior through the planned single
    kernel; its answer is the Section VI doubled sweep's."""

    @pytest.mark.parametrize("layout", ["in-RAM", "store"])
    @pytest.mark.parametrize("dispatch", ["serial", "process"])
    @pytest.mark.parametrize("case", ["qb", "ob", "forall"])
    def test_matches_section6(self, tmp_path, layout, dispatch, case):
        database = grid_database()
        target = database
        if layout == "store":
            target = ShardedTrajectoryStore.create(
                tmp_path / "store", database, shards_per_chain=2
            )
        # journaled sightings: overlay objects the parent evaluates
        # next to the slab shards' re-sighted rows
        for object_id, time in [("single-0", 4), ("single-1", 7),
                                ("before-0", 5)]:
            seen = sighting(
                database.chain(), database.get(object_id).observations,
                time,
            )
            for writable in {id(database): database,
                             id(target): target}.values():
                writable.append_observation(object_id, seen)
        query_type = PSTForAllQuery if case == "forall" else PSTExistsQuery
        query = query_type(GRID_WINDOW)
        result = QueryEngine(target).evaluate(
            query,
            method="auto" if case == "forall" else case,
            options=PlanOptions(dispatch=dispatch, max_workers=2),
        )
        expected = section6(database, query)
        assert set(result.values) == set(expected)
        for object_id, value in expected.items():
            assert result.values[object_id] == pytest.approx(
                value, abs=1e-12
            ), object_id
        assert max(expected.values()) > 0.0

    @pytest.mark.parametrize("method", ["qb", "ob"])
    def test_tiny_chains_match_conditioned_enumeration(self, method):
        rng = np.random.default_rng(72)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            window = SpatioTemporalWindow(
                frozenset(int(s) for s in rng.choice(
                    n, size=int(rng.integers(1, n)), replace=False
                )),
                frozenset({3, 4}),
            )
            database = TrajectoryDatabase.with_chain(chain)
            oracles = {}
            for index, times in enumerate([(), (1,), (1, 2), (3,), (4,),
                                           (5,)]):
                first = random_distribution(n, rng, sparse=True)
                later = [(t, random_distribution(n, rng)) for t in times]
                database.add(UncertainObject(
                    f"o{index}",
                    ObservationSet.of(
                        Observation(0, first),
                        *(Observation(t, pdf) for t, pdf in later),
                    ),
                ))
                oracles[f"o{index}"] = PossibleWorldEnumerator(
                    chain, first, max((4,) + times)
                ).conditioned_on_observations(later)
            engine = QueryEngine(database)
            exists = engine.evaluate(PSTExistsQuery(window), method=method)
            forall = engine.evaluate(PSTForAllQuery(window), method=method)
            for object_id, oracle in oracles.items():
                assert exists.values[object_id] == pytest.approx(
                    oracle.exists_probability(window), abs=1e-12
                )
                assert forall.values[object_id] == pytest.approx(
                    oracle.probability_that(
                        lambda world: world.stays_within(window)
                    ),
                    abs=1e-12,
                )

    @pytest.mark.parametrize("method", ["qb", "ob"])
    @pytest.mark.parametrize("time", [1, 2])
    def test_contradictory_evidence_raises(self, paper_chain, method, time):
        """From s1 the object is certainly at s3 at t=1; a sighting at
        s1 then contradicts it, whether the collapse (before the
        window) or the doubled sweep (at it) meets it."""
        database = TrajectoryDatabase.with_chain(paper_chain)
        database.add(UncertainObject("o", ObservationSet.of(
            Observation.precise(0, 3, 0),
            Observation.precise(1, 3, 0),
        )))
        window = SpatioTemporalWindow(frozenset({1}), frozenset({time, 3}))
        with pytest.raises(InfeasibleEvidenceError):
            QueryEngine(database).evaluate(
                PSTExistsQuery(window), method=method
            )

    def test_backfilled_sighting_is_refiltered(self, monkeypatch):
        database = grid_database()
        engine = QueryEngine(database)
        query = PSTExistsQuery(GRID_WINDOW)
        calls = count_collapses(monkeypatch)
        engine.evaluate(query, method="qb")
        collapsed = len(calls)
        assert collapsed == 8  # "before-*" and "twice-before-*"
        engine.evaluate(query, method="ob")
        assert len(calls) == collapsed  # one table, every reader
        observations = database.get("twice-before-0").observations
        # between the two sightings the entry at t=4 was filtered over
        backfill = sighting(
            database.chain(),
            ObservationSet(observations.observations[:2]),
            3,
            width=1,
        )
        database.append_observation("twice-before-0", backfill)
        result = engine.evaluate(query, method="qb")
        assert len(calls) == collapsed + 1
        expected = section6(database, query)
        for object_id, value in expected.items():
            assert result.values[object_id] == pytest.approx(
                value, abs=1e-12
            )

    def test_readded_id_never_inherits_an_entry(self):
        database = grid_database()
        engine = QueryEngine(database)
        query = PSTExistsQuery(GRID_WINDOW)
        engine.evaluate(query)  # collapses "before-0"
        old = database.remove("before-0").observations
        fresh = ObservationSet.of(Observation.uniform(
            old.first.time, GRID_STATES, range(40, 44)
        ))
        fresh = ObservationSet(
            fresh.observations
            + (sighting(database.chain(), fresh, old.last.time),)
        )
        assert fresh.times == old.times
        database.add(UncertainObject("before-0", fresh))
        result = engine.evaluate(query)
        assert result.values["before-0"] == pytest.approx(
            section6(database, query)["before-0"], abs=1e-12
        )

    def test_explain_reports_the_split(self):
        plan = QueryEngine(grid_database()).explain(
            PSTExistsQuery(GRID_WINDOW)
        )
        (group,) = plan.groups
        features = group.features
        # before + twice-before collapse; at, inside and after double
        assert (
            features.n_single, features.n_collapsed, features.n_multi
        ) == (12, 8, 12)
        assert "12 (8 collapsed) single + 12 multi" in plan.describe()
