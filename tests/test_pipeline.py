"""Tests for the staged filter-refinement pipeline.

The load-bearing properties:

* planned ``method="auto"`` execution matches every forced method to
  1e-12 on mixed single-/multi-observation databases (filters are
  exact-safe, kernels are shared);
* the prefilter + BFS stages never eliminate an object whose true
  probability is non-zero (randomized safety property);
* EXPLAIN stage cardinalities are monotonically non-increasing;
* the shared plan cache survives concurrent hammering.
"""

from __future__ import annotations

import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LineStateSpace,
    Observation,
    ObservationSet,
    PlanCache,
    PlanOptions,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.errors import QueryError
from repro.exec import dispatch
from repro.store.sharded import forget_generations
from repro.workloads.synthetic import make_line_chain

from conftest import random_chain

NO_FILTERS = PlanOptions(prefilter=False, bfs_prune=False)


def mixed_line_database(
    n_objects=20,
    n_states=200,
    max_step=8,
    seed=0,
    chain_ids=("default",),
    multi_every=4,
):
    """Line-space database with single- and multi-observation objects."""
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase(
        n_states, state_space=LineStateSpace(n_states)
    )
    chains = {}
    for index, chain_id in enumerate(chain_ids):
        chain = make_line_chain(
            n_states, max_step=max_step, seed=seed + index
        )
        chains[chain_id] = chain
        database.register_chain(chain_id, chain)
    for index in range(n_objects):
        chain_id = chain_ids[index % len(chain_ids)]
        state = int(rng.integers(0, n_states))
        if multi_every and index % multi_every == 0:
            # second observation drawn from the chain's own dynamics so
            # evidence is never contradictory
            later = chains[chain_id].propagate(
                StateDistribution.point(n_states, state), 3
            )
            observations = ObservationSet.of(
                Observation.precise(0, n_states, state),
                Observation(3, later),
            )
            database.add(
                UncertainObject(
                    f"o{index}", observations, chain_id=chain_id
                )
            )
        else:
            database.add(
                UncertainObject.at_state(
                    f"o{index}", n_states, state, chain_id=chain_id
                )
            )
    return database


WINDOW = SpatioTemporalWindow.from_ranges(0, 15, 5, 8)


class TestAutoParity:
    def test_auto_matches_forced_qb_and_ob(self):
        database = mixed_line_database(seed=1)
        engine = QueryEngine(database)
        auto = engine.evaluate(PSTExistsQuery(WINDOW))
        for method in ("qb", "ob"):
            forced = engine.evaluate(
                PSTExistsQuery(WINDOW), method=method
            )
            for object_id in database.object_ids:
                assert auto.values[object_id] == pytest.approx(
                    forced.values[object_id], abs=1e-12
                )

    def test_auto_matches_unfiltered_evaluation(self):
        database = mixed_line_database(seed=2)
        engine = QueryEngine(database)
        auto = engine.evaluate(PSTExistsQuery(WINDOW))
        plain = engine.evaluate(
            PSTExistsQuery(WINDOW), method="qb", options=NO_FILTERS
        )
        for object_id in database.object_ids:
            assert auto.values[object_id] == pytest.approx(
                plain.values[object_id], abs=1e-12
            )

    def test_mc_filtered_matches_mc_unfiltered(self):
        # per-object seeding makes the MC path reproduce draw for draw
        # no matter what the filter stages removed
        database = mixed_line_database(seed=3)
        engine = QueryEngine(database)
        filtered = engine.evaluate(
            PSTExistsQuery(WINDOW),
            method="mc",
            seed=7,
            options=PlanOptions(prefilter=True, bfs_prune=True),
        )
        plain = engine.evaluate(
            PSTExistsQuery(WINDOW),
            method="mc",
            seed=7,
            options=NO_FILTERS,
        )
        for object_id in database.object_ids:
            assert (
                filtered.values[object_id] == plain.values[object_id]
            )

    def test_forall_auto_matches_forced(self):
        database = mixed_line_database(seed=4, multi_every=0)
        engine = QueryEngine(database)
        auto = engine.evaluate(PSTForAllQuery(WINDOW))
        forced = engine.evaluate(
            PSTForAllQuery(WINDOW), method="qb", options=NO_FILTERS
        )
        for object_id in database.object_ids:
            assert auto.values[object_id] == pytest.approx(
                forced.values[object_id], abs=1e-12
            )

    def test_ktimes_auto_matches_unfiltered(self):
        database = mixed_line_database(seed=5, multi_every=0)
        engine = QueryEngine(database)
        auto = engine.evaluate(PSTKTimesQuery(WINDOW))
        plain = engine.evaluate(
            PSTKTimesQuery(WINDOW), options=NO_FILTERS
        )
        for object_id in database.object_ids:
            assert np.allclose(
                auto.values[object_id],
                plain.values[object_id],
                atol=1e-12,
            )
            assert auto.values[object_id].sum() == pytest.approx(1.0)

    def test_ktimes_scalar_k_for_pruned_objects(self):
        database = mixed_line_database(seed=6, multi_every=0)
        engine = QueryEngine(database)
        zero_hits = engine.evaluate(PSTKTimesQuery(WINDOW, k=0))
        exists = engine.evaluate(PSTExistsQuery(WINDOW))
        for object_id in database.object_ids:
            assert exists.values[object_id] == pytest.approx(
                1.0 - zero_hits.values[object_id], abs=1e-10
            )

    def test_late_observation_rejected_regardless_of_filters(self):
        # an object observed after the query start is a data error the
        # kernels reject; the filter stages must not mask it by zeroing
        # the object first (the outcome must not depend on whether the
        # planner happened to enable a filter)
        database = mixed_line_database(seed=16, multi_every=0)
        database.add(
            UncertainObject.at_state(
                "late", database.n_states, 0, time=WINDOW.t_end + 1
            )
        )
        engine = QueryEngine(database)
        for options in (
            None,
            NO_FILTERS,
            PlanOptions(prefilter=True, bfs_prune=True),
        ):
            with pytest.raises(QueryError, match="precedes"):
                engine.evaluate(
                    PSTExistsQuery(WINDOW), options=options
                )

    def test_ktimes_multi_observation_rejected_despite_pruning(self):
        database = mixed_line_database(seed=7, multi_every=3)
        engine = QueryEngine(database)
        with pytest.raises(QueryError):
            engine.evaluate(PSTKTimesQuery(WINDOW))


class TestFilterSafety:
    # 30 examples in tier-1; the ci hypothesis profile (2,000) runs 600
    @given(
        n_states=st.integers(40, 159),
        n_objects=st.integers(6, 17),
        half_step=st.integers(2, 11),
        seed=st.integers(0, 9_999),
        multi_every=st.integers(0, 4),
        chains=st.sampled_from([("default",), ("cars", "trucks")]),
        data=st.data(),
    )
    @settings(
        max_examples=settings.default.max_examples * 3 // 10,
        deadline=None,
    )
    def test_filters_never_drop_nonzero_objects_randomized(
        self, n_states, n_objects, half_step, seed, multi_every, chains,
        data,
    ):
        """Every path that runs the Section V-C filter -- the serial
        pipeline with both stages forced on, a store shard worker over
        the same objects, a standing-query tick -- zeroes only objects
        whose unfiltered QB answer is exactly 0, and agrees with that
        answer and with the serial pipeline's at 1e-12."""
        database = mixed_line_database(
            n_objects=n_objects,
            n_states=n_states,
            max_step=2 * half_step,
            seed=seed,
            chain_ids=chains,
            multi_every=multi_every,
        )
        low = data.draw(st.integers(0, n_states - 6), label="low")
        high = min(n_states - 1, low + data.draw(st.integers(1, 7)))
        t_low = data.draw(st.integers(1, 5), label="t_low")
        window = SpatioTemporalWindow.from_ranges(
            low, high, t_low, t_low + data.draw(st.integers(0, 3))
        )
        engine = QueryEngine(database)
        plain = engine.evaluate(
            PSTExistsQuery(window), method="qb", options=NO_FILTERS
        ).values
        serial = engine.evaluate(
            PSTExistsQuery(window),
            options=PlanOptions(
                prefilter=True, bfs_prune=True, dispatch="serial"
            ),
        ).values
        with tempfile.TemporaryDirectory() as root:
            manifest = dispatch.publish_csr(database, root, 1, 2)
            shards = {}
            try:
                for chain_id in chains:
                    shards.update(dispatch._evaluate_store_shards(
                        dispatch._StoreTask(
                            store_dir=root,
                            generation=1,
                            chain_id=chain_id,
                            kind="exists",
                            method="qb",
                            region=tuple(sorted(window.region)),
                            times=tuple(sorted(window.times)),
                            shards=tuple(
                                (entry["shard_id"], ())
                                for entry in manifest["shards"]
                                if entry["chain_id"] == chain_id
                            ),
                        )
                    )[1])
            finally:
                forget_generations(root)
        tick = engine.watch(PSTExistsQuery(window)).tick().values
        for values in (serial, shards, tick):
            assert set(values) == set(database.object_ids)
            for object_id, value in values.items():
                assert value == pytest.approx(plain[object_id], abs=1e-12)
                assert value == pytest.approx(serial[object_id], abs=1e-12)
                if value == 0.0:
                    assert plain[object_id] == 0.0


class TestExplain:
    def test_stage_counts_monotonically_non_increasing(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            database = mixed_line_database(
                n_objects=16, seed=seed, multi_every=0
            )
            engine = QueryEngine(database)
            plan = engine.explain(PSTExistsQuery(WINDOW))
            counts = plan.stage_counts()
            assert counts[0] == len(database)
            assert all(
                later <= earlier
                for earlier, later in zip(counts, counts[1:])
            )
        # a selective window at the low end of a line space whose
        # objects spread uniformly over two chains: auto planning
        # leaves the geometric prefilter off (BFS prunes everything it
        # could), and forced on it removes >= 80% of the database
        database = mixed_line_database(
            n_objects=100,
            n_states=1_000,
            seed=3,
            chain_ids=("cars", "trucks"),
            multi_every=0,
        )
        engine = QueryEngine(database)
        auto = engine.explain(PSTExistsQuery(WINDOW))
        assert not auto.use_prefilter
        assert auto.stages[0].name == "prefilter"
        assert auto.stages[0].detail == "off"
        plan = engine.explain(
            PSTExistsQuery(WINDOW), options=PlanOptions(prefilter=True)
        )
        counts = plan.stage_counts()
        assert all(
            later <= earlier for earlier, later in zip(counts, counts[1:])
        )
        prefilter = plan.stages[0]
        assert prefilter.name == "prefilter"
        assert prefilter.candidates_out <= 0.2 * prefilter.candidates_in
        assert counts[-1] == auto.stage_counts()[-1]

    def test_plan_recorded_on_result(self):
        database = mixed_line_database(seed=12)
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(WINDOW))
        assert result.plan is not None
        assert [stage.name for stage in result.plan.stages] == [
            "prefilter",
            "bfs",
            "evaluate",
        ]
        assert all(
            stage.elapsed_seconds >= 0.0
            for stage in result.plan.stages
        )

    def test_trivial_forall_has_no_plan(self):
        database = mixed_line_database(
            seed=13, n_states=50, multi_every=0
        )
        window = SpatioTemporalWindow(
            frozenset(range(50)), frozenset({2})
        )
        result = QueryEngine(database).evaluate(PSTForAllQuery(window))
        assert result.plan is None
        assert all(
            value == pytest.approx(1.0)
            for value in result.values.values()
        )
        with pytest.raises(QueryError):
            QueryEngine(database).explain(PSTForAllQuery(window))


class TestPlanCacheThreadSafety:
    def test_concurrent_mixed_workload(self):
        rng = np.random.default_rng(21)
        chains = [random_chain(12, rng) for _ in range(4)]
        windows = [
            SpatioTemporalWindow(
                frozenset({int(s) for s in rng.choice(12, 3, replace=False)}),
                frozenset({2, 3}),
            )
            for _ in range(4)
        ]
        cache = PlanCache(maxsize=8)
        errors = []

        def hammer(worker: int) -> None:
            try:
                local = np.random.default_rng(worker)
                for _ in range(40):
                    chain = chains[int(local.integers(0, len(chains)))]
                    window = windows[
                        int(local.integers(0, len(windows)))
                    ]
                    blocks = cache.ktimes_blocks(chain, window, [0])
                    assert blocks[0].shape == (12, window.duration + 1)
                    cache.backward_vectors(chain, window, [0, 1])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8
        assert cache.stats.hits > 0
