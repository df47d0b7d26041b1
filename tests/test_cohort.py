"""Columnar chain cohorts and the array-speed filter -> refine path.

The load-bearing properties:

* whatever mix of ``add`` / ``append_observation`` / ``remove`` hits a
  database (in RAM, or a sharded store with overlay objects), the
  cohort-path ``exists`` / ``forall`` / ``ktimes`` answers equal the
  per-object evaluators -- and, where temporal independence is
  trivially true, ``core/naive.py`` -- to 1e-12, whether the cohorts
  were patched from the journal or rebuilt after it overflowed;
* filtered and unfiltered answers are bit-identical;
* ``QueryPipeline.execute`` never falls back to per-object Python;
* a region is one cache key however its states were listed.
"""

from __future__ import annotations

import tempfile
import threading
from concurrent.futures import Executor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    LineStateSpace,
    Observation,
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
    ktimes_distribution,
    ob_exists_probability,
    ob_forall_probability,
    qb_exists_probability,
)
from repro.core.errors import QueryError
from repro.core.naive import (
    naive_exists_probability,
    naive_ktimes_distribution,
)
from repro.core.object_based import ob_exists_probability_multi
from repro.core.query import Region
from repro.database import uncertain_db
from repro.database.pruning import ReachabilityPruner
from repro.store import ShardedTrajectoryStore
from repro.workloads.synthetic import make_line_chain

N_STATES = 40
CHAINS = ("bus", "car")
WINDOW = SpatioTemporalWindow.from_ranges(14, 20, 5, 7)
# one query time: temporal independence holds trivially, so the naive
# model is exact there
POINT = SpatioTemporalWindow(WINDOW.region, {WINDOW.t_end})
NO_FILTERS = PlanOptions(prefilter=False, bfs_prune=False)
TOLERANCE = 1e-12


def sighting(seed: int) -> StateDistribution:
    """A first observation: a few neighbouring states."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 4))
    low = int(rng.integers(0, N_STATES - width))
    weights = np.zeros(N_STATES)
    weights[low:low + width] = rng.random(width) + 0.1
    return StateDistribution(weights, normalize=True)


def resighting(seed: int) -> StateDistribution:
    """A later observation: vague everywhere (so never contradictory)
    with a bump where the object was probably seen."""
    rng = np.random.default_rng(seed)
    weights = np.ones(N_STATES)
    weights[int(rng.integers(0, N_STATES))] += 5.0
    return StateDistribution(weights, normalize=True)


def make_object(seed: int, chains=CHAINS) -> UncertainObject:
    return UncertainObject.with_distribution(
        f"obj-{seed}",
        sighting(seed),
        time=1 + seed % 3,
        chain_id=chains[seed % len(chains)],
    )


def seed_database(chains=CHAINS, n_objects: int = 8) -> TrajectoryDatabase:
    database = TrajectoryDatabase(
        N_STATES, state_space=LineStateSpace(N_STATES)
    )
    for index, chain_id in enumerate(chains):
        database.register_chain(
            chain_id,
            make_line_chain(
                N_STATES, max_step=2 + 2 * index,
                rng=np.random.default_rng(index),
            ),
        )
    database.add_all(
        [make_object(seed, chains) for seed in range(n_objects)]
    )
    return database


def apply(database, op) -> None:
    """One scripted mutation; ops naming a vanished object are no-ops."""
    kind, seed = op
    ids = database.object_ids
    if kind == "add":
        if f"obj-{seed}" not in database:
            database.add(make_object(seed))
    elif not ids:
        return
    elif kind == "remove":
        database.remove(ids[seed % len(ids)])
    else:
        obj = database.get(ids[seed % len(ids)])
        taken = {o.time for o in obj.observations}
        # "backfill" lands before the first sighting and re-anchors
        # the object; "observe" lands after it
        time = 0 if kind == "backfill" else 4
        while time in taken:
            time += 1
        if kind == "backfill" and time >= obj.initial.time:
            return
        database.append_observation(
            obj.object_id, Observation(time, resighting(seed))
        )


OPS = st.tuples(
    st.sampled_from(["add", "remove", "observe", "backfill"]),
    st.integers(0, 30),
)


def close(a, b) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= TOLERANCE)


def check_against_references(database, engine) -> None:
    """Engine answers == per-object evaluators == naive where exact."""
    exists = engine.evaluate(PSTExistsQuery(WINDOW)).values
    forall = engine.evaluate(PSTForAllQuery(WINDOW)).values
    point = engine.evaluate(PSTExistsQuery(POINT)).values
    assert set(exists) == set(forall) == set(database.object_ids)
    complement = WINDOW.with_region(WINDOW.region.complement(N_STATES))
    any_multi = False
    for obj in database:
        chain = database.chain(obj.chain_id)
        first = obj.initial
        if obj.has_multiple_observations():
            any_multi = True
            assert close(
                exists[obj.object_id],
                ob_exists_probability_multi(
                    chain, obj.observations, WINDOW
                ),
            )
            assert close(
                forall[obj.object_id],
                1.0 - ob_exists_probability_multi(
                    chain, obj.observations, complement
                ),
            )
            continue
        args = (chain, first.distribution, WINDOW, first.time)
        assert close(exists[obj.object_id], qb_exists_probability(*args))
        assert close(exists[obj.object_id], ob_exists_probability(*args))
        assert close(forall[obj.object_id], ob_forall_probability(*args))
        assert close(
            point[obj.object_id],
            naive_exists_probability(
                chain, first.distribution, POINT, first.time
            ),
        )
    ktimes = PSTKTimesQuery(WINDOW)
    if any_multi:
        for options in (None, NO_FILTERS):
            with pytest.raises(QueryError, match="multiple observations"):
                engine.evaluate(ktimes, options=options)
        return
    counts = engine.evaluate(ktimes).values
    point_counts = engine.evaluate(PSTKTimesQuery(POINT)).values
    for obj in database:
        chain = database.chain(obj.chain_id)
        first = obj.initial
        assert close(
            counts[obj.object_id],
            ktimes_distribution(
                chain, first.distribution, WINDOW, first.time
            ),
        )
        assert close(
            point_counts[obj.object_id],
            naive_ktimes_distribution(
                chain, first.distribution, POINT, first.time
            ),
        )


def check_filters_change_nothing(engine) -> None:
    """exists / for-all answers are bit-identical with the filters off
    (a pruned object's kernel answer is an exact 0.0 too); a pruned
    object's k-times answer is the exact point mass where the kernel
    sums the object's probability mass, so those agree to 1e-12."""
    for query in (
        PSTExistsQuery(WINDOW),
        PSTForAllQuery(WINDOW),
        PSTKTimesQuery(WINDOW),
    ):
        try:
            filtered = engine.evaluate(query).values
        except QueryError:
            continue  # k-times over a re-sighted object
        unfiltered = engine.evaluate(query, options=NO_FILTERS).values
        assert filtered.keys() == unfiltered.keys()
        for object_id, value in filtered.items():
            if isinstance(query, PSTKTimesQuery):
                assert close(value, unfiltered[object_id])
            else:
                assert value == unfiltered[object_id]


class TestInterleavedMutations:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(bursts=st.lists(st.lists(OPS, min_size=1, max_size=5), max_size=4))
    def test_in_ram_database(self, monkeypatch, bursts):
        # a three-entry journal: longer bursts overflow it and force a
        # cohort rebuild, shorter ones are patched in
        monkeypatch.setattr(uncertain_db, "_JOURNAL_LIMIT", 3)
        database = seed_database()
        engine = QueryEngine(database)
        check_against_references(database, engine)
        for burst in bursts:
            for op in burst:
                apply(database, op)
            check_against_references(database, engine)
            check_filters_change_nothing(engine)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(bursts=st.lists(st.lists(OPS, min_size=1, max_size=5), max_size=3))
    def test_sharded_store_with_overlay(self, monkeypatch, bursts):
        monkeypatch.setattr(uncertain_db, "_JOURNAL_LIMIT", 3)
        with tempfile.TemporaryDirectory() as scratch:
            store = ShardedTrajectoryStore.create(
                scratch + "/store", seed_database(), shards_per_chain=2
            )
            engine = QueryEngine(store)
            check_against_references(store, engine)
            for burst in bursts:
                for op in burst:
                    apply(store, op)
                check_against_references(store, engine)
                check_filters_change_nothing(engine)
            # a reopened store rebuilds its cohorts from slabs + journal
            reopened = ShardedTrajectoryStore(scratch + "/store")
            check_against_references(reopened, QueryEngine(reopened))


class TestCohortMaintenance:
    def test_journal_ops_patch_rows_in_place(self):
        database = seed_database()
        cohort = database.cohorts()["bus"]
        assert cohort.ids(cohort.rows) == [
            f"obj-{seed}" for seed in (0, 2, 4, 6)
        ]
        planned = cohort.rows
        row = cohort.row_of["obj-2"]
        database.append_observation(
            "obj-2", Observation(6, resighting(2))
        )
        database.remove("obj-4")
        database.add(make_object(10))
        assert database.cohorts()["bus"] is cohort  # patched, not rebuilt
        assert cohort.row_of["obj-2"] == row and cohort.is_multi[row]
        assert "obj-4" not in cohort.row_of
        assert cohort.ids(cohort.rows) == ["obj-0", "obj-2", "obj-6", "obj-10"]
        # the row array a plan took earlier still names the same objects
        assert cohort.ids(planned) == ["obj-0", "obj-2", "obj-4", "obj-6"]

    def test_backfilled_sighting_replaces_the_row(self):
        database = seed_database()
        cohort = database.cohorts()["car"]
        old_row = cohort.row_of["obj-1"]
        database.append_observation(
            "obj-1", Observation(0, resighting(1))
        )
        cohort = database.cohorts()["car"]
        row = cohort.row_of["obj-1"]
        assert row != old_row and cohort.start_time[row] == 0
        assert cohort.is_multi[row]
        block = cohort.block(np.array([row]))
        assert np.array_equal(
            block.states, np.arange(N_STATES)
        )  # the vague re-sighting is the anchor now

    def test_journal_overflow_rebuilds(self, monkeypatch):
        monkeypatch.setattr(uncertain_db, "_JOURNAL_LIMIT", 2)
        database = seed_database()
        before = database.cohorts()["bus"]
        for seed in (10, 12, 14):
            database.add(make_object(seed))
        assert database.changes_since(database._cohort_version) is None
        after = database.cohorts()["bus"]
        assert after is not before
        assert len(after) == 7

    def test_dead_rows_are_compacted(self):
        database = seed_database()
        database.cohorts()
        for round_ in range(40):
            database.add(make_object(100 + 2 * round_))
            database.cohorts()
            database.remove(f"obj-{100 + 2 * round_}")
        cohort = database.cohorts()["bus"]
        assert len(cohort) == 4
        assert cohort.n_rows - len(cohort) <= 64 + 1

    def test_concurrent_queries_share_one_sync(self):
        database = seed_database()
        engine = QueryEngine(database)
        expected = engine.evaluate(PSTExistsQuery(WINDOW)).values
        database.add(make_object(20))
        expected = dict(expected)
        errors = []

        def worker():
            try:
                values = engine.evaluate(PSTExistsQuery(WINDOW)).values
                assert set(values) == set(database.object_ids)
                for object_id, value in expected.items():
                    assert values[object_id] == value
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors


class TestNoPerObjectPython:
    @pytest.mark.parametrize("storage", ["ram", "store"])
    def test_execute_never_walks_objects(self, monkeypatch, tmp_path, storage):
        database = seed_database()
        if storage == "store":
            database = ShardedTrajectoryStore.create(
                tmp_path / "store", database, shards_per_chain=2
            )
            database.add(make_object(11))  # an overlay object
        engine = QueryEngine(database)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("per-object Python in the query path")

        monkeypatch.setattr(ReachabilityPruner, "can_satisfy", forbidden)
        monkeypatch.setattr(StateDistribution, "support", forbidden)
        for cls in StateDistribution.__subclasses__():
            if "support" in cls.__dict__:
                monkeypatch.setattr(cls, "support", forbidden)
        for query in (
            PSTExistsQuery(WINDOW),
            PSTForAllQuery(WINDOW),
            PSTKTimesQuery(WINDOW),
        ):
            result = engine.evaluate(
                query,
                options=PlanOptions(prefilter=True, bfs_prune=True),
            )
            assert set(result.values) == set(database.object_ids)
            assert [stage.detail for stage in result.plan.stages[:2]] != [
                "off", "off"
            ]

    def test_semantic_checks_do_not_depend_on_filters(self):
        database = seed_database()
        engine = QueryEngine(database)
        early = PSTExistsQuery(SpatioTemporalWindow.from_ranges(0, 3, 1, 2))
        messages = set()
        for options in (None, NO_FILTERS):
            with pytest.raises(QueryError) as caught:
                engine.evaluate(early, options=options)
            messages.add(str(caught.value))
        assert len(messages) == 1
        assert "precedes the observation at t=3" in messages.pop()

    def test_planned_evaluation_starts_no_threads(self):
        # the thread rung cannot creep back: a multi-chain database big
        # enough for the old rule (>= 2 groups, >= 32 objects) plans
        # serial, runs in the calling thread, and the pipeline owns no
        # executor
        engine = QueryEngine(
            seed_database(("bus", "car", "tram", "bike"), n_objects=40)
        )
        before = threading.active_count()
        for query, method in (
            (PSTExistsQuery(WINDOW), "auto"),
            (PSTForAllQuery(WINDOW), "auto"),
            (PSTKTimesQuery(WINDOW), "auto"),
            (PSTExistsQuery(WINDOW), "mc"),
        ):
            plan = engine.evaluate(query, method=method, seed=3).plan
            assert len(plan.groups) == 4
            assert plan.dispatch == "serial"
            assert plan.stages[-1].detail.startswith("serial")
            assert threading.active_count() == before
        assert not any(
            isinstance(value, Executor)
            for value in vars(engine.pipeline).values()
        )

    def test_concurrent_evaluates_with_different_widths(self):
        # four caller threads share one engine (plan cache, pruner,
        # cohorts) under default options
        database = seed_database()
        engine = QueryEngine(database)
        reference = engine.evaluate(PSTExistsQuery(WINDOW)).values
        errors = []

        def worker() -> None:
            try:
                for _ in range(40):
                    got = engine.evaluate(PSTExistsQuery(WINDOW)).values
                    assert got == reference
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestCanonicalRegionKey:
    def test_order_and_duplicates_do_not_matter(self):
        first = SpatioTemporalWindow([16, 14, 15], {5, 6})
        second = SpatioTemporalWindow((15, 16, 14, 14), [6, 5])
        assert first == second
        assert first.region.key == second.region.key
        assert first.region is not second.region
        assert np.array_equal(first.region.array, [14, 15, 16])
        assert Region(first.region) is first.region

    def test_same_plan_cache_entry_and_bfs_labelling(self):
        database = seed_database()
        chain = database.chain("bus")
        first = SpatioTemporalWindow([16, 14, 15], {5, 6})
        second = SpatioTemporalWindow((15, 16, 14), [6, 5])
        cache = PlanCache()
        matrices = cache.absorbing(chain, first.region)
        assert cache.absorbing(chain, second.region) is matrices
        assert cache.absorbing(chain, [15, 14, 16]) is matrices
        assert cache.contains("absorbing", chain, frozenset({14, 15, 16}))
        assert cache.stats.constructions == {"absorbing": 1}
        vectors = cache.backward_vectors(chain, first, [1])
        assert cache.backward_vectors(chain, second, [1])[1] is vectors[1]
        pruner = ReachabilityPruner(database)
        levels = pruner.levels("bus", first.region, 4)
        assert pruner.levels("bus", second.region, 4) is levels
        assert pruner.min_levels("bus", {16, 15, 14}) is levels
        assert len(pruner._bfs_state) == 1
