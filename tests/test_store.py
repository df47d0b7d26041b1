"""Out-of-core sharded store: parity, recovery, residency, doctor.

The load-bearing properties:

* the store facade answers every query kind (qb/ob/mc exists, exact
  and MC k-times, for-all) identically (1e-12; in practice bit-exact)
  to the in-RAM database it was created from -- across serial and
  process dispatch, where process dispatch takes the store-scatter
  path over zero-copy shard workers;
* the journal + snapshot format survives restarts: appends, adds and
  removes made after the snapshot replay on reopen, and ``snapshot()``
  folds the overlay into fresh slabs without changing any answer;
* shard workers attach the memory-mapped slabs once and serve every
  later query warm (``fresh_attaches == 0``), and a killed or
  poisoned worker degrades shard -> parent without changing answers;
* the slab pool keeps resident mapped bytes under the configured cap
  by LRU-unmapping cold slabs;
* ``store_health`` / ``sweep_stale_snapshots`` (the ``repro-bench
  doctor --store`` plumbing) report and reclaim stale generations.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import (
    Observation,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryEngine,
    SpatioTemporalWindow,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core import batch, pipeline
from repro.core.planner import PlanOptions
from repro.core.planner import SupervisorPolicy
from repro.core.state_space import LineStateSpace
from repro.core.streaming import StreamingQueryEngine
from repro.exec import dispatch
from repro.exec.faults import FaultInjector, FaultSpec
from repro.store.sharded import (
    ShardedTrajectoryStore,
    attach_shard,
    store_health,
    sweep_stale_snapshots,
)
from repro.store.slabs import SlabPool
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

N_STATES = 120
WINDOW = SpatioTemporalWindow.from_ranges(30, 45, 6, 9)

pytestmark = pytest.mark.skipif(
    not dispatch.process_dispatch_available(),
    reason="store scatter needs process dispatch (scipy)",
)


def build_database(
    seed: int, n_objects: int = 36, n_chains: int = 2
) -> TrajectoryDatabase:
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase(
        N_STATES, state_space=LineStateSpace(N_STATES)
    )
    for index in range(n_chains):
        database.register_chain(
            f"chain-{index}", make_line_chain(N_STATES, rng=rng)
        )
    for index in range(n_objects):
        database.add(
            UncertainObject.with_distribution(
                f"obj-{index}",
                make_object_distribution(N_STATES, 5, rng),
                time=int(rng.integers(0, 5)),
                chain_id=f"chain-{index % n_chains}",
            )
        )
    return database


def feasible_observation(database, object_id: str, time: int):
    """A precise observation consistent with the trajectory model."""
    obj = database.get(object_id)
    chain = database.chain(obj.chain_id)
    vector = np.asarray(
        obj.initial.distribution.vector, dtype=float
    )
    for _ in range(time - obj.initial.time):
        vector = vector @ chain.matrix
    state = int(np.argmax(vector))
    return Observation.precise(time, N_STATES, state)


def assert_parity(expect, got, bound=1e-12):
    assert set(expect) == set(got)
    for object_id in expect:
        delta = np.max(
            np.abs(
                np.asarray(expect[object_id], dtype=float)
                - np.asarray(got[object_id], dtype=float)
            )
        )
        assert delta <= bound, (object_id, delta)


@pytest.fixture
def database():
    return build_database(11)


@pytest.fixture
def store(tmp_path, database):
    return ShardedTrajectoryStore.create(
        tmp_path / "store", database, shards_per_chain=4
    )


class TestStoreParity:
    """Store vs in-RAM across query kinds and dispatch modes."""

    @pytest.mark.parametrize("mode", ["serial", "process"])
    @pytest.mark.parametrize(
        "query,kwargs",
        [
            (PSTExistsQuery(WINDOW), {"method": "qb"}),
            (PSTExistsQuery(WINDOW), {"method": "ob"}),
            (PSTForAllQuery(WINDOW), {}),
            (PSTKTimesQuery(WINDOW, k=2), {}),
            (PSTKTimesQuery(WINDOW), {}),
        ],
        ids=["qb", "ob", "forall", "ktimes-k", "ktimes-dist"],
    )
    def test_exact_kinds(self, database, store, query, kwargs, mode):
        expect = QueryEngine(database).evaluate(
            query, options=PlanOptions(dispatch="serial", **kwargs)
        ).values
        options = (
            PlanOptions(dispatch="serial", **kwargs)
            if mode == "serial"
            else PlanOptions(dispatch=mode, max_workers=2, **kwargs)
        )
        result = QueryEngine(store).evaluate(query, options=options)
        assert_parity(expect, result.values)
        if mode == "process":
            assert result.plan.store_stats is not None
            assert result.plan.store_stats["shards"] == 8

    @pytest.mark.parametrize("mode", ["serial", "process"])
    @pytest.mark.parametrize(
        "query", [PSTExistsQuery(WINDOW), PSTKTimesQuery(WINDOW, k=1)],
        ids=["exists", "ktimes"],
    )
    def test_seeded_mc(self, database, store, query, mode):
        kwargs = dict(
            method="mc", allow_approximate=True, n_samples=40, seed=7
        )
        expect = QueryEngine(database).evaluate(
            query, options=PlanOptions(dispatch="serial", **kwargs)
        ).values
        options = (
            PlanOptions(dispatch="serial", **kwargs)
            if mode == "serial"
            else PlanOptions(dispatch=mode, max_workers=2, **kwargs)
        )
        got = QueryEngine(store).evaluate(query, options=options).values
        # seeded MC streams are positional-stable, so parity is exact
        assert_parity(expect, got, bound=0.0)

    def test_multi_observation_parity(self, tmp_path):
        database = build_database(5)
        for object_id in list(database.object_ids)[::4]:
            database.append_observation(
                object_id,
                feasible_observation(database, object_id, 6),
            )
        store = ShardedTrajectoryStore.create(
            tmp_path / "multi", database, shards_per_chain=3
        )
        assert store.overlay_object_ids() == frozenset()
        expect = QueryEngine(database).evaluate(
            PSTExistsQuery(WINDOW), options=PlanOptions(dispatch="serial")
        ).values
        got = QueryEngine(store).evaluate(
            PSTExistsQuery(WINDOW),
            options=PlanOptions(dispatch="process", max_workers=2),
        ).values
        assert_parity(expect, got)


class TestJournalAndRestart:
    def test_mutations_replay_on_reopen(self, tmp_path, database):
        store = ShardedTrajectoryStore.create(
            tmp_path / "store", database, shards_per_chain=4
        )
        rng = np.random.default_rng(3)
        store.append_observation(
            "obj-1", feasible_observation(database, "obj-1", 6)
        )
        store.add(
            UncertainObject.with_distribution(
                "obj-new",
                make_object_distribution(N_STATES, 5, rng),
                time=1,
                chain_id="chain-0",
            )
        )
        store.remove("obj-2")
        reopened = ShardedTrajectoryStore(tmp_path / "store")
        assert set(reopened.object_ids) == set(store.object_ids)
        assert "obj-new" in reopened
        assert "obj-2" not in reopened
        assert len(reopened.get("obj-1").observations) == 2
        expect = QueryEngine(store).evaluate(
            PSTExistsQuery(WINDOW), options=PlanOptions(dispatch="serial")
        ).values
        got = QueryEngine(reopened).evaluate(
            PSTExistsQuery(WINDOW),
            options=PlanOptions(dispatch="process", max_workers=2),
        ).values
        assert_parity(expect, got)

    def test_snapshot_folds_overlay(self, tmp_path, database):
        store = ShardedTrajectoryStore.create(
            tmp_path / "store", database, shards_per_chain=4
        )
        store.append_observation(
            "obj-3", feasible_observation(database, "obj-3", 6)
        )
        assert "obj-3" in store.overlay_object_ids()
        before = QueryEngine(store).evaluate(
            PSTExistsQuery(WINDOW), options=PlanOptions(dispatch="serial")
        ).values
        generation = store.generation
        token = store.fusion_token
        store.snapshot()
        assert store.generation == generation + 1
        assert store.fusion_token != token
        assert store.overlay_object_ids() == frozenset()
        after = QueryEngine(store).evaluate(
            PSTExistsQuery(WINDOW),
            options=PlanOptions(dispatch="process", max_workers=2),
        ).values
        assert_parity(before, after)

    def test_journal_offsets_tracked_per_shard(self, store, database):
        store.append_observation(
            "obj-1", feasible_observation(database, "obj-1", 6)
        )
        report = store_health(store.path)
        assert report["journal_records"] >= 1
        assert report["shard_journal_offsets"]


class TestStreamingTicks:
    def test_ticks_match_batch_and_autosnapshot(
        self, tmp_path, database, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE_AUTOSNAPSHOT", "1")
        store = ShardedTrajectoryStore.create(
            tmp_path / "store", database, shards_per_chain=4
        )
        generation = store.generation
        streaming = StreamingQueryEngine(store)
        standing = streaming.watch(PSTExistsQuery(WINDOW), stride=1)
        batch = QueryEngine(store)
        for tick in range(3):
            if tick == 1:
                store.append_observation(
                    "obj-0",
                    feasible_observation(database, "obj-0", 5),
                )
            result = standing.tick()
            expect = batch.evaluate(
                result.query, options=PlanOptions(dispatch="serial")
            ).values
            assert_parity(expect, result.values)
        # the overlay crossed the (1-record) threshold after the tick
        # committed, so the store folded it into a new generation
        assert store.generation > generation
        assert store.overlay_object_ids() == frozenset()


class TestShardWorkers:
    def test_warm_queries_attach_nothing(self, store):
        if not hasattr(os, "fork"):
            pytest.skip("fork inheritance requires a fork platform")
        # map every shard in the parent, then drain the pool so the
        # next one forks *after* the mappings exist: workers inherit
        # the parent's shard views zero-copy and never attach fresh
        for entry in store.store_shards():
            attach_shard(
                str(store.path), store.generation, entry["shard_id"]
            )
        dispatch.shutdown()
        groups = [("chain-0", "qb", None), ("chain-1", "qb", None)]
        for _ in range(2):
            _values, _seconds, stats = dispatch.run_store_shards(
                store, groups, WINDOW, "exists", max_workers=2
            )
            assert stats["fresh_attaches"] == 0

    def test_attach_shard_is_cached_per_process(self, store):
        shard_id = store.store_shards()[0]["shard_id"]
        first, _ = attach_shard(
            str(store.path), store.generation, shard_id
        )
        second, fresh = attach_shard(
            str(store.path), store.generation, shard_id
        )
        assert second is first
        assert fresh is False

    def test_killed_worker_recovers_exactly(self, database, store):
        shard_id = store.store_shards()[0]["shard_id"]
        faults = FaultInjector(
            FaultSpec(
                site="worker:store-shard",
                action="kill",
                match={"shard_id": shard_id, "attempt": 0},
            )
        )
        expect = QueryEngine(database).evaluate(
            PSTExistsQuery(WINDOW), options=PlanOptions(dispatch="serial")
        ).values
        result = QueryEngine(store).evaluate(
            PSTExistsQuery(WINDOW),
            options=PlanOptions(
                dispatch="process", max_workers=2, faults=faults
            ),
        )
        assert_parity(expect, result.values)
        assert any(
            "rebuilt" in event for event in result.plan.degradations
        )

    def test_poisoned_shard_degrades_to_parent(self, database, store):
        shard_id = store.store_shards()[0]["shard_id"]
        faults = FaultInjector(
            FaultSpec(
                site="worker:store-shard",
                action="raise",
                match={"shard_id": shard_id},
                times=None,  # every worker attempt fails
            )
        )
        expect = QueryEngine(database).evaluate(
            PSTExistsQuery(WINDOW), options=PlanOptions(dispatch="serial")
        ).values
        result = QueryEngine(store).evaluate(
            PSTExistsQuery(WINDOW),
            options=PlanOptions(
                dispatch="process", max_workers=2, faults=faults
            ),
        )
        assert_parity(expect, result.values)
        assert result.plan.store_stats["parent_fallbacks"] == 1
        assert any(
            "degraded to parent" in event
            for event in result.plan.degradations
        )


    def test_pool_dead_at_every_submit_degrades_to_parent(
        self, monkeypatch, database, store
    ):
        # every pool the supervisor acquires is already dead: the
        # mid-scatter swap gives up after its bounded budget and the
        # parent answers every shard itself, exactly
        from concurrent.futures.process import BrokenProcessPool

        class DeadPool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("dead on arrival")

        swaps = []

        def acquire(max_workers):
            swaps.append(max_workers)
            return DeadPool(), True

        monkeypatch.setattr(dispatch, "_acquire_executor", acquire)
        monkeypatch.setattr(
            dispatch, "_invalidate_executor", lambda executor: None
        )
        monkeypatch.setattr(
            dispatch, "_release_executor", lambda executor, owned: None
        )
        expect = QueryEngine(database).evaluate(
            PSTExistsQuery(WINDOW), options=PlanOptions(dispatch="serial")
        ).values
        result = QueryEngine(store).evaluate(
            PSTExistsQuery(WINDOW),
            options=PlanOptions(
                dispatch="process",
                max_workers=2,
                supervisor=SupervisorPolicy(
                    max_retries=1, backoff_seconds=0.01
                ),
            ),
        )
        assert_parity(expect, result.values)
        stats = result.plan.store_stats
        assert stats["parent_fallbacks"] == stats["shards"] == 8
        assert len(swaps) == 1 + 3  # first pool + (max_retries + 2) swaps

    @pytest.mark.parametrize("index", [0, 3], ids=["first", "middle"])
    def test_pool_break_during_scatter_is_replaced_once(
        self, database, store, index
    ):
        from concurrent.futures.process import BrokenProcessPool

        faults = FaultInjector(
            FaultSpec(
                site="dispatch:submit",
                action="raise",
                exception=BrokenProcessPool,
                match={"index": index, "attempt": 0},
            )
        )
        expect = QueryEngine(database).evaluate(
            PSTExistsQuery(WINDOW), options=PlanOptions(dispatch="serial")
        ).values
        result = QueryEngine(store).evaluate(
            PSTExistsQuery(WINDOW),
            options=PlanOptions(
                dispatch="process", max_workers=2, faults=faults
            ),
        )
        assert_parity(expect, result.values)
        assert result.plan.store_stats["parent_fallbacks"] == 0
        assert [
            "replaced mid-submit" in event
            for event in result.plan.degradations
        ] == [True]


# ----------------------------------------------------------------------
# one kernel table: every path picks the same kernel for the same rows
# ----------------------------------------------------------------------
def _kernel_database(with_multi: bool) -> TrajectoryDatabase:
    """Rows observed before the window and at ``t_start``; with
    ``with_multi`` every fourth early one also gets a later sighting
    (k-times rejects those, so its database has none)."""
    database = build_database(21, n_objects=32)
    rng = np.random.default_rng(22)
    for index in range(8):
        database.add(
            UncertainObject.with_distribution(
                f"at-start-{index}",
                make_object_distribution(N_STATES, 5, rng),
                time=WINDOW.t_start,
                chain_id=f"chain-{index % 2}",
            )
        )
    if with_multi:
        for object_id in [f"obj-{index}" for index in range(0, 32, 4)]:
            # a sighting somewhere in the likelier half of where the
            # object can be by then: informative, yet most sampled
            # paths agree with it (MC needs one that does)
            obj = database.get(object_id)
            vector = np.asarray(obj.initial.distribution.vector, float)
            for _ in range(WINDOW.t_start - obj.initial.time):
                vector = vector @ database.chain(obj.chain_id).matrix
            likely = np.flatnonzero(vector >= np.median(vector[vector > 0]))
            database.append_observation(
                object_id,
                Observation.uniform(
                    WINDOW.t_start, N_STATES, likely.tolist()
                ),
            )
    return database


@pytest.fixture(scope="module")
def kernel_pairs(tmp_path_factory):
    """``{with_multi: (database, store of it)}``."""
    pairs = {}
    for with_multi in (True, False):
        database = _kernel_database(with_multi)
        pairs[with_multi] = database, ShardedTrajectoryStore.create(
            tmp_path_factory.mktemp("kernels") / "store",
            database,
            shards_per_chain=2,
        )
    return pairs


_NO_RETRIES = SupervisorPolicy(
    max_retries=0, backoff_seconds=0.0
)


class TestOneKernelTable:
    @pytest.mark.parametrize(
        "path", ["process", "store-serial", "store-scatter",
                 "store-parent-fallback"],
    )
    @pytest.mark.parametrize("method", ["qb", "ob", "mc"])
    @pytest.mark.parametrize(
        "query",
        [
            PSTExistsQuery(WINDOW),
            PSTForAllQuery(WINDOW),
            PSTKTimesQuery(WINDOW),
            PSTKTimesQuery(WINDOW, k=2),
        ],
        ids=["exists", "forall", "ktimes-dist", "ktimes-k"],
    )
    def test_paths_agree_with_serial(
        self, kernel_pairs, query, method, path
    ):
        database, store = kernel_pairs[
            not isinstance(query, PSTKTimesQuery)
        ]
        kwargs = dict(method=method)
        if method == "mc":
            kwargs.update(allow_approximate=True, n_samples=30, seed=5)
        expect = QueryEngine(database).evaluate(
            query, options=PlanOptions(dispatch="serial", **kwargs)
        ).values
        if path == "store-serial":
            kwargs.update(dispatch="serial")
        else:
            kwargs.update(dispatch="process", max_workers=2)
        if path == "store-parent-fallback":
            kwargs.update(
                supervisor=_NO_RETRIES,
                faults=FaultInjector(FaultSpec(
                    site="worker:store-shard", action="raise", times=None
                )),
            )
        target = database if path == "process" else store
        result = QueryEngine(target).evaluate(
            query, options=PlanOptions(**kwargs)
        )
        # seeded MC is draw-for-draw; the exact kernels are the same
        # kernels on the same rows
        assert_parity(
            expect, result.values, bound=0.0 if method == "mc" else 1e-12
        )
        if path == "store-parent-fallback":
            stats = result.plan.store_stats
            assert stats["parent_fallbacks"] == stats["shards"] == 4

    def test_every_caller_goes_through_evaluate_rows(
        self, monkeypatch, database, store
    ):
        import inspect
        import sys

        callers = []

        def counting(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        real = batch.evaluate_rows
        monkeypatch.setattr(batch, "evaluate_rows", counting)
        monkeypatch.setattr(pipeline, "evaluate_rows", counting)
        # run the worker entry points in this process, where the
        # patched function can see them
        monkeypatch.setattr(
            dispatch,
            "supervise",
            lambda tasks, worker_fn, **_: [worker_fn(t) for t in tasks],
        )
        for target, options in [
            (database, PlanOptions(dispatch="serial")),
            (database, PlanOptions(dispatch="process", max_workers=2)),
            (store, PlanOptions(dispatch="process", max_workers=2)),
        ]:
            QueryEngine(target).evaluate(
                PSTExistsQuery(WINDOW), options=options
            )
        assert set(callers) == {
            "_kernel", "_evaluate_shard", "_evaluate_store_shard"
        }
        # ...and nothing else picks a kernel behind its back
        for module in (pipeline, dispatch):
            source = inspect.getsource(module)
            for kernel in (
                "batch_exists_multi", "batch_mc_exists",
                "batch_qb_exists", "batch_ob_exists",
                "batch_ktimes_distribution", "ktimes_sweep",
                ".ktimes_distribution(",
            ):
                assert kernel not in source, (module.__name__, kernel)


class TestSlabResidency:
    def test_pool_keeps_resident_bytes_under_cap(self, store):
        slabs = [
            entry
            for shard in store.store_shards()
            for entry in [
                store.path
                / f"snapshot-{store.generation:06d}"
                / shard["shard_id"]
                / "obs_weights.npy"
            ]
        ]
        sizes = [path.stat().st_size for path in slabs]
        cap = max(sizes) + min(sizes)  # forces eviction churn
        pool = SlabPool(cap_bytes=cap)
        for path in slabs * 2:
            view = pool.map(path)
            assert view.size > 0
            assert pool.mapped_bytes() <= cap
        stats = pool.stats()
        assert stats["evictions"] > 0
        assert stats["high_water_bytes"] <= cap

    def test_ram_cap_env(self, monkeypatch):
        from repro.store.slabs import ram_cap_bytes

        monkeypatch.setenv("REPRO_STORE_RAM_CAP", "1048576")
        assert ram_cap_bytes() == 1048576
        monkeypatch.setenv("REPRO_STORE_RAM_CAP", "64m")
        assert ram_cap_bytes() == 64 * 1024 * 1024


class TestDoctor:
    def test_health_and_sweep(self, tmp_path, database):
        store = ShardedTrajectoryStore.create(
            tmp_path / "store", database, shards_per_chain=4
        )
        store.append_observation(
            "obj-1", feasible_observation(database, "obj-1", 6)
        )
        store.snapshot()  # leaves generation 1 on disk as stale
        report = store_health(store.path)
        assert report["shards"] == 8
        assert report["objects"] == 36
        assert report["slab_bytes"] > 0
        assert report["stale_snapshots"] == ["snapshot-000001"]
        removed, freed = sweep_stale_snapshots(store.path)
        assert removed == 1
        assert freed > 0
        assert store_health(store.path)["stale_snapshots"] == []
        # the swept store still answers queries
        values = QueryEngine(store).evaluate(
            PSTExistsQuery(WINDOW), options=PlanOptions(dispatch="serial")
        ).values
        assert len(values) == 36

    def test_doctor_cli_reports_store(self, tmp_path, database, capsys):
        from repro.bench.cli import main

        store = ShardedTrajectoryStore.create(
            tmp_path / "store", database, shards_per_chain=4
        )
        code = main(["doctor", "--store", str(store.path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "store         :" in out
        assert "8 holding 36 object(s)" in out
