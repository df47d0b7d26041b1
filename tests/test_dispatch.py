"""Process dispatch: parity, the in-RAM spill, the auto rule.

The load-bearing properties:

* process-pool and serial dispatch agree to 1e-12 on
  randomized multi-chain workloads -- including after mid-run
  ``append_observation`` mutations (which turn objects into
  multi-observation Section VI cases); an in-RAM database reaches the
  pool by being spilled into the store's slab format;
* the spill publishes the chain CSR bit-for-bit, and workers map it
  zero-copy;
* one spill per database version: a second query reuses it, a write
  re-lays it at the next generation and removes the old one, a spill
  swept from under the cache is rebuilt, and ``shutdown()`` removes
  them all;
* auto dispatch never spills: it picks the pool only for a sharded
  store.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro import (
    Observation,
    PSTExistsQuery,
    PSTForAllQuery,
    QueryEngine,
    SpatioTemporalWindow,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.planner import CostModel, PlanOptions, QueryPlanner
from repro.core.state_space import LineStateSpace
from repro.exec import dispatch
from repro.store.sharded import (
    ShardedTrajectoryStore,
    open_store_chain,
    snapshot_dir,
)
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

N_STATES = 300
WINDOW = SpatioTemporalWindow.from_ranges(80, 110, 8, 11)

pytestmark = pytest.mark.skipif(
    not dispatch.process_dispatch_available(),
    reason="process dispatch needs scipy",
)


def build_database(seed: int, n_objects: int = 60, n_chains: int = 3):
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


PROCESS = PlanOptions(dispatch="process", max_workers=2)


def assert_process_matches_serial(engine, database, query=None):
    query = query or PSTExistsQuery(WINDOW)
    serial = engine.evaluate(query, options=PlanOptions(dispatch="serial"))
    process = engine.evaluate(query, options=PROCESS)
    assert process.plan.dispatch == "process"
    for object_id in database.object_ids:
        assert process.values[object_id] == pytest.approx(
            serial.values[object_id], abs=1e-12
        )
    return process


def spill_of(database):
    return dispatch._SPILLS._spills[id(database)]


@pytest.fixture
def publications(monkeypatch):
    """Every spill layout of the test, as ``(root, generation)``."""
    calls = []
    real = dispatch.publish_csr

    def counting(database, root, generation, shards_per_chain):
        calls.append((root, generation))
        return real(database, root, generation, shards_per_chain)

    monkeypatch.setattr(dispatch, "publish_csr", counting)
    return calls


class TestSharedMemoryRoundtrip:
    """The spill in ``/dev/shm`` is the shared memory workers read."""

    def test_csr_roundtrip_is_exact(self, tmp_path):
        database = build_database(seed=1, n_objects=12, n_chains=2)
        dispatch.publish_csr(database, str(tmp_path / "spill"), 1, 2)
        for chain_id in database.chain_ids:
            attached = open_store_chain(str(tmp_path / "spill"), chain_id)
            expected = database.chain(chain_id).matrix
            assert (attached.matrix != expected).nnz == 0
            np.testing.assert_array_equal(
                attached.matrix.data, expected.data
            )

    def test_attached_matrix_is_zero_copy(self, tmp_path):
        database = build_database(seed=2, n_objects=12, n_chains=1)
        dispatch.publish_csr(database, str(tmp_path / "spill"), 1, 2)
        attached = open_store_chain(str(tmp_path / "spill"), "chain-0")
        # the arrays view the memory-mapped slab, they do not own data
        assert not attached.matrix.data.flags["OWNDATA"]


class TestDispatchParity:
    @pytest.mark.parametrize("method", ["auto", "qb", "ob"])
    def test_modes_agree_on_randomized_workloads(self, method):
        database = build_database(seed=11)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)
        results = {
            mode: engine.evaluate(
                query,
                method=method,
                options=PlanOptions(dispatch=mode, max_workers=2),
            )
            for mode in ("serial", "process")
        }
        assert results["process"].plan.dispatch == "process"
        for object_id in database.object_ids:
            assert results["process"].values[object_id] == pytest.approx(
                results["serial"].values[object_id], abs=1e-12
            )

    def test_parity_survives_append_observation(self):
        """Mid-run mutations (objects turning multi) keep parity."""
        database = build_database(seed=23)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)
        rng = np.random.default_rng(7)
        for round_index in range(3):
            # re-sight a few objects: they become Section VI multis
            for _ in range(4):
                object_id = f"obj-{int(rng.integers(0, 60))}"
                obj = database.get(object_id)
                last = obj.observations.last.time
                # a broad (always-feasible) re-sighting still forces
                # the Section VI doubled-space path for this object
                database.append_observation(
                    object_id,
                    Observation.uniform(
                        last + 1 + round_index,
                        N_STATES,
                        range(N_STATES),
                    ),
                )
            serial = engine.evaluate(
                query, options=PlanOptions(dispatch="serial")
            )
            process = engine.evaluate(
                query,
                options=PlanOptions(dispatch="process", max_workers=2),
            )
            for object_id in database.object_ids:
                assert process.values[object_id] == pytest.approx(
                    serial.values[object_id], abs=1e-12
                )

    def test_seeded_mc_exists_rides_pool_bit_exact(self):
        """Seeded MC singles shard into the pool with identical
        per-object seed streams: parity is bit-exact, not 1e-12."""
        database = build_database(seed=47, n_objects=24)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)
        serial = engine.evaluate(
            query,
            method="mc",
            options=PlanOptions(
                dispatch="serial", n_samples=64, seed=123
            ),
        )
        process = engine.evaluate(
            query,
            method="mc",
            options=PlanOptions(
                dispatch="process", max_workers=2,
                n_samples=64, seed=123,
            ),
        )
        for object_id in database.object_ids:
            assert (
                process.values[object_id]
                == serial.values[object_id]
            )

    def test_forall_complement_rides_process_dispatch(self):
        database = build_database(seed=31, n_objects=30)
        engine = QueryEngine(database)
        query = PSTForAllQuery(WINDOW)
        serial = engine.evaluate(
            query, options=PlanOptions(dispatch="serial")
        )
        process = engine.evaluate(
            query, options=PlanOptions(dispatch="process", max_workers=2)
        )
        for object_id in database.object_ids:
            assert process.values[object_id] == pytest.approx(
                serial.values[object_id], abs=1e-12
            )

    def test_process_mode_fills_group_elapsed(self):
        database = build_database(seed=61, n_objects=24)
        engine = QueryEngine(database)
        result = engine.evaluate(
            PSTExistsQuery(WINDOW),
            options=PlanOptions(dispatch="process", max_workers=2),
        )
        for group in result.plan.groups:
            assert group.elapsed_seconds is not None
            assert group.elapsed_seconds >= 0.0
        assert any(
            group.elapsed_seconds > 0.0
            for group in result.plan.groups
        )

    def test_single_qb_group_does_not_auto_pick_process(self):
        """A lone QB group cannot shard: auto dispatch must not pay
        fork/publication for zero parallelism, even when the
        estimated cost clears the process threshold."""
        database = build_database(
            seed=71, n_objects=80, n_chains=1
        )
        planner = QueryPlanner(
            database,
            cost_model=CostModel(process_min_cost=0.0),
        )
        plan = planner.plan(
            PSTExistsQuery(WINDOW), PlanOptions(method="qb")
        )
        assert plan.dispatch != "process"

    def test_explain_surfaces_dispatch_and_operators(self):
        database = build_database(seed=41, n_objects=24)
        engine = QueryEngine(database)
        plan = engine.explain(
            PSTExistsQuery(WINDOW),
            options=PlanOptions(dispatch="process", max_workers=2),
        )
        assert plan.dispatch == "process"
        assert plan.operator_seconds  # timing hooks populated
        rendered = plan.describe()
        assert "process x" in rendered
        assert "operators:" in rendered
        evaluate_stage = [
            stage for stage in plan.stages if stage.name == "evaluate"
        ][0]
        assert "process" in evaluate_stage.detail

    # -- the spill: one scratch store per database version -------------
    def test_two_queries_on_one_version_make_one_spill(
        self, publications
    ):
        database = build_database(seed=81, n_objects=24)
        engine = QueryEngine(database)
        assert_process_matches_serial(engine, database)
        assert_process_matches_serial(engine, database)
        assert len(publications) == 1
        assert spill_of(database).leases == 0

    def test_write_respills_once_and_drops_the_old_generation(
        self, publications
    ):
        database = build_database(seed=82, n_objects=24)
        engine = QueryEngine(database)
        assert_process_matches_serial(engine, database)
        database.append_observation(
            "obj-3",
            Observation.uniform(6, N_STATES, range(N_STATES)),
        )
        result = assert_process_matches_serial(engine, database)
        assert result.plan.store_stats["shards"] > 0
        spill = spill_of(database)
        assert [generation for _root, generation in publications] == [1, 2]
        assert spill.generation == 2 and spill.leases == 0
        assert not snapshot_dir(spill.path, 1).exists()
        assert snapshot_dir(spill.path, 2).exists()

    def test_removed_spill_is_rebuilt(self, publications):
        """A spill swept from under the cache (a tmp cleaner) is laid
        out again, and the next answer is exact."""
        database = build_database(seed=83, n_objects=24)
        engine = QueryEngine(database)
        assert_process_matches_serial(engine, database)
        shutil.rmtree(spill_of(database).path)
        assert_process_matches_serial(engine, database)
        assert len(publications) == 2

    def test_shutdown_removes_this_sessions_spills(self):
        database = build_database(seed=84, n_objects=24)
        assert_process_matches_serial(QueryEngine(database), database)
        assert dispatch.memory_stats()["session_bytes"] > 0
        dispatch.shutdown()
        assert not any(
            info.pid == os.getpid() for info in dispatch.list_segments()
        )
        assert dispatch.memory_stats()["session_bytes"] == 0

    def test_concurrent_queries_and_writes_share_one_spill(self):
        """More query threads than cores race a writer: every query
        answers, every lease is returned, and only the generation of
        the last version stays on disk."""
        import sys
        import threading

        database = build_database(seed=86, n_objects=24)
        engine = QueryEngine(database)
        errors = []

        def query() -> None:
            try:
                for _ in range(3):
                    engine.evaluate(PSTExistsQuery(WINDOW), options=PROCESS)
            except Exception as error:  # reported below
                errors.append(error)

        def write() -> None:
            rng = np.random.default_rng(9)
            for index in range(6):
                database.add(UncertainObject.with_distribution(
                    f"late-{index}",
                    make_object_distribution(N_STATES, 5, rng),
                    time=2,
                    chain_id="chain-0",
                ))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=query) for _ in range(4)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert_process_matches_serial(engine, database)
        spill = spill_of(database)
        assert spill.leases == 0
        assert sorted(
            p.name for p in snapshot_dir(spill.path, 1).parent.iterdir()
            if p.name.startswith("snapshot-")
        ) == [snapshot_dir(spill.path, spill.generation).name]

    # -- auto never spills ---------------------------------------------
    @pytest.mark.parametrize("layout", ["in-ram", "store"])
    def test_auto_picks_process_only_for_a_store(
        self, layout, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        model = CostModel(process_min_cost=0.0)
        database = build_database(
            seed=85, n_objects=2 * model.shard_min_objects, n_chains=1
        )
        if layout == "store":
            database = ShardedTrajectoryStore.create(
                tmp_path / "store", database, shards_per_chain=4
            )
        plan = QueryPlanner(database, cost_model=model).plan(
            PSTExistsQuery(WINDOW), PlanOptions(method="ob")
        )
        assert plan.groups[0].features.n_single >= (
            2 * model.shard_min_objects
        )
        expected = "process" if layout == "store" else "serial"
        assert plan.dispatch == expected
