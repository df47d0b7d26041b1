"""Shared-memory process dispatch: parity, rehydration, publication.

The load-bearing properties:

* process-pool and serial dispatch agree to 1e-12 on
  randomized multi-chain workloads -- including after mid-run
  ``append_observation`` mutations (which turn objects into
  multi-observation Section VI cases);
* CSR matrices survive the shared-memory publish/attach roundtrip
  bit-for-bit, with no pickling of the payload arrays;
* a worker-side :class:`~repro.core.plan_cache.PlanCache` keyed by
  content fingerprint serves rehydrated matrices as hits -- no
  same-address-space assumption, no reconstruction.
"""

from __future__ import annotations

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
from repro.core.matrices import build_absorbing_matrices
from repro.core.plan_cache import PlanCache
from repro.core.planner import PlanOptions
from repro.core.state_space import LineStateSpace
from repro.exec import dispatch
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


class TestSharedMemoryRoundtrip:
    def test_csr_roundtrip_is_exact(self):
        chain = make_line_chain(N_STATES, rng=np.random.default_rng(1))
        segments = []
        try:
            handle = dispatch.publish_csr(chain.matrix, segments)
            attached = dispatch.attach_csr(handle)
            assert (attached != chain.matrix).nnz == 0
            np.testing.assert_array_equal(
                attached.data, chain.matrix.data
            )
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_attached_matrix_is_zero_copy(self):
        chain = make_line_chain(N_STATES, rng=np.random.default_rng(2))
        segments = []
        try:
            handle = dispatch.publish_csr(chain.matrix, segments)
            attached = dispatch.attach_csr(handle)
            # the arrays view the shared segment, they do not own data
            assert not attached.data.flags["OWNDATA"]
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()


class TestPlanCacheRehydration:
    def test_adopt_hits_by_fingerprint_without_construction(self):
        """A rehydrated artefact is a cache hit, never a rebuild."""
        chain = make_line_chain(N_STATES, rng=np.random.default_rng(3))
        matrices = build_absorbing_matrices(chain, WINDOW.region)
        fingerprint = chain.fingerprint()

        worker_cache = PlanCache()
        worker_cache.adopt(
            "absorbing", fingerprint, WINDOW.region, None, matrices
        )
        assert worker_cache.stats.total_constructions == 0

        # an equal-by-value chain (fresh object, same content) hits
        clone = make_line_chain(N_STATES, rng=np.random.default_rng(3))
        assert clone is not chain
        assert (
            worker_cache.absorbing(clone, WINDOW.region, None)
            is matrices
        )
        assert worker_cache.stats.hits == 1
        assert worker_cache.stats.total_constructions == 0

    def test_lookup_fingerprint_miss_is_none(self):
        cache = PlanCache()
        assert (
            cache.lookup_fingerprint(
                "absorbing", "no-such", WINDOW.region, None
            )
            is None
        )
        assert cache.stats.misses == 0  # adoption lookups never count

    def test_worker_rehydrates_from_shared_memory(self):
        """End to end: publish, attach, adopt, evaluate -- in process.

        Runs the worker entry point in this process (the fork path
        executes the same function) and asserts the worker cache
        answered from adopted artefacts with zero constructions of
        absorbing matrices.
        """
        chain = make_line_chain(N_STATES, rng=np.random.default_rng(4))
        matrices = build_absorbing_matrices(chain, WINDOW.region)
        import scipy.sparse as sp

        rng = np.random.default_rng(5)
        initials = sp.csr_matrix(
            np.eye(N_STATES)[rng.integers(0, N_STATES, size=8)]
        )
        segments = []
        try:
            minus_t, plus_t = matrices.transposed()
            task = dispatch._ShardTask(
                fingerprint=chain.fingerprint(),
                chain=dispatch.publish_csr(chain.matrix, segments),
                m_minus=dispatch.publish_csr(
                    matrices.m_minus, segments
                ),
                m_plus=dispatch.publish_csr(matrices.m_plus, segments),
                m_minus_t=dispatch.publish_csr(minus_t, segments),
                m_plus_t=dispatch.publish_csr(plus_t, segments),
                initials=dispatch.publish_csr(initials, segments),
                row_lo=0,
                row_hi=8,
                starts=(0,) * 8,
                region=tuple(sorted(WINDOW.region)),
                times=tuple(sorted(WINDOW.times)),
                method="qb",
            )
            dispatch._WORKER_CACHE = None  # fresh worker state
            lo, hi, values, timings, elapsed = (
                dispatch._evaluate_shard(task)
            )
            assert elapsed > 0.0
            worker_cache = dispatch._worker_cache()
            assert (
                worker_cache.stats.constructions.get("absorbing", 0)
                == 0
            )
            # parity against the ordinary serial kernel
            from repro import StateDistribution
            from repro.core.batch import batch_qb_exists

            expected = batch_qb_exists(
                chain,
                [
                    StateDistribution(row)
                    for row in initials.toarray()
                ],
                WINDOW,
                matrices=matrices,
            )
            np.testing.assert_allclose(values, expected, atol=1e-12)
            assert "backward_sweep" in timings
        finally:
            dispatch._WORKER_CACHE = None
            for segment in segments:
                segment.close()
                segment.unlink()


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
        from repro.core.planner import CostModel, QueryPlanner

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
