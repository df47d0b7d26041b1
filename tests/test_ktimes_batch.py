"""Cross-tier k-times parity: every execution tier, one truth.

Definition 4 (PST-k-times) now has five exact implementations -- the
possible-world enumerator, the blocked product-space matrices, the
per-object C(t) algorithm, the stacked :class:`KTimesSweep` batch
kernel, and the streaming C-block ladder -- plus three dispatch modes
for the batch kernel.  This suite pins them all to each other at
1e-12 on randomized windows, which is what lets the engine route a
k-times query through any tier the planner picks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PlanOptions,
    PossibleWorldEnumerator,
    PSTKTimesQuery,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
    batch_ktimes_distribution,
    ktimes_distribution,
    ktimes_distribution_blocked,
)
from repro.core.state_space import LineStateSpace
from repro.exec.operators import ExecutionContext
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

from conftest import random_chain, random_distribution, random_window

N_STATES = 300
WINDOW = SpatioTemporalWindow.from_ranges(100, 140, 12, 16)


def build_database(
    seed: int, n_objects: int = 30, n_chains: int = 2
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
                time=int(rng.integers(0, 6)),
                chain_id=f"chain-{index % n_chains}",
            )
        )
    return database


class TestBatchedSweepParity:
    def test_randomized_windows_across_all_exact_tiers(self):
        """Enumerator == blocked == per-object C(t) == batched sweep."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            chain = random_chain(n, rng)
            window = random_window(n, rng, max_time=5)
            n_objects = int(rng.integers(1, 5))
            initials = [
                random_distribution(n, rng) for _ in range(n_objects)
            ]
            starts = [
                int(rng.integers(0, window.t_start + 1))
                for _ in range(n_objects)
            ]
            batched = batch_ktimes_distribution(
                chain, initials, window, start_times=starts
            )
            for row in range(n_objects):
                exact = (
                    PossibleWorldEnumerator(
                        chain, initials[row], window.t_end
                    ).ktimes_distribution(window)
                    if starts[row] == 0
                    else None
                )
                per_object = ktimes_distribution(
                    chain, initials[row], window,
                    start_time=starts[row],
                )
                blocked = ktimes_distribution_blocked(
                    chain, initials[row], window,
                    start_time=starts[row],
                )
                assert batched[row] == pytest.approx(
                    per_object, abs=1e-12
                )
                assert batched[row] == pytest.approx(
                    blocked, abs=1e-12
                )
                if exact is not None:
                    assert batched[row] == pytest.approx(
                        exact, abs=1e-10
                    )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(43)
        chain = random_chain(4, rng)
        window = random_window(4, rng, max_time=5)
        initials = [random_distribution(4, rng) for _ in range(6)]
        batched = batch_ktimes_distribution(chain, initials, window)
        assert batched.sum(axis=1) == pytest.approx(
            np.ones(6), abs=1e-10
        )

    def test_empty_cohort(self):
        rng = np.random.default_rng(44)
        chain = random_chain(3, rng)
        window = random_window(3, rng, max_time=4)
        result = batch_ktimes_distribution(chain, [], window)
        assert result.shape == (0, window.duration + 1)

    def test_timing_hooks_record_both_ktimes_operators(self):
        rng = np.random.default_rng(45)
        chain = random_chain(4, rng)
        window = SpatioTemporalWindow(
            frozenset({0, 1}), frozenset({2, 4})
        )
        context = ExecutionContext()
        batch_ktimes_distribution(
            chain,
            [random_distribution(4, rng) for _ in range(2)],
            window,
            # one pre-window object (suffix-count core), one observed
            # at the window start (footnote-3 cohort sweep)
            start_times=[0, window.t_start],
            context=context,
        )
        assert context.timings["ktimes_core"].calls == 1
        assert context.timings["ktimes_sweep"].calls == 1


class TestDispatchParity:
    def test_serial_thread_process_agree(self):
        database = build_database(seed=1, n_objects=40)
        engine = QueryEngine(database)
        query = PSTKTimesQuery(WINDOW)
        base = dict(prefilter=False, bfs_prune=False)
        results = {
            mode: engine.evaluate(
                query,
                options=PlanOptions(
                    **base, dispatch=mode, max_workers=4
                ),
            )
            for mode in ("serial", "process")
        }
        for object_id in database.object_ids:
            assert np.asarray(
                results["process"].values[object_id]
            ) == pytest.approx(
                np.asarray(results["serial"].values[object_id]),
                abs=1e-12,
            )

    def test_process_dispatch_reports_pool_tasks(self):
        database = build_database(seed=2, n_objects=40, n_chains=1)
        engine = QueryEngine(database)
        plan = engine.explain(
            PSTKTimesQuery(WINDOW),
            options=PlanOptions(
                prefilter=False, bfs_prune=False,
                dispatch="process", max_workers=2,
            ),
        )
        evaluate = plan.stages[-1]
        assert "process" in evaluate.detail
        assert "method=ct" in evaluate.detail

    def test_filtered_matches_unfiltered_with_scalar_k(self):
        database = build_database(seed=3)
        engine = QueryEngine(database)
        query = PSTKTimesQuery(WINDOW, k=0)
        filtered = engine.evaluate(query)
        unfiltered = engine.evaluate(
            query,
            options=PlanOptions(prefilter=False, bfs_prune=False),
        )
        for object_id in database.object_ids:
            assert filtered.values[object_id] == pytest.approx(
                unfiltered.values[object_id], abs=1e-12
            )


class TestStreamingParity:
    def test_tick_matches_from_scratch(self):
        database = build_database(seed=4)
        engine = QueryEngine(database)
        standing = engine.watch(PSTKTimesQuery(WINDOW), stride=2)
        fresh = QueryEngine(database)
        for _ in range(5):
            result = standing.tick()
            scratch = fresh.evaluate(result.query)
            for object_id in database.object_ids:
                assert np.asarray(
                    result.values[object_id]
                ) == pytest.approx(
                    np.asarray(scratch.values[object_id]), abs=1e-12
                )

    def test_tick_cost_is_stride_products_per_chain(self):
        database = build_database(seed=5, n_chains=1)
        standing = QueryEngine(database).watch(
            PSTKTimesQuery(WINDOW), stride=3
        )
        standing.tick()  # tick 0 seeds the core and the ladder
        result = standing.tick()
        detail = result.plan.stages[0].detail
        assert "3 sparse products" in detail

    def test_ladder_eviction_bounds_rungs(self):
        """Dead C-blocks are dropped: memory ~ live gap spread."""
        database = build_database(seed=6, n_chains=1)
        standing = QueryEngine(database).watch(PSTKTimesQuery(WINDOW))
        for _ in range(30):
            standing.tick()
        rungs = sum(
            len(stream.rel)
            for stream in standing._chains.values()
        )
        spread = max(
            int(np.ptp(stream.cohort.start_time[stream.cohort.rows]))
            for stream in standing._chains.values()
        )
        # one rung per live gap in the dense kept range, nothing for
        # the 30 slid timestamps beyond the spread
        assert rungs <= spread + 2

    def test_scalar_k_standing_query(self):
        database = build_database(seed=7)
        engine = QueryEngine(database)
        standing = engine.watch(PSTKTimesQuery(WINDOW, k=1))
        fresh = QueryEngine(database)
        result = standing.tick()
        scratch = fresh.evaluate(result.query)
        for object_id in database.object_ids:
            assert np.isscalar(result.values[object_id])
            assert result.values[object_id] == pytest.approx(
                scratch.values[object_id], abs=1e-12
            )

    def test_plan_reports_ktimes_kind(self):
        database = build_database(seed=8)
        standing = QueryEngine(database).watch(PSTKTimesQuery(WINDOW))
        standing.tick()
        plan = standing.explain()
        assert plan.kind == "ktimes"
        assert plan.semantics == "ktimes"


class TestAutoStream:
    def test_constant_stride_promotes_to_standing_query(self):
        database = build_database(seed=9)
        engine = QueryEngine(database)
        fresh = QueryEngine(database)
        options = PlanOptions(auto_stream=True)
        for step in range(5):
            window = SpatioTemporalWindow(
                WINDOW.region,
                frozenset(t + 2 * step for t in WINDOW.times),
            )
            query = PSTKTimesQuery(window)
            result = engine.evaluate(query, options=options)
            scratch = fresh.evaluate(query)
            for object_id in database.object_ids:
                assert np.asarray(
                    result.values[object_id]
                ) == pytest.approx(
                    np.asarray(scratch.values[object_id]), abs=1e-12
                )
            if step >= 2:
                # promotion needs the stride confirmed twice
                assert result.plan.auto_streamed
                assert result.method == "streaming"
                assert "auto-streamed" in result.plan.describe()
            else:
                assert not result.plan.auto_streamed

    def test_irregular_slide_is_not_promoted(self):
        database = build_database(seed=10)
        engine = QueryEngine(database)
        options = PlanOptions(auto_stream=True)
        # every consecutive stride differs (3, 1, 6), so no slide is
        # ever confirmed and the batch path serves every call
        for offset in (0, 3, 4, 10):
            window = SpatioTemporalWindow(
                WINDOW.region,
                frozenset(t + offset for t in WINDOW.times),
            )
            result = engine.evaluate(
                PSTKTimesQuery(window), options=options
            )
            assert not result.plan.auto_streamed
        assert engine._auto_standing is None

    def test_off_by_default(self):
        database = build_database(seed=11)
        engine = QueryEngine(database)
        for step in range(3):
            window = SpatioTemporalWindow(
                WINDOW.region,
                frozenset(t + step for t in WINDOW.times),
            )
            result = engine.evaluate(PSTKTimesQuery(window))
            assert not result.plan.auto_streamed


class TestForAllSemantics:
    def test_plan_carries_originating_semantics(self):
        from repro import PSTForAllQuery

        database = build_database(seed=12)
        engine = QueryEngine(database)
        plan = engine.explain(
            PSTForAllQuery.from_ranges(0, N_STATES // 2, 12, 16)
        )
        assert plan.kind == "exists"
        assert plan.complemented
        assert plan.semantics == "forall"
        assert "semantics=forall" in plan.describe()

    def test_exists_and_ktimes_semantics_match_kind(self):
        database = build_database(seed=13)
        engine = QueryEngine(database)
        from repro import PSTExistsQuery

        exists_plan = engine.explain(PSTExistsQuery(WINDOW))
        assert exists_plan.semantics == "exists"
        assert "semantics=" not in exists_plan.describe()
        ktimes_plan = engine.explain(PSTKTimesQuery(WINDOW))
        assert ktimes_plan.semantics == "ktimes"


class TestPlannerIntegration:
    def test_ktimes_groups_are_priced(self):
        database = build_database(seed=14)
        plan = QueryEngine(database).planner.plan(
            PSTKTimesQuery(WINDOW)
        )
        for group in plan.groups:
            assert group.method == "ct"
            assert group.costs["ct"] > 0

    def test_pre_ktimes_calibration_file_borrows_sweep_scale(self):
        """An old calibration without ktimes_unit must not mix units.

        Fitted coefficients are seconds-per-unit-load; keeping the
        structural default (1.0 relative units) for a missing
        ktimes_unit would inflate k-times estimates by ~9 orders of
        magnitude and trip the seconds-scale process threshold.
        """
        import json

        from repro import CostModel

        document = {
            "coefficients": {
                "sweep_unit": 2e-9,
                "dense_sweep_unit": 1e-9,
                "dot_unit": 1e-11,
                "build_unit": 5e-8,
                "mc_step_unit": 1e-6,
                "object_overhead": 1e-5,
            },
            "thresholds": {"process_min_cost": 0.5},
        }
        import tempfile

        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as handle:
            json.dump(document, handle)
            path = handle.name
        model = CostModel.from_calibration(path)
        assert model.ktimes_unit == pytest.approx(2e-9)

    def test_calibration_fits_ktimes_coefficient(self):
        from repro.exec.calibrate import (
            CalibrationConfig,
            default_grid,
            fit,
            measure_grid,
        )

        grid = default_grid(smoke=True)[:4]
        measurements = measure_grid(
            CalibrationConfig(smoke=True, repeats=1), grid
        )
        kernels = {m.kernel for m in measurements}
        assert "ct" in kernels
        model = fit(measurements, CalibrationConfig(smoke=True))
        assert model.ktimes_unit > 0
