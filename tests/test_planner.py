"""Tests for the cost-based query planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CostModel,
    LineStateSpace,
    PlanCache,
    PlanOptions,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryEngine,
    QueryPlanner,
    SpatioTemporalWindow,
    TrajectoryDatabase,
    UncertainObject,
    ob_exists_probability,
)
from repro.core.errors import QueryError, ValidationError
from repro.core.planner import resolve_options
from repro.workloads.synthetic import make_line_chain

from conftest import random_chain


def line_database(
    n_objects=12, n_states=300, max_step=10, seed=0, chain_ids=("default",)
):
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase(
        n_states, state_space=LineStateSpace(n_states)
    )
    for index, chain_id in enumerate(chain_ids):
        database.register_chain(
            chain_id,
            make_line_chain(
                n_states, max_step=max_step, seed=seed + index
            ),
        )
    for index in range(n_objects):
        database.add(
            UncertainObject.at_state(
                f"o{index}",
                n_states,
                int(rng.integers(0, n_states)),
                chain_id=chain_ids[index % len(chain_ids)],
            )
        )
    return database


WINDOW = SpatioTemporalWindow.from_ranges(0, 20, 4, 6)


class TestPlanOptions:
    def test_bad_method_rejected(self):
        with pytest.raises(QueryError):
            PlanOptions(method="magic")

    def test_bad_n_samples_rejected(self):
        with pytest.raises(ValidationError, match="0"):
            PlanOptions(n_samples=0)

    def test_bad_max_workers_rejected(self):
        with pytest.raises(ValidationError, match="0"):
            PlanOptions(max_workers=0)

    def test_non_integral_max_workers_rejected_eagerly(self):
        """A float/str pool size must fail at option construction,
        not deep inside pool acquisition with a bare TypeError."""
        with pytest.raises(ValidationError, match="2.5"):
            PlanOptions(max_workers=2.5)
        with pytest.raises(ValidationError, match="'4'"):
            PlanOptions(max_workers="4")
        with pytest.raises(ValidationError, match="True"):
            PlanOptions(max_workers=True)

    def test_bad_dispatch_named_in_error(self):
        with pytest.raises(ValidationError, match="gpu"):
            PlanOptions(dispatch="gpu")
        # the thread rung is gone: an unknown mode like any other, and
        # the error names the two that exist
        with pytest.raises(
            ValidationError, match=r"thread.*\('serial', 'process'\)"
        ):
            PlanOptions(dispatch="thread")

    def test_removed_knobs_are_type_errors(self):
        # no alias or shim: dispatch= is the one execution switch,
        # prefilter= / bfs_prune= the only filter toggles, scipy the
        # one sparse engine (no backend to name), and process dispatch
        # has no shared-memory segments to verify, unlink or corrupt
        import repro
        from repro.core.planner import SupervisorPolicy
        from repro.exec.dispatch import prewarm
        from repro.exec.faults import FaultSpec

        with pytest.raises(TypeError):
            SupervisorPolicy(verify_segments=True)
        with pytest.raises(ValidationError):
            FaultSpec(site="worker:store-shard", action="unlink")
        assert not hasattr(repro, "SegmentLostError")
        with pytest.raises(TypeError):
            PlanOptions(parallel=True)
        with pytest.raises(TypeError):
            PlanOptions(backend="scipy")
        with pytest.raises(TypeError):
            CostModel(native_min_density=0.1)
        with pytest.raises(TypeError):
            CostModel(backend_coefficients={})
        with pytest.raises(TypeError):
            prewarm(2, compile_native=True)
        database = line_database(n_objects=2)
        with pytest.raises(TypeError):
            QueryEngine(database, backend="scipy")
        engine = QueryEngine(database)
        with pytest.raises(TypeError):
            engine.evaluate(PSTExistsQuery(WINDOW), prune=True)
        # S_reach is the forward sweep's job, not a per-call restriction
        obj = next(iter(database))
        with pytest.raises(TypeError):
            ob_exists_probability(
                database.chain(), obj.initial.distribution, WINDOW,
                prune=True,
            )

    @pytest.mark.parametrize("target", [
        "repro.core.batch:backward_vectors",
        "repro.core.batch:batch_ob_exists",
        "repro.core.batch:batch_qb_exists",
        "repro.core.batch:batch_exists_multi",
        "repro.core.batch:batch_ktimes_distribution",
        "repro.core.batch:ktimes_sweep",
        "repro.core.batch:evaluate_rows",
        "repro.core.object_based:ob_exists_probability",
        "repro.core.object_based:ob_forall_probability",
        "repro.core.object_based:ob_exists_probability_multi",
        "repro.core.query_based:QueryBasedEvaluator",
        "repro.core.query_based:QueryBasedKTimesEvaluator",
        "repro.core.query_based:qb_exists_probability",
        "repro.core.query_based:qb_forall_probability",
        "repro.core.ktimes:ktimes_distribution",
        "repro.core.ktimes:ktimes_distribution_blocked",
        "repro.core.ktimes:ktimes_probability",
        "repro.core.matrices:build_ktimes_block_matrices",
        "repro.core.plan_cache:PlanCache",
        "repro.core.plan_cache:PlanCache.backward_vectors",
        "repro.core.plan_cache:PlanCache.ktimes_blocks",
        "repro.core.planner:GroupPlan",
        "repro.core.planner:QueryPlanner",
        "repro.core.pipeline:QueryPipeline",
        "repro.core.streaming:StreamingQueryEngine",
        "repro.core.engine:QueryEngine",
        "repro.database.cohort:Posteriors._fill",
        "repro.exec.operators:ExecutionContext",
        "repro.exec.operators:Operator.__call__",
        "repro.exec.operators:ForwardSweep.run",
        "repro.exec.operators:BackwardSweep.run",
        "repro.exec.operators:KTimesSweep.run",
        "repro.exec.operators:KTimesCore.run",
        "repro.exec.operators:PosteriorCollapse.run",
        "repro.exec.operators:MCSample.run",
        "repro.exec.operators:LadderExtend.run",
    ])
    def test_no_layer_takes_a_backend(self, target):
        # scipy is the one sparse engine: no layer names a backend, so
        # none can be handed one
        import importlib
        import inspect

        module, _, path = target.partition(":")
        obj = importlib.import_module(module)
        for name in path.split("."):
            obj = getattr(obj, name)
        assert "backend" not in inspect.signature(obj).parameters

    def test_resolve_conflicting_methods_raise(self):
        with pytest.raises(QueryError):
            resolve_options(PlanOptions(method="ob"), "qb", None, None)


class TestMethodChoice:
    def test_large_group_prefers_qb(self):
        database = line_database(n_objects=50)
        plan = QueryPlanner(database).plan(PSTExistsQuery(WINDOW))
        assert [group.method for group in plan.groups] == ["qb"]
        group = plan.groups[0]
        assert group.costs["qb"] < group.costs["ob"]

    def test_forced_ob_leaves_the_next_auto_plan_on_qb(self):
        # OB caches nothing, so a forced OB sweep cannot tilt the next
        # plan: a one-object group stays on the faster QB kernel
        database = line_database(n_objects=1)
        cache = PlanCache()
        planner = QueryPlanner(database, plan_cache=cache)
        before = planner.plan(PSTExistsQuery(WINDOW)).groups[0]
        QueryEngine(database, plan_cache=cache).evaluate(
            PSTExistsQuery(WINDOW), method="ob"
        )
        after = planner.plan(PSTExistsQuery(WINDOW)).groups[0]
        assert before.method == after.method == "qb"
        assert before.costs == after.costs

    def test_cold_singleton_prefers_qb(self):
        # OB is priced but never planned on its own: without a build to
        # pay it undercuts QB on one object, where QB still runs faster
        database = line_database(n_objects=1)
        plan = QueryPlanner(database).plan(PSTExistsQuery(WINDOW))
        group = plan.groups[0]
        assert group.method == "qb"
        assert set(group.costs) == {"qb", "ob"}

    def test_forced_method_wins(self):
        database = line_database(n_objects=50)
        plan = QueryPlanner(database).plan(
            PSTExistsQuery(WINDOW), PlanOptions(method="ob")
        )
        assert all(group.method == "ob" for group in plan.groups)

    def test_mc_needs_approximation_opt_in(self):
        database = line_database(n_objects=50)
        cheap_mc = CostModel(mc_step_unit=1e-9)
        exact = QueryPlanner(database, cost_model=cheap_mc).plan(
            PSTExistsQuery(WINDOW)
        )
        assert exact.groups[0].method in ("qb", "ob")
        approximate = QueryPlanner(database, cost_model=cheap_mc).plan(
            PSTExistsQuery(WINDOW), PlanOptions(allow_approximate=True)
        )
        assert approximate.groups[0].method == "mc"

    def test_ktimes_uses_exact_ct_kernel(self):
        database = line_database(n_objects=10)
        plan = QueryPlanner(database).plan(PSTKTimesQuery(WINDOW))
        assert plan.kind == "ktimes"
        assert all(group.method == "ct" for group in plan.groups)


class TestCacheAwareCosts:
    def test_warm_backward_vectors_lower_qb_cost(self):
        database = line_database(n_objects=30)
        cache = PlanCache()
        planner = QueryPlanner(database, plan_cache=cache)
        query = PSTExistsQuery(WINDOW)
        cold = planner.plan(query)
        engine = QueryEngine(database, plan_cache=cache)
        engine.evaluate(query, method="qb")
        warm = planner.plan(query)
        assert (
            warm.groups[0].costs["qb"] < cold.groups[0].costs["qb"]
        )
        # QB caches backward vectors only
        assert cache.stats.constructions == {"backward": 1}

    def test_probe_does_not_mutate_cache_stats(self):
        database = line_database(n_objects=30)
        cache = PlanCache()
        engine = QueryEngine(database, plan_cache=cache)
        engine.evaluate(PSTExistsQuery(WINDOW), method="qb")
        before = (cache.stats.hits, cache.stats.misses)
        QueryPlanner(database, plan_cache=cache).plan(
            PSTExistsQuery(WINDOW)
        )
        assert (cache.stats.hits, cache.stats.misses) == before


class TestStageDecisions:
    def test_no_state_space_disables_prefilter(self):
        rng = np.random.default_rng(3)
        database = TrajectoryDatabase.with_chain(random_chain(10, rng))
        database.add(UncertainObject.at_state("a", 10, 0))
        plan = QueryPlanner(database).plan(
            PSTExistsQuery(
                SpatioTemporalWindow(frozenset({1}), frozenset({2}))
            )
        )
        assert not plan.use_prefilter

    def test_wide_region_disables_prefilter(self):
        """Auto planning leaves the geometric prefilter off for wide
        and narrow regions alike (BFS prunes every object it could);
        forced on, it still removes >= 80% of the same database for
        the narrow one."""
        database = line_database(n_objects=40, n_states=1_000)
        wide = SpatioTemporalWindow.from_ranges(0, 800, 4, 6)
        plan = QueryPlanner(database).plan(PSTExistsQuery(wide))
        assert not plan.use_prefilter
        narrow = QueryPlanner(database).plan(PSTExistsQuery(WINDOW))
        assert not narrow.use_prefilter
        assert plan.use_bfs and narrow.use_bfs
        forced = QueryEngine(database).explain(
            PSTExistsQuery(WINDOW), options=PlanOptions(prefilter=True)
        )
        assert forced.use_prefilter
        stage = forced.stages[0]
        assert stage.name == "prefilter"
        assert stage.candidates_out <= 0.2 * stage.candidates_in

    def test_tiny_database_skips_filters(self):
        database = line_database(n_objects=2)
        plan = QueryPlanner(database).plan(PSTExistsQuery(WINDOW))
        assert not plan.use_prefilter
        assert not plan.use_bfs

    def test_options_force_filters(self):
        database = line_database(n_objects=2)
        plan = QueryPlanner(database).plan(
            PSTExistsQuery(WINDOW),
            PlanOptions(prefilter=True, bfs_prune=True),
        )
        assert plan.use_prefilter and plan.use_bfs

    def test_forall_plans_complement(self):
        database = line_database(n_objects=10, n_states=50)
        window = SpatioTemporalWindow.from_ranges(0, 10, 4, 6)
        plan = QueryPlanner(database).plan(PSTForAllQuery(window))
        assert plan.complemented
        assert plan.window.region == frozenset(range(11, 50))


class TestDescribe:
    def test_describe_mentions_groups_and_stages(self):
        database = line_database(n_objects=20)
        engine = QueryEngine(database)
        plan = engine.explain(PSTExistsQuery(WINDOW))
        text = plan.describe()
        assert "prefilter" in text
        assert "bfs" in text
        assert "evaluate" in text
        assert "method=qb" in text

    def test_displacement_bound_matches_generator(self):
        # Table I locality: max_step=10 -> at most 5 states per step
        database = line_database(n_objects=5, max_step=10)
        bound = database.chain_displacement_bound("default")
        assert bound is not None and bound <= 5.0
