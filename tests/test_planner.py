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
        # no alias or shim: dispatch= is the one execution switch and
        # prefilter= / bfs_prune= the only filter toggles
        with pytest.raises(TypeError):
            PlanOptions(parallel=True)
        engine = QueryEngine(line_database(n_objects=2))
        with pytest.raises(TypeError):
            engine.evaluate(PSTExistsQuery(WINDOW), prune=True)

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

    def test_singleton_group_prefers_ob(self):
        database = line_database(n_objects=1)
        plan = QueryPlanner(database).plan(PSTExistsQuery(WINDOW))
        group = plan.groups[0]
        assert group.method == "ob"
        assert group.costs["ob"] < group.costs["qb"]

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
        assert warm.groups[0].features.absorbing_cached

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
        database = line_database(n_objects=40, n_states=100)
        wide = SpatioTemporalWindow.from_ranges(0, 80, 4, 6)
        plan = QueryPlanner(database).plan(PSTExistsQuery(wide))
        assert not plan.use_prefilter
        narrow = QueryPlanner(database).plan(PSTExistsQuery(WINDOW))
        assert narrow.use_prefilter

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
