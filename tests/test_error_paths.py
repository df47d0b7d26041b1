"""Argument checks and edge branches that the per-module suites do not
reach.

Each test drives one validation branch or degenerate input of a public
or operator-level entry point and pins what it does: the error type and
its message, or the value returned for the empty / degenerate case.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    AdmissionRejected,
    FaultInjector,
    FaultSpec,
    GraphStateSpace,
    InjectedFaultError,
    MarkovChain,
    MonteCarloSampler,
    Observation,
    ObservationSet,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryBasedKTimesEvaluator,
    QueryEngine,
    QueryError,
    QueryService,
    SerializationError,
    SpatioTemporalWindow,
    StateDistribution,
    StateSpaceError,
    SupervisorPolicy,
    TenantLedger,
    Trajectory,
    TrajectoryDatabase,
    UncertainObject,
    ValidationError,
    batch_exists_multi,
    batch_ob_exists,
    batch_qb_exists,
    build_ktimes_block_matrices,
    ktimes_distribution,
)
from repro.core.distribution import SupportBlock
from repro.core.planner import PlanOptions
from repro.core.query import PSTQuery, Region
from repro.core.state_space import PointStateSpace
from repro.core.streaming import StreamingQueryEngine
from repro.database.pruning import GeometricPrefilter, reachable_rows
from repro.exec.operators import BACKWARD_SWEEP, KTIMES_CORE
from repro.store.journal import StoreJournal
from repro.store.slabs import SlabPool, ram_cap_bytes
from repro.workloads.road_network import make_road_transitions


@pytest.fixture
def chain() -> MarkovChain:
    return MarkovChain(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.2, 0.8, 0.0],
            [0.1, 0.0, 0.0, 0.9],
            [0.0, 0.6, 0.0, 0.4],
        ]
    )


@pytest.fixture
def window() -> SpatioTemporalWindow:
    return SpatioTemporalWindow(frozenset({1, 2}), frozenset({2, 3}))


@pytest.fixture
def engine(chain) -> QueryEngine:
    database = TrajectoryDatabase.with_chain(chain)
    for index in range(3):
        database.add(UncertainObject.at_state(f"o{index}", 4, index))
    return QueryEngine(database)


class TestRegions:
    def test_state_index_beyond_int64(self):
        with pytest.raises(QueryError, match="beyond int64"):
            Region([2**70])

    def test_ktimes_blocks_reject_an_empty_region(self, chain):
        with pytest.raises(QueryError, match="region is empty"):
            build_ktimes_block_matrices(chain, [], 2)

    @pytest.mark.parametrize("state", [-1, 4])
    def test_ktimes_blocks_reject_a_state_outside_the_chain(
        self, chain, state
    ):
        with pytest.raises(QueryError, match=r"outside \[0, 4\)"):
            build_ktimes_block_matrices(chain, [0, state], 2)


class TestDistributionConstructors:
    @pytest.mark.parametrize("state", [-1, 3])
    def test_from_dict_rejects_a_state_out_of_range(self, state):
        with pytest.raises(ValidationError, match="out of range"):
            StateDistribution.from_dict(3, {0: 0.5, state: 0.5})

    def test_from_support_rejects_unequal_columns(self):
        with pytest.raises(
            ValidationError, match="2 support states but 1 weights"
        ):
            StateDistribution.from_support(3, [0, 1], [1.0])

    @pytest.mark.parametrize("state", [-1, 3])
    def test_from_support_rejects_a_state_out_of_range(self, state):
        with pytest.raises(ValidationError, match=r"outside \[0, 3\)"):
            StateDistribution.from_support(3, [0, state], [0.5, 0.5])


class TestMarkovChain:
    def test_marginals_reject_a_negative_horizon(self, chain):
        with pytest.raises(ValidationError, match="non-negative"):
            chain.marginals(StateDistribution.point(4, 0), -1)

    def test_nothing_is_reachable_from_no_sources(self, chain):
        assert chain.reachable_in([], 5) == frozenset()

    def test_stationary_distribution_reports_no_convergence(self):
        # the iteration starts uniform; this chain's stationary
        # distribution (5/6, 1/6) is several steps away
        lazy = MarkovChain([[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(
            ValidationError, match="did not converge in 1 steps"
        ):
            lazy.stationary_distribution(max_iterations=1)
        assert lazy.stationary_distribution().allclose(
            StateDistribution(np.array([5.0, 1.0]) / 6.0), tol=1e-9
        )

    def test_chains_of_different_sizes_are_unequal(self, chain):
        assert chain != MarkovChain(np.eye(3))
        assert chain != "not a chain"


class TestStateSpaces:
    def test_flat_positions_are_one_dimensional_points(self):
        space = PointStateSpace([0.0, 1.5, 4.0])
        assert space.positions.shape == (3, 1)
        assert space.location_of(2) == (4.0,)

    def test_three_dimensional_points_are_rejected(self):
        with pytest.raises(StateSpaceError, match="3 columns"):
            PointStateSpace(np.zeros((2, 3)))

    def test_graph_without_positions_gives_no_geometry(self, chain):
        space = GraphStateSpace(
            nodes=["a", "b", "c", "d"],
            edges=[("a", "b"), ("b", "c"), ("c", "d")],
        )
        database = TrajectoryDatabase.with_chain(chain, state_space=space)
        assert database.state_positions() is None
        assert database.chain_displacement_bound() is None

    def test_isolated_road_nodes_become_absorbing(self):
        space = GraphStateSpace(
            nodes=[0, 1, 2], edges=[(0, 1)], positions=None
        )
        transitions = make_road_transitions(space, seed=3)
        assert transitions.transition_probability(2, 2) == 1.0
        assert set(transitions.successors(2)) == {2}


class TestPerObjectValidation:
    def test_ktimes_evaluator_rejects_a_start_after_the_window(
        self, chain, window
    ):
        with pytest.raises(QueryError, match="precedes start_time 3"):
            QueryBasedKTimesEvaluator(chain, window, start_time=3)

    def test_ktimes_rejects_a_negative_start(self, chain, window):
        with pytest.raises(QueryError, match="must be non-negative"):
            ktimes_distribution(
                chain, StateDistribution.point(4, 0), window, start_time=-1
            )

    def test_batch_rejects_a_negative_start(self, chain, window):
        with pytest.raises(QueryError, match="got -2"):
            batch_ob_exists(
                chain,
                [StateDistribution.point(4, 0)] * 2,
                window,
                start_times=[0, -2],
            )

    def test_batch_rejects_an_initial_over_another_space(
        self, chain, window
    ):
        with pytest.raises(ValidationError, match="over 3 states"):
            batch_qb_exists(
                chain, [StateDistribution.point(3, 0)], window
            )

    def test_multi_batch_rejects_observations_over_another_space(
        self, chain, window
    ):
        observations = ObservationSet.of(Observation.precise(0, 3, 1))
        with pytest.raises(ValidationError, match="observations over 3"):
            batch_exists_multi(chain, [observations], window)

    def test_monte_carlo_needs_one_seed_per_object(self, chain, window):
        block = SupportBlock.from_distributions(
            [StateDistribution.point(4, 0)] * 2, 4
        )
        with pytest.raises(ValidationError, match="1 seeds for 2 objects"):
            MonteCarloSampler(chain, seed=0).estimate(
                block, [0, 0], window, 10, seeds=[1]
            )

    @pytest.mark.parametrize(
        "states", [(1, 2, 3), (0, 2, 3)], ids=["impossible-start",
                                              "impossible-step"]
    )
    def test_impossible_path_has_probability_zero(self, chain, states):
        # the start puts no mass on state 1; 0 -> 2 has probability 0
        initial = StateDistribution.point(4, 0)
        assert Trajectory(states).probability_under(chain, initial) == 0.0


class TestPruning:
    def test_reachable_rows_of_an_empty_block(self):
        def fetch_levels(depth):  # never asked for an empty block
            raise AssertionError("labels fetched for no rows")

        empty = SupportBlock.from_distributions([], 4)
        mask = reachable_rows(fetch_levels, empty, [], 5)
        assert mask.dtype == bool and mask.size == 0

    def test_geometric_probe_rejects_an_empty_region(self):
        prefilter = GeometricPrefilter(np.zeros((3, 2)), 1.0)
        with pytest.raises(ValidationError, match="region is empty"):
            prefilter.probe([])


class TestEngineAndPlanner:
    def test_engine_rejects_an_unknown_query_type(self, engine, window):
        with pytest.raises(QueryError, match="unsupported query type"):
            engine.evaluate(PSTQuery(window))

    def test_planner_rejects_an_unknown_query_type(self, engine, window):
        with pytest.raises(QueryError, match="unsupported query type"):
            engine.planner.plan(PSTQuery(window))

    def test_planner_refuses_a_whole_space_for_all(self, engine):
        query = PSTForAllQuery(
            SpatioTemporalWindow(frozenset(range(4)), frozenset({1}))
        )
        with pytest.raises(QueryError, match="covers the whole space"):
            engine.planner.plan(query)

    def test_plan_before_execution_counts_every_object(
        self, engine, window
    ):
        plan = engine.planner.plan(PSTExistsQuery(window))
        assert plan.n_objects == 3
        assert plan.stage_counts() == [3]
        assert plan.semantics == "exists"

    def test_group_ids_follow_its_rows(self, engine, window):
        group = engine.planner.plan(PSTExistsQuery(window)).groups[0]
        assert sorted(group.object_ids) == ["o0", "o1", "o2"]
        empty = replace(group, rows=np.zeros(0, dtype=np.int64))
        assert empty.object_ids == []

    def test_ktimes_plan_needs_a_ktimes_query(self, engine, window):
        plan = engine.planner.plan(PSTKTimesQuery(window))
        with pytest.raises(QueryError, match="originating PSTKTimesQuery"):
            engine.pipeline.execute(plan, PSTExistsQuery(window))

    @pytest.mark.parametrize(
        "value", [0, -1.0, True, "5"], ids=["zero", "negative", "bool",
                                            "string"]
    )
    def test_supervisor_timeout_must_be_positive(self, value):
        with pytest.raises(ValidationError, match="timeout_seconds"):
            SupervisorPolicy(timeout_seconds=value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout_multiplier", -1.0),
            ("timeout_floor", True),
            ("backoff_seconds", "0.1"),
        ],
    )
    def test_supervisor_factors_must_be_non_negative_numbers(
        self, field, value
    ):
        with pytest.raises(ValidationError, match=field):
            SupervisorPolicy(**{field: value})

    def test_plan_options_need_a_supervisor_policy(self):
        with pytest.raises(ValidationError, match="SupervisorPolicy"):
            PlanOptions(supervisor={"max_retries": 1})


class TestOperatorInputs:
    @pytest.mark.parametrize("operator", [BACKWARD_SWEEP, KTIMES_CORE],
                             ids=["backward", "ktimes-core"])
    def test_no_start_times_give_no_vectors(self, operator, chain, window):
        assert operator((window, []), chain, window.region) == {}

    @pytest.mark.parametrize("operator", [BACKWARD_SWEEP, KTIMES_CORE],
                             ids=["backward", "ktimes-core"])
    def test_negative_start_is_rejected(self, operator, chain, window):
        with pytest.raises(QueryError, match="got -1"):
            operator((window, [-1, 0]), chain, window.region)

    def test_backward_start_after_the_window_is_rejected(
        self, chain, window
    ):
        with pytest.raises(QueryError, match="precedes start_time 3"):
            BACKWARD_SWEEP((window, [0, 3]), chain, window.region)

    def test_ktimes_core_needs_starts_before_the_window(
        self, chain, window
    ):
        with pytest.raises(QueryError, match="strictly before"):
            KTIMES_CORE((window, [2]), chain, window.region)


class TestStandingQueries:
    def test_quarantine_threshold_must_be_positive(self, engine, window):
        streaming = StreamingQueryEngine(engine.database)
        with pytest.raises(QueryError, match="quarantine_after"):
            streaming.watch(PSTExistsQuery(window), quarantine_after=0)

    def test_whole_space_for_all_is_refused(self, engine):
        streaming = StreamingQueryEngine(engine.database)
        query = PSTForAllQuery(
            SpatioTemporalWindow(frozenset(range(4)), frozenset({1}))
        )
        with pytest.raises(QueryError, match="covers the whole space"):
            streaming.watch(query)

    def test_unknown_query_type_is_refused(self, engine, window):
        streaming = StreamingQueryEngine(engine.database)
        with pytest.raises(QueryError, match="unsupported standing"):
            streaming.watch(PSTQuery(window))
        assert streaming.standing == ()

    def test_standing_lists_watched_queries_in_order(self, engine, window):
        streaming = StreamingQueryEngine(engine.database)
        first = streaming.watch(PSTExistsQuery(window))
        second = streaming.watch(PSTKTimesQuery(window), stride=2)
        assert streaming.standing == (first, second)


class TestStoreFiles:
    @pytest.mark.parametrize("raw", ["lots", "12q", "m"])
    def test_unreadable_ram_cap_means_unbounded(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_STORE_RAM_CAP", raw)
        assert ram_cap_bytes() is None

    def test_slab_pool_clear_unmaps_everything(self, tmp_path):
        paths = []
        for index in range(2):
            paths.append(tmp_path / f"slab{index}.npy")
            np.save(paths[-1], np.arange(8, dtype=np.int64) * index)
        pool = SlabPool(cap_bytes=None)
        for path in paths:
            pool.map(path)
        assert pool.mapped_count() == 2
        pool.clear()
        assert pool.mapped_count() == 0
        assert pool.mapped_bytes() == 0

    def test_replay_skips_blank_lines_and_stops_at_a_torn_tail(
        self, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        lines = [
            json.dumps({"op": "a", "shard": "s0"}),
            "",
            json.dumps({"op": "b", "shard": "s1"}),
            '{"op": "c", "sha',
            json.dumps({"op": "d", "shard": "s0"}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal = StoreJournal(path)
        assert [record["op"] for record in journal.replay()] == ["a", "b"]
        assert journal.shard_offsets == {"s0": 1, "s1": 1}

    @pytest.mark.parametrize(
        "record",
        [
            {"time": 1},
            {"distribution": {"0": 1.0}},
            {"time": 1, "distribution": {"zero": 1.0}},
            {"time": 1, "distribution": {"7": 1.0}},
            {"time": 1, "distribution": ["0", 1.0]},
        ],
        ids=["no-distribution", "no-time", "bad-state", "state-outside",
             "not-a-mapping"],
    )
    def test_corrupt_observation_record(self, record):
        with pytest.raises(SerializationError, match="corrupt journal"):
            StoreJournal.decode_observation(record, 4)


class TestFaultInjector:
    def test_pickled_injector_keeps_its_rules_and_fires(self):
        faults = FaultInjector(FaultSpec("site", match={"k": 1}))
        clone = pickle.loads(pickle.dumps(faults))
        assert clone.specs == faults.specs
        clone.fire("site", k=2)  # no match
        with pytest.raises(InjectedFaultError, match="injected fault"):
            clone.fire("site", k=1)
        assert clone.fired("site") == 1
        assert faults.fired() == 0

    def test_delay_sleeps_and_does_not_raise(self):
        faults = FaultInjector(
            FaultSpec("site", action="delay", delay_seconds=0.02)
        )
        started = time.perf_counter()
        faults.fire("site")
        assert time.perf_counter() - started >= 0.02
        assert faults.fired("site") == 1

    def test_kill_in_the_origin_process_raises_instead(self):
        faults = FaultInjector(FaultSpec("site", action="kill"))
        with pytest.raises(InjectedFaultError, match="refused in origin"):
            faults.fire("site")


class TestService:
    def test_a_stopped_service_cannot_start_again(self, engine):
        async def main():
            service = QueryService(engine)
            await service.start()
            await service.stop()
            with pytest.raises(AdmissionRejected) as caught:
                await service.start()
            return caught.value

        error = asyncio.run(main())
        assert error.reason == "stopped"

    def test_accounts_is_a_snapshot(self):
        ledger = TenantLedger()
        ledger.charge("a", 1.0)
        accounts = ledger.accounts()
        ledger.charge("b", 2.0)
        assert sorted(accounts) == ["a"]
        assert sorted(ledger.accounts()) == ["a", "b"]
        assert accounts["a"] is ledger.account("a")

    def test_standing_handle_explains_its_last_tick(self, engine, window):
        async def main():
            async with QueryService(engine) as service:
                handle = service.watch(PSTExistsQuery(window))
                await handle.tick()
                return handle

        handle = asyncio.run(main())
        plan = handle.explain()
        assert plan is handle.standing.explain()
        assert plan.kind == "exists"
        assert plan.window == window
