"""Streaming engine: incremental sliding windows vs batch re-evaluation.

The load-bearing property: a standing query advanced N ticks
incrementally must return, at every tick, exactly what an independent
batch ``evaluate()`` of that tick's window returns (within 1e-12) --
including ticks where objects arrive, are re-sighted
(``append_observation``), and leave mid-stream.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    Observation,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    StreamingQueryEngine,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.errors import QueryError
from repro.core.state_space import LineStateSpace
from repro.exec.faults import FaultInjector, FaultSpec, InjectedFaultError
from repro.exec.operators import PosteriorCollapse
from repro.workloads.monitoring import (
    MonitoringConfig,
    make_monitoring_workload,
)
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

N_STATES = 400
WINDOW = SpatioTemporalWindow.from_ranges(100, 120, 10, 13)


def build_database(
    seed: int, n_objects: int = 40, n_chains: int = 2
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


def shifted(window: SpatioTemporalWindow, offset: int):
    return SpatioTemporalWindow(
        window.region, frozenset(t + offset for t in window.times)
    )


def assert_tick_parity(result, reference, database):
    assert set(result.values) == set(reference.values)
    for object_id in database.object_ids:
        assert result.values[object_id] == pytest.approx(
            reference.values[object_id], abs=1e-12
        )


KINDS = {
    "exists": lambda window: PSTExistsQuery(window),
    "forall": lambda window: PSTForAllQuery(window),
    "ktimes": lambda window: PSTKTimesQuery(window),
    "ktimes-k": lambda window: PSTKTimesQuery(window, k=1),
}


def assert_values_parity(result, reference):
    """Scalar or count-distribution values, every object, 1e-12."""
    assert set(result.values) == set(reference.values)
    for object_id, value in result.values.items():
        assert np.asarray(value) == pytest.approx(
            np.asarray(reference.values[object_id]), abs=1e-12
        )


def monitoring_script(kind: str, seed: int, n_ticks: int = 7):
    """A generated scenario plus per-tick extras the generator does not
    script: a sighting backfilled *before* an object's first one, an
    arrival observed at the window start, a churn large enough to
    compact the chain's cohort, and a burst that overflows the
    journal.  K-times leaves re-sightings out (``PSTKTimesQuery``
    rejects multi-observation objects)."""
    rng = np.random.default_rng(seed)
    resightings = kind in ("exists", "forall")
    config = MonitoringConfig(
        n_objects=30,
        n_states=300,
        n_chains=int(rng.integers(1, 3)),
        n_ticks=n_ticks,
        stride=int(rng.integers(1, 3)),
        window_low=80,
        window_high=110,
        window_lead=int(rng.integers(4, 9)),
        window_duration=int(rng.integers(2, 5)),
        arrivals_per_tick=2,
        resightings_per_tick=2 if resightings else 0,
        departures_per_tick=1,
        seed=seed * 101 + 7,
    )
    workload = make_monitoring_workload(config)
    database = workload.database
    chain_id = database.chain_ids[0]

    def fresh(name: str, time: int) -> UncertainObject:
        return UncertainObject.with_distribution(
            name,
            make_object_distribution(config.n_states, 5, rng),
            time=time,
            chain_id=chain_id,
        )

    def extras(tick: int) -> None:
        now = tick * config.stride
        if tick == 1 and resightings:
            # first observed "now", then re-sighted *earlier*: the
            # anchoring observation moves, the cohort row is replaced
            database.add(fresh("backfilled", now))
            database.append_observation(
                "backfilled",
                Observation.uniform(
                    now - 1, config.n_states, range(config.n_states)
                ),
            )
        if tick == 2:
            # observed at the window start: no M_minus prefix to ride
            database.add(
                fresh("at-window-start", workload.window_at(tick).t_start)
            )
            for index in range(70):
                database.add(fresh(f"churn-{index}", now))
        if tick == 3:
            # dead rows now outnumber the live ones: compaction
            for index in range(70):
                database.remove(f"churn-{index}")
        if tick == 4:
            # more changes than the (shrunk) journal retains
            for index in range(60):
                database.add(fresh(f"burst-{index}", now))
                database.remove(f"burst-{index}")

    return workload, extras


class TestSlidingParity:
    @pytest.mark.parametrize("stride", [1, 2, 5])
    def test_n_ticks_equal_n_evaluates(self, stride):
        database = build_database(seed=1)
        engine = QueryEngine(database)
        standing = engine.watch(PSTExistsQuery(WINDOW), stride=stride)
        reference = QueryEngine(database)
        for tick in range(6):
            result = standing.tick()
            expected = reference.evaluate(
                PSTExistsQuery(shifted(WINDOW, tick * stride))
            )
            assert_tick_parity(result, expected, database)
            assert result.method == "streaming"
            assert result.query.window == shifted(
                WINDOW, tick * stride
            )

    def test_forall_parity(self):
        database = build_database(seed=2, n_objects=25)
        query = PSTForAllQuery(
            SpatioTemporalWindow.from_ranges(0, 300, 6, 8)
        )
        standing = QueryEngine(database).watch(query, stride=2)
        reference = QueryEngine(database)
        for tick in range(4):
            result = standing.tick()
            expected = reference.evaluate(
                PSTForAllQuery(shifted(query.window, tick * 2))
            )
            assert_tick_parity(result, expected, database)
            # the result's query keeps the *original* region, not the
            # complement the engine evaluates internally
            assert result.query.window.region == query.region

    def test_parity_with_mid_stream_mutations(self):
        database = build_database(seed=3)
        engine = QueryEngine(database)
        standing = engine.watch(PSTExistsQuery(WINDOW))
        reference = QueryEngine(database)
        rng = np.random.default_rng(5)
        for tick in range(8):
            if tick == 2:  # a new object enters, observed "now"
                database.append_observation(
                    "late-arrival",
                    Observation.uniform(
                        tick, N_STATES, range(104, 109)
                    ),
                    chain_id="chain-0",
                )
            if tick == 5:  # an existing object is re-sighted
                database.append_observation(
                    "obj-0",
                    Observation.uniform(
                        tick, N_STATES, range(N_STATES)
                    ),
                )
                database.remove("obj-7")
            if tick == 7:  # a second re-sighting of the same object
                database.append_observation(
                    "obj-0",
                    Observation.uniform(
                        tick, N_STATES, range(N_STATES)
                    ),
                )
            result = standing.tick()
            expected = reference.evaluate(
                PSTExistsQuery(shifted(WINDOW, tick))
            )
            assert_tick_parity(result, expected, database)
        assert "late-arrival" in result.values
        assert "obj-7" not in result.values

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_monitoring_scenarios(self, seed):
        """The full generator: arrivals, re-sightings, departures."""
        rng = np.random.default_rng(seed)
        config = MonitoringConfig(
            n_objects=30,
            n_states=300,
            n_chains=int(rng.integers(1, 3)),
            n_ticks=6,
            stride=int(rng.integers(1, 4)),
            window_low=80,
            window_high=110,
            window_lead=int(rng.integers(4, 9)),
            window_duration=int(rng.integers(2, 5)),
            arrivals_per_tick=int(rng.integers(0, 3)),
            resightings_per_tick=int(rng.integers(0, 3)),
            departures_per_tick=int(rng.integers(0, 2)),
            seed=seed * 101,
        )
        workload = make_monitoring_workload(config)
        standing = QueryEngine(workload.database).watch(
            workload.query, stride=config.stride
        )
        reference = QueryEngine(workload.database)
        for tick in range(config.n_ticks):
            workload.apply(tick)
            result = standing.tick()
            expected = reference.evaluate(
                PSTExistsQuery(workload.window_at(tick))
            )
            assert_tick_parity(result, expected, workload.database)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_randomized_scenarios_three_standing_queries(
        self, kind, seed, monkeypatch
    ):
        """Three concurrently standing queries of every kind over a
        script that also re-anchors an object, observes one at the
        window start, compacts a cohort mid-stream and overflows the
        journal: every tick of every query equals ``evaluate()``."""
        from repro.database import uncertain_db

        monkeypatch.setattr(uncertain_db, "_JOURNAL_LIMIT", 100)
        workload, extras = monitoring_script(kind, seed)
        config, database = workload.config, workload.database
        engine = QueryEngine(database)
        regions = [range(80, 111), range(60, 100), range(120, 170)]
        times = sorted(workload.query.times)

        def query_at(region, tick):
            offset = tick * config.stride
            return KINDS[kind](
                SpatioTemporalWindow(
                    frozenset(region),
                    frozenset(t + offset for t in times),
                )
            )

        standing = [
            engine.watch(query_at(region, 0), stride=config.stride)
            for region in regions
        ]
        reference = QueryEngine(database)
        compacted = False
        for tick in range(config.n_ticks):
            workload.apply(tick)
            extras(tick)
            before = dict(database.cohorts())
            for region, watched in zip(regions, standing):
                result = watched.tick()
                assert result.query.window == query_at(region, tick).window
                assert_values_parity(
                    result, reference.evaluate(query_at(region, tick))
                )
            if tick == 2:
                cohort = before[database.chain_ids[0]]
            if tick == 3:
                compacted = (
                    database.cohorts()[database.chain_ids[0]]
                    is not cohort
                )
        assert compacted
        # compaction and the journal overflow both took the rebuild path
        assert all(watched.resyncs >= 2 for watched in standing)

    @pytest.mark.parametrize("site", ["streaming:tick", "streaming:commit"])
    @pytest.mark.parametrize("kind", ["exists", "ktimes"])
    def test_mid_tick_fault_then_clean_retry(self, kind, site):
        """A tick poisoned after its sync (and, for the commit site,
        after its ladder work) rolls back; the retry answers like a
        query that never failed and holds the same ladder."""
        clean_workload, clean_extras = monitoring_script(kind, seed=5)
        workload, extras = monitoring_script(kind, seed=5)
        config = workload.config
        faults = FaultInjector(
            FaultSpec(site=site, match={"tick": 2}),
            FaultSpec(site=site, match={"tick": 3}),
        )
        clean = QueryEngine(clean_workload.database).watch(
            KINDS[kind](clean_workload.query.window), stride=config.stride
        )
        faulty = QueryEngine(workload.database).watch(
            KINDS[kind](workload.query.window),
            stride=config.stride,
            faults=faults,
        )
        for tick in range(config.n_ticks):
            clean_workload.apply(tick)
            clean_extras(tick)
            workload.apply(tick)
            extras(tick)
            expected = clean.tick()
            if tick in (2, 3):
                rungs = [
                    len(stream.rel) for stream in faulty._chains.values()
                ]
                with pytest.raises(InjectedFaultError):
                    faulty.tick()
                assert faulty.ticks == tick
                assert rungs == [
                    len(stream.rel) for stream in faulty._chains.values()
                ]
            result = faulty.tick()
            assert_values_parity(result, expected)
            assert [
                len(stream.rel) for stream in faulty._chains.values()
            ] == [len(stream.rel) for stream in clean._chains.values()]

    def test_backfilled_observation_invalidates_posterior(self):
        """A sighting inserted *below* an already-filtered one must be
        folded in, not shadowed by the cached posterior."""
        database = build_database(seed=30)
        # a probe sitting on the window region, so its probability is
        # O(0.1) and a stale posterior is far outside the tolerance
        database.add(
            UncertainObject.with_distribution(
                "probe",
                Observation.uniform(
                    0, N_STATES, range(100, 121)
                ).distribution,
                chain_id="chain-0",
            )
        )
        standing = QueryEngine(database).watch(PSTExistsQuery(WINDOW))
        reference = QueryEngine(database)
        for tick in range(6):
            if tick == 1:  # re-sighting at t=6 -> posterior cached
                database.append_observation(
                    "probe",
                    Observation.uniform(6, N_STATES, range(N_STATES)),
                )
            if tick == 3:  # backfill at t=5, below the cached time:
                # informative (half the prior support) but feasible
                database.append_observation(
                    "probe",
                    Observation.uniform(5, N_STATES, range(0, 111)),
                )
            result = standing.tick()
            expected = reference.evaluate(
                PSTExistsQuery(shifted(WINDOW, tick))
            )
            assert_tick_parity(result, expected, database)

    def test_journal_truncation_forces_resync(self, monkeypatch):
        from repro.database import uncertain_db

        monkeypatch.setattr(uncertain_db, "_JOURNAL_LIMIT", 8)
        database = build_database(seed=31)
        standing = QueryEngine(database).watch(PSTExistsQuery(WINDOW))
        reference = QueryEngine(database)
        standing.tick()
        synced = standing._synced_version
        for index in range(20):  # overflow the bounded journal
            database.add(
                UncertainObject.at_state(
                    f"burst-{index}",
                    N_STATES,
                    105 + index % 5,
                    chain_id="chain-0",
                )
            )
        assert database.changes_since(synced) is None
        result = standing.tick()
        expected = reference.evaluate(
            PSTExistsQuery(shifted(WINDOW, 1))
        )
        assert_tick_parity(result, expected, database)

    def test_chain_replacement_rebuilds(self):
        database = build_database(seed=6, n_chains=1)
        standing = QueryEngine(database).watch(PSTExistsQuery(WINDOW))
        reference = QueryEngine(database)
        standing.tick()
        database.register_chain(
            "chain-0",
            make_line_chain(N_STATES, seed=999),
        )
        result = standing.tick()
        expected = reference.evaluate(
            PSTExistsQuery(shifted(WINDOW, 1))
        )
        assert_tick_parity(result, expected, database)


class TestSharedPosteriors:
    """One Lemma 1 posterior per re-sighting, whoever ticks first."""

    @staticmethod
    def count_collapses(monkeypatch, pause: float = 0.0):
        calls = []
        original = PosteriorCollapse.run

        def counting(self, inputs, *args, **kwargs):
            calls.append(len(inputs[0]))
            time.sleep(pause)  # lets another thread in mid-collapse
            return original(self, inputs, *args, **kwargs)

        monkeypatch.setattr(PosteriorCollapse, "run", counting)
        return calls

    def test_four_queries_collapse_each_resighting_once(
        self, monkeypatch
    ):
        database = build_database(seed=61, n_chains=1)
        engine = QueryEngine(database)
        reference = QueryEngine(database)
        windows = [
            SpatioTemporalWindow.from_ranges(60, 340, 10, 10 + extra)
            for extra in range(4)
        ]
        standing = [
            engine.watch(PSTExistsQuery(window)) for window in windows
        ]
        calls = self.count_collapses(monkeypatch)
        resightings = 0
        for tick in range(5):
            # three fresh objects each tick, plus one seen every tick
            for index in range(3):
                database.append_observation(
                    f"obj-{3 * tick + index}",
                    Observation.uniform(
                        5 + tick, N_STATES, range(N_STATES)
                    ),
                )
                resightings += 1
            database.append_observation(
                "obj-39",
                Observation.uniform(5 + tick, N_STATES, range(N_STATES)),
            )
            resightings += 1
            for window, watched in zip(windows, standing):
                assert_tick_parity(
                    watched.tick(),
                    reference.evaluate(
                        PSTExistsQuery(shifted(window, tick))
                    ),
                    database,
                )
        # every re-sighted object is within reach of the wide region,
        # so each re-sighting is filtered -- once, not once per query
        assert len(calls) == resightings == 20

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_reused_id_never_inherits_a_posterior(self, order):
        """``remove`` then ``add`` of a different object under the same
        id, re-sighted at the same times: whichever standing query
        syncs second must not resume from the first object's pdf."""
        database = build_database(seed=62, n_chains=1)
        engine = QueryEngine(database)
        reference = QueryEngine(database)
        queries = [
            PSTExistsQuery(WINDOW),
            PSTExistsQuery(
                SpatioTemporalWindow.from_ranges(95, 125, 10, 12)
            ),
        ]
        standing = [engine.watch(query) for query in queries]

        def sight(low: int) -> None:
            database.add(
                UncertainObject.with_distribution(
                    "X",
                    Observation.uniform(
                        0, N_STATES, range(low, low + 6)
                    ).distribution,
                    chain_id="chain-0",
                )
            )
            database.append_observation(
                "X", Observation.uniform(2, N_STATES, range(60, 180))
            )

        sight(100)
        for watched in standing:
            watched.tick()  # both collapse the first "X"
        database.remove("X")
        sight(130)
        for index in order:
            result = standing[index].tick()
            assert_tick_parity(
                result, reference.evaluate(result.query), database
            )

    def test_concurrent_ticks_share_the_table(self, monkeypatch):
        """Standing queries of one engine ticked from different
        threads (the service does this): still one collapse per
        re-sighting, still exact."""
        database = build_database(seed=64, n_chains=1)
        engine = QueryEngine(database)
        reference = QueryEngine(database)
        windows = [
            SpatioTemporalWindow.from_ranges(60, 340, 10, 10 + extra)
            for extra in range(4)
        ]
        standing = [
            engine.watch(PSTExistsQuery(window)) for window in windows
        ]
        calls = self.count_collapses(monkeypatch, pause=0.002)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for tick in range(4):
                    for index in range(6):
                        database.append_observation(
                            f"obj-{6 * tick + index}",
                            Observation.uniform(
                                5 + tick, N_STATES, range(N_STATES)
                            ),
                        )
                    results = list(
                        pool.map(
                            lambda watched: watched.tick(),
                            standing,
                            timeout=120,
                        )
                    )
                    for result in results:
                        assert_tick_parity(
                            result,
                            reference.evaluate(result.query),
                            database,
                        )
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 24

    def test_superseded_posteriors_are_compacted(self):
        database = build_database(seed=63, n_objects=4, n_chains=1)
        engine = QueryEngine(database)
        standing = engine.watch(PSTExistsQuery(WINDOW))
        reference = QueryEngine(database)
        n_ticks = 150
        for tick in range(n_ticks):
            database.append_observation(
                "obj-0",
                Observation.uniform(5 + tick, N_STATES, range(N_STATES)),
            )
            result = standing.tick()
        assert_tick_parity(
            result, reference.evaluate(result.query), database
        )
        (table,) = engine._streaming._posteriors.values()
        # one live entry; the table holds a bounded number of dead ones
        assert len(table.indptr) - 1 <= 2 * 1 + 64 + 1 < n_ticks


class _Interloper:
    """Stands in for the fault injector of a standing query: right
    after that query has synced (``streaming:tick`` fires there) it
    runs ``act`` once -- a write plus another query's tick, which
    patches the shared cohort and posterior table -- before the first
    query evaluates."""

    def __init__(self, act):
        self.act = act

    def fire(self, site, **_info):
        if site == "streaming:tick" and self.act is not None:
            act, self.act = self.act, None
            act()


class TestWritesRacingATick:
    """A tick answers from the view it took at sync, whatever another
    query syncs into the shared cohort while it runs (the service
    ticks standing queries and runs one-shot queries on one thread
    pool)."""

    WIDE = SpatioTemporalWindow.from_ranges(60, 340, 10, 12)

    @staticmethod
    def resight(database, object_id, time):
        """An informative (and feasible) sighting: the few states
        around the likeliest one given everything seen so far."""
        chain = database.chain("chain-0")
        observations = database.get(object_id).observations
        pdf, at = observations.first.distribution, observations.first.time
        for seen in observations.after(at):
            pdf = StateDistribution(
                chain.propagate(pdf, seen.time - at).vector
                * seen.distribution.vector,
                normalize=True,
            )
            at = seen.time
        center = chain.propagate(pdf, time - at).mode()
        database.append_observation(
            object_id,
            Observation.uniform(
                time,
                N_STATES,
                range(max(0, center - 2), min(N_STATES, center + 3)),
            ),
        )

    def writes(self, database):
        return {
            # a new row the first query has no threshold for
            "add": lambda: database.add(
                UncertainObject.with_distribution(
                    "late",
                    make_object_distribution(
                        N_STATES, 5, np.random.default_rng(5)
                    ),
                    time=3,
                    chain_id="chain-0",
                )
            ),
            # is_multi / last_time flipped under the first query
            "first-resighting": lambda: self.resight(
                database, "obj-1", 7
            ),
            # a collapsed posterior moved on by the other query
            "second-resighting": lambda: self.resight(
                database, "obj-0", 8
            ),
            "remove": lambda: database.remove("obj-2"),
            "remove-resighted": lambda: database.remove("obj-0"),
        }

    @pytest.mark.parametrize(
        "write",
        ["add", "first-resighting", "second-resighting", "remove",
         "remove-resighted"],
    )
    @pytest.mark.parametrize("other", ["tick", "evaluate"])
    def test_tick_answers_as_of_its_sync(self, write, other):
        database = build_database(seed=66, n_chains=1)
        self.resight(database, "obj-0", 6)
        engine = QueryEngine(database)
        reference = QueryEngine(database)
        second = engine.watch(PSTExistsQuery(WINDOW))
        if other == "evaluate":
            second = None

        def interlope():
            self.writes(database)[write]()
            if second is not None:
                landed = second.tick()
            else:
                landed = engine.evaluate(PSTExistsQuery(self.WIDE))
            assert_tick_parity(
                landed, reference.evaluate(landed.query), database
            )

        first = engine.watch(
            PSTExistsQuery(self.WIDE), faults=_Interloper(None)
        )
        first.tick()  # "obj-0" is collapsed
        first.faults.act = interlope
        before = reference.evaluate(PSTExistsQuery(first.window))
        result = first.tick()
        assert first.faults.act is None
        assert_values_parity(result, before)
        assert first.error is None and first._failures == 0
        result = first.tick()
        assert_tick_parity(
            result, reference.evaluate(result.query), database
        )

    def test_threaded_writes_never_fail_a_tick(self):
        """Arrivals, departures and re-sightings from one thread while
        three standing queries tick on their own: every tick commits
        (what it answers is not comparable -- the database moves under
        the reference -- but nothing may raise or roll back)."""
        database = build_database(seed=68, n_objects=120, n_chains=1)
        engine = QueryEngine(database)
        standing = [
            engine.watch(query)
            for query in (
                PSTExistsQuery(self.WIDE),
                PSTForAllQuery(self.WIDE),
                PSTExistsQuery(WINDOW),
            )
        ]
        deadline = time.monotonic() + 1.0

        def write():
            rng = np.random.default_rng(9)
            serial = 0
            while time.monotonic() < deadline:
                serial += 1
                ids = database.object_ids
                victim = ids[int(rng.integers(len(ids)))]
                action = int(rng.integers(3))
                if action == 0:
                    database.add(
                        UncertainObject.with_distribution(
                            f"new-{serial}",
                            make_object_distribution(N_STATES, 5, rng),
                            time=int(rng.integers(0, 8)),
                            chain_id="chain-0",
                        )
                    )
                elif action == 1 and len(ids) > 40:
                    database.remove(victim)
                else:
                    latest = database.get(victim).observations.last
                    database.append_observation(
                        victim,
                        Observation.uniform(
                            latest.time + 1, N_STATES, range(N_STATES)
                        ),
                    )

        def tick(watched):
            ticks = 0
            while time.monotonic() < deadline:
                watched.tick()
                ticks += 1
            return ticks

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                writer = pool.submit(write)
                ticks = [pool.submit(tick, w) for w in standing]
                writer.result(timeout=120)
                assert all(t.result(timeout=120) > 0 for t in ticks)
        finally:
            sys.setswitchinterval(interval)
        assert all(watched._failures == 0 for watched in standing)

    @pytest.mark.parametrize("replaced", [False, True])
    def test_record_gone_mid_tick_leaves_the_object_out(self, replaced):
        """The one thing a tick still reads from the database is the
        record of a re-sighted object it has to collapse; when a write
        racing the tick took that record away, the tick answers for
        everything else."""
        database = build_database(seed=67, n_chains=1)
        engine = QueryEngine(database)
        reference = QueryEngine(database)

        def interlope():
            database.remove("obj-0")
            if replaced:
                database.add(
                    UncertainObject.with_distribution(
                        "obj-0",
                        make_object_distribution(
                            N_STATES, 5, np.random.default_rng(6)
                        ),
                        time=9,
                        chain_id="chain-0",
                    )
                )
                engine.evaluate(PSTExistsQuery(self.WIDE))

        first = engine.watch(
            PSTExistsQuery(self.WIDE), faults=_Interloper(None)
        )
        first.tick()
        self.resight(database, "obj-0", 6)  # not collapsed yet
        first.faults.act = interlope
        before = reference.evaluate(PSTExistsQuery(first.window))
        del before.values["obj-0"]
        result = first.tick()
        assert first.faults.act is None
        assert_values_parity(result, before)
        assert first.ticks == 2 and first._failures == 0
        result = first.tick()
        assert_tick_parity(
            result, reference.evaluate(result.query), database
        )


class TestStructuralGuards:
    """Per-start-time and per-object work cannot creep back."""

    @staticmethod
    def staggered_database(n_starts: int) -> TrajectoryDatabase:
        rng = np.random.default_rng(70)
        database = TrajectoryDatabase(
            N_STATES, state_space=LineStateSpace(N_STATES)
        )
        database.register_chain(
            "chain-0", make_line_chain(N_STATES, rng=rng)
        )
        for index in range(48):
            database.add(
                UncertainObject.with_distribution(
                    f"obj-{index}",
                    make_object_distribution(N_STATES, 5, rng),
                    time=index % n_starts,
                    chain_id="chain-0",
                )
            )
        return database

    def test_sparse_products_do_not_grow_with_start_times(
        self, monkeypatch
    ):
        sparse = pytest.importorskip("scipy.sparse")
        owner = next(
            cls
            for cls in sparse.csr_matrix.__mro__
            if "__matmul__" in vars(cls)
        )
        original = owner.__matmul__
        calls = []

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        products = {}
        for n_starts in (4, 8):
            database = self.staggered_database(n_starts)
            standing = QueryEngine(database).watch(
                PSTExistsQuery(WINDOW), stride=2
            )
            standing.tick()  # seeds the ladder
            with monkeypatch.context() as patch:
                patch.setattr(owner, "__matmul__", counting)
                del calls[:]
                standing.tick()
                products[n_starts] = len(calls)
        # the tick extends the ladder by ``stride`` products and
        # answers every start time from one gather
        assert products == {4: 2, 8: 2}

    def test_no_riders_empties_the_ladder(self):
        """Every object observed at the window start: nothing rides,
        the ladder holds nothing; one tick later everything does."""
        database = self.staggered_database(1)
        window = SpatioTemporalWindow.from_ranges(100, 120, 0, 2)
        standing = QueryEngine(database).watch(PSTExistsQuery(window))
        reference = QueryEngine(database)
        for tick in range(3):
            result = standing.tick()
            assert_tick_parity(
                result, reference.evaluate(result.query), database
            )
            (stream,) = standing._chains.values()
            assert len(stream.rel) == min(tick, 1)

    def test_resighting_at_window_start_takes_the_doubled_sweep(self):
        database = self.staggered_database(2)
        database.append_observation(
            "obj-0",
            Observation.uniform(
                WINDOW.t_start, N_STATES, range(N_STATES)
            ),
        )
        standing = QueryEngine(database).watch(PSTExistsQuery(WINDOW))
        reference = QueryEngine(database)
        for tick in range(3):
            result = standing.tick()
            assert_tick_parity(
                result, reference.evaluate(result.query), database
            )
            assert "obj-0" in result.values


class TestStreamingPlan:
    def test_streaming_stage_reported(self):
        database = build_database(seed=7)
        standing = QueryEngine(database).watch(
            PSTExistsQuery(WINDOW), stride=3
        )
        result = standing.tick()
        plan = result.plan
        assert plan is standing.explain()
        names = [stage.name for stage in plan.stages]
        assert names == ["streaming", "evaluate"]
        streaming = plan.stages[0]
        assert streaming.candidates_in == len(database)
        assert 0 <= streaming.candidates_out <= len(database)
        assert "tick 0" in streaming.detail
        assert "stride 3" in streaming.detail
        assert plan.requested_method == "streaming"
        assert "streaming" in plan.describe()

    def test_candidates_grow_with_horizon(self):
        database = build_database(seed=8)
        standing = QueryEngine(database).watch(PSTExistsQuery(WINDOW))
        counts = []
        for _ in range(6):
            result = standing.tick()
            counts.append(result.plan.stages[0].candidates_out)
        # the horizon only grows, so BFS thresholds only ever admit
        # more objects (no mutations in this run)
        assert counts == sorted(counts)

    def test_explain_before_tick_raises(self):
        database = build_database(seed=9)
        standing = QueryEngine(database).watch(PSTExistsQuery(WINDOW))
        with pytest.raises(QueryError):
            standing.explain()

    def test_ktimes_standing_query_matches_batch(self):
        database = build_database(seed=10)
        engine = QueryEngine(database)
        standing = engine.watch(PSTKTimesQuery(WINDOW))
        fresh = QueryEngine(database)
        for _ in range(4):
            result = standing.tick()
            scratch = fresh.evaluate(result.query)
            for object_id in database.object_ids:
                assert np.asarray(
                    result.values[object_id]
                ) == pytest.approx(
                    np.asarray(scratch.values[object_id]), abs=1e-12
                )

    def test_ktimes_standing_query_rejects_multis(self):
        database = build_database(seed=10)
        rng = np.random.default_rng(0)
        first = database.get(database.object_ids[0])
        database.append_observation(
            first.object_id,
            Observation(
                WINDOW.t_start - 2,
                make_object_distribution(N_STATES, 5, rng),
            ),
        )
        with pytest.raises(QueryError, match="multiple observations"):
            QueryEngine(database).watch(PSTKTimesQuery(WINDOW))

    def test_bad_stride_rejected(self):
        database = build_database(seed=11)
        with pytest.raises(QueryError, match="stride"):
            QueryEngine(database).watch(PSTExistsQuery(WINDOW), stride=0)

    def test_shares_engine_plan_cache(self):
        database = build_database(seed=12, n_chains=1)
        engine = QueryEngine(database)
        engine.evaluate(PSTExistsQuery(WINDOW))
        built = engine.plan_cache.stats.total_constructions
        standing = engine.watch(PSTExistsQuery(WINDOW))
        standing.tick()
        # the standing query reuses the batch engine's absorbing
        # matrices; only backward artefacts may be added
        constructions = engine.plan_cache.stats.constructions
        assert constructions.get("absorbing", 0) == 1
        assert engine.plan_cache.stats.total_constructions <= built + 1

    def test_standalone_streaming_engine(self):
        database = build_database(seed=13)
        streaming = StreamingQueryEngine(database)
        standing = streaming.watch(PSTExistsQuery(WINDOW))
        result = standing.tick()
        assert len(result) == len(database)


class TestOnlineAppends:
    def test_version_and_journal(self):
        database = build_database(seed=14, n_objects=2, n_chains=1)
        version = database.version
        database.append_observation(
            "fresh",
            Observation.precise(0, N_STATES, 50),
            chain_id="chain-0",
        )
        database.append_observation(
            "fresh", Observation.precise(3, N_STATES, 60)
        )
        database.remove("fresh")
        changes = database.changes_since(version)
        assert [c.op for c in changes] == ["add", "observe", "remove"]
        assert all(c.object_id == "fresh" for c in changes)
        assert database.changes_since(database.version) == []

    def test_append_makes_multi_observation(self):
        database = build_database(seed=15, n_objects=3, n_chains=1)
        updated = database.append_observation(
            "obj-0", Observation.uniform(9, N_STATES, range(N_STATES))
        )
        assert updated.has_multiple_observations()
        assert database.get("obj-0").observations.last.time == 9

    def test_append_validates_state_count(self):
        database = build_database(seed=16, n_objects=2, n_chains=1)
        with pytest.raises(Exception):
            database.append_observation(
                "obj-0", Observation.precise(9, N_STATES + 1, 0)
            )

    def test_prefilter_patched_incrementally(self):
        database = build_database(seed=17, n_chains=1)
        prefilter = database.geometric_prefilter("chain-0")
        assert prefilter is not None
        window = shifted(WINDOW, 0)
        before = set(prefilter.candidate_ids(window, 0))

        database.add(
            UncertainObject.with_distribution(
                "inside",
                make_object_distribution(
                    N_STATES, 5, np.random.default_rng(0)
                ),
                chain_id="chain-0",
            )
        )
        database.add(
            UncertainObject.at_state(
                "right-there", N_STATES, 110, chain_id="chain-0"
            )
        )
        # the same prefilter object is patched, not rebuilt
        assert database.geometric_prefilter("chain-0") is prefilter
        after = set(prefilter.candidate_ids(window, 0))
        assert "right-there" in after
        assert before <= after | {"right-there", "inside"}

        database.remove("right-there")
        assert "right-there" not in set(
            prefilter.candidate_ids(window, 0)
        )

    def test_prefilter_matches_fresh_rebuild(self):
        """Patched probes equal a from-scratch STR build."""
        rng = np.random.default_rng(18)
        database = build_database(seed=18, n_chains=1)
        prefilter = database.geometric_prefilter("chain-0")
        for index in range(20):
            database.add(
                UncertainObject.with_distribution(
                    f"new-{index}",
                    make_object_distribution(N_STATES, 5, rng),
                    chain_id="chain-0",
                )
            )
        for index in range(0, 20, 3):
            database.remove(f"new-{index}")
        window = shifted(WINDOW, 3)
        patched = set(prefilter.candidate_ids(window, 0))
        prefilter.rebuild()
        rebuilt = set(prefilter.candidate_ids(window, 0))
        assert patched == rebuilt

    def test_min_levels_serves_every_horizon(self):
        database = build_database(seed=19, n_chains=1)
        engine = QueryEngine(database)
        levels = engine.pruner.min_levels("chain-0", WINDOW.region)
        assert levels.shape == (N_STATES,)
        assert all(levels[state] == 0 for state in WINDOW.region)
        for obj in database:
            steps = engine.pruner.min_steps(obj, WINDOW.region)
            horizon = WINDOW.t_end - obj.initial.time
            assert engine.pruner.can_satisfy(obj, WINDOW) == (
                steps <= horizon
            )


class TestLadderEviction:
    """The backward ladder must stay memory-bounded as ticks accumulate.

    Before eviction the ladder grew by ``stride`` rungs per tick for
    the lifetime of the standing query; now rungs no live start time
    can reference are dropped after every tick, so the footprint is
    bounded by the live gap *spread* -- independent of tick count --
    while per-tick cost stays ``O(stride)`` sparse products and values
    stay bit-identical to batch re-evaluation.
    """

    @staticmethod
    def total_rungs(standing) -> int:
        return sum(
            len(stream.rel) for stream in standing._chains.values()
        )

    def test_memory_bounded_over_many_ticks(self):
        database = build_database(seed=51, n_chains=1)
        engine = QueryEngine(database)
        replan = QueryEngine(database)
        standing = engine.watch(PSTExistsQuery(WINDOW), stride=1)

        n_ticks = 60
        # start times span [0, 5); gaps per tick span the same spread
        spread = 5
        bound = spread + standing.stride + 2
        for tick in range(n_ticks):
            result = standing.tick()
            assert self.total_rungs(standing) <= bound
            if tick % 20 == 0:  # parity spot checks stay exact
                reference = replan.evaluate(
                    PSTExistsQuery(shifted(WINDOW, tick))
                )
                assert_tick_parity(result, reference, database)
        # without eviction the ladder would hold >= n_ticks rungs
        assert self.total_rungs(standing) < n_ticks

    @pytest.mark.parametrize("kind", ["exists", "ktimes"])
    def test_buffer_is_reused_not_regrown(self, kind):
        """The live rungs slide through the ladder's buffer and go
        back to its front when the tail runs out: capacity stays
        within eight times the live part, and a tick rolled back right
        after that move leaves the ladder as it was."""
        database = build_database(seed=54, n_chains=1)
        engine = QueryEngine(database)
        replan = QueryEngine(database)
        faults = FaultInjector()
        standing = engine.watch(KINDS[kind](WINDOW), stride=2, faults=faults)
        standing.tick()
        (stream,) = standing._chains.values()
        capacities, moves = set(), 0
        for tick in range(1, 60):
            buffer = stream._buffer
            moving = stream._end + standing.stride > len(buffer)
            if moving and tick > 30:
                moves += 1
                rungs = stream.rel.copy()
                faults.add(FaultSpec(site="streaming:commit", times=1))
                with pytest.raises(InjectedFaultError):
                    standing.tick()
                assert np.array_equal(stream.rel, rungs)
            result = standing.tick()
            if tick > 30:  # the live part has stopped growing
                assert stream._buffer is buffer
                capacities.add(len(stream._buffer))
            if moving:
                assert_values_parity(result, replan.evaluate(result.query))
        assert moves >= 2
        live = len(stream.rel)
        assert max(capacities) <= 8 * (live + standing.stride)

    def test_departures_shrink_the_ladder(self):
        database = build_database(seed=52, n_chains=1)
        engine = QueryEngine(database)
        standing = engine.watch(PSTExistsQuery(WINDOW), stride=1)
        for _ in range(10):
            standing.tick()
        before = self.total_rungs(standing)
        # leave a single object: one live gap, ladder collapses
        for object_id in list(database.object_ids)[1:]:
            database.remove(object_id)
        for _ in range(3):
            standing.tick()
        after = self.total_rungs(standing)
        assert after <= min(before, standing.stride + 2)

    def test_eviction_reports_in_explain(self):
        database = build_database(seed=53, n_chains=1)
        engine = QueryEngine(database)
        standing = engine.watch(PSTExistsQuery(WINDOW), stride=2)
        for _ in range(4):
            standing.tick()
        detail = standing.explain().stages[0].detail
        assert "rungs" in detail and "evicted" in detail

    def test_arrival_below_retained_range_recomputes_exactly(self):
        """A fresh arrival whose gap precedes every retained rung is
        answered by a direct backward pass -- same values as batch."""
        database = build_database(seed=54, n_chains=1)
        engine = QueryEngine(database)
        replan = QueryEngine(database)
        standing = engine.watch(PSTExistsQuery(WINDOW), stride=1)
        for _ in range(12):
            standing.tick()
        # observe a new object *now*: its gap is far below the old
        # objects' (whose observations are ~17 ticks stale)
        rng = np.random.default_rng(99)
        new_start = standing.window.t_start - 1
        database.add(
            UncertainObject.with_distribution(
                "late-arrival",
                make_object_distribution(N_STATES, 5, rng),
                time=int(new_start),
                chain_id="chain-0",
            )
        )
        result = standing.tick()  # evaluates the offset-12 window
        reference = replan.evaluate(
            PSTExistsQuery(shifted(WINDOW, 12))
        )
        assert_tick_parity(result, reference, database)
