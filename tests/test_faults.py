"""Fault injection: every recovery path lands on the exact answer.

The load-bearing property mirrors the dispatch parity suite: whatever
the supervisor has to survive -- killed workers, hung workers, a pool
that breaks mid-scatter, poisoned streaming ticks -- the query still
returns values within 1e-12 of the serial reference, and the recovery
(pool rebuild, per-shard retry, shard -> parent degradation,
transactional rollback) is visible on ``plan.degradations`` /
``StandingQuery.error`` rather than silent.

Faults are driven deterministically through
:class:`repro.FaultInjector` (see :mod:`repro.exec.faults`), never by
timing races.
"""

from __future__ import annotations

import os
import shutil
import subprocess

import numpy as np
import pytest

from repro import (
    FaultInjector,
    FaultSpec,
    InjectedFaultError,
    PlanOptions,
    PSTExistsQuery,
    QuarantinedQueryError,
    QueryEngine,
    SpatioTemporalWindow,
    SupervisorPolicy,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.errors import ValidationError
from repro.core.state_space import LineStateSpace
from repro.core.streaming import StreamingQueryEngine
from repro.exec import dispatch
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

N_STATES = 300
WINDOW = SpatioTemporalWindow.from_ranges(80, 110, 8, 11)

#: the first slab shard of every test database's spill (chain-0's
#: first tile) -- where the fault rules below strike
FIRST_SHARD = "shard-0000"


def build_database(
    seed: int, n_objects: int = 60, n_chains: int = 3
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


def serial_reference(database, query):
    return QueryEngine(database).evaluate(
        query, options=PlanOptions(dispatch="serial")
    )


def assert_parity(result, reference):
    assert set(result.values) == set(reference.values)
    for object_id, expected in reference.values.items():
        assert result.values[object_id] == pytest.approx(
            expected, abs=1e-12
        )


def shifted(window: SpatioTemporalWindow, offset: int):
    return SpatioTemporalWindow(
        window.region, frozenset(t + offset for t in window.times)
    )


def fast_policy(**overrides) -> SupervisorPolicy:
    settings = dict(max_retries=3, backoff_seconds=0.01)
    settings.update(overrides)
    return SupervisorPolicy(**settings)


def process_options(faults=None, policy=None) -> PlanOptions:
    return PlanOptions(
        dispatch="process",
        max_workers=2,
        supervisor=policy or fast_policy(),
        faults=faults,
    )


# ----------------------------------------------------------------------
# supervised dispatch: kills, hangs, broken pools
# ----------------------------------------------------------------------
class TestSupervisedDispatch:
    def test_worker_kill_recovers_via_pool_rebuild(self):
        database = build_database(seed=11)
        query = PSTExistsQuery(WINDOW)
        reference = serial_reference(database, query)
        faults = FaultInjector(
            FaultSpec(
                site="worker:store-shard",
                action="kill",
                match={"shard_id": FIRST_SHARD, "attempt": 0},
            )
        )
        result = QueryEngine(database).evaluate(
            query, options=process_options(faults=faults)
        )
        assert_parity(result, reference)
        assert any(
            "worker pool rebuilt" in event
            for event in result.plan.degradations
        )
        assert any(
            "worker crash" in event
            for event in result.plan.degradations
        )

    def test_persistent_kills_degrade_to_exact_lower_tier(self):
        database = build_database(seed=12)
        query = PSTExistsQuery(WINDOW)
        reference = serial_reference(database, query)
        # no attempt filter and times=None: every attempt dies, so the
        # supervisor must exhaust retries and hand the shard to the
        # parent, which still computes the exact kernels
        faults = FaultInjector(
            FaultSpec(
                site="worker:store-shard",
                action="kill",
                match={"shard_id": FIRST_SHARD},
                times=None,
            )
        )
        result = QueryEngine(database).evaluate(
            query,
            options=process_options(
                faults=faults, policy=fast_policy(max_retries=1)
            ),
        )
        assert_parity(result, reference)
        # shards fall one by one, and only to the parent -- never the
        # whole query to serial.  Each kill breaks the pool under the
        # shards in flight beside the poisoned one, so they may run
        # out of retries too
        falls = [
            event for event in result.plan.degradations
            if "degraded" in event
        ]
        assert (
            f"store shard {FIRST_SHARD} degraded to parent after "
            f"worker crash"
        ) in falls
        assert all(
            event.startswith("store shard ")
            and event.endswith(" degraded to parent after worker crash")
            for event in falls
        )
        assert result.plan.store_stats["parent_fallbacks"] == len(falls)
        assert result.plan.stages[-1].detail.startswith("process x2")
        # explain() surfaces the same events
        assert "degraded to parent" in result.plan.describe()

    def test_pool_that_keeps_breaking_at_submit_degrades(self, monkeypatch):
        # every pool the supervisor acquires is already dead: the
        # mid-scatter swap must give up after its bounded budget and
        # fall to a lower tier, not spin
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
        database = build_database(seed=12)
        query = PSTExistsQuery(WINDOW)
        reference = serial_reference(database, query)
        result = QueryEngine(database).evaluate(
            query,
            options=process_options(policy=fast_policy(max_retries=1)),
        )
        assert_parity(result, reference)
        assert len(swaps) == 1 + 3  # first pool + (max_retries + 2) swaps
        stats = result.plan.store_stats
        assert stats["parent_fallbacks"] == stats["shards"]
        assert any(
            "degraded to parent after worker pool broke" in event
            for event in result.plan.degradations
        )

    @pytest.mark.parametrize("index", [0, 1], ids=["first", "middle"])
    def test_pool_break_during_scatter_is_replaced_once(self, index):
        # dispatch:submit drives the kill-during-scatter window without
        # touching the pool: the submission of shard `index` finds the
        # pool broken, the supervisor swaps it and moves the shards
        # already scattered over
        from concurrent.futures.process import BrokenProcessPool

        database = build_database(seed=14)
        query = PSTExistsQuery(WINDOW)
        reference = serial_reference(database, query)
        faults = FaultInjector(
            FaultSpec(
                site="dispatch:submit",
                action="raise",
                exception=BrokenProcessPool,
                match={"index": index, "attempt": 0},
            )
        )
        result = QueryEngine(database).evaluate(
            query, options=process_options(faults=faults)
        )
        assert_parity(result, reference)
        assert faults.fired("dispatch:submit") == 1
        assert [
            "replaced mid-submit" in event
            for event in result.plan.degradations
        ] == [True]

    def test_next_query_after_kill_gets_a_fresh_pool(self):
        database = build_database(seed=13)
        query = PSTExistsQuery(WINDOW)
        reference = serial_reference(database, query)
        engine = QueryEngine(database)
        faults = FaultInjector(
            FaultSpec(
                site="worker:store-shard",
                action="kill",
                match={"shard_id": FIRST_SHARD},
                times=None,
            )
        )
        engine.evaluate(
            query,
            options=process_options(
                faults=faults, policy=fast_policy(max_retries=1)
            ),
        )
        # the very next process-dispatch query must transparently
        # rebuild the broken pool and run clean
        clean = engine.evaluate(query, options=process_options())
        assert_parity(clean, reference)
        assert clean.plan.degradations == []

    def test_hung_worker_times_out_and_retry_succeeds(self):
        database = build_database(seed=14)
        query = PSTExistsQuery(WINDOW)
        reference = serial_reference(database, query)
        # first attempts sleep far past the deadline; the supervisor
        # abandons them, rebuilds the pool and the retries run clean
        faults = FaultInjector(
            FaultSpec(
                site="worker:store-shard",
                action="delay",
                delay_seconds=6.0,
                match={"shard_id": FIRST_SHARD, "attempt": 0},
            )
        )
        policy = fast_policy(timeout_seconds=2.0)
        result = QueryEngine(database).evaluate(
            query, options=process_options(faults=faults, policy=policy)
        )
        assert_parity(result, reference)
        assert any(
            "deadline" in event for event in result.plan.degradations
        )

    def test_transient_worker_fault_retried_in_place(self):
        database = build_database(seed=17)
        query = PSTExistsQuery(WINDOW)
        reference = serial_reference(database, query)
        faults = FaultInjector(
            FaultSpec(
                site="worker:store-shard",
                action="raise",
                match={"shard_id": FIRST_SHARD, "attempt": 0},
                message="flaky shard",
            )
        )
        result = QueryEngine(database).evaluate(
            query, options=process_options(faults=faults)
        )
        assert_parity(result, reference)
        # a raise from a healthy pool retries just that shard -- no
        # pool rebuild, no degradation
        assert any(
            "retried after worker fault" in event
            for event in result.plan.degradations
        )
        assert not any(
            event.startswith("degraded")
            for event in result.plan.degradations
        )

    def test_shutdown_is_idempotent_and_recoverable(self):
        database = build_database(seed=18)
        query = PSTExistsQuery(WINDOW)
        reference = serial_reference(database, query)
        engine = QueryEngine(database)
        assert_parity(
            engine.evaluate(query, options=process_options()),
            reference,
        )
        dispatch.shutdown()
        dispatch.shutdown()  # second call must be a no-op, not a crash
        assert dispatch.memory_stats()["session_bytes"] == 0
        # and the dispatch layer comes back up on demand
        result = engine.evaluate(query, options=process_options())
        assert_parity(result, reference)


# ----------------------------------------------------------------------
# transactional streaming ticks
# ----------------------------------------------------------------------
class TestTransactionalTicks:
    def test_poisoned_tick_rolls_back_then_retries_clean(self):
        database = build_database(seed=21, n_objects=30, n_chains=2)
        engine = QueryEngine(database)
        faults = FaultInjector(
            FaultSpec(
                site="streaming:commit",
                action="raise",
                match={"tick": 0},
                message="poisoned commit",
            )
        )
        standing = engine.watch(PSTExistsQuery(WINDOW), faults=faults)
        window_before = standing.window
        with pytest.raises(InjectedFaultError):
            standing.tick()
        # all-or-nothing: the failed tick left no trace but the error
        assert standing.ticks == 0
        assert standing.window == window_before
        assert not standing.quarantined
        assert "poisoned commit" in standing.error
        # the retry (spec disarmed after one firing) commits and
        # matches an independent batch evaluation of the same window
        result = standing.tick()
        assert standing.ticks == 1
        assert standing.error is None
        assert_parity(
            result,
            QueryEngine(database).evaluate(PSTExistsQuery(WINDOW)),
        )

    def test_rollback_covers_the_journal_sync(self):
        database = build_database(seed=22, n_objects=25, n_chains=2)
        engine = QueryEngine(database)
        faults = FaultInjector(
            FaultSpec(
                site="streaming:commit",
                action="raise",
                match={"tick": 0},
            )
        )
        standing = engine.watch(PSTExistsQuery(WINDOW), faults=faults)
        # a mutation lands after registration; the poisoned tick syncs
        # it, fails, and must roll the sync back too
        rng = np.random.default_rng(99)
        database.add(
            UncertainObject.with_distribution(
                "late-arrival",
                make_object_distribution(N_STATES, 5, rng),
                time=2,
                chain_id="chain-0",
            )
        )
        with pytest.raises(InjectedFaultError):
            standing.tick()
        # the retry re-reads the journal and sees the new object
        result = standing.tick()
        assert "late-arrival" in result.values
        assert_parity(
            result,
            QueryEngine(database).evaluate(PSTExistsQuery(WINDOW)),
        )

    def test_quarantine_after_repeated_failures_and_reset(self):
        database = build_database(seed=23, n_objects=20, n_chains=2)
        engine = QueryEngine(database)
        faults = FaultInjector(
            FaultSpec(
                site="streaming:tick",
                action="raise",
                times=3,
                message="boom",
            )
        )
        standing = engine.watch(
            PSTExistsQuery(WINDOW), faults=faults, quarantine_after=3
        )
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                standing.tick()
        assert standing.quarantined
        assert "boom" in standing.error
        with pytest.raises(QuarantinedQueryError):
            standing.tick()
        # reset rebuilds from the database and revives the query
        standing.reset()
        assert not standing.quarantined
        assert standing.error is None
        result = standing.tick()
        assert_parity(
            result,
            QueryEngine(database).evaluate(PSTExistsQuery(WINDOW)),
        )

    def test_tick_all_isolates_the_poisoned_query(self):
        database = build_database(seed=24, n_objects=20, n_chains=2)
        streaming = StreamingQueryEngine(database)
        healthy = streaming.watch(PSTExistsQuery(WINDOW))
        poisoned = streaming.watch(
            PSTExistsQuery(WINDOW),
            faults=FaultInjector(
                FaultSpec(site="streaming:tick", times=None)
            ),
            quarantine_after=1,
        )
        reference = QueryEngine(database)
        first = streaming.tick_all()
        assert first[1] is None
        assert poisoned.quarantined
        assert_parity(
            first[0], reference.evaluate(PSTExistsQuery(WINDOW))
        )
        # the quarantined query is skipped, the healthy one advances
        second = streaming.tick_all()
        assert second[1] is None
        assert healthy.ticks == 2
        assert_parity(
            second[0],
            reference.evaluate(PSTExistsQuery(shifted(WINDOW, 1))),
        )

    def test_journal_overflow_forces_resync(self, monkeypatch):
        import repro.database.uncertain_db as udb

        monkeypatch.setattr(udb, "_JOURNAL_LIMIT", 4)
        database = build_database(seed=25, n_objects=20, n_chains=2)
        engine = QueryEngine(database)
        standing = engine.watch(PSTExistsQuery(WINDOW))
        standing.tick()
        assert standing.resyncs == 0
        # push the bounded journal far past what the standing query
        # has seen: the incremental sync can no longer catch up
        rng = np.random.default_rng(7)
        for index in range(6):
            database.add(
                UncertainObject.with_distribution(
                    f"churn-{index}",
                    make_object_distribution(N_STATES, 5, rng),
                    time=1,
                    chain_id="chain-0",
                )
            )
            database.remove(f"churn-{index}")
        result = standing.tick()
        assert standing.resyncs == 1
        assert_parity(
            result,
            QueryEngine(database).evaluate(
                PSTExistsQuery(shifted(WINDOW, 1))
            ),
        )


# ----------------------------------------------------------------------
# spill janitor + doctor
# ----------------------------------------------------------------------
def _fake_orphan(pid: int, seq: int = 0, size: int = 4096) -> str:
    """Plant a ``repro-*`` spill directory owned by ``pid``."""
    path = os.path.join(
        dispatch._SPILL_ROOT, f"repro-deadbeef-{pid}-{seq}"
    )
    os.makedirs(os.path.join(path, "snapshot-000001"))
    with open(os.path.join(path, "manifest.json"), "wb") as handle:
        handle.write(b"\0" * size)
    return path


def _dead_pid() -> int:
    """A PID guaranteed to belong to no live process (just reaped)."""
    child = subprocess.Popen(["sleep", "0"])
    child.wait()
    return child.pid


class TestJanitor:
    def test_sweep_reclaims_segments_of_dead_sessions(self):
        path = _fake_orphan(_dead_pid())
        name = os.path.basename(path)
        try:
            infos = {
                info.name: info for info in dispatch.list_segments()
            }
            assert name in infos
            assert not infos[name].alive
            swept = dispatch.sweep_orphans()
            assert name in {info.name for info in swept}
            assert not os.path.exists(path)
            assert dispatch.memory_stats()["orphan_bytes"] == 0
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def test_live_sessions_are_never_swept(self):
        path = _fake_orphan(os.getpid(), seq=1)
        name = os.path.basename(path)
        try:
            infos = {
                info.name: info for info in dispatch.list_segments()
            }
            assert infos[name].alive
            assert infos[name].size == 4096
            swept = dispatch.sweep_orphans()
            assert name not in {info.name for info in swept}
            assert os.path.exists(path)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def test_pool_startup_sweeps_leftovers_of_crashed_session(self):
        # simulate a crashed parent: its spill survives on disk,
        # its PID is gone; building a fresh pool must sweep it
        path = _fake_orphan(_dead_pid())
        try:
            dispatch.shutdown()  # force the next query to build a pool
            database = build_database(
                seed=31, n_objects=20, n_chains=2
            )
            query = PSTExistsQuery(WINDOW)
            result = QueryEngine(database).evaluate(
                query, options=process_options()
            )
            assert_parity(result, serial_reference(database, query))
            assert not os.path.exists(path)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def test_doctor_sweeps_and_reports_zero_leaked_bytes(self, capsys):
        from repro.bench.cli import main

        path = _fake_orphan(_dead_pid())
        try:
            exit_code = main(["doctor"])
            output = capsys.readouterr().out
            assert exit_code == 0
            assert "ORPHAN" in output
            assert "swept 1 orphaned spill(s)" in output
            assert "leaked bytes  : 0" in output
            assert not os.path.exists(path)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def test_doctor_no_sweep_reports_leak_and_fails(self, capsys):
        from repro.bench.cli import main

        path = _fake_orphan(_dead_pid())
        try:
            exit_code = main(["doctor", "--no-sweep"])
            output = capsys.readouterr().out
            assert exit_code == 1
            assert "ORPHAN" in output
            assert os.path.exists(path)  # --no-sweep left it alone
        finally:
            shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValidationError, match="unknown fault"):
            FaultSpec(site="x", action="explode")

    def test_bad_counters_rejected(self):
        with pytest.raises(ValidationError, match="times"):
            FaultSpec(site="x", times=0)
        with pytest.raises(ValidationError, match="after"):
            FaultSpec(site="x", after=-1)
        with pytest.raises(ValidationError, match="delay_seconds"):
            FaultSpec(site="x", action="delay", delay_seconds=-0.5)

    def test_match_and_counting_windows(self):
        injector = FaultInjector(
            FaultSpec(site="x", match={"tick": 1}, after=1, times=1)
        )
        injector.fire("y", tick=1)  # wrong site
        injector.fire("x", tick=0)  # wrong info
        injector.fire("x", tick=1)  # matching, but skipped by after=1
        assert injector.fired() == 0
        with pytest.raises(InjectedFaultError):
            injector.fire("x", tick=1)
        assert injector.fired("x") == 1
        injector.fire("x", tick=1)  # disarmed after `times` firings
        assert injector.fired() == 1

    def test_kill_refused_in_origin_process(self):
        # a kill spec must never take down the process that armed it
        # (typically the test runner) -- it degrades to a raise
        injector = FaultInjector(FaultSpec(site="x", action="kill"))
        with pytest.raises(InjectedFaultError, match="refused"):
            injector.fire("x")
