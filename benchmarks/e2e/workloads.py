"""The four end-to-end workloads: inputs, operation scripts, runners.

Every workload follows the same life cycle (driven by ``child.py``):

``generate``  inputs and the fixed operation script from the seed;
``setup``     from generated inputs in hand to ready-for-first-timed-
              operation (repeated; ``setup_s`` is the median);
``timed``     the operation script through the public API, one
              :class:`Op` record per operation;
``verify``    sampled operations re-answered by an independent path,
              wrong answers flip ``op.ok``;
``teardown``  release what ``setup`` created.

The program receives only generated inputs; the seed never reaches it
(except as the explicit ``seed=`` of a Monte-Carlo query, which is part
of that query).  Worker counts are never set: the one forced knob is
``PlanOptions(dispatch="process")`` on the ``scatter`` operation kind.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import PlanOptions
from repro.core.markov import MarkovChain
from repro.core.state_space import LineStateSpace
from repro.database.uncertain_db import TrajectoryDatabase
from repro.exec import dispatch
from repro.store import ShardedTrajectoryStore, slabs
from repro.workloads.monitoring import (
    MonitoringConfig,
    make_monitoring_workload,
)

__all__ = ["WORKLOADS", "SIZES", "BASE_SECONDS", "Op", "make_workload"]

# the operation counts in SIZES are calibrated so that the timed phase
# takes about this long at the seed commit on the 2-core reference box;
# ``--seconds`` scales the counts linearly from here
BASE_SECONDS = 12.0
SAMPLE_RATE = 0.10
# a tick's reference is a from-scratch evaluate costing ~20 ticks, so
# ticks are sampled more thinly (the issue's own script had 1 in 35)
TICK_SAMPLE_RATE = 0.025
TOLERANCE = 1e-12
SWEEP = dict(method="ob", prefilter=False, bfs_prune=False)

SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "adhoc_mixed": dict(
            n_objects=1200, n_states=5000, regions=48,
            exists=200, forall=30, ktimes=36, mc=30, sweep=30,
        ),
        "monitor_stream": dict(
            n_objects=1500, n_states=6000, ticks=110, warm_ticks=4,
        ),
        "service_fleet": dict(
            n_objects=800, n_states=3200, requests=640, per_epoch=32,
        ),
        "store_scatter": dict(
            n_objects=2000, n_states=8000, shards=16, ticks=10,
            exists=240, sweep=4, scatter=12,
            arrivals=12, resightings=10, departures=8,
        ),
    },
    # self-test scale: same shape, minutes become seconds
    "quick": {
        "adhoc_mixed": dict(
            n_objects=300, n_states=1500, regions=48,
            exists=40, forall=6, ktimes=8, mc=6, sweep=6,
        ),
        "monitor_stream": dict(
            n_objects=300, n_states=1500, ticks=12, warm_ticks=2,
        ),
        "service_fleet": dict(
            n_objects=300, n_states=1500, requests=48, per_epoch=12,
        ),
        "store_scatter": dict(
            n_objects=300, n_states=1500, shards=4, ticks=3,
            exists=18, sweep=2, scatter=3,
            arrivals=4, resightings=3, departures=2,
        ),
    },
}

# counts that scale with --seconds (everything else is input size)
_SCALED = {
    "exists", "forall", "ktimes", "mc", "sweep", "scatter",
    "ticks", "requests",
}


@dataclass
class Op:
    """One timed operation.

    ``ok`` starts as "did not raise" and is cleared by verification if
    the answer was wrong.  ``values``/``methods`` are kept only for
    sampled operations, ``plan`` (a plain-data harvest of the returned
    ``QueryResult.plan``) only in the traced run.
    """

    kind: str
    start: float
    end: float
    ok: bool = True
    error: Optional[str] = None
    sub: Optional[str] = None
    index: int = -1
    sampled: bool = False
    values: Optional[Dict[str, Any]] = None
    methods: Tuple[str, ...] = ()
    plan: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def harvest_plan(result) -> Optional[Dict[str, Any]]:
    """Plain-data copy of what the per-layer metrics read off a
    returned ``QueryResult`` (source (a) of the issue)."""
    plan = getattr(result, "plan", None)
    if plan is None:
        return None
    operators = {}
    for name, stats in plan.operator_seconds.items():
        calls = getattr(stats, "calls", None)
        if calls is None:
            calls, seconds = stats
        else:
            seconds = stats.seconds
        operators[name] = (int(calls), float(seconds))
    return {
        "dispatch": plan.dispatch,
        "max_workers": plan.max_workers,
        "stages": [
            (s.name, s.candidates_in, s.candidates_out,
             s.elapsed_seconds, s.detail)
            for s in plan.stages
        ],
        "operators": operators,
        "groups": [
            (g.method, g.backend, g.predicted_seconds, g.elapsed_seconds)
            for g in plan.groups
        ],
        "degradations": len(plan.degradations),
        "store_stats": dict(plan.store_stats) if plan.store_stats else None,
        "elapsed": float(result.elapsed_seconds),
    }


def _methods_of(result) -> Tuple[str, ...]:
    plan = getattr(result, "plan", None)
    if plan is None:
        return ()
    return tuple(sorted({g.method for g in plan.groups}))


class Recorder:
    """Times operations and keeps what later stages need (sampled
    answers, harvested plans).  ``begin``/``end`` bracket one
    operation; ``run`` does both around a plain call."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: List[Op] = []

    def begin(self, kind: str, request: int):
        handle = None
        if self.tracer is not None:
            handle = self.tracer.begin("bench." + kind, request=request)
        return handle, time.perf_counter()

    def end(self, token, kind: str, result, error: Optional[str],
            **fields) -> Op:
        end = time.perf_counter()
        handle, start = token
        if handle is not None:
            self.tracer.end(handle)
        op = Op(kind, start, end, ok=error is None, error=error, **fields)
        if result is not None and hasattr(result, "values"):
            if op.sampled:
                op.values = result.values
                op.methods = _methods_of(result)
            if self.tracer is not None:
                op.plan = harvest_plan(result)
        return op

    def run(
        self,
        kind: str,
        call: Callable[[], Any],
        sub: Optional[str] = None,
        sampled: bool = False,
    ) -> Tuple[Op, Any]:
        result = None
        error = None
        token = self.begin(kind, len(self.ops))
        try:
            result = call()
        except Exception as exc:  # counted in failed_frac, never raised
            error = f"{type(exc).__name__}: {exc}"
        op = self.end(token, kind, result, error, sub=sub,
                      index=len(self.ops), sampled=sampled)
        self.ops.append(op)
        return op, result


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Fleet:
    """Generated inputs: chain matrices, tick-0 objects, event script."""

    n_states: int
    chains: Dict[str, Any]  # chain id -> scipy CSR transition matrix
    objects: List[Any]  # UncertainObject records present at tick 0
    events: List[Any]  # one TickEvents per scripted tick

    def build_database(self) -> TrajectoryDatabase:
        """Load the inputs into a fresh in-RAM database (chains are
        rebuilt so no cache survives from an earlier set-up)."""
        database = TrajectoryDatabase(
            self.n_states, state_space=LineStateSpace(self.n_states)
        )
        for chain_id, matrix in self.chains.items():
            database.register_chain(chain_id, MarkovChain(matrix.copy()))
        database.add_all(self.objects)
        return database


def make_fleet(
    seed: int, n_objects: int, n_states: int, n_chains: int, n_ticks: int,
    arrivals: int, resightings: int, departures: int,
) -> Fleet:
    workload = make_monitoring_workload(MonitoringConfig(
        n_objects=n_objects, n_states=n_states, n_chains=n_chains,
        n_ticks=max(1, n_ticks), arrivals_per_tick=arrivals,
        resightings_per_tick=resightings,
        departures_per_tick=departures, window_low=0, window_high=20,
        seed=seed,
    ))
    database = workload.database
    return Fleet(
        n_states=n_states,
        chains={
            cid: database.chain(cid).matrix.copy()
            for cid in database.chain_ids
        },
        objects=list(database),
        events=list(workload.events) if n_ticks else [],
    )


REGION_WIDTH = 20


def pick_regions(rng, fleet: Fleet, count: int, reach: int = 300,
                 draws: int = 8) -> List[int]:
    """``count`` region low-states at (nearly) fixed selectivity.

    Objects are placed uniformly at random, so the number of objects
    within reach of a random region fluctuates by ~10% from place to
    place -- and with it the work a "selective" query does.  Each
    region is therefore the one of ``draws`` random places whose local
    object count is closest to the expected one: what varies with the
    seed is *where* the queries look, not how selective they are.
    """
    centers = np.sort([
        float(np.mean(obj.initial.distribution.support()))
        for obj in fleet.objects
    ])
    span = 2 * reach + REGION_WIDTH + 1
    target = len(centers) * span / fleet.n_states
    lows: List[int] = []
    for _ in range(count):
        places = rng.integers(0, fleet.n_states - REGION_WIDTH - 1, draws)
        near = (np.searchsorted(centers, places + REGION_WIDTH + reach)
                - np.searchsorted(centers, places - reach))
        lows.append(int(places[int(np.argmin(np.abs(near - target)))]))
    return lows


def quotas(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` draws to
    ``weights``: the Zipf *shape* without its sampling noise."""
    exact = weights / weights.sum() * total
    counts = np.floor(exact).astype(int)
    short = total - int(counts.sum())
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def _window(lo: int, t_start: int, duration: int):
    return repro.SpatioTemporalWindow.from_ranges(
        lo, lo + REGION_WIDTH, t_start, t_start + duration - 1
    )


def _query(kind: str, window):
    if kind == "forall":
        return repro.PSTForAllQuery(window)
    if kind == "ktimes":
        return repro.PSTKTimesQuery(window, k=1)
    return repro.PSTExistsQuery(window)


# ``write`` sub-kind -> the public online entry point it calls
WRITERS = {"add": "add", "append": "append_observation", "remove": "remove"}


def writes_of(events) -> List[Tuple[str, tuple]]:
    """One tick's mutations as ``(sub-kind, arguments)``, in the order
    they must be applied (a departure may follow its own arrival)."""
    return (
        [("add", (obj,)) for obj in events.arrivals]
        + [("append", pair) for pair in events.resightings]
        + [("remove", (oid,)) for oid in events.departures]
    )


def write(database, sub: str, args: tuple):
    return getattr(database, WRITERS[sub])(*args)


def apply_events(database, events, recorder: Optional[Recorder] = None):
    """Apply one tick's mutations through the public online entry
    points, as timed ``write`` operations when a recorder is given."""
    for sub, args in writes_of(events):
        if recorder is None:
            write(database, sub, args)
        else:
            recorder.run("write", lambda: write(database, sub, args), sub=sub)


# ----------------------------------------------------------------------
# verification helpers
# ----------------------------------------------------------------------
def max_difference(values: Dict[str, Any], reference: Dict[str, Any]) -> float:
    """Largest absolute per-object difference; inf on a key mismatch."""
    if values.keys() != reference.keys():
        return float("inf")
    worst = 0.0
    for object_id, value in values.items():
        delta = np.max(np.abs(np.asarray(value, dtype=float)
                              - np.asarray(reference[object_id], dtype=float)))
        worst = max(worst, float(delta))
    return worst


def reference_answer(engine, op_kind: str, spec: Dict[str, Any],
                     methods: Tuple[str, ...]):
    """Re-answer one scripted operation by the independent path:
    the *other* exact method under serial dispatch (k-times has one
    exact method, so serial alone; MC re-runs serially at its seed)."""
    query = spec["query"]
    if op_kind == "mc":
        return engine.evaluate(
            query, method="mc", seed=spec["seed"],
            options=PlanOptions(dispatch="serial"),
        )
    if op_kind == "ktimes":
        return engine.evaluate(query, options=PlanOptions(dispatch="serial"))
    other = "ob" if "qb" in methods else "qb"
    return engine.evaluate(
        query, method=other, options=PlanOptions(dispatch="serial")
    )


def check(op: Op, values: Dict[str, Any], corrupt: bool) -> None:
    """Compare a sampled operation with its reference answer."""
    if corrupt:  # self-test hook: a deliberately wrong reference
        values = {
            oid: np.asarray(value, dtype=float) + 1e-6
            for oid, value in values.items()
        }
    tolerance = 0.0 if op.kind == "mc" else TOLERANCE
    if op.values is None or max_difference(op.values, values) > tolerance:
        op.ok = False
        op.error = op.error or "answer differs from the reference"
    op.extra["verified"] = True
    op.values = None  # checked; let the answer go


# ----------------------------------------------------------------------
# workload base
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: the read whose latency is latency_p50_ms / latency_p95_ms
    primary = ""
    #: operation kinds reported end to end as ``<kind>_p50_ms``
    kinds: Tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: Dict[str, int], verify_all: bool,
                 corrupt: bool, scratch: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.verify_all = verify_all
        self.corrupt = corrupt
        self.scratch = scratch
        self.rng = np.random.default_rng(
            [seed, sorted(WORKLOADS).index(self.name)]
        )
        self.counters: Dict[str, Any] = {}
        self.timed_wall = 0.0
        self.generate()

    def sample(self, count: int, rate: float = SAMPLE_RATE) -> np.ndarray:
        """Seeded verification sample: one flag per scripted operation."""
        flags = self.rng.random(count) < rate
        return np.ones(count, dtype=bool) if self.verify_all else flags

    # life cycle -- see module docstring
    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def verify(self, recorder: Recorder) -> None:
        """Default: every sampled operation was checked in place."""

    def teardown(self) -> None:
        raise NotImplementedError


def _plan_cache_counters(engine) -> Dict[str, int]:
    stats = engine.plan_cache.stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "constructions": stats.total_constructions,
        "evictions": stats.evictions,
    }


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


# ----------------------------------------------------------------------
# 1. adhoc_mixed
# ----------------------------------------------------------------------
class AdhocMixed(Workload):
    name = "adhoc_mixed"
    primary = "exists"
    kinds = ("exists", "forall", "ktimes", "mc", "sweep")

    def generate(self) -> None:
        sizes = self.sizes
        rng = self.rng
        self.fleet = make_fleet(
            self.seed, sizes["n_objects"], sizes["n_states"], 4, 0, 0, 0, 0
        )
        n_regions = sizes["regions"]
        # the seed picks where the regions lie and the order of the
        # script; the shape of each region's windows and how often it
        # is asked are fixed, so the cache sees the same reuse pattern
        pool = [
            (lo, 8 + rank % 5, 3 + rank % 3)
            for rank, lo in enumerate(
                pick_regions(rng, self.fleet, n_regions)
            )
        ]
        weights = 1.0 / np.arange(1, n_regions + 1) ** 1.1

        def make(kind: str, region: int) -> Dict[str, Any]:
            lo, lead, duration = pool[region]
            spec: Dict[str, Any] = {"kind": kind, "kwargs": {}}
            if kind == "forall":
                window = _window(lo, lead, 3)
            elif kind == "sweep":
                # the paper's unfiltered OB shape, short horizon
                window = _window(lo, 4, 2)
                spec["kwargs"] = {"options": PlanOptions(**SWEEP)}
            else:
                window = _window(lo, lead, duration)
            if kind == "mc":
                spec["seed"] = int(rng.integers(1, 2 ** 31 - 1))
                spec["kwargs"] = {"method": "mc", "seed": spec["seed"]}
            spec["query"] = _query(kind, window)
            return spec

        self.script = []
        for kind in ("exists", "forall", "ktimes", "mc", "sweep"):
            for region, count in enumerate(quotas(weights, sizes[kind])):
                self.script += [make(kind, region) for _ in range(count)]
        rng.shuffle(self.script)
        self.sampled = self.sample(len(self.script))
        # fixed warm-up prefix: one of each kind on the hottest regions
        self.warmup = [
            make(kind, region)
            for region, kind in enumerate(
                ("exists", "exists", "forall", "ktimes", "mc", "sweep")
            )
        ]

    def setup(self) -> None:
        self.database = self.fleet.build_database()
        self.engine = repro.QueryEngine(self.database)
        for spec in self.warmup:
            self.engine.evaluate(spec["query"], **spec["kwargs"])

    def timed(self, recorder: Recorder) -> None:
        engine = self.engine
        before = _plan_cache_counters(engine)
        for spec, sampled in zip(self.script, self.sampled):
            recorder.run(
                spec["kind"],
                lambda: engine.evaluate(spec["query"], **spec["kwargs"]),
                sampled=bool(sampled),
            )
        self.timed_wall = sum(op.seconds for op in recorder.ops)
        self.counters["plan_cache"] = _delta(
            _plan_cache_counters(engine), before
        )

    def verify(self, recorder: Recorder) -> None:
        reference = repro.QueryEngine(self.database)
        for op, spec in zip(recorder.ops, self.script):
            if op.sampled and op.ok:
                check(op, reference_answer(reference, op.kind, spec,
                                           op.methods).values, self.corrupt)

    def teardown(self) -> None:
        self.engine = self.database = None


# ----------------------------------------------------------------------
# 2. monitor_stream
# ----------------------------------------------------------------------
class MonitorStream(Workload):
    name = "monitor_stream"
    primary = "tick"
    # ``write`` is left out: an in-RAM write is ~10 us and two
    # identical runs differ by 30%; see database.*_us per layer
    kinds = ("tick",)

    def generate(self) -> None:
        sizes = self.sizes
        rng = self.rng
        self.n_ticks = sizes["warm_ticks"] + sizes["ticks"]
        self.fleet = make_fleet(
            self.seed, sizes["n_objects"], sizes["n_states"], 4,
            self.n_ticks, 6, 6, 4,
        )
        lows = pick_regions(rng, self.fleet, 4)
        self.queries = [
            _query("exists", _window(lo, 10, 5)) for lo in lows[:3]
        ] + [_query("forall", _window(lows[3], 10, 3))]
        self.sampled = self.sample(
            sizes["ticks"] * 4, TICK_SAMPLE_RATE
        ).reshape(-1, 4)

    def setup(self) -> None:
        self.database = self.fleet.build_database()
        self.engine = repro.QueryEngine(self.database)
        started = time.perf_counter()
        self.standing = [self.engine.watch(q) for q in self.queries]
        self.counters["register_s"] = time.perf_counter() - started
        # fixed warm-up prefix: the first ticks of the script, untimed
        for tick in range(self.sizes["warm_ticks"]):
            apply_events(self.database, self.fleet.events[tick])
            for standing in self.standing:
                standing.tick()

    def timed(self, recorder: Recorder) -> None:
        warm = self.sizes["warm_ticks"]
        for tick in range(warm, self.n_ticks):
            apply_events(self.database, self.fleet.events[tick], recorder)
            for index, standing in enumerate(self.standing):
                sampled = bool(self.sampled[tick - warm, index])
                op, result = recorder.run("tick", standing.tick,
                                          sub=str(index), sampled=sampled)
                if sampled and op.ok:
                    self._replan(op, result)
        self.timed_wall = sum(op.seconds for op in recorder.ops)
        self.counters["quarantines"] = sum(
            1 for standing in self.standing if standing.quarantined
        )

    def _replan(self, op: Op, result) -> None:
        """Parity reference of a sampled tick: a from-scratch
        ``evaluate`` of the same window.  It has to run here, between
        timed operations, because the next tick's writes change the
        database; it is not part of any timed operation."""
        started = time.perf_counter()
        reference = self.engine.evaluate(result.query)
        op.extra["replan_seconds"] = time.perf_counter() - started
        check(op, reference.values, self.corrupt)

    def teardown(self) -> None:
        self.engine = self.database = self.standing = None


# ----------------------------------------------------------------------
# 3. service_fleet
# ----------------------------------------------------------------------
class ServiceFleet(Workload):
    name = "service_fleet"
    primary = "request"

    clients = 8
    tenants = 4
    think_mean = 0.020

    def generate(self) -> None:
        sizes = self.sizes
        rng = self.rng
        self.epochs = sizes["requests"] // sizes["per_epoch"]
        # arrivals and departures only: k-times stays legal
        self.fleet = make_fleet(
            self.seed, sizes["n_objects"], sizes["n_states"], 4,
            self.epochs, 6, 0, 4,
        )

        # window shapes are fixed, places are seeded: 6 hot shapes that
        # fuse, 400 cold ones that mostly do not
        def shapes(count: int) -> List[Tuple[int, int, int]]:
            return [
                (lo, 5 + index % 10, 3 + index % 3)
                for index, lo in enumerate(
                    pick_regions(rng, self.fleet, count)
                )
            ]

        hot, cold = shapes(6), shapes(400)
        # exact 75/25 hot/cold and 80/10/10 kind shares, seeded order
        requests = sizes["requests"]
        kinds = np.repeat(
            ["exists", "ktimes", "forall"],
            quotas(np.array([0.8, 0.1, 0.1]), requests),
        )
        rng.shuffle(kinds)
        is_hot = np.arange(requests) % 4 != 3
        rng.shuffle(is_hot)
        self.script = [
            (str(kind),
             hot[int(rng.integers(6))] if warm
             else cold[int(rng.integers(400))],
             float(rng.exponential(self.think_mean)))
            for kind, warm in zip(kinds, is_hot)
        ]
        self.sampled = self.sample(len(self.script))
        self.warmup = [("exists", hot[0]), ("exists", hot[1]),
                       ("ktimes", hot[0]), ("forall", hot[0])]

    @staticmethod
    def query_at(kind: str, shape: Tuple[int, int, int], now: int):
        lo, lead, duration = shape
        # a window's first time must not precede the newest observation
        return _query(kind, _window(lo, now + lead, duration))

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.database = self.fleet.build_database()
        self.engine = repro.QueryEngine(self.database)
        self.service = repro.QueryService(self.engine)

        async def start() -> None:
            await self.service.start()
            for kind, shape in self.warmup:
                await self.service.submit(self.query_at(kind, shape, 0))

        self.loop.run_until_complete(start())

    def timed(self, recorder: Recorder) -> None:
        before = _plan_cache_counters(self.engine)
        evaluations = self.service.evaluations
        fused_calls = self.service.fused_calls
        self.loop.run_until_complete(self._clients(recorder))
        self.counters["plan_cache"] = _delta(
            _plan_cache_counters(self.engine), before
        )
        self.counters["evaluations"] = self.service.evaluations - evaluations
        self.counters["fused_calls"] = self.service.fused_calls - fused_calls
        self.counters["rejected"] = sum(
            account.rejected
            for account in self.service.ledger.accounts().values()
        )
        self.counters["fusion_window_ms"] = self.service.fusion_window_ms

    async def _clients(self, recorder: Recorder) -> None:
        """Closed loop: each client awaits its reply, thinks, repeats.

        After every ``per_epoch``-th completed request the next tick of
        scripted mutations is applied -- once the requests in flight
        have drained, because the service offers no way to mutate the
        database under a running evaluation.
        """
        per_epoch = self.sizes["per_epoch"]
        state = {"next": 0, "done": 0, "epoch": 0, "inflight": 0}
        gate = asyncio.Event()
        gate.set()
        ops: List[Optional[Op]] = [None] * len(self.script)

        async def client(number: int) -> None:
            tenant = f"tenant-{number % self.tenants}"
            while True:
                await gate.wait()
                index = state["next"]
                if index >= len(self.script):
                    return
                state["next"] += 1
                kind, shape, think = self.script[index]
                epoch = state["epoch"]
                query = self.query_at(kind, shape, epoch)
                state["inflight"] += 1
                result = None
                error = None
                token = recorder.begin("request", index)
                try:
                    result = await self.service.submit(query, tenant=tenant)
                except Exception as exc:  # refused or raised: failed
                    error = f"{type(exc).__name__}: {exc}"
                op = recorder.end(token, "request", result, error, sub=kind,
                                  index=index,
                                  sampled=bool(self.sampled[index]))
                op.extra["epoch"] = epoch
                if result is not None:
                    op.extra["share"] = float(result.elapsed_seconds)
                ops[index] = op
                state["inflight"] -= 1
                state["done"] += 1
                if (state["done"] % per_epoch == 0
                        and state["epoch"] < self.epochs):
                    gate.clear()
                if not gate.is_set() and state["inflight"] == 0:
                    apply_events(self.database,
                                 self.fleet.events[state["epoch"]])
                    state["epoch"] += 1
                    gate.set()
                await asyncio.sleep(think)

        started = time.perf_counter()
        tasks = [asyncio.ensure_future(client(n))
                 for n in range(self.clients)]
        await asyncio.gather(*tasks)
        self.timed_wall = (
            max(op.end for op in ops if op is not None) - started
        )
        self.counters["version_bumps"] = state["epoch"]
        recorder.ops.extend(op for op in ops if op is not None)

    def verify(self, recorder: Recorder) -> None:
        """Replay the mutation script on a replica database and
        re-answer the sampled requests epoch by epoch."""
        replica = self.fleet.build_database()
        reference = repro.QueryEngine(replica)
        by_epoch: Dict[int, List[Op]] = {}
        for op in recorder.ops:
            if op.sampled and op.ok:
                by_epoch.setdefault(op.extra["epoch"], []).append(op)
        for epoch in range(self.epochs + 1):
            for op in by_epoch.get(epoch, ()):
                kind, shape, _think = self.script[op.index]
                spec = {"query": self.query_at(kind, shape, epoch)}
                check(op, reference_answer(reference, kind, spec,
                                           op.methods).values, self.corrupt)
            if epoch < self.epochs:
                apply_events(replica, self.fleet.events[epoch])

    def teardown(self) -> None:
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()
        self.service = self.engine = self.database = None


# ----------------------------------------------------------------------
# 4. store_scatter
# ----------------------------------------------------------------------
class StoreScatter(Workload):
    name = "store_scatter"
    primary = "exists"
    kinds = ("exists", "sweep", "scatter", "write")

    def generate(self) -> None:
        sizes = self.sizes
        rng = self.rng
        ticks = sizes["ticks"]
        self.reads = self.setups = 0
        self.fleet = make_fleet(
            self.seed, sizes["n_objects"], sizes["n_states"], 1, ticks,
            sizes["arrivals"], sizes["resightings"], sizes["departures"],
        )
        # every tick gets the same share of each read kind (the cost
        # of a read grows with the clock), in seeded order within it
        self.places = iter(pick_regions(
            rng, self.fleet,
            sizes["exists"] + sizes["sweep"] + sizes["scatter"] + 8,
        ))
        per_tick: List[List[str]] = [[] for _ in range(ticks)]
        for kind in ("sweep", "scatter", "exists"):
            for index in range(sizes[kind]):
                tick = int((index + 0.5) * ticks / sizes[kind])
                per_tick[tick].append(kind)
        for kinds in per_tick:
            rng.shuffle(kinds)
        self.script: List[Dict[str, Any]] = []
        for tick, kinds in enumerate(per_tick):
            writes = writes_of(self.fleet.events[tick])
            # reads land at seeded positions between the tick's writes
            # (which keep their order); observation times of tick k are
            # k, so windows lead the clock from k
            slots = np.sort(rng.integers(0, len(writes) + 1, len(kinds)))
            cursor = 0
            for position, kind in zip(slots.tolist(), kinds):
                for sub, args in writes[cursor:position]:
                    self.script.append(
                        {"kind": "write", "sub": sub, "args": args}
                    )
                cursor = position
                self.script.append(self._read(str(kind), tick))
            for sub, args in writes[cursor:]:
                self.script.append({"kind": "write", "sub": sub, "args": args})
            if tick == ticks // 2:
                self.script.append({"kind": "snapshot"})
        flags = self.sample(len(self.script))
        for spec, flag in zip(self.script, flags):
            spec["sampled"] = bool(flag) and spec["kind"] in (
                "exists", "sweep", "scatter"
            )
        self.recovery = self._read("exists", ticks)
        self.warmup = [self._read(kind, 0)
                       for kind in ("scatter", "exists", "exists")]

    def _read(self, kind: str, tick: int) -> Dict[str, Any]:
        lo = next(self.places)
        spec: Dict[str, Any] = {"kind": kind, "kwargs": {}}
        if kind == "exists":
            # window shapes cycle, so every run holds the same multiset
            self.reads += 1
            window = _window(lo, tick + 6 + self.reads % 5,
                             3 + self.reads % 3)
        else:
            window = _window(lo, tick + 3, 2)
            options = dict(SWEEP)
            if kind == "scatter":
                options["dispatch"] = "process"  # the one forced knob
            spec["kwargs"] = {"options": PlanOptions(**options)}
        spec["query"] = _query("exists", window)
        return spec

    def setup(self) -> None:
        counters = self.counters
        self.setups += 1
        self.path = os.path.join(self.scratch, f"store-{self.setups}")
        os.environ.pop(slabs.RAM_CAP_ENV, None)
        database = self.fleet.build_database()
        started = time.perf_counter()
        self.store = ShardedTrajectoryStore.create(
            self.path, database, shards_per_chain=self.sizes["shards"]
        )
        counters["create_s"] = time.perf_counter() - started
        health = self.store.health()
        counters["slab_bytes_at_create"] = health["slab_bytes"]
        # working set > slab cache: cap resident slabs at one third
        os.environ[slabs.RAM_CAP_ENV] = str(health["slab_bytes"] // 3)
        slabs.global_pool().clear()
        self.engine = repro.QueryEngine(self.store)
        # pool size: whatever the planner picks for the scatter shape
        scatter = self.warmup[0]
        workers = self.engine.planner.plan(
            scatter["query"], scatter["kwargs"]["options"]
        ).max_workers
        started = time.perf_counter()
        dispatch.prewarm(workers)
        counters["prewarm_s"] = time.perf_counter() - started
        counters["scatter_workers"] = workers
        for spec in self.warmup:
            self.engine.evaluate(spec["query"], **spec["kwargs"])

    def timed(self, recorder: Recorder) -> None:
        engine, store = self.engine, self.store
        pool = slabs.global_pool()
        pool_before = pool.stats()
        before = _plan_cache_counters(engine)
        for spec in self.script:
            kind = spec["kind"]
            if kind == "write":
                recorder.run(
                    "write",
                    lambda: write(store, spec["sub"], spec["args"]),
                    sub=spec["sub"],
                )
            elif kind == "snapshot":
                recorder.run("snapshot", store.snapshot)
            else:
                recorder.run(
                    kind,
                    lambda: engine.evaluate(spec["query"], **spec["kwargs"]),
                    sampled=spec["sampled"],
                )
        self.timed_wall = sum(op.seconds for op in recorder.ops)
        counters = self.counters
        counters["plan_cache"] = _delta(_plan_cache_counters(engine), before)
        pool_after = pool.stats()
        counters["slab_pool"] = {
            key: pool_after[key] - pool_before[key]
            for key in ("attaches", "fresh_maps", "evictions")
        }
        counters["slab_pool"]["high_water_bytes"] = (
            pool_after["high_water_bytes"]
        )
        health = store.health()
        counters["journal_bytes"] = health["journal_bytes"]
        counters["slab_bytes"] = health["slab_bytes"]
        counters["payload_bytes"] = sum(
            8 + 12 * observation.distribution.support_size()
            for obj in store
            for observation in obj.observations
        )
        counters["shm_session_bytes"] = dispatch.memory_stats()[
            "session_bytes"
        ]
        self._recover(recorder)

    def _recover(self, recorder: Recorder) -> None:
        """close -> reopen -> first query; every object's answer must
        equal the pre-close answer.  ``recovery_s`` adds the mid-run
        snapshot, which is what bounds the journal replayed here."""
        spec = self.recovery
        before = self.engine.evaluate(spec["query"]).values  # untimed
        self.engine = self.store = None
        gc.collect()
        result = None
        error = None
        token = recorder.begin("recovery", len(recorder.ops))
        try:
            self.store = ShardedTrajectoryStore(self.path)
            opened = time.perf_counter()
            self.engine = repro.QueryEngine(self.store)
            result = self.engine.evaluate(spec["query"])
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            opened = time.perf_counter()
        op = recorder.end(token, "recovery", result, error,
                          index=len(recorder.ops), sampled=True)
        op.extra["open_seconds"] = opened - op.start
        recorder.ops.append(op)
        if result is not None:
            check(op, before, self.corrupt)

    def verify(self, recorder: Recorder) -> None:
        """Replay the script on an in-RAM replica; re-answer the
        sampled reads there by the other exact method, serially."""
        replica = self.fleet.build_database()
        reference = repro.QueryEngine(replica)
        for op, spec in zip(recorder.ops, self.script):
            if spec["kind"] == "write":
                write(replica, spec["sub"], spec["args"])
            elif op.sampled and op.ok:
                check(op, reference_answer(reference, "exists", spec,
                                           op.methods).values, self.corrupt)

    def teardown(self) -> None:
        self.engine = self.store = None
        dispatch.shutdown()
        slabs.global_pool().clear()
        os.environ.pop(slabs.RAM_CAP_ENV, None)
        shutil.rmtree(self.path, ignore_errors=True)


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (AdhocMixed, MonitorStream, ServiceFleet, StoreScatter)
}


def scaled_sizes(name: str, scale: str, seconds: float) -> Dict[str, int]:
    """The workload's sizes with operation counts scaled to ``seconds``."""
    sizes = dict(SIZES[scale][name])
    factor = seconds / BASE_SECONDS
    for key in sizes:
        if key in _SCALED:
            sizes[key] = max(1, int(round(sizes[key] * factor)))
    if name == "service_fleet":  # whole epochs only
        per_epoch = sizes["per_epoch"]
        sizes["requests"] = max(per_epoch,
                                sizes["requests"] // per_epoch * per_epoch)
    return sizes


def make_workload(name: str, seed: int, scale: str, seconds: float,
                  verify_all: bool, corrupt: bool, scratch: str) -> Workload:
    return WORKLOADS[name](
        seed, scaled_sizes(name, scale, seconds), verify_all, corrupt, scratch
    )

