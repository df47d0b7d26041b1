"""Per-layer metrics of a traced run.

Three sources, all outside ``src/`` (see README, "Per-layer metrics"):

(a) the objects the program returns -- harvested per operation into
    ``op.plan`` by :func:`workloads.harvest_plan`;
(b) the program's public counters -- collected by the workload into
    ``workload.counters``;
(c) the spans :mod:`trace` records around public callables.

Every name in :data:`metrics.PER_LAYER` gets a value; a layer that did
no work on this workload reports 0.
"""

from __future__ import annotations

import re
import time
from typing import Any, Dict, List, Sequence

import numpy as np

from metrics import OPERATORS, PER_LAYER, median
from trace import covered_seconds, root_names, self_times

__all__ = ["per_layer_metrics", "spmm_probe"]

_POOL_TASKS = re.compile(r"\((\d+) pool task")
_RTREE_NODES = re.compile(r"(\d+) R-tree nodes")
_DELTA = re.compile(r"([+-]\d+) candidates")

# the operation kinds whose plans feed planner.predict_ratio_p50.*
_PREDICTED = ("exists", "forall", "ktimes", "sweep")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _median(values: Sequence[float]) -> float:
    return float(median(values)) if len(values) else 0.0


def _query_kind(op) -> str:
    """The query kind of an operation (a service request carries it in
    ``sub``; every other read is its own kind)."""
    return op.sub if op.kind == "request" else op.kind


def spmm_probe(matrix, backends: Sequence[str] = ("scipy", "native"),
               columns: int = 64, repeats: int = 5) -> Dict[str, float]:
    """Direct call into ``linalg``: the workload's chain CSR times a
    64-column block, median milliseconds per available backend."""
    from repro.linalg import available_backends, spmm

    block = np.random.default_rng(0).random((matrix.shape[1], columns))
    out: Dict[str, float] = {}
    for backend in backends:
        if backend not in available_backends():
            continue
        spmm(matrix, block, backend=backend)  # warm (dense cache, JIT)
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            spmm(matrix, block, backend=backend)
            samples.append(time.perf_counter() - started)
        out[backend] = _ms(median(samples))
    return out


def per_layer_metrics(workload, ops: List[Any], spans: List[list],
                      info: Dict[str, Any]) -> Dict[str, float]:
    """All of :data:`metrics.PER_LAYER` for one traced run.

    ``info`` carries what only the caller knows: ``generate_s``,
    ``timed_lo``/``timed_hi`` (the timed phase on the span clock),
    ``untraced_wall`` (None when no untraced twin ran),
    ``leaked_segments`` and ``spmm`` (see :func:`spmm_probe`).
    """
    counters = workload.counters
    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    lo, hi = info["timed_lo"], info["timed_hi"]
    wall = workload.timed_wall

    by_kind: Dict[str, List[Any]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    for kind, group in by_kind.items():
        name = f"ops.{kind}_p50_ms"
        if name in out:
            out[name] = _ms(median([op.seconds for op in group]))
    planned = [op for op in ops if op.plan is not None]

    # ---- spans (source c), restricted to the timed phase ------------
    # the single-caller workloads open a ``bench.<kind>`` span per
    # timed operation; what runs between them (a sampled tick's
    # reference evaluation) is the benchmark's work, not the workload's.
    # The service's evaluations run on its own thread, under no root.
    concurrent = any(op.kind == "request" for op in ops)
    timed = [
        s for s, root in zip(spans, root_names(spans))
        if s[2] is not None and lo <= s[1] <= hi
        and (concurrent or root.startswith("bench."))
    ]
    selfs = dict(zip(map(id, spans), self_times(spans)))
    by_name: Dict[str, List[list]] = {}
    for span in timed:
        by_name.setdefault(span[0], []).append(span)

    def outermost(name: str) -> List[list]:
        return [
            s for s in by_name.get(name, ())
            if s[3] < 0 or spans[s[3]][0] != name
        ]

    def total(name: str) -> float:
        return sum(s[2] - s[1] for s in outermost(name))

    def per_call(name: str) -> float:
        calls = outermost(name)
        return _ms(total(name) / len(calls)) if calls else 0.0

    out["planner.plan_ms"] = per_call("planner.plan")
    out["planner.estimate_ms"] = per_call("planner.estimate")
    out["database.prefilter_probe_ms"] = per_call("database.prefilter_probe")
    out["database.pruner_ms"] = per_call("database.pruner")
    out["dispatch.publish_ms"] = _ms(total("dispatch.publish"))
    out["store.journal_append_ms"] = per_call("store.journal_append")

    # ---- service ----------------------------------------------------
    requests = by_kind.get("request", [])
    if requests:
        enqueue = {s[4]: s[1] for s in by_name.get("service.enqueue", ())}
        admissions, waits = [], []
        for op in requests:
            if op.index in enqueue and op.ok:
                admission = enqueue[op.index] - op.start
                admissions.append(admission)
                waits.append(op.seconds - admission - op.extra["share"])
        out["service.admission_ms"] = _ms(_median(admissions))
        out["service.wait_ms"] = _ms(_median(waits))
        out["service.evaluations"] = counters["evaluations"]
        out["service.fused_calls"] = counters["fused_calls"]
        out["service.rejected"] = counters["rejected"]
        out["service.fusion_ratio"] = (
            len(requests) / max(1, counters["evaluations"])
        )

    # ---- planner / pipeline / operators (source a) -------------------
    ratios: Dict[str, List[float]] = {kind: [] for kind in _PREDICTED}
    stage_seconds: Dict[str, List[float]] = {
        "prefilter": [], "bfs": [], "evaluate": []
    }
    entering = surviving = 0
    nodes: List[int] = []
    operator_totals = {name: [0, 0.0] for name in OPERATORS}
    degradations = pool_tasks = 0
    overheads: List[float] = []
    skews: List[float] = []
    deltas = 0
    ladder: List[float] = []
    store_totals = {"shards": 0, "fresh_attaches": 0,
                    "parent_fallbacks": 0, "prefilter_pruned": 0}
    for op in planned:
        plan = op.plan
        if op.kind != "tick":
            out[f"planner.dispatch_share.{plan['dispatch']}"] += 1
        elapsed = [g[3] for g in plan["groups"] if g[3]]
        for method, _backend, _predicted, group_elapsed in plan["groups"]:
            key = f"planner.method_share.{method}"
            if key in out and group_elapsed:
                out[key] += 1
        kind = _query_kind(op)
        if kind in ratios and elapsed:
            predicted = sum(g[2] or 0.0 for g in plan["groups"] if g[3])
            ratios[kind].append(predicted / sum(elapsed))
        stages = {stage[0]: stage for stage in plan["stages"]}
        if "prefilter" in stages and "bfs" in stages:
            entering += stages["prefilter"][1]
            surviving += stages["bfs"][2]
            match = _RTREE_NODES.search(stages["prefilter"][4])
            if match:
                nodes.append(int(match.group(1)))
        for name, samples in stage_seconds.items():
            if name in stages and op.kind != "tick":
                samples.append(stages[name][3])
        for name, (calls, seconds) in plan["operators"].items():
            if name in operator_totals:
                operator_totals[name][0] += calls
                operator_totals[name][1] += seconds
        degradations += plan["degradations"]
        if op.kind == "tick":
            match = _DELTA.search(stages.get("streaming", ("",) * 5)[4])
            if match:
                deltas += abs(int(match.group(1)))
            ladder.append(plan["operators"].get("ladder_extend", (0, 0.0))[1])
        if plan["dispatch"] == "process" and "evaluate" in stages:
            match = _POOL_TASKS.search(stages["evaluate"][4])
            if match:
                pool_tasks += int(match.group(1))
            workers = max(1, plan["max_workers"])
            overheads.append(stages["evaluate"][3] - sum(elapsed) / workers)
            if elapsed:
                skews.append(max(elapsed) / (sum(elapsed) / len(elapsed)))
        if plan["store_stats"]:
            for key in store_totals:
                store_totals[key] += plan["store_stats"].get(key, 0)
    for kind, samples in ratios.items():
        out[f"planner.predict_ratio_p50.{kind}"] = _median(samples)
    for name, samples in stage_seconds.items():
        out[f"pipeline.{name}_ms"] = _ms(_mean(samples))
    out["pipeline.survivor_ratio"] = surviving / entering if entering else 0.0
    out["database.rtree_nodes"] = _mean(nodes)
    for name, (calls, seconds) in operator_totals.items():
        out[f"operators.{name}_ms"] = _ms(seconds)
        out[f"operators.{name}_calls"] = calls
    out["dispatch.degradations"] = degradations
    out["dispatch.pool_tasks"] = pool_tasks
    out["dispatch.scatter_overhead_ms"] = _ms(_mean(overheads))
    out["dispatch.shard_skew"] = _mean(skews)
    out["streaming.delta_objects"] = deltas
    out["streaming.ladder_extend_ms"] = _ms(_mean(ladder))
    out["store.shards_scattered"] = store_totals["shards"]
    out["store.fresh_attaches"] = store_totals["fresh_attaches"]
    out["store.parent_fallbacks"] = store_totals["parent_fallbacks"]
    out["store.shard_prefilter_pruned"] = store_totals["prefilter_pruned"]

    # ---- counters (source b) ------------------------------------------
    cache = counters.get("plan_cache")
    if cache:
        lookups = cache["hits"] + cache["misses"]
        out["plan_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
        out["plan_cache.constructions"] = cache["constructions"]
        out["plan_cache.evictions"] = cache["evictions"]
    out["dispatch.prewarm_s"] = counters.get("prewarm_s", 0.0)
    out["dispatch.shm_session_bytes"] = counters.get("shm_session_bytes", 0)
    out["dispatch.leaked_segments"] = info["leaked_segments"]
    for backend, value in info["spmm"].items():
        out[f"linalg.spmm_ms.{backend}"] = value

    # ---- database writes: the benchmark's own operation timings -------
    writes = by_kind.get("write", [])
    for sub, name in (("add", "add_us"), ("append", "append_us"),
                      ("remove", "remove_us")):
        samples = [op.seconds for op in writes if op.sub == sub]
        out[f"database.{name}"] = _median(samples) * 1e6

    # ---- streaming ----------------------------------------------------
    ticks = by_kind.get("tick", [])
    if ticks:
        quarter = max(1, len(ticks) // 4)
        out["streaming.tick_drift"] = (
            median([op.seconds for op in ticks[-quarter:]])
            / median([op.seconds for op in ticks[:quarter]])
        )
        out["streaming.tick_vs_replan"] = _median([
            op.seconds / op.extra["replan_seconds"]
            for op in ticks if "replan_seconds" in op.extra
        ])
        out["streaming.register_s"] = counters["register_s"]
        out["streaming.quarantines"] = counters["quarantines"]

    # ---- store ----------------------------------------------------------
    if "slab_pool" in counters:
        pool = counters["slab_pool"]
        reads = sum(len(by_kind.get(kind, ()))
                    for kind in ("exists", "sweep", "scatter"))
        out["store.create_s"] = counters["create_s"]
        out["store.slab_attaches_per_query"] = pool["attaches"] / max(1, reads)
        out["store.slab_fresh_maps"] = pool["fresh_maps"]
        out["store.slab_evictions"] = pool["evictions"]
        out["store.slab_high_water_bytes"] = pool["high_water_bytes"]
        out["store.slab_hit_ratio"] = (
            1.0 - pool["fresh_maps"] / pool["attaches"]
            if pool["attaches"] else 0.0
        )
        out["store.journal_bytes"] = counters["journal_bytes"]
        out["store.bytes_per_obs"] = (
            (counters["slab_bytes"] + counters["journal_bytes"])
            / max(1, counters["payload_bytes"])
        )
        snapshots = by_kind.get("snapshot", [])
        out["store.snapshot_s"] = _median([op.seconds for op in snapshots])
        recovery = by_kind.get("recovery", [])
        out["store.open_s"] = _median(
            [op.extra["open_seconds"] for op in recovery]
        )
        sweeps = by_kind.get("sweep", [])
        scatters = by_kind.get("scatter", [])
        if sweeps and scatters:
            out["dispatch.process_vs_planned"] = (
                median([op.seconds for op in scatters])
                / median([op.seconds for op in sweeps])
            )

    # ---- harness health -------------------------------------------------
    # covered: the part of the timed wall during which some span of a
    # named program layer was open.  For the single-caller workloads
    # the wall is the sum of the operations, so the benchmark's own
    # root spans are the reference; for the concurrent service it is
    # the wall clock from first submit to last reply, and the fusion
    # window (a sleep no span can see) is inferred from the drain spans.
    program = [
        (s[1], s[2]) for s in timed
        if not s[0].startswith("bench.") and s[0] != "service.submit"
    ]
    if requests:
        window = counters["fusion_window_ms"] / 1e3
        program += [(s[1] - window, s[1])
                    for s in by_name.get("service.drain", ())]
        covered = covered_seconds(program, lo, hi)
    else:
        roots = [s for s in timed if s[0].startswith("bench.")]
        covered = sum(
            (s[2] - s[1]) - selfs[id(s)] for s in roots
        )
    out["bench.attribution_coverage"] = min(1.0, covered / wall) if wall else 0.0
    out["bench.unattributed_frac"] = 1.0 - out["bench.attribution_coverage"]
    out["bench.generate_s"] = info["generate_s"]
    if info.get("untraced_wall"):
        out["bench.trace_overhead_frac"] = wall / info["untraced_wall"] - 1.0
    return out
