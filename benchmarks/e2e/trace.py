"""Outside-in span tracer for the end-to-end benchmark.

Nothing under ``src/`` knows about tracing: :func:`install` replaces
the public callables listed in :data:`TARGETS` with timing wrappers
(attribute replacement), :func:`uninstall` puts the originals back.
Each wrapper records one span -- name, start, end, the span that
caused it and a request id -- in memory; the benchmark writes them to
``trace_<workload>.json`` when it ends.

The current span lives in a :mod:`contextvars` variable, so the eight
coroutine clients of ``service_fleet`` each keep their own parent
chain.  A thread the program starts (the service's evaluation
executor, thread-dispatch workers) begins with an empty context: its
spans are roots of their own.

A span's *self time* is its duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "TARGETS",
    "Tracer",
    "install",
    "uninstall",
    "self_times",
    "root_names",
    "covered_seconds",
]

# (span name, module, class or None, attribute, is coroutine function)
TARGETS: Tuple[Tuple[str, str, Optional[str], str, bool], ...] = (
    ("service.submit", "repro.service.server", "QueryService", "submit", True),
    ("service.enqueue", "repro.service.broker", "RequestBroker", "add", False),
    ("service.drain", "repro.service.broker", "RequestBroker", "drain", False),
    ("engine.evaluate", "repro.core.engine", "QueryEngine", "evaluate", False),
    ("planner.plan", "repro.core.planner", "QueryPlanner", "plan", False),
    ("planner.plan", "repro.core.planner", "QueryPlanner", "plan_window", False),
    ("planner.estimate", "repro.core.planner", "QueryPlanner",
     "estimate_seconds", False),
    ("pipeline.execute", "repro.core.pipeline", "QueryPipeline", "execute",
     False),
    ("database.prefilter_probe", "repro.database.pruning",
     "GeometricPrefilter", "probe", False),
    ("database.pruner", "repro.database.pruning", "ReachabilityPruner",
     "candidates", False),
    ("dispatch.run_groups", "repro.exec.dispatch", None,
     "run_groups_in_processes", False),
    ("dispatch.run_store_shards", "repro.exec.dispatch", None,
     "run_store_shards", False),
    ("dispatch.publish", "repro.exec.dispatch", None, "publish_csr", False),
    ("dispatch.prewarm", "repro.exec.dispatch", None, "prewarm", False),
    ("streaming.tick", "repro.core.streaming", "StandingQuery", "tick", False),
    ("store.snapshot", "repro.store.sharded", "ShardedTrajectoryStore",
     "snapshot", False),
    ("store.journal_append", "repro.store.journal", "StoreJournal", "append",
     False),
)

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_current_span", default=-1
)


class Tracer:
    """In-memory span store.

    A span is the list ``[name, start, end, parent, request, thread]``;
    ``parent`` is an index into :attr:`spans` (-1 for a root) and
    ``request`` the id the outermost benchmark span was opened with
    (inherited by every span it causes).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []

    def begin(self, name: str, request: Optional[int] = None):
        parent = _CURRENT.get()
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, parent, request,
             threading.get_ident()]
        )
        return index, _CURRENT.set(index)

    def end(self, handle) -> None:
        index, token = handle
        self.spans[index][2] = time.perf_counter()
        _CURRENT.reset(token)

    def dump(self, path, extra: Optional[Dict] = None) -> None:
        """Write every finished span (and ``extra`` metadata) as JSON."""
        document = dict(extra or {})
        document["fields"] = [
            "name", "start", "end", "parent", "request", "thread"
        ]
        document["spans"] = [s for s in self.spans if s[2] is not None]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _wrap(tracer: Tracer, name: str, original, is_async: bool):
    if is_async:
        @functools.wraps(original)
        async def traced(*args, **kwargs):
            handle = tracer.begin(name)
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.end(handle)
    else:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            handle = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(handle)
    return traced


_INSTALLED: List[Tuple[object, str, object]] = []


def install(tracer: Tracer) -> None:
    """Wrap every callable in :data:`TARGETS`; idempotent per process."""
    if _INSTALLED:
        raise RuntimeError("tracer already installed")
    for name, module_name, class_name, attribute, is_async in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attribute]
        setattr(owner, attribute, _wrap(tracer, name, original, is_async))
        _INSTALLED.append((owner, attribute, original))


def uninstall() -> None:
    """Restore every callable :func:`install` replaced."""
    while _INSTALLED:
        owner, attribute, original = _INSTALLED.pop()
        setattr(owner, attribute, original)


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    edge = None
    for start, end in sorted(intervals):
        if edge is None or start > edge:
            total += end - start
            edge = end
        elif end > edge:
            total += end - edge
            edge = end
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Self time of every span (same order): duration minus the part
    of the span's interval its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[2] is not None and span[3] >= 0:
            parent = spans[span[3]]
            if parent[2] is None:
                continue
            lo = max(span[1], parent[1])
            hi = min(span[2], parent[2])
            if hi > lo:
                children.setdefault(span[3], []).append((lo, hi))
    out: List[float] = []
    for index, span in enumerate(spans):
        if span[2] is None:
            out.append(0.0)
            continue
        covered = _union_length(children.get(index, ()))
        out.append(max(0.0, (span[2] - span[1]) - covered))
    return out


def root_names(spans: Sequence[list]) -> List[str]:
    """Name of the outermost span above every span (same order).
    A span's parent always precedes it, so one pass suffices."""
    names: List[str] = []
    for span in spans:
        names.append(span[0] if span[3] < 0 else names[span[3]])
    return names


def covered_seconds(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by at least one interval."""
    clipped = [
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    ]
    return _union_length(clipped)
