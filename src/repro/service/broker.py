"""Request broker: fuse compatible requests into stacked evaluations.

Many clients monitoring the same uncertain trajectories tend to ask
the same questions at the same time -- dashboards refresh on the same
cadence, alerting rules share windows.  The broker exploits that:
every admitted request joins the queued group of its *fusion key*
(query semantics plus every option that can change the answer, plus
the database version so a mutation splits the groups), formed at
enqueue, and each group is answered by a single engine evaluation
whose values are demultiplexed back to every caller.

A group keeps absorbing matching requests until it is dequeued, and
dequeue is work-conserving: the service pops one group (earliest
deadline, then oldest arrival) whenever an executor slot frees, so
the queue never waits on a timer while there is work.

Everything here is synchronous and deterministic; the asyncio side
(:class:`~repro.service.server.QueryService`) owns timing, the idle
linger, concurrency and per-version answer reuse.  That split keeps
the scheduling policy unit-testable without an event loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.planner import PlanOptions
from repro.core.query import PSTQuery

__all__ = [
    "FusedGroup",
    "PendingRequest",
    "RequestBroker",
    "fingerprint_of",
    "fusion_key",
]

# monotonically increasing tag handed to requests that must never fuse
# (Monte-Carlo with no seed: two evaluations legitimately disagree)
_unfusable_counter = 0


def fusion_key(
    query: PSTQuery,
    options: PlanOptions,
    database_version: int,
) -> Tuple[Any, ...]:
    """The equivalence class of requests answerable by one evaluation.

    Two requests fuse only if a single ``QueryEngine.evaluate`` call
    produces both answers exactly.  The key therefore covers the query
    semantics (type, region, times, ``k``), every option that can
    change the values (forced method, filter toggles, Monte-Carlo
    sample count and seed, ``allow_approximate``), and the database
    version -- an update between two submissions must split them.
    Execution knobs (``dispatch``, ``max_workers``, ``supervisor``)
    stay out: they change *how*, never *what*, and the group executes
    with its first request's options.

    Monte-Carlo with ``seed=None`` is non-deterministic, so such
    requests get a unique key and never fuse.
    """
    may_sample = options.method == "mc" or (
        options.method is None and options.allow_approximate
    )
    if may_sample and options.seed is None:
        global _unfusable_counter
        _unfusable_counter += 1
        return ("unfusable", _unfusable_counter)
    return (
        type(query).__name__,
        frozenset(query.window.region),
        frozenset(query.window.times),
        getattr(query, "k", None),
        options.method,
        options.prefilter,
        options.bfs_prune,
        options.allow_approximate,
        options.n_samples,
        options.seed,
        database_version,
    )


def key_token(key: Tuple[Any, ...]) -> Any:
    """The database version a fusion key was formed at (``None`` if
    the key is unfusable: no answer is ever shared under it)."""
    return None if key[0] == "unfusable" else key[-1]


def fingerprint_of(key: Tuple[Any, ...]) -> str:
    """Short stable hex digest of a fusion key, for explain output."""
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
    return digest[:12]


@dataclass
class PendingRequest:
    """One client request queued inside the service.

    Attributes:
        query: the PST query to answer.
        options: fully resolved :class:`PlanOptions` (the engine-level
            ``method=``/``seed=`` keywords are folded in before the
            request enters the broker).
        tenant: account the request is admitted and billed against.
        predicted_seconds: cost-model admission price.
        key: fusion key (see :func:`fusion_key`).
        future: where the caller awaits its
            :class:`~repro.core.engine.QueryResult`.
        object_ids: optional subset of object ids the caller wants;
            ``None`` means all.  Deliberately *not* part of the fusion
            key -- the fused evaluation computes every object and each
            caller receives its filtered slice.
        deadline_at: absolute loop time the answer is due, or ``None``.
        submitted_at: loop time the request entered the queue.
    """

    query: PSTQuery
    options: PlanOptions
    tenant: str
    predicted_seconds: float
    key: Tuple[Any, ...]
    future: Any
    object_ids: Optional[Sequence[Any]] = None
    deadline_at: Optional[float] = None
    submitted_at: float = 0.0


@dataclass
class FusedGroup:
    """Requests that will be answered by one engine evaluation."""

    key: Tuple[Any, ...]
    requests: List[PendingRequest] = field(default_factory=list)

    @property
    def predicted_seconds(self) -> float:
        """Price of executing the group: one evaluation, not N."""
        return min(r.predicted_seconds for r in self.requests)

    @property
    def deadline_at(self) -> Optional[float]:
        """Earliest member deadline -- the one scheduling must honour."""
        deadlines = [
            r.deadline_at
            for r in self.requests
            if r.deadline_at is not None
        ]
        return min(deadlines) if deadlines else None


class RequestBroker:
    """One queued :class:`FusedGroup` per fusion key.

    The service enqueues admitted requests as they arrive; a request
    joins the group of its key, so a queued group absorbs every
    matching request until it is dequeued.  Each :meth:`drain` pops
    the next group to execute: earliest deadline first, then oldest
    arrival -- a deadline is never parked behind undated work, and
    undated work runs in the order it arrived.
    """

    def __init__(self) -> None:
        # insertion order is group formation order: oldest arrival first
        self._groups: Dict[Tuple[Any, ...], FusedGroup] = {}

    def __len__(self) -> int:
        return sum(len(group.requests) for group in self._groups.values())

    def add(self, request: PendingRequest) -> None:
        group = self._groups.get(request.key)
        if group is None:
            group = self._groups[request.key] = FusedGroup(key=request.key)
        group.requests.append(request)

    def has_pending(self, key: Tuple[Any, ...]) -> bool:
        """Whether a queued group already carries this fusion key.

        Admission control uses this to wave fusable requests through
        the backlog check: joining an existing group adds (almost) no
        work, so shedding it would only lose the cheap answer.
        """
        return key in self._groups

    def take(self, key: Tuple[Any, ...]) -> Optional[FusedGroup]:
        """Remove and return the queued group of ``key``, if any."""
        return self._groups.pop(key, None)

    def clear(self) -> List[PendingRequest]:
        """Empty the queue and return what was in it (for shutdown)."""
        pending = [
            request
            for group in self._groups.values()
            for request in group.requests
        ]
        self._groups.clear()
        return pending

    def backlog_seconds(self) -> float:
        """Predicted cost of the work already queued, after fusion.

        This is the number admission control compares against its
        backlog budget, so it must price the queue the way it will
        actually execute: one evaluation per fused group.
        """
        return sum(g.predicted_seconds for g in self._groups.values())

    def drain(self) -> Optional[FusedGroup]:
        """Pop the next group to execute, or ``None`` when empty."""
        if not self._groups:
            return None
        # min() keeps the first of equals: the oldest group
        group = min(
            self._groups.values(),
            key=lambda g: (
                float("inf") if g.deadline_at is None else g.deadline_at
            ),
        )
        return self._groups.pop(group.key)
