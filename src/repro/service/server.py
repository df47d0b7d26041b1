"""Asyncio query service: many clients, one engine, fused execution.

:class:`QueryService` is the front end a deployment exposes instead of
handing every client its own :class:`~repro.core.engine.QueryEngine`.
Clients ``await service.submit(query)``; the service admits or rejects
the request using the planner's cost model, parks admitted requests
in the :class:`~repro.service.broker.RequestBroker` for one *fusion
window*, then executes each fused group as a single stacked engine
call on a worker thread and demultiplexes the values back to every
caller's future.

Concurrency model: all service state (broker queue, tenant ledger,
counters) is confined to the event loop -- no locks anywhere.  The
only thing that leaves the loop is the engine evaluation itself,
which runs in a thread-pool executor; the engine's plan cache is
thread-safe, and with ``max_concurrency=1`` (the default) at most one
evaluation runs at a time.

Example::

    async with QueryService(engine, fusion_window_ms=5.0) as service:
        results = await asyncio.gather(
            *(service.submit(query, tenant=f"t{i}") for i in range(8))
        )
"""

from __future__ import annotations

import asyncio
import copy
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro.core.engine import QueryEngine, QueryResult
from repro.core.errors import AdmissionRejected, ValidationError
from repro.core.planner import PlanOptions, resolve_options
from repro.core.query import PSTQuery
from repro.service.broker import (
    FusedGroup,
    PendingRequest,
    RequestBroker,
    fusion_key,
)
from repro.service.tenants import TenantAccount, TenantLedger

__all__ = ["QueryService", "ServiceStandingQuery"]


class QueryService:
    """Concurrent front end over one :class:`QueryEngine`.

    Requests submitted within ``fusion_window_ms`` of each other that
    share a fusion key (same query, same value-affecting options, same
    database version) are answered by one evaluation; see
    :mod:`repro.service.broker`.  Admission control prices every
    request with :meth:`QueryPlanner.estimate_seconds` and rejects
    with :class:`~repro.core.errors.AdmissionRejected` when a tenant
    budget, the backlog budget, or a caller deadline cannot be met.

    Args:
        engine: the engine all evaluations run against.
        fusion_window_ms: how long the broker collects requests before
            draining a batch.  Larger windows fuse more but add that
            much latency to every answer; ``0`` still fuses whatever
            one event-loop iteration delivers together.
        backlog_budget_seconds: load-shedding threshold -- a request is
            rejected (``reason="backlog"``) if the queue's predicted
            post-fusion cost already exceeds this.  ``None`` disables
            shedding.
        max_concurrency: fused groups evaluated in parallel.  The
            default ``1`` keeps evaluations strictly sequential in the
            broker's deadline-then-cheapest order.

    The service starts lazily on first :meth:`submit` (or explicitly
    via :meth:`start`) and must be stopped with :meth:`stop`; it is
    also an async context manager that drains on exit.
    """

    def __init__(
        self,
        engine: QueryEngine,
        fusion_window_ms: float = 5.0,
        backlog_budget_seconds: Optional[float] = 30.0,
        max_concurrency: int = 1,
    ) -> None:
        if not (
            isinstance(fusion_window_ms, (int, float))
            and not isinstance(fusion_window_ms, bool)
            and fusion_window_ms >= 0
        ):
            raise ValidationError(
                f"fusion_window_ms must be a non-negative number, "
                f"got {fusion_window_ms!r}"
            )
        if backlog_budget_seconds is not None and not (
            isinstance(backlog_budget_seconds, (int, float))
            and not isinstance(backlog_budget_seconds, bool)
            and backlog_budget_seconds >= 0
        ):
            raise ValidationError(
                f"backlog_budget_seconds must be a non-negative number "
                f"or None, got {backlog_budget_seconds!r}"
            )
        if not isinstance(max_concurrency, int) or max_concurrency < 1:
            raise ValidationError(
                f"max_concurrency must be a positive int, "
                f"got {max_concurrency!r}"
            )
        self.engine = engine
        self.fusion_window_ms = float(fusion_window_ms)
        self.backlog_budget_seconds = (
            None
            if backlog_budget_seconds is None
            else float(backlog_budget_seconds)
        )
        self.max_concurrency = max_concurrency
        self.ledger = TenantLedger()
        self.evaluations = 0  # engine calls made on behalf of clients
        self.fused_calls = 0  # of those, calls that answered >1 request
        self._broker = RequestBroker()
        self._wakeup: Optional[asyncio.Event] = None
        self._loop_task: Optional["asyncio.Task[None]"] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency,
            thread_name_prefix="repro-service",
        )
        self._stopping = False
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryService":
        """Start the broker loop on the running event loop."""
        if self._stopped:
            raise AdmissionRejected(
                "service has been stopped", reason="stopped"
            )
        if self._loop_task is None:
            self._wakeup = asyncio.Event()
            loop = asyncio.get_running_loop()
            self._loop_task = loop.create_task(self._broker_loop())
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.

        With ``drain=True`` (default) queued requests are still fused,
        executed and answered before the loop exits; new submissions
        are rejected immediately.  With ``drain=False`` every queued
        request fails with ``AdmissionRejected(reason="stopped")``.
        """
        self._stopping = True
        if not drain:
            for request in self._broker.clear():
                if not request.future.done():
                    request.future.set_exception(
                        AdmissionRejected(
                            "service stopped before execution",
                            reason="stopped",
                        )
                    )
        if self._loop_task is not None:
            assert self._wakeup is not None
            self._wakeup.set()
            await self._loop_task
            self._loop_task = None
        self._stopped = True
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def set_tenant_budget(
        self, tenant: str, budget_seconds: Optional[float]
    ) -> TenantAccount:
        """Cap a tenant's admission budget (``None`` = unlimited)."""
        return self.ledger.set_budget(tenant, budget_seconds)

    def tenant(self, name: str) -> TenantAccount:
        """The tenant's account (created unlimited on first use)."""
        return self.ledger.account(name)

    # ------------------------------------------------------------------
    # ad-hoc queries
    # ------------------------------------------------------------------
    async def submit(
        self,
        query: PSTQuery,
        tenant: str = "default",
        method: str = "auto",
        n_samples: Optional[int] = None,
        seed: Optional[int] = None,
        options: Optional[PlanOptions] = None,
        object_ids: Optional[Sequence[Any]] = None,
        deadline_seconds: Optional[float] = None,
    ) -> QueryResult:
        """Submit a query; await its :class:`QueryResult`.

        Admission happens synchronously inside this call: the request
        is priced with the engine's cost model and rejected with
        :class:`~repro.core.errors.AdmissionRejected` before it ever
        queues if the tenant budget (``reason="tenant-budget"``), the
        service backlog (``"backlog"``) or ``deadline_seconds``
        (``"deadline"``) rules it out.  Admitted requests wait at most
        one fusion window plus the queue ahead of them.

        Args:
            query: the PST query to answer.
            tenant: account to admit and bill against.
            method / n_samples / seed / options: exactly as
                :meth:`QueryEngine.evaluate`.
            object_ids: only return these objects' values.  The subset
                does not restrict fusion -- the fused evaluation still
                computes every object; this only filters the slice the
                caller receives.
            deadline_seconds: reject now (not mid-queue) if the
                predicted evaluation alone exceeds this; queued groups
                with deadlines run earliest-deadline-first.
        """
        if self._stopping or self._stopped:
            raise AdmissionRejected(
                "service is stopped and not accepting requests",
                reason="stopped",
            )
        await self.start()
        loop = asyncio.get_running_loop()
        query.window.validate_for(self.engine.database.n_states)
        effective = resolve_options(options, method, n_samples, seed)
        predicted = self.engine.planner.estimate_seconds(query, effective)
        account = self.ledger.account(tenant)
        if account.would_exceed(predicted):
            account.rejected += 1
            raise AdmissionRejected(
                f"tenant {tenant!r} budget exhausted: request predicted "
                f"{predicted:.3g}s, {account.remaining_seconds:.3g}s "
                f"remaining of {account.budget_seconds:.3g}s",
                reason="tenant-budget",
            )
        if deadline_seconds is not None and predicted > deadline_seconds:
            account.rejected += 1
            raise AdmissionRejected(
                f"deadline {deadline_seconds:.3g}s is tighter than the "
                f"predicted evaluation time {predicted:.3g}s",
                reason="deadline",
            )
        # a sharded store's token also covers its snapshot generation
        # and journal position, so reopening or re-snapshotting the
        # store never fuses a request with a stale evaluation
        database = self.engine.database
        key = fusion_key(
            query,
            effective,
            getattr(database, "fusion_token", database.version),
        )
        budget = self.backlog_budget_seconds
        if (
            budget is not None
            and not self._broker.has_pending(key)
            and self._broker.backlog_seconds() + predicted > budget
        ):
            account.rejected += 1
            raise AdmissionRejected(
                f"predicted backlog "
                f"{self._broker.backlog_seconds() + predicted:.3g}s "
                f"exceeds the {budget:.3g}s budget; retry later",
                reason="backlog",
            )
        self.ledger.charge(tenant, predicted)
        request = PendingRequest(
            query=query,
            options=effective,
            tenant=tenant,
            predicted_seconds=predicted,
            key=key,
            future=loop.create_future(),
            object_ids=object_ids,
            deadline_at=(
                None
                if deadline_seconds is None
                else loop.time() + deadline_seconds
            ),
            submitted_at=loop.time(),
        )
        self._broker.add(request)
        assert self._wakeup is not None
        self._wakeup.set()
        return await request.future

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------
    def watch(
        self,
        query: PSTQuery,
        tenant: str = "default",
        stride: int = 1,
        faults=None,
        quarantine_after: int = 3,
    ) -> "ServiceStandingQuery":
        """Register a standing query owned by ``tenant``.

        Wraps :meth:`QueryEngine.watch`; the returned handle's
        :meth:`~ServiceStandingQuery.tick` runs on the service's
        executor so it does not block the event loop, and measured
        tick time is billed to the owning tenant.  If repeated tick
        failures quarantine the query, the event is surfaced on the
        tenant's account (``quarantined`` counter) instead of being
        visible only to whoever holds the handle.
        """
        account = self.ledger.account(tenant)

        def record_quarantine(_standing) -> None:
            account.quarantined += 1

        standing = self.engine.watch(
            query,
            stride=stride,
            faults=faults,
            quarantine_after=quarantine_after,
            on_quarantine=record_quarantine,
        )
        return ServiceStandingQuery(self, standing, tenant)

    # ------------------------------------------------------------------
    # broker loop
    # ------------------------------------------------------------------
    async def _broker_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if len(self._broker) == 0:
                if self._stopping:
                    return
                continue
            # the fusion window: let concurrent submitters pile in
            await asyncio.sleep(self.fusion_window_ms / 1000.0)
            groups = self._broker.drain()
            if self.max_concurrency > 1:
                await asyncio.gather(
                    *(self._execute_group(g) for g in groups)
                )
            else:
                for group in groups:
                    await self._execute_group(group)
            if self._stopping and len(self._broker) == 0:
                return

    async def _execute_group(self, group: FusedGroup) -> None:
        """Run one fused evaluation and demultiplex the answers."""
        loop = asyncio.get_running_loop()
        # mid-queue deadline enforcement: a request admitted in time
        # can still expire while the queue ahead of it drains; failing
        # it *before* the evaluation keeps the deadline a promise
        # rather than a hint, and costs the caller nothing (settled at
        # 0s).  The rest of the fused group still executes.
        now = loop.time()
        live: List[PendingRequest] = []
        for request in group.requests:
            if (
                request.deadline_at is not None
                and now > request.deadline_at
            ):
                self.ledger.settle(
                    request.tenant,
                    request.predicted_seconds,
                    0.0,
                    False,
                )
                self.ledger.account(request.tenant).rejected += 1
                if not request.future.done():
                    request.future.set_exception(
                        AdmissionRejected(
                            f"deadline passed while queued: waited "
                            f"{now - request.submitted_at:.3g}s",
                            reason="deadline",
                        )
                    )
            else:
                live.append(request)
        if not live:
            return
        representative = live[0]
        started = loop.time()
        self.evaluations += 1
        fused = len(live) > 1
        if fused:
            self.fused_calls += 1
        try:
            result = await loop.run_in_executor(
                self._executor,
                lambda: self.engine.evaluate(
                    representative.query, options=representative.options
                ),
            )
        except Exception as exc:
            for request in live:
                self.ledger.settle(
                    request.tenant, request.predicted_seconds, 0.0, fused
                )
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        elapsed = loop.time() - started
        share = elapsed / len(live)
        shared_events: List[str] = []
        if fused:
            tenants = {request.tenant for request in live}
            shared_events.append(
                f"fused {len(live)} requests from "
                f"{len(tenants)} tenant(s) within "
                f"{self.fusion_window_ms:g} ms window "
                f"(fingerprint {group.fingerprint})"
            )
        for request in live:
            self.ledger.settle(
                request.tenant, request.predicted_seconds, share, fused
            )
            events = list(shared_events)
            events.append(
                f"admission: tenant {request.tenant!r} charged "
                f"{request.predicted_seconds:.3g}s predicted, settled "
                f"{share:.3g}s measured"
            )
            request.future.set_result(
                self._caller_result(request, result, share, events)
            )

    def _caller_result(
        self,
        request: PendingRequest,
        result: QueryResult,
        share: float,
        events: List[str],
    ) -> QueryResult:
        """One caller's view of the fused result.

        The plan is shallow-copied with a per-caller ``fusion`` event
        list so ``explain()`` shows what was merged and why; values
        are filtered to the caller's ``object_ids`` subset if one was
        given.  A query that reduced to a trivial answer has no plan,
        so the fusion events have nowhere to land -- the values are
        still correct.
        """
        plan = result.plan
        if plan is not None:
            plan = copy.copy(plan)
            plan.fusion = list(result.plan.fusion) + events
        values: Dict[str, Any] = result.values
        if request.object_ids is not None:
            wanted = set(request.object_ids)
            values = {
                oid: value
                for oid, value in result.values.items()
                if oid in wanted
            }
        return QueryResult(
            query=request.query,
            method=result.method,
            values=values,
            elapsed_seconds=share,
            plan=plan,
        )


class ServiceStandingQuery:
    """A tenant-owned standing query running through the service.

    Thin async wrapper over :class:`~repro.core.streaming.StandingQuery`:
    :meth:`tick` and :meth:`reset` run on the service executor so the
    event loop stays responsive, and measured tick time is billed to
    the owning tenant's account.  The underlying handle is available
    as :attr:`standing` for synchronous introspection
    (:meth:`~repro.core.streaming.StandingQuery.explain`, ``error``,
    ``quarantined``).
    """

    def __init__(
        self,
        service: QueryService,
        standing,
        tenant: str,
    ) -> None:
        self.service = service
        self.standing = standing
        self.tenant = tenant

    @property
    def quarantined(self) -> bool:
        return self.standing.quarantined

    async def tick(self) -> QueryResult:
        """Evaluate the current window and slide it (off-loop)."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            result = await loop.run_in_executor(
                self.service._executor, self.standing.tick
            )
        finally:
            elapsed = loop.time() - started
            account = self.service.ledger.account(self.tenant)
            account.charged_seconds += elapsed
            account.measured_seconds += elapsed
        return result

    async def reset(self) -> "ServiceStandingQuery":
        """Revive after quarantine: rebuild state from the database."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self.service._executor, self.standing.reset
        )
        return self

    def explain(self):
        """The standing query's current plan (synchronous, cheap)."""
        return self.standing.explain()
