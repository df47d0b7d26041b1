"""The query engine: one entry point for all queries and methods.

:class:`QueryEngine` evaluates a PST query over every object of a
:class:`~repro.database.uncertain_db.TrajectoryDatabase`.  By default
(``method="auto"``) the engine *plans* its own execution: a cost model
(:mod:`repro.core.planner`) picks query-based, object-based or
Monte-Carlo processing per chain group, and the plan runs as a staged
filter--refinement pipeline (:mod:`repro.core.pipeline`) -- exact BFS
reachability pruning (after a geometric prefilter only when a query
forces one), then the shared operator layer (:mod:`repro.exec.operators`),
dispatched serially or across the process pool of
:mod:`repro.exec.dispatch` (slab shards of
a sharded store, or of the spill of an in-RAM database -- the mode
that scales a database past one core).  Forcing a method is still
supported:

* ``"qb"`` -- query-based: one backward pass per chain, then one dot
  product per object (Section V-B).  Objects sighted again at or after
  the window start automatically fall back to Section VI processing.
* ``"ob"`` -- object-based: one stacked forward pass per chain group
  (Section V-A).
* ``"mc"`` -- the Monte-Carlo baseline (Section VIII-A).

All filter stages are exact-safe, so any forced method returns the same
values as ``"auto"`` (to 1e-12; asserted in the test suite).

Results come back as a :class:`QueryResult` mapping object ids to
probabilities (or to visit-count distributions for PSTkQ), carrying the
executed :class:`~repro.core.planner.QueryPlan` with per-stage
candidate counts and timings -- also available directly through
:meth:`QueryEngine.explain`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.errors import QueryError, ValidationError
from repro.core.pipeline import QueryPipeline
from repro.core.plan_cache import PlanCache
from repro.core.planner import (
    CostModel,
    PlanOptions,
    QueryPlan,
    QueryPlanner,
    resolve_options,
)
from repro.core.query import (
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    PSTQuery,
)
from repro.database.pruning import ReachabilityPruner
from repro.database.uncertain_db import TrajectoryDatabase

__all__ = ["QueryEngine", "QueryResult"]

ResultValue = Union[float, np.ndarray]

_METHODS = ("auto", "qb", "ob", "mc")


@dataclass
class QueryResult:
    """The per-object answers of one query evaluation.

    Attributes:
        query: the evaluated query.
        method: the *requested* method (``"auto"``, ``"qb"``, ``"ob"``
            or ``"mc"``); the per-group methods actually executed are
            on :attr:`plan`.
        values: ``{object_id: probability}`` for exists/for-all queries,
            ``{object_id: count distribution}`` for k-times queries with
            ``k=None``.
        elapsed_seconds: wall-clock evaluation time.
        plan: the executed :class:`~repro.core.planner.QueryPlan` with
            per-stage candidate counts and timings (None only for
            trivial evaluations that never reach the pipeline).
            Results produced by a standing query's
            :meth:`~repro.core.streaming.StandingQuery.tick` instead
            carry a ``streaming`` stage recording the tick number, the
            per-tick candidate delta, and the sparse products spent.
    """

    query: PSTQuery
    method: str
    values: Dict[str, ResultValue]
    elapsed_seconds: float = 0.0
    plan: Optional[QueryPlan] = None

    def probability(self, object_id: str) -> ResultValue:
        """The answer for one object."""
        try:
            return self.values[object_id]
        except KeyError:
            raise ValidationError(
                f"no result for object {object_id!r}"
            ) from None

    def above(self, threshold: float) -> Dict[str, float]:
        """Objects whose (scalar) probability reaches ``threshold``."""
        return {
            object_id: float(value)
            for object_id, value in self.values.items()
            if np.isscalar(value) and float(value) >= threshold
        }

    def top(self, k: int) -> List[Tuple[str, float]]:
        """The ``k`` most probable objects (scalar results only)."""
        scalars = [
            (object_id, float(value))
            for object_id, value in self.values.items()
            if np.isscalar(value)
        ]
        scalars.sort(key=lambda pair: (-pair[1], pair[0]))
        return scalars[:k]

    def __len__(self) -> int:
        return len(self.values)


class QueryEngine:
    """Evaluates PST queries over a trajectory database.

    Objects sharing a chain are evaluated *batched* (see
    :mod:`repro.core.batch`); backward vectors, suffix-count blocks and
    BFS reachability labellings are reused across queries through the
    engine's :class:`~repro.core.plan_cache.PlanCache` and
    :class:`~repro.database.pruning.ReachabilityPruner`, so monitoring
    workloads that re-issue windows over the same chains pay
    construction once.

    Args:
        database: the database to query.
        plan_cache: cache of QB backward vectors (``"backward"``) and
            k-times suffix-count blocks (``"ktimes_core"``); a private
            one is created when omitted.  Pass a shared instance to
            amortise construction across several engines (it is
            thread-safe).
        cost_model: planner coefficients; defaults are tuned for the
            batched scipy kernels.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        plan_cache: Optional[PlanCache] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.database = database
        self.plan_cache = (
            plan_cache if plan_cache is not None else PlanCache()
        )
        self.planner = QueryPlanner(
            database,
            plan_cache=self.plan_cache,
            cost_model=cost_model,
        )
        self.pruner = ReachabilityPruner(database)
        self.pipeline = QueryPipeline(
            database,
            plan_cache=self.plan_cache,
            pruner=self.pruner,
        )
        self._streaming = None

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def evaluate(
        self,
        query: PSTQuery,
        method: str = "auto",
        n_samples: Optional[int] = None,
        seed: Optional[int] = None,
        options: Optional[PlanOptions] = None,
    ) -> QueryResult:
        """Evaluate ``query`` for every object in the database.

        Args:
            query: a :class:`PSTExistsQuery`, :class:`PSTForAllQuery` or
                :class:`PSTKTimesQuery`.
            method: ``"auto"`` (cost-based planning, the default) or a
                forced ``"qb"``/``"ob"``/``"mc"``.
            n_samples: Monte-Carlo sample count (MC only; paper default
                100).
            seed: Monte-Carlo base seed; every object samples its own
                stream derived from it.
            options: planner overrides (filters, dispatch, cost
                model); see :class:`~repro.core.planner.PlanOptions`.

        Returns:
            A :class:`QueryResult`; for PSTkQ with ``k=None`` the values
            are full count distributions, otherwise scalars.  The
            executed plan (stage cardinalities, timings, per-group
            method choices) is on :attr:`QueryResult.plan`.
        """
        if method not in _METHODS:
            raise QueryError(
                f"unknown method {method!r}; expected one of {_METHODS}"
            )
        query.window.validate_for(self.database.n_states)
        effective = resolve_options(options, method, n_samples, seed)
        started = _time.perf_counter()
        plan: Optional[QueryPlan] = None
        if isinstance(query, PSTExistsQuery):
            plan = self.planner.plan(query, effective)
            values = self.pipeline.execute(plan, query)
        elif isinstance(query, PSTForAllQuery):
            values, plan = self._evaluate_forall(query, effective)
        elif isinstance(query, PSTKTimesQuery):
            plan = self.planner.plan(query, effective)
            values = self.pipeline.execute(plan, query)
        else:
            raise QueryError(f"unsupported query type {type(query)!r}")
        elapsed = _time.perf_counter() - started
        return QueryResult(
            query=query,
            method=method,
            values=values,
            elapsed_seconds=elapsed,
            plan=plan,
        )

    def explain(
        self,
        query: PSTQuery,
        method: str = "auto",
        n_samples: Optional[int] = None,
        seed: Optional[int] = None,
        options: Optional[PlanOptions] = None,
    ) -> QueryPlan:
        """Evaluate ``query`` and return the executed plan.

        EXPLAIN-ANALYZE-style: the plan carries the cost-model
        estimates *and* the measured per-stage candidate counts and
        timings.  Use :meth:`QueryPlan.describe` for a readable
        rendering::

            print(engine.explain(query).describe())

        Monitoring workloads should register a standing query instead
        -- its plan swaps the filter stages for a ``streaming`` stage
        with per-tick candidate deltas::

            standing = engine.watch(query, stride=1)
            standing.tick()
            print(standing.explain().describe())
        """
        result = self.evaluate(
            query,
            method=method,
            n_samples=n_samples,
            seed=seed,
            options=options,
        )
        if result.plan is None:
            raise QueryError(
                "query reduced to a trivial answer; nothing to explain"
            )
        return result.plan

    def watch(
        self,
        query: PSTQuery,
        stride: int = 1,
        faults=None,
        quarantine_after: int = 3,
        on_quarantine=None,
    ):
        """Register ``query`` as a standing sliding-window query.

        Returns a :class:`~repro.core.streaming.StandingQuery` whose
        :meth:`~repro.core.streaming.StandingQuery.tick` evaluates the
        current window *incrementally* -- backward vectors are extended
        by one sparse product per slid timestamp instead of recomputed
        -- then slides it ``stride`` timestamps forward.  The streaming
        engine shares this engine's plan cache and reachability pruner,
        so artefacts built by either serve both.  ``faults``,
        ``quarantine_after`` and ``on_quarantine`` pass through to
        :meth:`~repro.core.streaming.StreamingQueryEngine.watch`.
        """
        from repro.core.streaming import StreamingQueryEngine

        if self._streaming is None:
            self._streaming = StreamingQueryEngine(
                self.database,
                plan_cache=self.plan_cache,
                pruner=self.pruner,
            )
        return self._streaming.watch(
            query,
            stride=stride,
            faults=faults,
            quarantine_after=quarantine_after,
            on_quarantine=on_quarantine,
        )

    # ------------------------------------------------------------------
    # for-all (complement identity, Section VII)
    # ------------------------------------------------------------------
    def _evaluate_forall(
        self, query: PSTForAllQuery, options: PlanOptions
    ) -> Tuple[Dict[str, ResultValue], Optional[QueryPlan]]:
        complement = query.region.complement(self.database.n_states)
        if not complement:
            return (
                {obj.object_id: 1.0 for obj in self.database},
                None,
            )
        plan = self.planner.plan_window(
            query.window.with_region(complement),
            kind="exists",
            complemented=True,
            options=options,
            semantics="forall",
        )
        inner_query = PSTExistsQuery(plan.window)
        inner = self.pipeline.execute(plan, inner_query)
        return (
            {
                object_id: 1.0 - float(value)
                for object_id, value in inner.items()
            },
            plan,
        )
