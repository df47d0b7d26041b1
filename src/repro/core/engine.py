"""The query engine: one entry point for all queries and methods.

:class:`QueryEngine` evaluates a PST query over every object of a
:class:`~repro.database.uncertain_db.TrajectoryDatabase`.  By default
(``method="auto"``) the engine *plans* its own execution: a cost model
(:mod:`repro.core.planner`) picks query-based, object-based or
Monte-Carlo processing per chain group, and the plan runs as a staged
filter--refinement pipeline (:mod:`repro.core.pipeline`) -- R-tree
geometric prefilter, exact BFS reachability pruning, then the shared
operator layer (:mod:`repro.exec.operators`), dispatched serially or
across the shared-memory process pool of :mod:`repro.exec.dispatch`
(chain groups *and* within-chain object shards -- the mode that
scales a database past one core).  Pass
``cost_model=CostModel.from_calibration()`` to plan with coefficients
measured on this machine (``repro-bench calibrate``,
:mod:`repro.exec.calibrate`) instead of the hand-derived defaults.
Forcing a method is still supported:

* ``"qb"`` -- query-based: one backward pass per chain, then one dot
  product per object (Section V-B).  Objects with multiple observations
  automatically fall back to object-based Section VI processing.
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
    :mod:`repro.core.batch`); augmented matrices, backward vectors and
    BFS reachability labellings are reused across queries through the
    engine's :class:`~repro.core.plan_cache.PlanCache` and
    :class:`~repro.database.pruning.ReachabilityPruner`, so monitoring
    workloads that re-issue windows over the same chains pay
    construction once.

    Args:
        database: the database to query.
        backend: linear-algebra backend name (default scipy).
        plan_cache: cache for matrices/backward vectors; a private one
            is created when omitted.  Pass a shared instance to
            amortise construction across several engines (it is
            thread-safe).
        cost_model: planner coefficients; defaults are tuned for the
            batched scipy kernels.  Use
            :meth:`~repro.core.planner.CostModel.from_calibration`
            for coefficients least-squares-fitted to this machine's
            measured kernel times.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        backend: Optional[str] = None,
        plan_cache: Optional[PlanCache] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.database = database
        self.backend = backend
        self.plan_cache = (
            plan_cache if plan_cache is not None else PlanCache()
        )
        self.planner = QueryPlanner(
            database,
            plan_cache=self.plan_cache,
            backend=backend,
            cost_model=cost_model,
        )
        self.pruner = ReachabilityPruner(database)
        self.pipeline = QueryPipeline(
            database,
            plan_cache=self.plan_cache,
            backend=backend,
            pruner=self.pruner,
        )
        self._streaming = None
        # auto-stream detection (PlanOptions.auto_stream): the last
        # seen window signature, the stride of the last observed
        # slide (promotion needs the same stride twice in a row), and
        # the standing query a confirmed slide was promoted onto
        self._auto_signature: Optional[tuple] = None
        self._auto_times: Optional[frozenset] = None
        self._auto_stride: Optional[int] = None
        self._auto_standing = None

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
        if effective.auto_stream and effective.method is None:
            delegated = self._auto_stream_tick(query)
            if delegated is not None:
                return delegated
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
                backend=self.backend,
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
    # auto-stream promotion (PlanOptions.auto_stream)
    # ------------------------------------------------------------------
    def _auto_stream_tick(self, query: PSTQuery):
        """Serve a re-issued slid window from a standing query, or None.

        A monitoring loop that calls ``evaluate`` with the same region
        and a window whose times slide by a constant stride is exactly
        the workload :meth:`watch` exists for.  With
        ``PlanOptions(auto_stream=True)`` the engine detects the slide
        -- same query type, ``k`` and relative time pattern, every
        timestamp shifted by the same ``s >= 1`` on *two consecutive*
        re-issues (a single slide is not a pattern; promoting
        speculatively would rebuild a standing query per call on
        irregular workloads) -- promotes the query onto a standing
        query, and serves subsequent evaluations as incremental
        ticks.  The returned result is the standing query's (values
        agree with batch evaluation to 1e-12), with
        ``plan.auto_streamed`` flagged so ``explain()`` shows the
        delegation.
        """
        times = query.window.times
        signature = (
            type(query).__name__,
            query.window.region,
            getattr(query, "k", None),
            tuple(sorted(t - min(times) for t in times)),
        )
        previous_times = (
            self._auto_times
            if self._auto_signature == signature
            else None
        )
        stride = None
        if previous_times is not None and times != previous_times:
            candidate = min(times) - min(previous_times)
            if candidate >= 1 and times == frozenset(
                t + candidate for t in previous_times
            ):
                stride = candidate
        result = None
        if stride is None:
            # new signature, exact repeat (plan cache already serves
            # those), or an irregular jump: drop any promotion state
            self._auto_stride = None
            self._auto_standing = None
        elif stride == self._auto_stride:
            # the stride repeated: the window is genuinely sliding
            standing = self._auto_standing
            if (
                standing is None
                or standing.stride != stride
                or standing.window != query.window
            ):
                standing = self.watch(query, stride=stride)
                self._auto_standing = standing
            result = standing.tick()
            result.query = query
            if result.plan is not None:
                result.plan.auto_streamed = True
        else:
            # first slide at this stride: remember it, stay batch
            self._auto_stride = stride
            self._auto_standing = None
        self._auto_signature = signature
        self._auto_times = times
        return result

    # ------------------------------------------------------------------
    # extension queries (thin, validated pass-throughs)
    # ------------------------------------------------------------------
    def first_passage(self, object_id: str, region, horizon: int):
        """First-entry-time distribution of one object into ``region``.

        See :func:`repro.core.temporal.first_passage_distribution`.
        """
        from repro.core.temporal import first_passage_distribution

        obj = self.database.get(object_id)
        chain = self.database.chain(obj.chain_id)
        return first_passage_distribution(
            chain,
            obj.initial.distribution,
            region,
            horizon,
            start_time=obj.initial.time,
            plan_cache=self.plan_cache,
        )

    def nearest_neighbor(self, location, time: int) -> Dict[str, float]:
        """Per-object probability of being nearest to ``location``.

        See :func:`repro.core.nearest_neighbor.nearest_neighbor_probabilities`.
        """
        from repro.core.nearest_neighbor import (
            nearest_neighbor_probabilities,
        )

        return nearest_neighbor_probabilities(
            self.database, location, time
        )

    def sequence_probabilities(
        self, pattern, length: int
    ) -> Dict[str, float]:
        """Per-object probability that its trajectory spells ``pattern``.

        Objects observed at different times are each evaluated from
        their own observation; see
        :func:`repro.core.sequence.sequence_probability`.
        """
        from repro.core.sequence import sequence_probability

        values: Dict[str, float] = {}
        for obj in self.database:
            chain = self.database.chain(obj.chain_id)
            values[obj.object_id] = sequence_probability(
                chain, obj.initial.distribution, pattern, length
            )
        return values

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
