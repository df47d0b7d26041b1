"""Staged filter--refinement execution of query plans.

A :class:`~repro.core.planner.QueryPlan` runs as three stages, each of
which can only *narrow* the candidate set (the EXPLAIN stage counts are
monotonically non-increasing by construction):

1. **prefilter** -- only when ``PlanOptions(prefilter=True)`` forces
   it, over :class:`~repro.database.pruning.GeometricPrefilter`'s
   closed-form lower bound on each state's steps into the region.  It
   never drops an object BFS keeps, so planning leaves it off.
2. **bfs** -- over the exact Section V-C labels of
   :class:`~repro.database.pruning.ReachabilityPruner`: one resumable
   reverse-BFS labelling per ``(chain, region)``.
3. **evaluate** -- the surviving objects of each chain group run
   through the shared operator layer (:mod:`repro.exec.operators`)
   with the group's planned method, dispatched per the plan:
   ``serial`` (one chain group after the other, in the calling
   thread) or ``process`` (slab shards across the worker pool of
   :mod:`repro.exec.dispatch` -- a sharded store's own shards, or the
   spill an in-RAM database is written to once per version).

The two filter stages are one method over two labels sources.  Per
chain group it runs :func:`~repro.core.batch.filter_rows`, the code
the store shard worker runs per shard: a row is kept iff its earliest
time in the region (its start time plus the minimum label over its
support) is at most ``t_end``, and a dropped row is answered with the
query's zero element (:func:`~repro.core.batch.zero_answers`).

Candidates travel between the stages as *row-index arrays* over each
chain group's columnar :class:`~repro.database.cohort.Cohort` (synced
once, when the plan was made): semantic checks, both filters, kernel
staging and result assembly are array operations per chain group, and
no stage runs Python per object.  Only Section VI multi-observation
objects and Monte-Carlo sampling -- per-object algorithms by nature --
fetch object records, and only for the survivors.

Every stage and kernel call runs through the operators' timing hooks;
the per-operator totals land on ``plan.operator_seconds`` (worker
timings included), which ``QueryPlan.describe()`` renders.

Both filters are *safe* -- they never remove an object whose true
answer is non-zero -- and the kernels are exact, so pipeline output is
identical (to the last bit) to unfiltered forced-method evaluation;
the test suite asserts 1e-12 parity plus the randomized safety
property.

**Degradation.**  The evaluate stage is fault-tolerant: a shard whose
supervised retries are exhausted is evaluated by the parent from the
same slabs, and when the process tier itself fails (an
:class:`~repro.core.errors.ExecutionError` escaping the scatter) the
stage falls back to serial -- the same exact kernels either way, so
the query still returns the exact answer.  Both are recorded on
``plan.degradations`` (rendered by ``QueryPlan.describe()``); the fall
to serial is also warned as
:class:`~repro.core.errors.DegradedExecutionWarning`.
"""

from __future__ import annotations

import time as _time
import warnings
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.batch import (
    evaluate_rows,
    filter_rows,
    refuse_multi_ktimes,
    row_values,
)
from repro.core.errors import (
    DegradedExecutionWarning,
    ExecutionError,
    QueryError,
    ValidationError,
)
from repro.core.planner import CostModel, GroupPlan, QueryPlan, StageStats
from repro.core.query import PSTKTimesQuery
from repro.database.pruning import GeometricPrefilter, ReachabilityPruner
from repro.exec.operators import (
    BFS_PRUNE,
    PREFILTER,
    ExecutionContext,
)

__all__ = ["QueryPipeline"]

ResultValue = Union[float, np.ndarray]


class QueryPipeline:
    """Executes query plans as filter -> refine stages.

    Args:
        database: the database the plans run against.
        plan_cache: shared (thread-safe) construction cache.
        pruner: reachability filter to reuse across queries; a private
            one is created when omitted.  Its per-``(chain, region,
            horizon)`` BFS labellings amortise across a monitoring
            workload exactly like the plan cache's matrices.
    """

    def __init__(
        self,
        database,
        plan_cache=None,
        pruner: Optional[ReachabilityPruner] = None,
    ) -> None:
        self.database = database
        self.plan_cache = plan_cache
        self.pruner = pruner or ReachabilityPruner(database)

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def execute(
        self, plan: QueryPlan, query=None
    ) -> Dict[str, ResultValue]:
        """Run ``plan`` and return per-object values.

        Filter stages answer eliminated objects with the query's zero
        element (probability 0, or the point-mass-at-zero count
        distribution for k-times).  ``plan.stages``,
        ``plan.operator_seconds`` and the per-group execution fields
        are filled in place -- the plan doubles as the EXPLAIN ANALYZE
        artefact.
        """
        # semantic validation must not depend on what gets pruned: the
        # kernels reject these inputs, so a filtered run must too
        t_start = plan.window.t_start
        for group in plan.groups:
            starts = group.cohort.start_time[group.rows]
            if starts.size and starts.max() > t_start:
                raise QueryError(
                    f"query time {t_start} precedes "
                    f"the observation at "
                    f"t={int(starts[starts > t_start][0])}; "
                    f"extrapolation queries need all query times >= "
                    f"the observation time"
                )
        if plan.kind == "ktimes":
            if not isinstance(query, PSTKTimesQuery):
                raise QueryError(
                    "k-times plans need the originating PSTKTimesQuery"
                )
            for group in plan.groups:
                refuse_multi_ktimes(
                    plan.kind, group.cohort.is_multi[group.rows]
                )

        context = ExecutionContext(faults=plan.options.faults)
        values: Dict[str, ResultValue] = {}
        survivors: Dict[str, np.ndarray] = {
            group.chain_id: group.rows for group in plan.groups
        }
        plan.stages = []
        plan.degradations = []

        self._stage_filter(
            plan, "prefilter", PREFILTER,
            self._probe if plan.use_prefilter else None,
            survivors, values, query, context,
        )
        self._stage_filter(
            plan, "bfs", BFS_PRUNE,
            self._labels if plan.use_bfs else None,
            survivors, values, query, context,
        )
        self._stage_evaluate(plan, survivors, values, query, context)
        plan.operator_seconds = context.timings
        # recovery events (pool rebuilds, retries, tier falls) land on
        # the plan so EXPLAIN surfaces what execution had to survive
        plan.degradations.extend(context.events)
        return values

    def _labels(self, plan: QueryPlan, group: GroupPlan):
        """The exact Section V-C labelling of the group's chain and the
        plan's region, as the ``fetch_levels(depth)`` the BFS stage and
        the object-based kernel take."""
        return partial(self.pruner.levels, group.chain_id, plan.window.region)

    def _probe(self, plan: QueryPlan, group: GroupPlan):
        """The forced prefilter's labels: the closed-form lower bound on
        :meth:`_labels` from the state positions (``None`` when the
        database cannot place its states)."""
        positions = self.database.state_positions()
        if positions is None:
            return None
        return partial(
            GeometricPrefilter(
                positions,
                self.database.chain_displacement_bound(group.chain_id),
            ).probe,
            plan.window.region,
        )

    # ------------------------------------------------------------------
    # stages 1-2: geometric prefilter (only when forced), BFS prune
    # ------------------------------------------------------------------
    def _stage_filter(
        self,
        plan: QueryPlan,
        name: str,
        operator,
        labels: Optional[Callable],
        survivors: Dict[str, np.ndarray],
        values: Dict[str, ResultValue],
        query,
        context: ExecutionContext,
    ) -> None:
        """One filter stage over every group: ``labels(plan, group)`` is
        the group's ``fetch_levels``.  The stage passes every row
        through when it is off (``labels`` is ``None``) or has no
        labels (``no geometry``); the dropped rows are answered with
        the zero element."""
        entering = sum(len(rows) for rows in survivors.values())
        started = _time.perf_counter()
        detail = "off" if labels is None else ""
        for group in plan.groups if labels is not None else ():
            fetch_levels = labels(plan, group)
            if fetch_levels is None:
                detail = "no geometry"
                break
            rows = survivors[group.chain_id]
            if not rows.size:
                continue
            survivors[group.chain_id], dropped, zeros = filter_rows(
                operator, fetch_levels, group.cohort, rows,
                plan.window, plan.kind, context,
            )
            values.update(
                self._values(group.cohort.ids(dropped), zeros, plan, query)
            )
        plan.stages.append(
            StageStats(
                name,
                entering,
                sum(len(rows) for rows in survivors.values()),
                _time.perf_counter() - started,
                detail,
            )
        )

    # ------------------------------------------------------------------
    # stage 3: batched exact/MC refinement per chain group
    # ------------------------------------------------------------------
    def _stage_evaluate(
        self,
        plan: QueryPlan,
        survivors: Dict[str, np.ndarray],
        values: Dict[str, ResultValue],
        query,
        context: ExecutionContext,
    ) -> None:
        entering = sum(len(rows) for rows in survivors.values())
        started = _time.perf_counter()
        seed_index = self._seed_index(plan)

        mode = plan.dispatch
        if mode == "process":
            try:
                self._evaluate_processes(
                    plan, survivors, values, query, context, seed_index
                )
            except ExecutionError as error:
                # the process tier failed: same exact kernels, in
                # the parent
                self._degrade(context, "process", "serial", error)
                mode = "serial"

        if mode == "serial":
            for group in plan.groups:
                rows = survivors[group.chain_id]
                group_started = _time.perf_counter()
                if rows.size:
                    values.update(self._kernel(
                        group, rows, plan, query, seed_index, context,
                    ))
                group.survivors = len(rows)
                group.elapsed_seconds = (
                    _time.perf_counter() - group_started
                )

        if mode == "process":
            tasks = plan.store_stats["pool_tasks"]
            shards = plan.store_stats["shards"]
            scatter = "store-scatter" if self._is_store() else "process"
            detail_mode = (
                f"{scatter} x{plan.max_workers} ({tasks} pool task"
                + ("s" if tasks != 1 else "") + f", {shards} shard"
                + ("s" if shards != 1 else "") + ")"
            )
        else:
            detail_mode = "serial"
        methods = ",".join(
            sorted({
                group.method
                for group in plan.groups
                if survivors[group.chain_id].size or group.survivors
            })
        ) or "-"
        plan.stages.append(
            StageStats(
                "evaluate",
                entering,
                entering,
                _time.perf_counter() - started,
                f"{detail_mode}, method={methods}",
            )
        )

    def _kernel(
        self,
        group: GroupPlan,
        rows: np.ndarray,
        plan: QueryPlan,
        query,
        seed_index: Optional[Dict[str, int]],
        context: ExecutionContext,
    ) -> Iterable[Tuple[str, ResultValue]]:
        """The group's planned kernels over its surviving ``rows``."""
        cohort = group.cohort
        chain = self.database.chain(group.chain_id)
        ids = cohort.ids(rows)
        answers = evaluate_rows(
            chain,
            plan.window,
            plan.kind,
            group.method,
            rows,
            block=cohort.block,
            start_time=cohort.start_time,
            last_time=cohort.last_time,
            is_multi=cohort.is_multi,
            observation_sets=lambda subset: [
                obj.observations
                for obj in self._objects(cohort.ids(subset))
            ],
            posteriors=partial(self._posteriors, cohort, chain, context),
            n_samples=plan.options.n_samples,
            seeds=(
                self._seeds(ids, plan, seed_index)
                if group.method == "mc"
                else None
            ),
            plan_cache=self.plan_cache,
            context=context,
            levels=self._labels(plan, group),
        )
        return self._values(ids, answers, plan, query)

    @staticmethod
    def _values(
        ids: List[str], answers: np.ndarray, plan: QueryPlan, query
    ) -> Iterable[Tuple[str, ResultValue]]:
        """``(id, result value)`` pairs from the answer block: of a
        k-times count distribution the query may want only
        ``P(k visits)``."""
        if plan.kind == "ktimes" and query.k is not None:
            answers = answers[:, query.k]
        return zip(ids, row_values(answers))

    def _evaluate_processes(
        self,
        plan: QueryPlan,
        survivors: Dict[str, np.ndarray],
        values: Dict[str, ResultValue],
        query,
        context: ExecutionContext,
        seed_index: Optional[Dict[str, int]],
    ) -> None:
        """Scatter the plan over slab shards.

        Persistent workers memory-map the slabs (attached once per
        process, zero-copy across queries) and run prefilter -> BFS ->
        kernel shard-local over every slab object.  A sharded store
        scatters over its own snapshot; its journaled overlay objects
        -- added or re-observed since the snapshot, every object when
        the snapshot holds no shards -- run in the parent with the
        exact same kernels.  An in-RAM database scatters over its
        spill (:func:`~repro.exec.dispatch.run_groups_in_processes`),
        which holds every object, so its overlay is empty.  Objects
        the parent stages already zeroed are re-evaluated shard-side;
        the filters are safe, so the worker's exact answer equals the
        zero element and the overwrite is a no-op.  Each group's
        ``elapsed_seconds`` becomes the summed worker-side shard
        seconds plus any parent-side kernel time.
        """
        from repro.exec import dispatch as _dispatch

        if self._is_store():
            scatter = _dispatch.run_store_shards
            overlay = self.database.overlay_object_ids()
        else:
            scatter = _dispatch.run_groups_in_processes
            overlay = set()
        model = plan.cost_model or plan.options.cost_model or CostModel()
        scatter_groups = []
        elapsed: Dict[str, float] = {}
        for group in plan.groups:
            group.survivors = len(survivors[group.chain_id])
            elapsed[group.chain_id] = 0.0
            method = group.method
            if plan.kind == "ktimes" and method != "mc":
                method = "ct"
            scatter_groups.append((group.chain_id, method))
        predicted = sum(
            model.predict_seconds(group.costs.get(group.method, 0.0))
            for group in plan.groups
        )
        shard_values, chain_seconds, stats = scatter(
            self.database,
            scatter_groups,
            plan.window,
            plan.kind,
            max_workers=plan.max_workers,
            use_prefilter=plan.use_prefilter,
            use_bfs=plan.use_bfs,
            n_samples=plan.options.n_samples,
            seed_base=plan.options.seed,
            context=context,
            policy=plan.options.supervisor,
            predicted_seconds=predicted,
            faults=plan.options.faults,
        )
        values.update(self._from_shards(shard_values, plan, query))
        for group in plan.groups:
            rows = survivors[group.chain_id]
            in_overlay = np.zeros(group.cohort.n_rows, dtype=bool)
            in_overlay[group.cohort.rows_of(overlay)] = True
            subset = rows[in_overlay[rows]]
            if not subset.size:
                continue
            started = _time.perf_counter()
            values.update(
                self._kernel(
                    group, subset, plan, query, seed_index, context
                )
            )
            elapsed[group.chain_id] += _time.perf_counter() - started
        for group in plan.groups:
            group.elapsed_seconds = (
                elapsed[group.chain_id]
                + chain_seconds.get(group.chain_id, 0.0)
            )
        plan.store_stats = dict(stats)

    def _is_store(self) -> bool:
        """The database shards its own storage: process dispatch
        scatters over its slabs instead of a spill."""
        return getattr(self.database, "supports_shard_scatter", False)

    def _objects(self, object_ids: List[str]) -> list:
        """The object records behind ``object_ids`` -- for the kernels
        that are per-object by nature (Section VI fusion, sampling)."""
        return [self.database.get(object_id) for object_id in object_ids]

    def _posteriors(self, cohort, chain, context, rows, last):
        """Lemma 1 posteriors from the database's shared table."""
        block = cohort.posteriors.collapse(
            rows, last, chain, self.database, context
        )
        if not np.diff(block.indptr).all():  # a racing write took it
            raise ValidationError("a re-sighted object changed mid-query")
        return block

    @staticmethod
    def _from_shards(
        shard_values: Dict[str, ResultValue], plan: QueryPlan, query
    ) -> Dict[str, ResultValue]:
        """Worker answers as result values: of a k-times count
        distribution the query may want only ``P(k visits)``."""
        if plan.kind != "ktimes" or query.k is None:
            return shard_values
        return {
            object_id: float(distribution[query.k])
            for object_id, distribution in shard_values.items()
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _degrade(
        context: ExecutionContext,
        tier: str,
        target: str,
        error: BaseException,
    ) -> None:
        """Record one execution-tier fall and warn the caller.

        The event lands on ``context.events`` (copied to
        ``plan.degradations`` by :meth:`execute`) so ``explain()``
        shows *why* a parallel plan answered serially.
        """
        message = (
            f"degraded {tier} -> {target} after "
            f"{type(error).__name__}: {error}"
        )
        context.record_event(message)
        warnings.warn(
            DegradedExecutionWarning(message), stacklevel=4
        )

    def _seed_index(
        self, plan: QueryPlan
    ) -> Optional[Dict[str, int]]:
        """Stable per-object seed offsets for seeded MC runs.

        A sharded store publishes explicit positions
        (``seed_positions()``) that survive re-sharding and re-opening;
        plain databases fall back to insertion order.  Either way the
        offset is a property of the *object*, not of the candidate
        list, so estimates match across layouts and filter decisions.
        """
        if plan.options.seed is None:
            return None
        positions = getattr(self.database, "seed_positions", None)
        if callable(positions):
            return positions()
        return {
            object_id: index
            for index, object_id in enumerate(self.database.object_ids)
        }

    def _seeds(
        self,
        object_ids: List[str],
        plan: QueryPlan,
        seed_index: Optional[Dict[str, int]],
    ) -> List[Optional[int]]:
        """Per-object MC seeds, stable under pruning.

        Offsets come from the object's position in the *database*, not
        in the surviving candidate list, so removing neighbours never
        shifts another object's stream.
        """
        base = plan.options.seed
        if base is None or seed_index is None:
            return [None] * len(object_ids)
        return [base + seed_index[object_id] for object_id in object_ids]
