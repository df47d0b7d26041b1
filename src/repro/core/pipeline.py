"""Staged filter--refinement execution of query plans.

A :class:`~repro.core.planner.QueryPlan` runs as three stages, each of
which can only *narrow* the candidate set (the EXPLAIN stage counts are
monotonically non-increasing by construction):

1. **prefilter** -- the per-chain STR R-tree of
   :class:`~repro.database.pruning.GeometricPrefilter` is probed with
   the query MBR expanded by the chain's exact displacement bound times
   the horizon.  Objects outside provably cannot intersect the window
   and are answered with the query's zero element immediately.
2. **bfs** -- the exact Section V-C reachability filter
   (:class:`~repro.database.pruning.ReachabilityPruner`): one reverse
   BFS labelling per ``(chain, region)``, resumed across queries, then
   one segmented minimum of the labels over the candidates' supports
   against their per-object horizons.
3. **evaluate** -- the surviving objects of each chain group run
   through the shared operator layer (:mod:`repro.exec.operators`)
   with the group's planned method, dispatched per the plan:
   ``serial`` (one chain group after the other, in the calling
   thread) or ``process`` (chain groups *and* within-chain object
   shards across the shared-memory worker pool of
   :mod:`repro.exec.dispatch`).

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

**Degradation.**  The evaluate stage is fault-tolerant: when the
supervised process tier exhausts its retries
(:class:`~repro.core.errors.ExecutionError` from
:mod:`repro.exec.dispatch`), or cannot serve this engine at all (no
scipy, or a non-scipy engine backend), the stage falls back to serial
-- the same exact kernels, so the query still returns the exact
answer.  The fall is recorded on ``plan.degradations`` (rendered by
``QueryPlan.describe()``) and warned as
:class:`~repro.core.errors.DegradedExecutionWarning`.
"""

from __future__ import annotations

import itertools
import time as _time
import warnings
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.batch import evaluate_rows
from repro.core.errors import (
    BackendError,
    DegradedExecutionWarning,
    ExecutionError,
    QueryError,
)
from repro.core.planner import CostModel, GroupPlan, QueryPlan, StageStats
from repro.core.query import PSTKTimesQuery
from repro.database.pruning import ReachabilityPruner
from repro.exec.operators import (
    BFS_PRUNE,
    BUILD_ABSORBING,
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
        backend: linear-algebra backend name.
        pruner: reachability filter to reuse across queries; a private
            one is created when omitted.  Its per-``(chain, region,
            horizon)`` BFS labellings amortise across a monitoring
            workload exactly like the plan cache's matrices.
    """

    def __init__(
        self,
        database,
        plan_cache=None,
        backend: Optional[str] = None,
        pruner: Optional[ReachabilityPruner] = None,
    ) -> None:
        self.database = database
        self.plan_cache = plan_cache
        self.backend = backend
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
                if group.cohort.is_multi[group.rows].any():
                    raise QueryError(
                        "PSTkQ with multiple observations is not "
                        "part of the paper's framework; query the "
                        "first observation only"
                    )

        context = ExecutionContext(
            self.plan_cache, self.backend,
            faults=plan.options.faults,
        )
        values: Dict[str, ResultValue] = {}
        survivors: Dict[str, np.ndarray] = {
            group.chain_id: group.rows for group in plan.groups
        }
        zeros = self._zero_factory(plan, query)
        plan.stages = []
        plan.degradations = []

        self._stage_prefilter(plan, survivors, values, zeros, context)
        self._stage_bfs(plan, survivors, values, zeros, context)
        self._stage_evaluate(plan, survivors, values, query, context)
        plan.operator_seconds = context.timings
        # recovery events (pool rebuilds, retries, tier falls) land on
        # the plan so EXPLAIN surfaces what execution had to survive
        plan.degradations.extend(context.events)
        return values

    @staticmethod
    def _narrow(
        group: GroupPlan,
        survivors: Dict[str, np.ndarray],
        keep: np.ndarray,
        values: Dict[str, ResultValue],
        zeros: Callable[[int], Iterable[ResultValue]],
    ) -> None:
        """Apply one filter's keep-mask to a group's candidate rows;
        the dropped ones are answered with the zero element."""
        rows = survivors[group.chain_id]
        dropped = rows[~keep]
        values.update(
            zip(group.cohort.ids(dropped), zeros(len(dropped)))
        )
        survivors[group.chain_id] = rows[keep]

    # ------------------------------------------------------------------
    # stage 1: R-tree geometric prefilter
    # ------------------------------------------------------------------
    def _stage_prefilter(
        self,
        plan: QueryPlan,
        survivors: Dict[str, np.ndarray],
        values: Dict[str, ResultValue],
        zeros: Callable[[int], Iterable[ResultValue]],
        context: ExecutionContext,
    ) -> None:
        entering = sum(len(rows) for rows in survivors.values())
        started = _time.perf_counter()
        nodes_visited = 0
        available = False
        if plan.use_prefilter:
            for group in plan.groups:
                rows = survivors[group.chain_id]
                if not rows.size:
                    continue
                prefilter = self.database.geometric_prefilter(
                    group.chain_id
                )
                if prefilter is None:
                    continue
                available = True
                cohort = group.cohort
                ids, visited = PREFILTER(
                    (
                        prefilter,
                        plan.window,
                        int(cohort.start_time[rows].min()),
                    ),
                    region=plan.window.region,
                    context=context,
                )
                nodes_visited += visited
                probed = np.zeros(cohort.n_rows, dtype=bool)
                probed[cohort.rows_of(ids)] = True
                self._narrow(
                    group, survivors, probed[rows], values, zeros
                )
        remaining = sum(len(rows) for rows in survivors.values())
        if not plan.use_prefilter:
            detail = "off"
        elif available:
            detail = f"{nodes_visited} R-tree nodes"
        else:
            detail = "no geometry"
        plan.stages.append(
            StageStats(
                "prefilter",
                entering,
                remaining,
                _time.perf_counter() - started,
                detail,
            )
        )

    # ------------------------------------------------------------------
    # stage 2: exact BFS reachability refinement
    # ------------------------------------------------------------------
    def _stage_bfs(
        self,
        plan: QueryPlan,
        survivors: Dict[str, np.ndarray],
        values: Dict[str, ResultValue],
        zeros: Callable[[int], Iterable[ResultValue]],
        context: ExecutionContext,
    ) -> None:
        entering = sum(len(rows) for rows in survivors.values())
        started = _time.perf_counter()
        if plan.use_bfs:
            region = plan.window.region
            for group in plan.groups:
                rows = survivors[group.chain_id]
                if not rows.size:
                    continue
                cohort = group.cohort
                keep = BFS_PRUNE(
                    (
                        partial(
                            self.pruner.levels, group.chain_id, region
                        ),
                        cohort.block(rows),
                        cohort.start_time[rows],
                        plan.window.t_end,
                    ),
                    region=region,
                    context=context,
                )
                self._narrow(group, survivors, keep, values, zeros)
        remaining = sum(len(rows) for rows in survivors.values())
        plan.stages.append(
            StageStats(
                "bfs",
                entering,
                remaining,
                _time.perf_counter() - started,
                "" if plan.use_bfs else "off",
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
        pool_tasks = 0
        if mode == "process":
            try:
                pool_tasks = self._evaluate_processes(
                    plan, survivors, values, query, context, seed_index
                )
            except ExecutionError as error:
                # the pool cannot serve this engine, or supervised
                # retries are exhausted (crash / timeout / lost
                # segment): same exact kernels, in the parent
                self._degrade(context, "process", "serial", error)
                mode = "serial"
            except BackendError as error:
                # native kernels failed in the parent-side pool prep:
                # pin every native group back to scipy and re-run the
                # whole stage in the parent
                self._degrade(context, "native", "scipy", error)
                for group in plan.groups:
                    if group.backend == "native":
                        group.backend = "scipy"
                mode = "serial"

        if mode == "serial":
            for group in plan.groups:
                rows = survivors[group.chain_id]
                group_started = _time.perf_counter()
                if rows.size:
                    kernel = partial(
                        self._kernel, group, rows, plan, query,
                        seed_index, context,
                    )
                    try:
                        values.update(kernel())
                    except BackendError as error:
                        if group.backend != "native":
                            raise
                        # compiled kernels unusable at runtime (import
                        # or compile failure): same exact kernels on
                        # the scipy products, answer unchanged
                        self._degrade(context, "native", "scipy", error)
                        group.backend = "scipy"
                        values.update(kernel())
                group.survivors = len(rows)
                group.elapsed_seconds = (
                    _time.perf_counter() - group_started
                )

        if mode == "process":
            if plan.store_stats:
                shards = plan.store_stats.get("shards", 0)
                detail_mode = (
                    f"store-scatter x{plan.max_workers} "
                    f"({shards} shard" + ("s" if shards != 1 else "")
                    + ")"
                )
            else:
                # a process plan whose surviving work was all
                # parent-side (k-times MC) must not claim pool
                # execution in EXPLAIN
                detail_mode = (
                    f"process x{plan.max_workers} "
                    f"({pool_tasks} pool task"
                    + ("s" if pool_tasks != 1 else "")
                    + ")"
                    if pool_tasks
                    else "process (parent-only)"
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
    ) -> Dict[str, ResultValue]:
        """The group's planned kernels over its surviving ``rows``."""
        cohort = group.cohort
        ids = cohort.ids(rows)
        answers = evaluate_rows(
            self.database.chain(group.chain_id),
            plan.window,
            plan.kind,
            group.method,
            rows,
            block=cohort.block,
            start_time=cohort.start_time,
            is_multi=cohort.is_multi,
            observation_sets=lambda subset: [
                obj.observations
                for obj in self._objects(cohort.ids(subset))
            ],
            n_samples=plan.options.n_samples,
            seeds=(
                self._seeds(ids, plan, seed_index)
                if group.method == "mc"
                else None
            ),
            backend=group.backend or self.backend,
            plan_cache=self.plan_cache,
            context=context,
        )
        if plan.kind != "ktimes":
            return dict(zip(ids, answers.tolist()))
        if query.k is None:
            # rows of the kernel's own result block: no copy needed
            return dict(zip(ids, answers))
        return dict(zip(ids, answers[:, query.k].tolist()))

    def _evaluate_processes(
        self,
        plan: QueryPlan,
        survivors: Dict[str, np.ndarray],
        values: Dict[str, ResultValue],
        query,
        context: ExecutionContext,
        seed_index: Optional[Dict[str, int]],
    ) -> int:
        """Process-pool evaluation; the number of group tasks actually
        shipped to the pool.  Raises :class:`ExecutionError` when the
        pool cannot serve this engine
        (:func:`~repro.exec.dispatch.process_dispatch_available`).

        A database that shards its own storage
        (``supports_shard_scatter``) takes the store-scatter path:
        persistent workers attach the store's slabs zero-copy and run
        the whole prefilter -> BFS -> kernel pipeline shard-local
        (:meth:`_evaluate_store_scatter`).  Otherwise single-
        observation qb/ob objects and whole k-times chain groups ship
        to the shared-memory workers as their cohort block (within-
        chain shards for the stacked OB and CT sweeps),
        multi-observation groups ship as stacked observation rows, and
        exists-MC groups ship with their published CDF tables and
        per-object seeds; only k-times-MC -- per-object resampling
        with no batched kernel -- stays in the parent.  Parity is
        unconditional either way.  Each group's ``elapsed_seconds``
        becomes the summed worker-side shard seconds plus any
        parent-side kernel time.
        """
        from repro.exec import dispatch as _dispatch

        if not _dispatch.process_dispatch_available(self.backend):
            raise ExecutionError(
                f"process dispatch publishes scipy CSR matrices; "
                f"unavailable without scipy or for engine backend "
                f"{self.backend!r}"
            )

        if getattr(self.database, "supports_shard_scatter", False):
            scattered = self._evaluate_store_scatter(
                plan, survivors, values, query, context, seed_index
            )
            if scattered is not None:
                return scattered

        # the model the *planner* resolved (per-query override or
        # engine default) -- execution must shard by the same knobs
        model = plan.cost_model or plan.options.cost_model or CostModel()
        tasks = []
        task_groups: List[GroupPlan] = []
        elapsed: Dict[str, float] = {}
        for group in plan.groups:
            rows = survivors[group.chain_id]
            group.survivors = len(rows)
            elapsed[group.chain_id] = 0.0
            if not rows.size:
                continue
            chain = self.database.chain(group.chain_id)
            cohort = group.cohort
            group_backend = group.backend or self.backend

            def ship(method: str, members, **extras) -> None:
                tasks.append(_dispatch.GroupTask(
                    chain, method, members, group_backend, **extras
                ))
                task_groups.append(group)

            def members(subset: np.ndarray):
                return (
                    cohort.ids(subset),
                    cohort.start_time[subset],
                    cohort.block(subset),
                )

            if group.method == "mc":
                if plan.kind == "ktimes":
                    # per-object resampling, no batched kernel to
                    # shard: the parent's sampler serves the group
                    started = _time.perf_counter()
                    values.update(
                        self._kernel(
                            group, rows, plan, query, seed_index,
                            context,
                        )
                    )
                    elapsed[group.chain_id] += (
                        _time.perf_counter() - started
                    )
                    continue
                ids = cohort.ids(rows)
                ship(
                    "mc",
                    self._objects(ids),
                    n_samples=plan.options.n_samples,
                    seeds=self._seeds(ids, plan, seed_index),
                )
            elif plan.kind == "ktimes":
                # the stacked CT sweep needs only the chain CSR (the
                # count dimension lives in the stack, not a matrix)
                ship("ct", members(rows))
            else:
                multi = cohort.is_multi[rows]
                if not multi.all():
                    ship(
                        group.method,
                        members(rows[~multi]),
                        matrices=BUILD_ABSORBING(
                            None, chain, plan.window.region,
                            group_backend, context=context,
                            plan_cache=self.plan_cache,
                        ),
                    )
                if multi.any():
                    # Section VI groups ship as stacked observation
                    # rows and run the doubled-space sweep worker-side
                    ship(
                        "multi",
                        self._objects(cohort.ids(rows[multi])),
                    )
        if tasks:
            # price the supervisor deadline from the same cost model
            # the planner chose methods with: the model's estimate for
            # every pool-bound group, converted to seconds
            predicted = sum(
                model.predict_seconds(
                    group.costs.get(group.method, 0.0)
                )
                for group in task_groups
            )
            shard_values, group_seconds = (
                _dispatch.run_groups_in_processes(
                    tasks,
                    plan.window,
                    max_workers=plan.max_workers,
                    shard_min_objects=model.shard_min_objects,
                    context=context,
                    policy=plan.options.supervisor,
                    predicted_seconds=predicted,
                    faults=plan.options.faults,
                )
            )
            values.update(self._from_shards(shard_values, plan, query))
            for group, seconds in zip(task_groups, group_seconds):
                elapsed[group.chain_id] += seconds
        for group in plan.groups:
            group.elapsed_seconds = elapsed[group.chain_id]
        return len(tasks)

    def _evaluate_store_scatter(
        self,
        plan: QueryPlan,
        survivors: Dict[str, np.ndarray],
        values: Dict[str, ResultValue],
        query,
        context: ExecutionContext,
        seed_index: Optional[Dict[str, int]],
    ) -> Optional[int]:
        """Scatter the query over a sharded store's slab shards.

        Persistent workers memory-map the store's columnar slabs
        (attached once per process, zero-copy across queries) and run
        prefilter -> BFS -> kernel shard-local over every snapshot
        object; journaled overlay objects -- added or re-observed
        since the snapshot -- run in the parent with the exact same
        kernels.  Snapshot objects the parent stages already zeroed
        are re-evaluated shard-side; the filters are safe, so the
        worker's exact answer equals the zero element and the
        overwrite is a no-op.  Returns the shard count (the stage's
        pool-task count) or ``None`` to fall through to the classic
        publish path when the store holds no shards.
        """
        from repro.exec import dispatch as _dispatch

        store = self.database
        model = plan.cost_model or plan.options.cost_model or CostModel()
        overlay = store.overlay_object_ids()
        scatter_groups = []
        elapsed: Dict[str, float] = {}
        for group in plan.groups:
            group.survivors = len(survivors[group.chain_id])
            elapsed[group.chain_id] = 0.0
            method = group.method
            if plan.kind == "ktimes" and method != "mc":
                method = "ct"
            scatter_groups.append(
                (group.chain_id, method, group.backend or self.backend)
            )
        predicted = sum(
            model.predict_seconds(group.costs.get(group.method, 0.0))
            for group in plan.groups
        )
        shard_values, chain_seconds, stats = _dispatch.run_store_shards(
            store,
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
        if not stats["shards"]:
            return None  # empty store: all state lives in the overlay
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
        return int(stats["shards"])

    def _objects(self, object_ids: List[str]) -> list:
        """The object records behind ``object_ids`` -- for the kernels
        that are per-object by nature (Section VI fusion, sampling)."""
        return [self.database.get(object_id) for object_id in object_ids]

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

    @staticmethod
    def _zero_factory(
        plan: QueryPlan, query
    ) -> Callable[[int], Iterable[ResultValue]]:
        """The exact answers of objects no filter stage can keep, as
        a function ``count -> that many zero elements``.

        A pruned object provably never intersects the window, so its
        exists probability is 0, its for-all answer follows from the
        engine's ``1 - p`` complement step, and its visit-count
        distribution is the point mass at zero visits.
        """
        if plan.kind == "ktimes" and query.k is None:
            def point_masses(count: int) -> np.ndarray:
                # one row per object: answers must not alias
                block = np.zeros(
                    (count, plan.window.duration + 1), dtype=float
                )
                block[:, 0] = 1.0
                return block

            return point_masses
        hit = 1.0 if plan.kind == "ktimes" and query.k == 0 else 0.0
        return partial(itertools.repeat, hit)

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
