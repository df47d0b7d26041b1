"""Cost-based query planning.

The paper's evaluation (Section VIII) shows that query-based and
object-based processing trade off *data-dependently*: QB amortises one
backward pass over arbitrarily many objects but pays a per-object dot
product over the full state vector, OB's stacked forward sweep is
cheaper for small groups, Monte-Carlo only competes when approximation
is acceptable, and Section V-C pruning pays off exactly when the window
is selective.  Up to now the *caller* had to make those choices; this
module makes the engine plan its own execution:

* :class:`CostModel` -- a small set of interpretable coefficients that
  turn group features (object counts, chain size and sparsity, query
  horizon, plan-cache hits) into estimated evaluation costs;
* :class:`QueryPlanner` -- builds a :class:`QueryPlan` per query,
  choosing a processing method per *chain group* and deciding whether
  to run the geometric pre-filter, the exact BFS reachability filter,
  and the process-pool dispatch;
* :class:`PlanOptions` -- per-query overrides (force a method, force a
  filter on/off, force the execution mode, cap the worker pool);
* :class:`QueryPlan` / :class:`GroupPlan` / :class:`StageStats` -- the
  EXPLAIN-style artefact the pipeline fills with per-stage candidate
  counts and timings, returned on every
  :class:`~repro.core.engine.QueryResult`.

Every choice the planner makes is between *exact* strategies (unless
``allow_approximate`` opts into MC), so planned execution is
bit-compatible with any forced method -- the property the test suite
asserts to 1e-12.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.errors import QueryError, ValidationError
from repro.core.query import (
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    PSTQuery,
    SpatioTemporalWindow,
)
from repro.database.cohort import Cohort

__all__ = [
    "CostModel",
    "PlanOptions",
    "SupervisorPolicy",
    "GroupPlan",
    "StageStats",
    "QueryPlan",
    "QueryPlanner",
]

_EXACT_METHODS = ("qb", "ob")
_ALL_METHODS = ("qb", "ob", "mc")
_DISPATCH_MODES = ("serial", "process")

#: CostModel fields the calibration harness fits (kernel coefficients,
#: as opposed to the stage-decision thresholds, which stay structural).
CALIBRATED_COEFFICIENTS = (
    "sweep_unit",
    "dense_sweep_unit",
    "dot_unit",
    "build_unit",
    "mc_step_unit",
    "ktimes_unit",
    "object_overhead",
)


def _require_int(name: str, value, minimum: int) -> None:
    """Eager type+range check; names the offending value.

    Values like ``max_workers=2.5`` or ``max_workers="4"`` used to
    slip through planning and explode deep inside pool acquisition
    with a bare ``TypeError``; every integral knob is now rejected at
    option-construction time instead.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{name} must be an int, got {value!r} "
            f"({type(value).__name__})"
        )
    if value < minimum:
        raise ValidationError(
            f"{name} must be >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the supervised process dispatch of
    :mod:`repro.exec.dispatch`.

    Every dispatched task runs under a deadline priced from the cost
    model (``predicted seconds x timeout_multiplier``, floored at
    ``timeout_floor``, or the explicit ``timeout_seconds``).  A task
    that crashes its worker, loses a shared-memory segment, or times
    out is retried on a rebuilt pool with exponential backoff up to
    ``max_retries`` times; past that the dispatch call raises and the
    pipeline degrades process -> serial (recorded on
    ``plan.degradations`` and warned as
    :class:`~repro.core.errors.DegradedExecutionWarning`).

    Attributes:
        timeout_seconds: explicit per-attempt deadline; ``None``
            prices it from the cost model.
        timeout_multiplier: safety factor over the predicted seconds.
        timeout_floor: smallest deadline ever enforced (cost
            predictions for tiny tasks are noisy; a too-tight deadline
            would turn scheduler jitter into spurious pool teardowns).
        max_retries: failed attempts retried before the dispatch call
            gives up (``2`` means up to three attempts in total).
        backoff_seconds: sleep before the first retry; doubles each
            further retry.
        verify_segments: re-checksum shared-memory payloads on worker
            attach, so a corrupted segment fails loudly as
            :class:`~repro.core.errors.SegmentLostError` instead of
            silently producing wrong numbers (off by default: the
            publication checksum is always recorded, verification
            costs one pass over the payload per worker rehydration).
    """

    timeout_seconds: Optional[float] = None
    timeout_multiplier: float = 8.0
    timeout_floor: float = 30.0
    max_retries: int = 2
    backoff_seconds: float = 0.05
    verify_segments: bool = False

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and not (
            isinstance(self.timeout_seconds, (int, float))
            and not isinstance(self.timeout_seconds, bool)
            and self.timeout_seconds > 0
        ):
            raise ValidationError(
                f"timeout_seconds must be a positive number or None, "
                f"got {self.timeout_seconds!r}"
            )
        for name in ("timeout_multiplier", "timeout_floor", "backoff_seconds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ) or value < 0:
                raise ValidationError(
                    f"{name} must be a non-negative number, got "
                    f"{value!r}"
                )
        _require_int("max_retries", self.max_retries, 0)

    def deadline(self, predicted_seconds: float) -> float:
        """The per-attempt deadline for a task of this predicted size."""
        if self.timeout_seconds is not None:
            return float(self.timeout_seconds)
        return max(
            self.timeout_floor,
            self.timeout_multiplier * predicted_seconds,
        )


@dataclass(frozen=True)
class PlanOptions:
    """Per-query planning overrides.

    Every field defaults to "let the planner decide"; forcing a value
    turns the corresponding decision off.

    Attributes:
        method: force ``"qb"``, ``"ob"`` or ``"mc"`` for every chain
            group instead of the cost-based choice.
        prefilter: force the R-tree geometric pre-filter on or off.
        bfs_prune: force the exact BFS reachability filter on or off.
        dispatch: force the execution mode -- ``"serial"`` (chain
            groups one after the other in the calling thread) or
            ``"process"`` (chain groups *and* within-chain object
            shards across a shared-memory process pool, see
            :mod:`repro.exec.dispatch`).  ``None`` lets the cost
            model choose.
        max_workers: worker-pool size cap for process dispatch.
        allow_approximate: let the cost model pick Monte-Carlo when it
            is the cheapest strategy (off by default: planned execution
            then stays exact and method-independent).
        n_samples: Monte-Carlo sample count.
        seed: Monte-Carlo base seed; each object samples from its own
            stream derived from this, so estimates do not depend on
            which other objects were pruned.
        cost_model: override the engine's cost model for this query.
        auto_stream: let :meth:`~repro.core.engine.QueryEngine.evaluate`
            detect a re-issued window whose times slid by the same
            constant stride on two consecutive re-issues and
            transparently delegate to a standing query
            (:meth:`~repro.core.engine.QueryEngine.watch` /
            :meth:`~repro.core.streaming.StandingQuery.tick`); the
            delegated plan is flagged ``auto_streamed`` in
            ``explain()`` output.
        supervisor: fault-tolerance knobs of the process dispatch
            (per-task deadlines, retries, degradation); ``None`` uses
            :class:`SupervisorPolicy`'s defaults.
        backend: force a linear-algebra backend (``"scipy"``,
            ``"native"``, ``"pure"``) for every chain group instead of
            the cost-based per-group choice
            (:meth:`CostModel.best_backend`).  Like ``dispatch`` this
            changes *how*, never *what*: every backend agrees to
            1e-12, so it stays out of the service tier's fusion key.
        faults: a :class:`~repro.exec.faults.FaultInjector` threaded
            through execution for deterministic chaos testing
            (``None`` -- the production value -- costs one attribute
            check per hook site).
    """

    method: Optional[str] = None
    prefilter: Optional[bool] = None
    bfs_prune: Optional[bool] = None
    dispatch: Optional[str] = None
    max_workers: Optional[int] = None
    allow_approximate: bool = False
    n_samples: int = 100
    seed: Optional[int] = None
    cost_model: Optional["CostModel"] = None
    auto_stream: bool = False
    supervisor: Optional[SupervisorPolicy] = None
    backend: Optional[str] = None
    faults: Optional[object] = None

    def __post_init__(self) -> None:
        if self.method is not None and self.method not in _ALL_METHODS:
            raise QueryError(
                f"unknown method {self.method!r}; expected one of "
                f"{_ALL_METHODS}"
            )
        if self.backend is not None:
            from repro.linalg.ops import available_backends

            if self.backend not in available_backends():
                raise ValidationError(
                    f"unknown backend {self.backend!r}; expected one "
                    f"of {available_backends()}"
                )
        _require_int("n_samples", self.n_samples, 1)
        if self.max_workers is not None:
            _require_int("max_workers", self.max_workers, 1)
        if self.supervisor is not None and not isinstance(
            self.supervisor, SupervisorPolicy
        ):
            raise ValidationError(
                f"supervisor must be a SupervisorPolicy, got "
                f"{self.supervisor!r}"
            )
        if (
            self.dispatch is not None
            and self.dispatch not in _DISPATCH_MODES
        ):
            raise ValidationError(
                f"unknown dispatch {self.dispatch!r}; expected one "
                f"of {_DISPATCH_MODES}"
            )


@dataclass(frozen=True)
class CostModel:
    """Tunable coefficients of the planner's cost estimates.

    Costs are in abstract "operation" units; only *ratios* matter for
    the argmin.  The defaults reflect the batched kernels of
    :mod:`repro.core.batch`: a sparse backward step touches every chain
    non-zero once, the stacked OB sweep touches every non-zero once
    *per object column*, a QB answer costs one dense dot over the
    augmented state vector, and Monte-Carlo pays per sampled path step.

    Attributes:
        sweep_unit: cost per chain non-zero per timestep of one sparse
            vector pass (QB backward pass).
        dense_sweep_unit: cost per non-zero per timestep *per object*
            of the stacked OB forward sweep.
        dot_unit: cost per state per object of the final QB dots.
        build_unit: cost per non-zero of constructing augmented
            matrices (skipped on a plan-cache hit).
        mc_step_unit: cost per sample per timestep per object of the
            Monte-Carlo sampler.
        ktimes_unit: cost per chain non-zero per timestep per count
            column of the shared Section VII suffix-count recursion
            (:data:`~repro.exec.operators.KTIMES_CORE`); the pass is
            amortised over every object of the group, each of which
            then pays one dense ``(|S| x (|T_q|+1))`` dot priced by
            ``dot_unit``.
        object_overhead: fixed per-object bookkeeping cost (vector
            staging, Python dispatch).
        prefilter_min_objects: smallest database slice worth probing
            the R-tree for.
        prefilter_max_region_fraction: geometric pre-filtering is
            skipped when the query region covers more than this
            fraction of the state space (an almost-everywhere region
            prunes nothing and its MBR costs ``O(|region|)``).
        bfs_min_objects: smallest group worth the reverse-BFS labelling.
        max_workers_cap: upper bound on auto-sized worker pools.
        process_min_cost: smallest estimated evaluation cost (in the
            model's units) worth the process-pool dispatch of
            :mod:`repro.exec.dispatch` -- below it, fork/IPC overhead
            dominates any GIL win.
        shard_min_objects: smallest within-chain object shard handed to
            one process-pool worker.
        native_min_objects: smallest stacked cohort the structural
            (uncalibrated) heuristic promotes to the ``native``
            backend -- below it the sweeps are too small for the
            compiled kernels' setup (JIT dispatch or densify) to pay.
        native_min_density: smallest chain density
            (``nnz / n_states^2``) the structural heuristic promotes;
            very sparse chains are exactly where scipy's CSR products
            already win.
        backend_coefficients: per-backend calibrated coefficient sets
            (``{"scipy": {...}, "native": {...}}``) fitted by
            ``repro-bench calibrate``; when at least two backends are
            present, :meth:`best_backend` prices each group under each
            set and picks the measured argmin instead of the
            structural heuristic.
        calibrated_from: provenance note (calibration file path) when
            the coefficients came from :meth:`from_calibration`.
    """

    sweep_unit: float = 1.0
    dense_sweep_unit: float = 1.0
    dot_unit: float = 1.0
    build_unit: float = 4.0
    mc_step_unit: float = 8.0
    ktimes_unit: float = 1.0
    object_overhead: float = 200.0
    prefilter_min_objects: int = 8
    prefilter_max_region_fraction: float = 0.5
    bfs_min_objects: int = 4
    max_workers_cap: int = 8
    process_min_cost: float = 5e8
    shard_min_objects: int = 128
    native_min_objects: int = 16
    native_min_density: float = 0.08
    backend_coefficients: Optional[Dict[str, Dict[str, float]]] = None
    calibrated_from: Optional[str] = None

    @staticmethod
    def calibration_path() -> str:
        """Where calibrated coefficients live on this machine.

        ``$REPRO_COSTMODEL_PATH`` when set, else
        ``~/.repro/costmodel.json`` (written by ``repro-bench
        calibrate``, see :mod:`repro.exec.calibrate`).
        """
        env = os.environ.get("REPRO_COSTMODEL_PATH")
        if env:
            return env
        return os.path.join(
            os.path.expanduser("~"), ".repro", "costmodel.json"
        )

    @classmethod
    def from_calibration(
        cls, path: Optional[str] = None, **overrides
    ) -> "CostModel":
        """A cost model with coefficients fitted on this hardware.

        Loads the JSON written by ``repro-bench calibrate``
        (:func:`repro.exec.calibrate.calibrate`): the kernel
        coefficients come from the least-squares fit, the structural
        thresholds keep their defaults unless overridden.

        Args:
            path: calibration file (default:
                :meth:`calibration_path`).
            **overrides: explicit field values that win over both.

        Raises:
            QueryError: when the file is missing or malformed (run
                ``repro-bench calibrate`` first).
        """
        import json

        path = path or cls.calibration_path()
        try:
            with open(path) as handle:
                document = json.load(handle)
            coefficients = document["coefficients"]
            # a coefficient a pre-existing calibration file does not
            # carry (e.g. ktimes_unit before its kernel was measured)
            # must not keep its structural default: fitted values are
            # seconds-per-unit-load, and mixing scales would inflate
            # that kernel's estimates by orders of magnitude.  Borrow
            # the fitted sparse-sweep scale instead -- same kind of
            # per-nnz-per-timestep load, so the argmin and the
            # process-dispatch threshold stay in one unit system.
            def _coefficient_set(source) -> Dict[str, float]:
                values = {
                    name: float(source[name])
                    for name in CALIBRATED_COEFFICIENTS
                    if name in source
                }
                if "ktimes_unit" not in values and "sweep_unit" in values:
                    values["ktimes_unit"] = values["sweep_unit"]
                return values

            fields = dict(_coefficient_set(coefficients))
            # per-backend coefficient sets (newer calibration files);
            # a single-backend file from before backend selection
            # loads as a scipy-only set, so best_backend() falls back
            # to the structural heuristic exactly as documented
            backends_doc = document.get("backends")
            if backends_doc:
                fields["backend_coefficients"] = {
                    str(name): _coefficient_set(
                        entry.get("coefficients", entry)
                    )
                    for name, entry in backends_doc.items()
                }
            else:
                fields["backend_coefficients"] = {"scipy": dict(fields)}
            # calibrated coefficients are seconds-per-unit-load, so
            # the process-dispatch threshold switches to the file's
            # wall-time bound (seconds past which a pool pays off)
            for name, value in document.get(
                "thresholds", {}
            ).items():
                if name in ("process_min_cost",):
                    fields[name] = float(value)
        except FileNotFoundError:
            raise QueryError(
                f"no calibration at {path}; run `repro-bench "
                f"calibrate` to measure this machine"
            ) from None
        except (
            KeyError, TypeError, ValueError, OSError, AttributeError
        ) as error:
            raise QueryError(
                f"unreadable calibration file {path}: {error}"
            ) from None
        fields["calibrated_from"] = path
        fields.update(overrides)
        return cls(**fields)

    #: seconds one default (uncalibrated) cost unit roughly buys --
    #: the default coefficients count "operations", and ~2 ns per
    #: operation is the right order of magnitude for the sparse
    #: kernels on any recent CPU.  Only used to price supervision
    #: deadlines, which carry a generous multiplier and floor anyway.
    DEFAULT_UNIT_SECONDS = 2e-9

    def predict_seconds(self, cost: float) -> float:
        """Estimated wall seconds of work costing ``cost`` model units.

        Calibrated coefficients (:meth:`from_calibration`) are
        seconds-per-unit-load, so the cost *is* seconds; the
        structural defaults are abstract operation counts and are
        converted at :data:`DEFAULT_UNIT_SECONDS`.  The supervised
        dispatch layer prices per-task deadlines from this.
        """
        if self.calibrated_from is not None:
            return float(cost)
        return float(cost) * self.DEFAULT_UNIT_SECONDS

    def qb_cost(self, features: "GroupFeatures") -> float:
        """One shared backward pass (unless cached) + one dot/object."""
        build = 0.0 if features.absorbing_cached else (
            self.build_unit * features.nnz
        )
        sweep = (
            (1.0 - features.backward_cached_fraction)
            * features.horizon * features.nnz * self.sweep_unit
        )
        answers = features.n_single * (
            features.n_states * self.dot_unit + self.object_overhead
        )
        return build + sweep + answers

    def ob_cost(self, features: "GroupFeatures") -> float:
        """One stacked forward sweep dragging every object column."""
        build = 0.0 if features.absorbing_cached else (
            self.build_unit * features.nnz
        )
        sweep = (
            features.horizon * features.nnz * self.dense_sweep_unit
            * max(1, features.n_single)
        )
        return build + sweep + features.n_single * self.object_overhead

    def mc_cost(self, features: "GroupFeatures", n_samples: int) -> float:
        """Path sampling: every object pays per sample per step."""
        return features.n_single * (
            n_samples * max(1, features.horizon) * self.mc_step_unit
            + self.object_overhead
        )

    def ktimes_cost(self, features: "GroupFeatures") -> float:
        """One shared suffix-count pass + one count-block dot/object."""
        rows = features.duration + 1
        core = (
            features.horizon * features.nnz * self.ktimes_unit * rows
        )
        answers = features.n_single * (
            features.n_states * rows * self.dot_unit
            + self.object_overhead
        )
        return core + answers

    def multi_cost(self, features: "GroupFeatures") -> float:
        """Section VI doubled-space sweep (informational: no choice)."""
        build = 0.0 if features.doubled_cached else (
            2.0 * self.build_unit * features.nnz
        )
        return build + (
            features.horizon * 2.0 * features.nnz
            * self.dense_sweep_unit * max(1, features.n_multi)
        )

    # ------------------------------------------------------------------
    # backend selection
    # ------------------------------------------------------------------
    def method_cost(
        self,
        features: "GroupFeatures",
        method: str,
        n_samples: int = 100,
    ) -> float:
        """The group's estimated cost under ``method``."""
        if method == "qb":
            return self.qb_cost(features)
        if method == "ob":
            return self.ob_cost(features)
        if method == "ct":
            return self.ktimes_cost(features)
        if method == "mc":
            return self.mc_cost(features, n_samples)
        raise QueryError(f"unknown method {method!r}")

    def for_backend(self, name: str) -> "CostModel":
        """This model with ``name``'s calibrated coefficients swapped in.

        Identity when no per-backend set was calibrated for ``name`` --
        the shared coefficients then price every backend the same and
        the structural heuristic decides.
        """
        sets = self.backend_coefficients or {}
        if name not in sets:
            return self
        return replace(self, **sets[name])

    def best_backend(
        self,
        features: "GroupFeatures",
        method: str,
        n_samples: int = 100,
    ) -> str:
        """The backend this group's kernels should execute through.

        With calibrated per-backend coefficient sets (two or more
        backends measured) the choice is the measured argmin of the
        group's method cost, scipy winning ties.  Otherwise a
        structural heuristic promotes dense stacked cohorts (the
        shapes where the compiled/dense kernels were measured to win)
        to ``native`` and keeps everything else on scipy.
        """
        from repro.linalg.ops import available_backends

        installed = available_backends()
        if "native" not in installed or "scipy" not in installed:
            return "scipy" if "scipy" in installed else "pure"
        sets = self.backend_coefficients or {}
        comparable = [
            name for name in sorted(sets) if name in installed
        ]
        if len(comparable) >= 2:
            def price(name: str) -> float:
                return self.for_backend(name).method_cost(
                    features, method, n_samples
                )

            scipy_cost = price("scipy") if "scipy" in comparable else None
            best = min(comparable, key=price)
            if (
                scipy_cost is not None
                and price(best) >= scipy_cost * 0.999
            ):
                return "scipy"  # ties (and noise-level wins) stay put
            return best
        # structural heuristic: the compiled kernels win on dense
        # chains sweeping many stacked columns; tiny or very sparse
        # groups stay on scipy (measured crossover, see
        # benchmarks/benchmark_backends.py)
        from repro.linalg import native as native_kernels

        density = features.nnz / max(1, features.n_states) ** 2
        dense_elements = features.n_states ** 2
        if (
            method in ("ob", "ct")
            and features.n_single >= self.native_min_objects
            and density >= self.native_min_density
            and dense_elements <= native_kernels.dense_cap()
        ):
            return "native"
        return "scipy"


@dataclass(frozen=True)
class GroupFeatures:
    """The per-chain-group quantities the cost model consumes.

    Attributes:
        n_single: single-observation objects in the group.
        n_multi: multi-observation (Section VI) objects in the group.
        n_states: augmented state-vector length (``|S| + 1``).
        nnz: chain transition non-zeros (sparsity).
        horizon: ``t_end`` minus the group's earliest observation time.
        duration: ``|T_q]`` timestamps in the window.
        absorbing_cached: Section V-A matrices already in the plan cache.
        doubled_cached: Section VI matrices already in the plan cache.
        backward_cached_fraction: fraction of the group's distinct start
            times whose Section V-B backward vector is already cached.
    """

    n_single: int
    n_multi: int
    n_states: int
    nnz: int
    horizon: int
    duration: int
    absorbing_cached: bool = False
    doubled_cached: bool = False
    backward_cached_fraction: float = 0.0


@dataclass
class GroupPlan:
    """Planned execution of one chain group.

    Attributes:
        chain_id: the group's chain.
        method: chosen processing method for single-observation objects
            (``"qb"``/``"ob"``/``"mc"``; k-times queries use the exact
            ``C(t)`` algorithm and record ``"ct"``).
        cohort: the chain group's columnar
            :class:`~repro.database.cohort.Cohort`.
        rows: the cohort rows of the group's objects as planned
            (filter stages narrow this array at execution time without
            mutating the plan).
        features: the cost-model inputs.
        costs: estimated cost per candidate method.
        backend: linear-algebra backend the group's kernels execute
            through (:meth:`CostModel.best_backend`, or the forced
            :attr:`PlanOptions.backend`).  The pipeline rewrites it to
            ``"scipy"`` if the native kernels fail at runtime, with
            the fall recorded on ``plan.degradations``.
        predicted_seconds: the cost model's wall-time prediction for
            the chosen method; ``describe()`` renders it next to the
            measured ``elapsed_seconds``.
        survivors: objects left after the filter stages (execution).
        elapsed_seconds: group kernel time (execution); under process
            dispatch, the summed worker-side shard seconds plus any
            parent-side multi/MC kernel time.
        shard_count: for a sharded store, the number of non-empty
            store shards holding this chain's objects -- the
            cardinality the dispatch decision scatters over (``None``
            for in-RAM databases).
    """

    chain_id: str
    method: str
    cohort: Optional[Cohort] = field(
        repr=False, compare=False, default=None
    )
    rows: np.ndarray = field(
        repr=False,
        compare=False,
        default_factory=lambda: np.zeros(0, dtype=np.int64),
    )
    features: Optional[GroupFeatures] = None
    costs: Dict[str, float] = field(default_factory=dict)
    backend: Optional[str] = None
    predicted_seconds: Optional[float] = None
    survivors: Optional[int] = None
    elapsed_seconds: Optional[float] = None
    shard_count: Optional[int] = None

    @property
    def object_ids(self) -> List[str]:
        """Ids of the group's objects."""
        return self.cohort.ids(self.rows) if len(self.rows) else []


@dataclass
class StageStats:
    """One executed pipeline stage, EXPLAIN-style.

    Attributes:
        name: ``"prefilter"``, ``"bfs"`` or ``"evaluate"`` for batch
            plans; standing-query ticks
            (:mod:`repro.core.streaming`) report a ``"streaming"``
            stage instead, whose detail carries the tick number, the
            per-tick candidate delta, and the sparse products spent.
        candidates_in: objects entering the stage.
        candidates_out: objects surviving the stage.
        elapsed_seconds: wall-clock stage time.
        detail: free-form annotation (e.g. R-tree nodes visited).
    """

    name: str
    candidates_in: int
    candidates_out: int
    elapsed_seconds: float = 0.0
    detail: str = ""


@dataclass
class QueryPlan:
    """A planned (and, after execution, measured) query evaluation.

    Attributes:
        kind: the *executed* evaluation kind -- ``"exists"`` or
            ``"ktimes"`` (for-all queries plan the complement
            exists-evaluation, flagged by ``complemented``).
        semantics: the *originating* query semantics -- ``"exists"``,
            ``"forall"`` or ``"ktimes"``.  A for-all query executes as
            its complement exists-evaluation, so ``kind`` alone would
            misattribute what the user asked for in ``explain()``
            output and ``operator_seconds`` roll-ups; this field
            carries the truth (defaults to ``kind`` when unset).
        window: the window the pipeline actually evaluates.
        requested_method: what the caller asked for (``"auto"`` or a
            forced method).
        complemented: the window is the for-all complement reduction.
        use_prefilter: run the R-tree geometric filter stage.
        use_bfs: run the exact BFS reachability filter stage.
        max_workers: pool size under ``process`` dispatch (1 when
            ``serial``).
        options: the resolved :class:`PlanOptions`.
        groups: one :class:`GroupPlan` per chain group.
        stages: filled by the pipeline with per-stage candidate counts
            and timings.
        dispatch: chosen execution mode -- ``"serial"`` or
            ``"process"`` (shared-memory process pool,
            :mod:`repro.exec.dispatch`).
        operator_seconds: per-operator ``(calls, seconds)`` timings
            collected by the execution layer's hooks
            (:class:`~repro.exec.operators.ExecutionContext`),
            including timings merged back from worker processes.
        cost_model: the model the planner resolved (per-query
            override or engine default) -- the pipeline reads its
            execution knobs (e.g. ``shard_min_objects``) from here so
            planning and execution never disagree.
        auto_streamed: this plan was executed by a standing query a
            :attr:`PlanOptions.auto_stream` evaluation transparently
            delegated to.
        degradations: recovery events of this execution -- supervisor
            retries ("pool rebuilt after worker crash ..."), and tier
            falls ("degraded process -> serial ...").  Empty on a clean
            run;
            rendered by :meth:`describe` so ``explain()`` shows how
            the exact answer was actually obtained.
        fusion: cross-request fusion events recorded by the
            :mod:`repro.service` request broker when this evaluation
            answered several concurrent requests at once ("fused 5
            requests from 2 tenants ...", plus the admission prices
            of the request the plan was returned to).  Empty for
            plain library evaluations; rendered by :meth:`describe`
            so ``explain()`` shows what was merged and why.
        store_stats: aggregate statistics of a store-scatter
            execution (shard count, shard-local filter prunes, fresh
            slab attaches, shard -> parent fallbacks); ``None`` unless
            the query ran against a sharded store through the
            zero-copy shard workers.
    """

    kind: str
    window: SpatioTemporalWindow
    requested_method: str
    complemented: bool
    use_prefilter: bool
    use_bfs: bool
    max_workers: int
    options: PlanOptions
    groups: List[GroupPlan] = field(default_factory=list)
    stages: List[StageStats] = field(default_factory=list)
    dispatch: str = "serial"
    operator_seconds: Dict[str, object] = field(default_factory=dict)
    cost_model: Optional[CostModel] = field(
        default=None, repr=False
    )
    semantics: Optional[str] = None
    auto_streamed: bool = False
    degradations: List[str] = field(default_factory=list)
    fusion: List[str] = field(default_factory=list)
    store_stats: Optional[Dict[str, int]] = None

    def __post_init__(self) -> None:
        if self.semantics is None:
            self.semantics = self.kind

    @property
    def n_objects(self) -> int:
        """Total candidate objects entering the pipeline."""
        return sum(len(group.rows) for group in self.groups)

    @property
    def estimated_cost(self) -> float:
        """Planned cost: the sum of each group's cheapest method.

        In the cost model's units (abstract operations for the default
        coefficients, seconds for calibrated ones); feed it through
        :meth:`CostModel.predict_seconds` for a wall-time prediction.
        This is the quantity the service tier's admission control
        prices requests with.
        """
        return sum(
            min(group.costs.values())
            for group in self.groups
            if group.costs
        )

    def estimated_seconds(self) -> float:
        """Predicted wall seconds of executing this plan.

        Uses the plan's resolved cost model
        (:meth:`CostModel.predict_seconds`); falls back to default
        coefficients when the planner attached none.
        """
        model = self.cost_model or CostModel()
        return model.predict_seconds(self.estimated_cost)

    def stage_counts(self) -> List[int]:
        """Candidate counts through the pipeline: ``[in, out, out, ...]``.

        Monotonically non-increasing by construction -- filter stages
        only ever remove candidates (asserted in the test suite).
        """
        if not self.stages:
            return [self.n_objects]
        return [self.stages[0].candidates_in] + [
            stage.candidates_out for stage in self.stages
        ]

    def describe(self) -> str:
        """A human-readable EXPLAIN rendering of the plan."""
        region = self.window.region
        lines = [
            f"QueryPlan(kind={self.kind}"
            + (
                f", semantics={self.semantics}"
                if self.semantics not in (None, self.kind)
                else ""
            )
            + (", complemented" if self.complemented else "")
            + (", auto-streamed" if self.auto_streamed else "")
            + f", method={self.requested_method}, "
            f"region |S_q|={len(region)}, "
            f"T_q=[{self.window.t_start},{self.window.t_end}])",
            f"  stages: prefilter={'on' if self.use_prefilter else 'off'}"
            f" -> bfs={'on' if self.use_bfs else 'off'}"
            f" -> evaluate("
            + (
                f"{self.dispatch} x{self.max_workers}"
                if self.dispatch != "serial"
                else "serial"
            )
            + ")",
        ]
        for group in self.groups:
            costs = ", ".join(
                f"{name}={cost:.3g}"
                for name, cost in sorted(group.costs.items())
            )
            singles = group.features.n_single if group.features else "?"
            multis = group.features.n_multi if group.features else "?"
            line = (
                f"  group {group.chain_id!r}: {singles} single + "
                f"{multis} multi -> method={group.method}"
            )
            if group.backend is not None:
                line += f" backend={group.backend}"
            if costs:
                line += f"  [{costs}]"
            if group.predicted_seconds is not None:
                line += (
                    f"  predicted={group.predicted_seconds * 1e3:.3f} ms"
                )
                if group.elapsed_seconds is not None:
                    line += (
                        f" measured={group.elapsed_seconds * 1e3:.3f} ms"
                    )
            if group.survivors is not None:
                line += f"  survivors={group.survivors}"
            lines.append(line)
        for stage in self.stages:
            lines.append(
                f"  {stage.name:<9}: {stage.candidates_in:>6} -> "
                f"{stage.candidates_out:<6} "
                f"({stage.elapsed_seconds * 1e3:8.3f} ms"
                + (f", {stage.detail}" if stage.detail else "")
                + ")"
            )
        if self.store_stats:
            stats = self.store_stats
            lines.append(
                "  store    : "
                f"{stats.get('shards', 0)} shard(s), "
                f"{stats.get('entering', 0)} entering, "
                f"prefilter -{stats.get('prefilter_pruned', 0)}, "
                f"bfs -{stats.get('bfs_pruned', 0)}, "
                f"{stats.get('fresh_attaches', 0)} fresh attach(es), "
                f"{stats.get('parent_fallbacks', 0)} parent fallback(s)"
            )
        for event in self.degradations:
            lines.append(f"  degraded : {event}")
        for event in self.fusion:
            lines.append(f"  fused    : {event}")
        if self.operator_seconds:
            parts = []
            for name, stats in sorted(self.operator_seconds.items()):
                calls = getattr(stats, "calls", None)
                seconds = getattr(stats, "seconds", None)
                if calls is None:  # (calls, seconds) tuple form
                    calls, seconds = stats
                parts.append(
                    f"{name} x{calls} {seconds * 1e3:.3f} ms"
                )
            lines.append("  operators: " + " | ".join(parts))
        return "\n".join(lines)


class QueryPlanner:
    """Builds cost-based :class:`QueryPlan` objects for a database.

    Args:
        database: the database queries run against.
        plan_cache: the engine's plan cache, probed (without mutating
            its statistics) to credit cached constructions.
        backend: linear-algebra backend name (cache-key component).
        cost_model: default coefficients; per-query overrides come via
            :attr:`PlanOptions.cost_model`.
    """

    def __init__(
        self,
        database,
        plan_cache=None,
        backend: Optional[str] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.database = database
        self.plan_cache = plan_cache
        self.backend = backend
        self.cost_model = cost_model or CostModel()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def plan(
        self, query: PSTQuery, options: Optional[PlanOptions] = None
    ) -> QueryPlan:
        """Plan one query's execution.

        For-all queries are planned through the paper's Section VII
        complement reduction; the pipeline evaluates the complement
        exists-query and the engine applies ``1 - p``.
        """
        options = options or PlanOptions()
        if isinstance(query, PSTForAllQuery):
            complement = query.region.complement(self.database.n_states)
            if not complement:
                raise QueryError(
                    "for-all region covers the whole space; the "
                    "probability is trivially 1 and there is nothing "
                    "to plan"
                )
            return self.plan_window(
                query.window.with_region(complement),
                kind="exists",
                complemented=True,
                options=options,
                semantics="forall",
            )
        if isinstance(query, PSTKTimesQuery):
            return self.plan_window(
                query.window, kind="ktimes", options=options
            )
        if isinstance(query, PSTExistsQuery):
            return self.plan_window(
                query.window, kind="exists", options=options
            )
        raise QueryError(f"unsupported query type {type(query)!r}")

    def estimate_seconds(
        self, query: PSTQuery, options: Optional[PlanOptions] = None
    ) -> float:
        """Predicted wall seconds of evaluating ``query`` -- no kernels.

        The admission-control hook of the service tier
        (:mod:`repro.service`): planning probes only object counts,
        chain sparsity and the plan cache, so the price of a request
        can be quoted *before* any kernel work is committed.  With a
        calibrated cost model
        (:meth:`CostModel.from_calibration`) the returned value is a
        genuine wall-time prediction; with the structural defaults it
        is an operation count converted at
        :data:`CostModel.DEFAULT_UNIT_SECONDS` -- coarse, but
        consistent across requests, which is all ordering and
        budgeting need.
        """
        if isinstance(query, PSTForAllQuery) and not (
            query.region.complement(self.database.n_states)
        ):
            # trivially 1.0 for every object; evaluate() never plans it
            return 0.0
        return self.plan(query, options).estimated_seconds()

    def plan_window(
        self,
        window: SpatioTemporalWindow,
        kind: str = "exists",
        complemented: bool = False,
        options: Optional[PlanOptions] = None,
        semantics: Optional[str] = None,
    ) -> QueryPlan:
        """Plan an evaluation over an explicit window.

        Used directly by the engine's for-all path, which has already
        reduced the query to its complement window (Section VII).
        """
        options = options or PlanOptions()
        model = options.cost_model or self.cost_model
        groups: List[GroupPlan] = []
        total_objects = 0
        # the one cohort sync of this query: every later stage works
        # on the row arrays taken here
        for chain_id, cohort in sorted(self.database.cohorts().items()):
            if not len(cohort):
                continue
            total_objects += len(cohort)
            groups.append(
                self._plan_group(cohort, window, kind, options, model)
            )

        use_prefilter = self._decide_prefilter(
            window, total_objects, options, model
        )
        use_bfs = (
            options.bfs_prune
            if options.bfs_prune is not None
            else total_objects >= model.bfs_min_objects
        )
        dispatch, max_workers = self._decide_dispatch(
            groups, total_objects, options, model, kind
        )
        requested = options.method or "auto"
        return QueryPlan(
            kind=kind,
            window=window,
            requested_method=requested,
            complemented=complemented,
            use_prefilter=use_prefilter,
            use_bfs=use_bfs,
            max_workers=max_workers,
            options=options,
            groups=groups,
            dispatch=dispatch,
            cost_model=model,
            semantics=semantics or kind,
        )

    def _plan_group(
        self,
        cohort: Cohort,
        window: SpatioTemporalWindow,
        kind: str,
        options: PlanOptions,
        model: CostModel,
    ) -> GroupPlan:
        chain_id = cohort.chain_id
        chain = self.database.chain(chain_id)
        rows = cohort.rows
        n_multi = int(np.count_nonzero(cohort.is_multi[rows]))
        starts = np.unique(cohort.start_time[rows]).tolist()
        horizon = max(0, window.t_end - starts[0])
        features = GroupFeatures(
            n_single=len(rows) - n_multi,
            n_multi=n_multi,
            n_states=chain.n_states + 1,
            nnz=chain.nnz,
            horizon=horizon,
            duration=window.duration,
            absorbing_cached=self._cached("absorbing", chain, window),
            doubled_cached=self._cached("doubled", chain, window),
            backward_cached_fraction=self._backward_fraction(
                chain, window, starts
            ),
        )
        costs: Dict[str, float] = {}
        if kind == "ktimes":
            # the exact stacked C(t) sweep serves both QB and OB; only
            # a forced "mc" changes the kernel.  The ct estimate still
            # matters: it is what the dispatch decision prices.
            costs = {"ct": model.ktimes_cost(features)}
            if options.method == "mc" or options.allow_approximate:
                costs["mc"] = model.mc_cost(features, options.n_samples)
            method = options.method or "ct"
        else:
            costs = {
                "qb": model.qb_cost(features),
                "ob": model.ob_cost(features),
            }
            if options.allow_approximate or options.method == "mc":
                costs["mc"] = model.mc_cost(features, options.n_samples)
            if features.n_multi:
                costs["multi"] = model.multi_cost(features)
            if options.method is not None:
                method = options.method
            else:
                candidates = (
                    _ALL_METHODS
                    if options.allow_approximate
                    else _EXACT_METHODS
                )
                method = min(
                    candidates, key=lambda name: costs.get(name, float("inf"))
                )
        if options.backend is not None:
            backend = options.backend
        elif self.backend not in (None, "scipy"):
            # an engine pinned to a non-default backend (e.g. the
            # pure-python cross-check) keeps it for every group
            backend = self.backend
        else:
            backend = model.best_backend(
                features, method, options.n_samples
            )
        shard_count = None
        store_shards = getattr(self.database, "store_shards", None)
        if callable(store_shards):
            # per-shard cardinalities: the dispatch decision scatters
            # over store shards, not over a within-chain row split
            shard_count = sum(
                1
                for entry in store_shards(chain_id)
                if entry.get("n_objects")
            )
        return GroupPlan(
            chain_id=chain_id,
            method=method,
            cohort=cohort,
            rows=rows,
            features=features,
            costs=costs,
            backend=backend,
            predicted_seconds=model.predict_seconds(
                costs.get(method, 0.0)
            ),
            shard_count=shard_count,
        )

    def _cached(self, kind: str, chain, window) -> bool:
        if self.plan_cache is None:
            return False
        return self.plan_cache.contains(
            kind, chain, window.region, self.backend
        )

    def _backward_fraction(
        self, chain, window, starts: Sequence[int]
    ) -> float:
        if self.plan_cache is None or not starts:
            return 0.0
        cached = sum(
            1
            for start in starts
            if self.plan_cache.contains(
                "backward",
                chain,
                window.region,
                self.backend,
                (window.times, start),
            )
        )
        return cached / len(starts)

    def _decide_prefilter(
        self,
        window: SpatioTemporalWindow,
        total_objects: int,
        options: PlanOptions,
        model: CostModel,
    ) -> bool:
        if options.prefilter is not None:
            return options.prefilter
        if self.database.state_positions() is None:
            return False
        if total_objects < model.prefilter_min_objects:
            return False
        fraction = len(window.region) / max(1, self.database.n_states)
        return fraction <= model.prefilter_max_region_fraction

    def _decide_dispatch(
        self,
        groups: Sequence[GroupPlan],
        total_objects: int,
        options: PlanOptions,
        model: CostModel,
        kind: str,
    ):
        """Choose serial or process execution and a pool size.

        Processes run chain groups *and* within-chain object shards in
        parallel, but each shard pays fork/IPC overhead, so the
        estimated kernel cost must clear ``process_min_cost`` before
        auto picks them -- and never for an engine the pool cannot
        serve (no scipy, or pinned to another backend).  Both the stacked
        exists sweeps (OB) and the stacked k-times sweep (CT) shard
        within a chain; QB's shared backward pass runs as one task.
        """
        if options.dispatch == "serial":
            return "serial", 1
        cores = os.cpu_count() or 1
        shards = max(
            len(groups),
            total_objects // max(1, model.shard_min_objects),
            sum(group.shard_count or 0 for group in groups),
        )
        cap = options.max_workers or min(model.max_workers_cap, cores)
        workers = max(1, min(cap, shards))
        if options.dispatch == "process":
            return "process", workers

        from repro.exec.dispatch import process_dispatch_available

        if cores >= 2 and process_dispatch_available(self.backend):
            estimated = sum(
                min(group.costs.values())
                for group in groups
                if group.costs
            )
            # only stacked-sweep groups (OB exists, CT k-times) shard
            # within a chain (QB's shared backward pass runs as one
            # task), so a lone QB group gains nothing from a pool --
            # don't pay fork for it
            shardable = any(
                group.method in ("ob", "ct")
                and group.features is not None
                and group.features.n_single >= 2 * model.shard_min_objects
                for group in groups
            ) or any(
                # a sharded store scatters every method (qb/mc/multi
                # included) shard-locally over its slabs
                (group.shard_count or 0) > 1
                for group in groups
            )
            if (
                estimated >= model.process_min_cost
                and (shardable or len(groups) >= 2)
                and workers > 1
            ):
                return "process", workers
        return "serial", 1


def resolve_options(
    base: Optional[PlanOptions],
    method: str,
    n_samples: Optional[int],
    seed: Optional[int],
) -> PlanOptions:
    """Merge the engine's keyword arguments into plan options.

    ``method="auto"`` leaves the cost-based choice in place; a concrete
    method forces it (conflicting forcings raise).
    """
    options = base or PlanOptions()
    updates = {}
    if method != "auto":
        if options.method is not None and options.method != method:
            raise QueryError(
                f"method={method!r} conflicts with "
                f"options.method={options.method!r}"
            )
        updates["method"] = method
    if n_samples is not None:
        updates["n_samples"] = n_samples
    if seed is not None:
        updates["seed"] = seed
    return replace(options, **updates) if updates else options
