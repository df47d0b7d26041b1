"""The operator layer: one implementation of every execution kernel.

The Emrich et al. reduction turns every query mode into compositions of
a small number of primitives -- build augmented matrices, sweep a
stacked state forward, sweep an indicator backward, fuse evidence,
sample paths, extend a backward ladder, filter candidates.  Before this
module those primitives were implemented four separate times (batched
kernels, per-object fallbacks, Monte Carlo, streaming); now each exists
exactly once as an :class:`Operator` and every caller -- including the
process-pool workers of :mod:`repro.exec.dispatch` -- routes through
the same code.

Operators share a uniform call shape::

    operator(inputs, chain, region, backend, context=ctx, ...) -> arrays

where ``inputs`` carries the operator-specific payload (matrices, a
:class:`SweepSchedule`, a ladder base vector, ...), ``chain`` /
``region`` / ``backend`` identify the artefact space, and ``context``
is an optional :class:`ExecutionContext` whose timing hooks record one
``(calls, seconds)`` entry per operator name -- the numbers
``QueryPlan.describe()`` renders and :mod:`repro.exec.calibrate` fits
the cost model against.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.errors import InfeasibleEvidenceError, QueryError
from repro.core.matrices import (
    build_absorbing_matrices,
    build_doubled_matrices,
)
from repro.linalg import native as native_kernels
from repro.linalg.ops import matvec
from repro.linalg.sparse import CSRMatrix

__all__ = [
    "ExecutionContext",
    "Operator",
    "OperatorStats",
    "SweepSchedule",
    "KTimesSchedule",
    "BuildMatrices",
    "ForwardSweep",
    "BackwardSweep",
    "KTimesSweep",
    "KTimesCore",
    "PosteriorCollapse",
    "MCSample",
    "LadderExtend",
    "Prefilter",
    "BfsPrune",
    "BUILD_ABSORBING",
    "BUILD_DOUBLED",
    "FORWARD_SWEEP",
    "BACKWARD_SWEEP",
    "KTIMES_SWEEP",
    "KTIMES_CORE",
    "POSTERIOR_COLLAPSE",
    "MC_SAMPLE",
    "LADDER_EXTEND",
    "PREFILTER",
    "BFS_PRUNE",
]


@dataclass
class OperatorStats:
    """Aggregated timing of one operator within one context.

    Attributes:
        calls: operator invocations recorded.
        seconds: total wall-clock seconds across those calls.
    """

    calls: int = 0
    seconds: float = 0.0

    def add(self, seconds: float, calls: int = 1) -> None:
        """Fold one measurement (or a merged batch) in."""
        self.calls += calls
        self.seconds += seconds


class ExecutionContext:
    """Shared state threaded through one query's operator calls.

    Carries the artefact sources every operator resolves against (the
    plan cache and the backend name) and collects the per-operator
    timing hooks.  Worker processes build their own context and ship
    its timings back; :meth:`merge` folds them into the parent's.

    Args:
        plan_cache: construction cache operators resolve matrices from.
        backend: linear-algebra backend name.
        faults: optional :class:`~repro.exec.faults.FaultInjector`
            whose chaos hooks every operator call reports to (fault
            injection tests only; ``None`` -- one attribute check per
            call -- in production).
    """

    def __init__(
        self,
        plan_cache=None,
        backend: Optional[str] = None,
        faults=None,
    ) -> None:
        self.plan_cache = plan_cache
        self.backend = backend
        self.faults = faults
        self.timings: Dict[str, OperatorStats] = {}
        # recovery events (pool rebuilds, retries) the supervisor
        # records; the pipeline copies them onto plan.degradations
        self.events: List[str] = []
        # a context is a public object callers may hand to several
        # threads, so the counters must fold in atomically
        self._lock = threading.Lock()

    def record(self, name: str, seconds: float) -> None:
        """Per-call timing hook: fold one operator call in."""
        with self._lock:
            self.timings.setdefault(name, OperatorStats()).add(seconds)

    def record_event(self, message: str) -> None:
        """Note one recovery event (retry, rebuild, degradation)."""
        with self._lock:
            self.events.append(message)

    def merge(self, timings: Mapping[str, Any]) -> None:
        """Fold another context's (possibly serialized) timings in."""
        with self._lock:
            for name, stats in timings.items():
                if isinstance(stats, OperatorStats):
                    calls, seconds = stats.calls, stats.seconds
                else:  # (calls, seconds) pair from a worker process
                    calls, seconds = int(stats[0]), float(stats[1])
                self.timings.setdefault(name, OperatorStats()).add(
                    seconds, calls
                )

    def serializable_timings(self) -> Dict[str, Tuple[int, float]]:
        """Timings as plain tuples (for worker -> parent transport)."""
        with self._lock:
            return {
                name: (stats.calls, stats.seconds)
                for name, stats in self.timings.items()
            }


class Operator:
    """Base class: uniform signature plus the per-call timing hook.

    Subclasses implement :meth:`run`; ``__call__`` wraps it with the
    wall-clock measurement recorded on the ``context`` (when given --
    operators stay usable standalone without one).
    """

    name = "operator"

    def __call__(
        self,
        inputs: Any,
        chain=None,
        region: Optional[FrozenSet[int]] = None,
        backend: Optional[str] = None,
        context: Optional[ExecutionContext] = None,
        **kwargs: Any,
    ) -> Any:
        if context is not None and context.faults is not None:
            context.faults.fire(f"operator:{self.name}")
        started = _time.perf_counter()
        try:
            return self.run(
                inputs, chain, region, backend, context=context, **kwargs
            )
        finally:
            if context is not None:
                context.record(
                    self.name, _time.perf_counter() - started
                )

    def run(
        self, inputs, chain, region, backend, context=None, **kwargs
    ):  # pragma: no cover - abstract
        raise NotImplementedError


# ----------------------------------------------------------------------
# BuildMatrices
# ----------------------------------------------------------------------
class BuildMatrices(Operator):
    """Resolve the augmented matrices for ``(chain, region)``.

    ``inputs`` may carry pre-built matrices (validated against the
    region and passed through); otherwise the context's plan cache is
    probed and construction runs only on a miss, so a cache hit costs
    (and records) almost nothing.
    """

    def __init__(self, kind: str) -> None:
        if kind not in ("absorbing", "doubled"):
            raise QueryError(f"unknown matrix kind {kind!r}")
        self.kind = kind
        self.name = f"build_{kind}"

    def run(
        self, inputs, chain, region, backend, context=None,
        plan_cache=None, **_,
    ):
        prebuilt = inputs
        if prebuilt is not None:
            if prebuilt.region != region:
                raise QueryError(
                    "pre-built matrices were constructed for a "
                    "different region"
                )
            return prebuilt
        if plan_cache is None and context is not None:
            plan_cache = context.plan_cache
        if plan_cache is not None:
            getter = (
                plan_cache.absorbing
                if self.kind == "absorbing"
                else plan_cache.doubled
            )
            return getter(chain, region, backend)
        builder = (
            build_absorbing_matrices
            if self.kind == "absorbing"
            else build_doubled_matrices
        )
        return builder(chain, region, backend)


# ----------------------------------------------------------------------
# ForwardSweep
# ----------------------------------------------------------------------
@dataclass
class SweepSchedule:
    """What one stacked forward sweep activates, fuses, and reads.

    The schedule is plain data (times -> row payloads), so it can be
    built identically by the batch kernels, the per-object fallbacks,
    and the shard workers of :mod:`repro.exec.dispatch`.

    Attributes:
        n_rows: objects stacked into the sweep.
        first: timestamp of the earliest activation.
        last: timestamp after which every row has been harvested.
        times: the query timestamps ``T_q`` (selects ``M_plus``).
        activations: per timestamp, the ``(rows, block)`` pair
            entering the sweep when it reaches that timestamp: stack
            row ``rows[i]`` starts from row ``i`` of the
            :class:`~repro.core.distribution.SupportBlock`.  The *raw*
            sparse supports are stored; ``extend_block`` scatters them
            into the stack at activation time, so the schedule never
            materialises a second stack-sized buffer.
        fusions: per timestamp, ``(row, tiled observation pdf)`` pairs
            applied as Lemma 1 evidence fusion (elementwise product,
            renormalise; zero mass raises
            :class:`~repro.core.errors.InfeasibleEvidenceError`).
        harvests: per timestamp, the rows (any integer sequence)
            whose result is read there.
        read: ``"top"`` reads the TOP component, ``"tail"`` sums the
            shadow block from ``read_offset`` (Section VI).
        read_offset: first index of the shadow block for ``"tail"``.
        stop_threshold: early termination (Section V-C): stop as soon
            as every *unharvested* row's read value reaches this bound
            (single-row threshold queries); the values read so far are
            returned as lower bounds.
    """

    n_rows: int
    first: int
    last: int
    times: FrozenSet[int]
    activations: Dict[int, Tuple[np.ndarray, Any]]
    fusions: Dict[int, List[Tuple[int, np.ndarray]]] = field(
        default_factory=dict
    )
    harvests: Dict[int, List[int]] = field(default_factory=dict)
    read: str = "top"
    read_offset: int = 0
    stop_threshold: Optional[float] = None


class _ForwardStack:
    """The stacked distributions of all objects during one sweep.

    For the scipy backend the stack is kept *transposed* -- a
    C-contiguous ``(size, n_objects)`` array -- so each transition is
    ``M^T @ X^T`` over the matrices' cached transposes: one CSR
    matvecs kernel call per timestep with no copies in the loop
    (measurably faster than ``X @ M``, which scipy evaluates through
    CSC).  The pure-Python backend falls back to row-wise
    :func:`~repro.linalg.ops.matmat`.
    """

    def __init__(self, matrices, n_objects: int) -> None:
        self.matrices = matrices
        self._transposed = not isinstance(matrices.m_minus, CSRMatrix)
        # the backend travels with the matrices, so shard workers that
        # rehydrate a published CSR adopt the compiled kernels too
        self._native = (
            getattr(matrices.backend, "name", None) == "native"
        )
        if self._transposed:
            self.stack = np.zeros(
                (matrices.size, n_objects), dtype=float
            )
        else:
            self.stack = np.zeros(
                (n_objects, matrices.size), dtype=float
            )

    def set_row(self, row: int, vector: np.ndarray) -> None:
        if self._transposed:
            self.stack[:, row] = vector
        else:
            self.stack[row] = vector

    def scatter(
        self, rows: np.ndarray, states: np.ndarray, values: np.ndarray
    ) -> None:
        """Write sparse entries ``(rows[i], states[i]) = values[i]``."""
        if self._transposed:
            self.stack[states, rows] = values
        else:
            self.stack[rows, states] = values

    def row(self, row: int) -> np.ndarray:
        return (
            self.stack[:, row] if self._transposed else self.stack[row]
        )

    def column(self, index: int) -> np.ndarray:
        """One entry per object (e.g. the TOP component)."""
        return (
            self.stack[index].copy()
            if self._transposed
            else self.stack[:, index].copy()
        )

    def tail_sums(self, row: int, offset: int) -> float:
        """Sum of entries ``offset:`` of one object's vector."""
        return float(self.row(row)[offset:].sum())

    def step(self, time: int, times) -> None:
        if self._transposed:
            minus_t, plus_t = self.matrices.transposed()
            matrix = plus_t if time in times else minus_t
            if self._native:
                self.stack = native_kernels.spmm(matrix, self.stack)
            else:
                self.stack = matrix @ self.stack
        else:
            self.stack = np.asarray(
                self.matrices.backend.matmat(
                    self.stack,
                    self.matrices.matrix_for_target_time(time, times),
                ),
                dtype=float,
            )


class ForwardSweep(Operator):
    """One stacked forward pass executing a :class:`SweepSchedule`.

    This is the single implementation behind the Section V-A
    object-based pass, the Section VI doubled-space pass (via
    ``fusions`` + ``read="tail"``), and the per-object OB fallback
    (a one-row schedule).  ``inputs`` is ``(matrices, schedule)``;
    the result is one value per schedule row.
    """

    name = "forward_sweep"

    def run(self, inputs, chain, region, backend, context=None, **_):
        matrices, schedule = inputs
        stack = _ForwardStack(matrices, schedule.n_rows)
        result = np.zeros(schedule.n_rows, dtype=float)

        def read(rows) -> np.ndarray:
            if schedule.read == "tail":
                return np.array([
                    stack.tail_sums(row, schedule.read_offset)
                    for row in rows
                ])
            return stack.column(schedule.read_offset)[rows]

        every_row = np.arange(schedule.n_rows)

        def visit(time: int) -> bool:
            if time in schedule.activations:
                rows, block = schedule.activations[time]
                entry_rows, states, values = matrices.extend_block(
                    block, time, schedule.times
                )
                stack.scatter(rows[entry_rows], states, values)
            for row, tiled in schedule.fusions.get(time, ()):
                fused = stack.row(row) * tiled
                total = float(fused.sum())
                if total <= 0.0:
                    raise InfeasibleEvidenceError(
                        f"observation at t={time} contradicts the "
                        f"trajectory model: posterior mass is zero"
                    )
                stack.set_row(row, fused / total)
            if time in schedule.harvests:
                rows = np.asarray(schedule.harvests[time])
                result[rows] = read(rows)
            if schedule.stop_threshold is not None:
                # Section V-C early termination: a lower bound at the
                # threshold already answers the query
                return bool(
                    (read(every_row) >= schedule.stop_threshold).all()
                )
            return False

        if visit(schedule.first):
            return read(every_row)
        for time in range(schedule.first + 1, schedule.last + 1):
            stack.step(time, schedule.times)
            if visit(time):
                return read(every_row)
        return result


# ----------------------------------------------------------------------
# BackwardSweep
# ----------------------------------------------------------------------
class BackwardSweep(Operator):
    """Section V-B backward vectors for every requested start time.

    ``inputs`` is ``(matrices, window, start_times)``.  One pass from
    ``t_end`` down to the earliest start yields ``v(t)`` for *all*
    intermediate ``t``; the requested ones are copied out.  Each
    returned vector is bit-identical to the one the per-object
    query-based evaluator computes for that start time alone.
    """

    name = "backward_sweep"

    def run(self, inputs, chain, region, backend, context=None, **_):
        matrices, window, start_times = inputs
        wanted = sorted({int(t) for t in start_times})
        if not wanted:
            return {}
        if wanted[0] < 0:
            raise QueryError(
                f"start_time must be non-negative, got {wanted[0]}"
            )
        if window.t_start < wanted[-1]:
            raise QueryError(
                f"query time {window.t_start} precedes start_time "
                f"{wanted[-1]}"
            )
        use_backend = backend or getattr(
            matrices.backend, "name", None
        )
        vector = np.zeros(matrices.size, dtype=float)
        vector[matrices.top_index] = 1.0
        result: Dict[int, np.ndarray] = {}
        if window.t_end in wanted:  # degenerate: observation at t_end
            result[window.t_end] = vector.copy()
        remaining = set(wanted) - set(result)
        for time in range(window.t_end - 1, wanted[0] - 1, -1):
            matrix = matrices.matrix_for_target_time(
                time + 1, window.times
            )
            vector = np.asarray(
                matvec(matrix, vector, backend=use_backend), dtype=float
            )
            if time in remaining:
                result[time] = vector.copy()
        return result


# ----------------------------------------------------------------------
# KTimesSweep
# ----------------------------------------------------------------------
@dataclass
class KTimesSchedule:
    """What one stacked Section VII C(t) sweep activates and harvests.

    The per-object ``C`` matrix is ``(|T_q|+1) x |S|``; the cohort
    stacks every object's ``C`` into one block so each timestep costs
    one sparse product for *all* objects, exactly as
    :class:`SweepSchedule` batches the exists sweeps.

    Attributes:
        n_objects: objects stacked into the sweep.
        n_rows: visit-count rows per object (``|T_q| + 1``).
        first: timestamp of the earliest activation.
        last: ``t_end`` -- every block is harvested there.
        times: the query timestamps ``T_q`` (selects the column shift).
        region_columns: the query region as a sorted index array.
        activations: per timestamp, the ``(objects, block)`` pair
            entering the sweep when it reaches that timestamp: cohort
            column ``objects[i]`` starts from row ``i`` of the
            :class:`~repro.core.distribution.SupportBlock`.
    """

    n_objects: int
    n_rows: int
    first: int
    last: int
    times: FrozenSet[int]
    region_columns: np.ndarray
    activations: Dict[int, Tuple[np.ndarray, Any]]


class KTimesSweep(Operator):
    """One stacked Section VII C(t) pass executing a
    :class:`KTimesSchedule`.

    The cohort is kept *transposed* -- a C-contiguous
    ``(n_states, live_rows, n_objects)`` array -- so each transition
    is ``M^T @ X`` over the chain's cached transpose: one CSR kernel
    call per timestep for every object, mirroring the exists sweeps'
    layout.  The count dimension grows *progressively*: after the
    ``i``-th query timestamp at most ``i + 1`` visit counts carry
    mass, so below the window every object is a single column (the
    naive per-object C(t) drags all ``|T_q|+1`` rows over the whole
    horizon -- most of the refactor's speedup is not multiplying
    structural zeros).  The paper's column shift (the visit count
    incrementing for mass inside the region) is fused into the growth
    step as one fancy-indexed row shift over the whole cohort.  Per
    object the products are identical to
    :func:`repro.core.ktimes.ktimes_distribution`, so results agree
    to 1e-12 (asserted in the test suite).

    ``inputs`` is the schedule; the result is one ``(n_rows,)`` count
    distribution per object, stacked ``(n_objects, n_rows)``.
    """

    name = "ktimes_sweep"

    def run(self, inputs, chain, region, backend, context=None, **_):
        schedule = inputs
        n = chain.n_states
        n_objects = schedule.n_objects
        live = 1  # count rows that can be non-zero so far
        stack = np.zeros((n, 1, n_objects), dtype=float)
        transpose = chain.transpose_matrix()
        columns = schedule.region_columns

        def visit(time: int) -> None:
            nonlocal stack, live
            if time in schedule.activations:
                objects, block = schedule.activations[time]
                stack[block.states, 0, objects[block.entry_rows()]] = (
                    block.probs
                )
            if time in schedule.times:
                # footnote 3 for just-activated objects, the regular
                # count increment for everyone already in flight
                if live < schedule.n_rows:
                    grown = np.zeros(
                        (n, live + 1, n_objects), dtype=float
                    )
                    grown[:, :live, :] = stack
                    grown[columns, 1:live + 1, :] = stack[columns]
                    grown[columns, 0, :] = 0.0
                    stack = grown
                    live += 1
                else:  # defensive: a count beyond |T_q| cannot occur
                    stack[columns, 1:, :] = stack[columns, :-1, :]
                    stack[columns, 0, :] = 0.0

        visit(schedule.first)
        for time in range(schedule.first + 1, schedule.last + 1):
            if backend == "native":
                flat = native_kernels.spmm(
                    transpose, stack.reshape(n, live * n_objects)
                )
            else:
                flat = np.asarray(
                    transpose @ stack.reshape(n, live * n_objects),
                    dtype=float,
                )
            stack = flat.reshape(n, live, n_objects)
            visit(time)
        result = np.zeros((n_objects, schedule.n_rows), dtype=float)
        result[:, :live] = stack.sum(axis=0).T
        return result


class KTimesCore(Operator):
    """The k-times backward blocks ``D(t)`` (suffix-count recursion).

    ``D(t)[s, k]`` is the probability of visiting the region at
    exactly ``k`` query timestamps strictly after ``t``, given the
    object sits at state ``s`` at time ``t`` -- the suffix-count
    decomposition of Definition 4.  The recursion mirrors the forward
    C(t) algorithm run backwards::

        D(t_end) = [1, 0, ..., 0] per state
        D(t)     = M . E(t+1)

    where ``E(t+1)`` is ``D(t+1)`` with the region rows' counts
    shifted up one when ``t+1 in T_q`` (below the window every step
    is a plain ``M`` product).  An object observed at ``t_0 <
    min(T_q)`` with pdf ``pi`` then answers in one dense dot:
    ``p = pi . D(t_0)`` -- the k-times analogue of the Section V-B
    backward vector, amortising one pass over arbitrarily many
    objects.  Like the exists backward vector, the blocks are
    *shift-invariant* (``D`` of the slid window is ``M^stride`` times
    the old one), which is what the C-block ladder of
    :mod:`repro.core.streaming` extends per tick.

    ``inputs`` is ``(window, start_times)``; one pass from ``t_end``
    down to the earliest requested start yields ``D(t)`` for every
    intermediate ``t`` -- the requested ones are copied out as a
    ``{start: (n_states, n_rows) block}`` dict.
    """

    name = "ktimes_core"

    def run(self, inputs, chain, region, backend, context=None, **_):
        window, start_times = inputs
        wanted = sorted({int(t) for t in start_times})
        if not wanted:
            return {}
        if wanted[0] < 0:
            raise QueryError(
                f"start_time must be non-negative, got {wanted[0]}"
            )
        if wanted[-1] >= window.t_start:
            raise QueryError(
                f"suffix-count blocks exist only strictly before the "
                f"window start {window.t_start}; got {wanted[-1]}"
            )
        n = chain.n_states
        n_rows = window.duration + 1
        columns = np.fromiter(
            window.region, dtype=int, count=len(window.region)
        )
        columns.sort()
        block = np.zeros((n, n_rows), dtype=float)
        block[:, 0] = 1.0  # zero suffix visits after t_end, surely
        matrix = chain.matrix
        remaining = set(wanted)
        result: Dict[int, np.ndarray] = {}
        for target in range(window.t_end, wanted[0], -1):
            if backend == "native":
                # fused count-row update: shift + product in one kernel
                if target in window.times:
                    block = native_kernels.ktimes_update(
                        matrix, block, columns
                    )
                else:
                    block = native_kernels.spmm(matrix, block)
            elif target in window.times:
                shifted = block.copy()
                shifted[columns, 1:] = block[columns, :-1]
                shifted[columns, 0] = 0.0
                block = np.asarray(matrix @ shifted, dtype=float)
            else:
                block = np.asarray(matrix @ block, dtype=float)
            if target - 1 in remaining:
                # safe without a copy: the loop only rebinds `block`
                result[target - 1] = block
        return result


# ----------------------------------------------------------------------
# PosteriorCollapse
# ----------------------------------------------------------------------
class PosteriorCollapse(Operator):
    """Lemma 1 forward filtering of a multi-observation object.

    ``inputs`` is ``(observations, resume)`` where ``resume`` is an
    optional sparse ``(time, support, weights)`` posterior to extend
    from (the streaming engine keeps the one of the previous
    re-sighting).  Returns ``(t_last, support, weights)``, the nonzero
    entries of ``P(X_t_last | all observations)``: once every
    observation precedes the query window, the object is exactly
    Markov from this pdf and rides the same backward columns as a
    single-observation object.  The result does not depend on a query
    region; ``region`` is ignored.
    """

    name = "posterior_collapse"

    def run(self, inputs, chain, region, backend, context=None, **_):
        observations, resume = inputs
        t_last = observations.last.time
        if resume is not None:
            time, support, weights = resume
            vector = np.zeros(chain.n_states, dtype=float)
            vector[support] = weights
        else:
            time = observations.first.time
            vector = np.asarray(
                observations.first.distribution.vector, dtype=float
            )
        transpose = chain.transpose_matrix()
        for observation in observations.after(time):
            while time < observation.time:
                if backend == "native":
                    vector = native_kernels.matvec(transpose, vector)
                else:
                    vector = np.asarray(
                        transpose @ vector, dtype=float
                    ).reshape(-1)
                time += 1
            vector = vector * np.asarray(
                observation.distribution.vector, dtype=float
            )
            total = float(vector.sum())
            if total <= 0.0:
                raise InfeasibleEvidenceError(
                    f"observation at t={time} contradicts the "
                    f"trajectory model: posterior mass is zero"
                )
            vector = vector / total
        support = np.flatnonzero(vector)
        return t_last, support, vector[support]


# ----------------------------------------------------------------------
# MCSample
# ----------------------------------------------------------------------
class MCSample(Operator):
    """Monte-Carlo PST-exists for many objects sharing a chain.

    ``inputs`` is ``(observation_sets, window, n_samples, seeds)``.
    One sampler serves every object (its per-chain CDF tables are
    built once), reseeded per object so each estimate is independent
    of which other objects a pruning stage removed.
    """

    name = "mc_sample"

    def run(self, inputs, chain, region, backend, context=None, **_):
        from repro.core.montecarlo import MonteCarloSampler

        observation_sets, window, n_samples, seeds = inputs
        sampler = MonteCarloSampler(chain)
        result = np.zeros(len(observation_sets), dtype=float)
        for row, observations in enumerate(observation_sets):
            sampler.reseed(seeds[row])
            if len(observations) > 1:
                estimate = sampler.exists_probability_multi(
                    observations, window, n_samples
                )
            else:
                estimate = sampler.exists_probability(
                    observations.first.distribution,
                    window,
                    n_samples,
                    start_time=observations.first.time,
                )
            result[row] = estimate.estimate
        return result


# ----------------------------------------------------------------------
# LadderExtend
# ----------------------------------------------------------------------
class LadderExtend(Operator):
    """Extend a backward-vector ladder by repeated ``M_minus`` steps.

    ``inputs`` is ``(m_minus, base, steps)``; writes the ``steps``
    new rungs ``[M.base, M^2.base, ...]`` along axis 0 of ``out``
    (``(steps,) + base.shape``, the spare tail of the caller's ladder
    array) and returns it.  This is the
    streaming engine's per-tick kernel: shift invariance makes every
    slid window's backward column a pure ``M_minus`` extension of the
    previous one.
    """

    name = "ladder_extend"

    def run(self, inputs, chain, region, backend, out, context=None, **_):
        m_minus, base, steps = inputs
        vector = base
        for step in range(steps):
            if isinstance(m_minus, CSRMatrix):
                vector = matvec(m_minus, vector)
            elif backend == "native":
                vector = native_kernels.matvec(m_minus, vector)
            else:
                vector = m_minus @ vector
            out[step] = vector
            vector = out[step]
        return out


# ----------------------------------------------------------------------
# filter-stage wrappers
# ----------------------------------------------------------------------
class Prefilter(Operator):
    """R-tree geometric prefilter probe (timed wrapper).

    ``inputs`` is ``(prefilter, window, min_start)``; returns the
    ``(candidate ids, nodes visited)`` pair of
    :meth:`~repro.database.pruning.GeometricPrefilter.probe`.
    """

    name = "prefilter"

    def run(self, inputs, chain, region, backend, context=None, **_):
        prefilter, window, min_start = inputs
        return prefilter.probe(window, min_start)


class BfsPrune(Operator):
    """Exact Section V-C reachability filter over a block of objects.

    ``inputs`` is ``(fetch_levels, block, start_times, t_end)`` -- see
    :func:`repro.database.pruning.reachable_rows`, which this times;
    returns the boolean keep-mask over the block's rows.  The pipeline
    feeds it a cohort's candidate rows and the pruner's labelling,
    store shard workers their slab rows and the worker-local one.
    Safe by construction: a dropped row provably has probability zero
    in the window.
    """

    name = "bfs_prune"

    def run(self, inputs, chain, region, backend, context=None, **_):
        from repro.database.pruning import reachable_rows

        return reachable_rows(*inputs)


# Shared singleton instances -- operators are stateless, so one of each
# serves every caller (including forked workers).
BUILD_ABSORBING = BuildMatrices("absorbing")
BUILD_DOUBLED = BuildMatrices("doubled")
FORWARD_SWEEP = ForwardSweep()
BACKWARD_SWEEP = BackwardSweep()
KTIMES_SWEEP = KTimesSweep()
KTIMES_CORE = KTimesCore()
POSTERIOR_COLLAPSE = PosteriorCollapse()
MC_SAMPLE = MCSample()
LADDER_EXTEND = LadderExtend()
PREFILTER = Prefilter()
BFS_PRUNE = BfsPrune()
