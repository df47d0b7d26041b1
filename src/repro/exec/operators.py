"""The operator layer: one implementation of every execution kernel.

The Emrich et al. reduction turns every query mode into compositions of
a small number of primitives -- sweep a stacked state forward, sweep
an indicator backward, fuse evidence, sample paths, extend a backward
ladder, filter candidates.  Before this
module those primitives were implemented four separate times (batched
kernels, per-object fallbacks, Monte Carlo, streaming); now each exists
exactly once as an :class:`Operator` and every caller -- including the
process-pool workers of :mod:`repro.exec.dispatch` -- routes through
the same code.

Operators share a uniform call shape::

    operator(inputs, chain, region, context=ctx, ...) -> arrays

where ``inputs`` carries the operator-specific payload (a
:class:`SweepSchedule`, a ladder base vector, ...), ``chain`` /
``region`` identify the artefact space, and ``context``
is an optional :class:`ExecutionContext` whose timing hooks record one
``(calls, seconds)`` entry per operator name -- the numbers
``QueryPlan.describe()`` renders.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from functools import partial
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
import scipy.sparse as sp

from repro.core.errors import InfeasibleEvidenceError, QueryError
from repro.core.matrices import extend_block

__all__ = [
    "ExecutionContext",
    "Operator",
    "OperatorStats",
    "SweepSchedule",
    "KTimesSchedule",
    "ForwardSweep",
    "BackwardSweep",
    "KTimesSweep",
    "KTimesCore",
    "PosteriorCollapse",
    "MCSample",
    "LadderExtend",
    "BfsPrune",
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

    Collects the per-operator timing hooks.  Worker processes build
    their own context and ship its timings back; :meth:`merge` folds
    them into the parent's.

    Args:
        faults: optional :class:`~repro.exec.faults.FaultInjector`
            whose chaos hooks every operator call reports to (fault
            injection tests only; ``None`` -- one attribute check per
            call -- in production).
    """

    def __init__(self, faults=None) -> None:
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
        context: Optional[ExecutionContext] = None,
        **kwargs: Any,
    ) -> Any:
        if context is not None and context.faults is not None:
            context.faults.fire(f"operator:{self.name}")
        started = _time.perf_counter()
        try:
            return self.run(inputs, chain, region, context=context, **kwargs)
        finally:
            if context is not None:
                context.record(
                    self.name, _time.perf_counter() - started
                )

    def run(
        self, inputs, chain, region, context=None, **kwargs
    ):  # pragma: no cover - abstract
        raise NotImplementedError


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
        times: the query timestamps ``T_q``.
        activations: per timestamp, the ``(rows, block)`` pair
            entering the sweep when it reaches that timestamp: stack
            row ``rows[i]`` starts from row ``i`` of the
            :class:`~repro.core.distribution.SupportBlock`.  The *raw*
            sparse supports are stored and scattered into the stack at
            activation time, so the schedule never materialises a
            second stack-sized buffer.
        fusions: per timestamp, ``(row, observation pdf)`` pairs
            applied as Lemma 1 evidence fusion (elementwise product,
            renormalise; zero mass raises
            :class:`~repro.core.errors.InfeasibleEvidenceError`).
        harvests: per timestamp, the rows (any integer sequence)
            whose result is read there.
        read: ``"top"`` makes the sweep absorbing (Section V-A: the
            ``S_q`` mass moves onto TOP after each step into ``T_q``)
            and reads TOP; ``"tail"`` keeps a shadow row per row for
            the worlds that have hit ``S_q`` and reads its mass
            (Section VI, the only sweeps that fuse).
        stop_threshold: early termination (Section V-C): stop as soon
            as every *unharvested* row's read value reaches this bound
            (single-row threshold queries); the values read so far are
            returned as lower bounds.
        reach: per state the Section V-C steps into ``S_q`` (TOP 0): a
            ``read="top"`` frontier stepping into ``t`` drops mass
            labelled above ``last - (t - 1)``, which no kept entry needs.
        groups: optional per-row group ids (a shard worker's shard per
            row): a frontier densifies each group on its own fill.
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
    stop_threshold: Optional[float] = None
    reach: Optional[np.ndarray] = None
    groups: Optional[np.ndarray] = None


class _DenseStack:
    """The stacked distributions of all objects as one dense array.

    Kept for stacks too small to pay the frontier's bookkeeping, and
    for a frontier that has filled in.  The stack is kept *transposed*
    -- a C-contiguous ``(states, rows)`` array -- so each transition
    is ``M^T @ X^T`` over the chain's cached transpose: one CSR
    matvecs kernel call per timestep with no copies in the loop.  With
    ``shadow`` the second half of the columns are the first half's
    shadow rows (Section VI).
    """

    def __init__(self, chain, n_columns: int, shadow: bool = False) -> None:
        self.transpose = chain.transpose_matrix()
        self.stack = np.zeros((chain.n_states, n_columns), dtype=float)
        self.half = n_columns // 2 if shadow else None
        # per row, the mass on TOP (an absorbing sweep's answer)
        self.absorbed = np.zeros(n_columns, dtype=float)

    def activate(
        self, rows: np.ndarray, states: np.ndarray, values: np.ndarray
    ) -> None:
        """Write sparse entries ``(rows[i], states[i]) = values[i]``."""
        self.stack[states, rows] = values

    def fuse(self, row: int, pdf: np.ndarray) -> float:
        """Lemma 1 on one row and its shadow: multiply by ``pdf``,
        renormalise over both.

        Returns the mass before renormalising; at zero the row is left
        as it was and the caller raises.
        """
        columns = [row] if self.half is None else [row, row + self.half]
        fused = self.stack[:, columns] * pdf[:, None]
        total = float(fused.sum())
        if total > 0.0:
            self.stack[:, columns] = fused / total
        return total

    def read(self, rows) -> np.ndarray:
        """Per row, its total mass."""
        return self.stack[:, rows].sum(axis=0)

    def trim(self, reach: np.ndarray, budget: int) -> None:
        """No-op: the dense stack steps every state anyway."""

    def absorb(self, inside: np.ndarray) -> None:
        """Move every row's mass on the states ``inside`` marks into
        :attr:`absorbed`, or into its shadow row -- a step on ``M``
        followed by this is one on ``M_plus``."""
        if self.half is None:
            self.absorbed += self.stack[inside].sum(axis=0)
            self.stack[inside] = 0.0
        else:
            self.stack[inside, self.half:] += self.stack[inside, :self.half]
            self.stack[inside, :self.half] = 0.0

    def step(self) -> "_DenseStack":
        self.stack = self.transpose @ self.stack
        return self


class _Frontier:
    """The stacked distributions as a ``(rows, states)`` CSR frontier.

    Each transition is one CSR x CSR product ``X @ M``, so a step
    costs what the objects' supports have spread to, not ``|S|`` per
    object (the paper's Fig. 9 / 11 argument for the object-based
    pass), and the frontier holds none of the zeros a dense stack
    would carry.  scipy's product drops the zeros a fusion leaves.
    Once a row group's supports have spread over ``_DENSE_FILL`` of
    its cells, its rows move into a :class:`_DenseStack` block of their
    own, which queues its steps and runs them back to back (in cache)
    when its rows are next read; the other rows keep the shared CSR
    product and the trim.  Without groups the whole stack is one group
    and :meth:`step` hands the sweep over to its block.  With
    ``shadow`` row ``r + rows / 2`` is row ``r``'s shadow (Section
    VI); ``groups`` then covers both halves, so a row and its shadow
    densify together and keep that layout in their block.
    """

    def __init__(
        self, chain, n_rows: int, groups=None, shadow: bool = False
    ) -> None:
        self.chain = chain
        self.matrix = chain.matrix
        width = chain.n_states
        self.x = sp.csr_matrix((n_rows, width), dtype=float)
        self.half = n_rows // 2 if shadow else None
        self._absorbed = np.zeros(n_rows, dtype=float)
        self.groups = (
            np.zeros(n_rows, dtype=np.int64) if groups is None
            else np.unique(groups, return_inverse=True)[1].ravel()
        )
        self._dense_at = _DENSE_FILL * width * np.bincount(self.groups)
        # group -> (rows, dense block, queued operations); a dense
        # row's column in its block, -1 on the frontier
        self.blocks: Dict[int, Tuple[np.ndarray, _DenseStack, list]] = {}
        self.column = np.full(n_rows, -1, dtype=np.int64)

    @property
    def absorbed(self) -> np.ndarray:
        """Per row, the mass on TOP."""
        for group in self.blocks:
            self._block(group)
        return self._absorbed

    def _block(self, group: int) -> "_DenseStack":
        """The group's dense block, its queued operations run."""
        _rows, block, queued = self.blocks[group]
        for operation in queued:
            operation()
        queued.clear()
        return block

    def _owners(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(
            np.arange(self.x.shape[0]), np.diff(self.x.indptr)
        )

    def _keep(self, keep: np.ndarray) -> None:
        """Drop the stored entries ``keep`` rejects, in stored order."""
        x, kept = self.x, np.concatenate(([0], np.cumsum(keep)))
        self.x = sp.csr_matrix(
            (x.data[keep], x.indices[keep], kept[x.indptr]), shape=x.shape
        )

    def activate(
        self, rows: np.ndarray, states: np.ndarray, values: np.ndarray
    ) -> None:
        """Add sparse entries ``(rows[i], states[i])`` -- activated rows
        are still empty, so adding is assigning.  Rows of a dense group
        join its block."""
        column = self.column[rows]
        for group in np.unique(self.groups[rows[column >= 0]]).tolist():
            mine = (column >= 0) & (self.groups[rows] == group)
            self._block(group).activate(
                column[mine], states[mine], values[mine]
            )
        sparse = column < 0
        self.x = self.x + sp.csr_matrix(
            (values[sparse], (rows[sparse], states[sparse])),
            shape=self.x.shape,
        )

    def fuse(self, row: int, pdf: np.ndarray) -> float:
        """:meth:`_DenseStack.fuse` on the stored entries of the row
        and its shadow."""
        if self.column[row] >= 0:
            return self._block(self.groups[row]).fuse(self.column[row], pdf)
        x = self.x
        entries = np.r_[x.indptr[row]:x.indptr[row + 1]]
        if self.half is not None:
            shadow = row + self.half
            entries = np.r_[entries, x.indptr[shadow]:x.indptr[shadow + 1]]
        fused = x.data[entries] * pdf[x.indices[entries]]
        total = float(fused.sum())
        if total > 0.0:
            x.data[entries] = fused / total
        return total

    def read(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`_DenseStack.read` as one bincount over the entries."""
        x = self.x
        # float even when no entry is stored (bincount's empty case)
        out = np.bincount(
            self._owners(), weights=x.data, minlength=x.shape[0]
        ).astype(float)
        for group, (block_rows, _block, _queued) in self.blocks.items():
            out[block_rows] = self._block(group).read(slice(None))
        return out[rows]

    def trim(self, reach: np.ndarray, budget: int) -> None:
        """Drop the entries labelled above ``budget``, in stored order."""
        self._keep(reach[self.x.indices] <= budget)

    def absorb(self, inside: np.ndarray) -> None:
        """:meth:`_DenseStack.absorb` on the stored entries: the zeros
        left behind drop out of the next product."""
        x = self.x
        owners = self._owners()
        hit = inside[x.indices]
        if self.half is None:
            self._absorbed += np.bincount(
                owners[hit], weights=x.data[hit], minlength=x.shape[0]
            )
            x.data[hit] = 0.0
        else:
            hit &= owners < self.half
            moved = sp.csr_matrix(
                (x.data[hit], (owners[hit] + self.half, x.indices[hit])),
                shape=x.shape,
            )
            x.data[hit] = 0.0
            self.x = x + moved
        for rows, block, queued in self.blocks.values():
            queued.append(partial(self._absorb_block, rows, block, inside))

    def _absorb_block(self, rows, block, inside) -> None:
        if block.half is not None:
            block.absorb(inside)
            return
        self._absorbed[rows] += block.stack[inside].sum(axis=0)
        block.stack[inside] = 0.0

    def step(self):
        """Advance one timestep; returns the stack to continue with."""
        self.x = self.x @ self.matrix
        for _rows, block, queued in self.blocks.values():
            queued.append(block.step)
        if self.x.nnz < self._dense_at.min():
            return self
        fill = np.bincount(self.groups, weights=np.diff(self.x.indptr))
        full = np.flatnonzero(fill >= self._dense_at)
        if not full.size:
            return self
        owners = self._owners()
        owner_groups = self.groups[owners]
        for group in full.tolist():
            rows = np.flatnonzero(self.groups == group)
            self.column[rows] = np.arange(len(rows))
            block = _DenseStack(
                self.chain, len(rows), shadow=self.half is not None
            )
            self.blocks[group] = rows, block, []
            mine = owner_groups == group
            block.activate(self.column[owners[mine]], self.x.indices[mine],
                           self.x.data[mine])
        if len(full) == len(self._dense_at) == 1:
            # the whole stack went dense: continue on its block
            block.absorbed = self._absorbed
            return block
        self._keep(~np.isin(owner_groups, full))
        return self


# Stacks of at least this many cells (rows x states, TOP counted for
# an absorbing sweep) sweep as a CSR frontier, smaller ones stay dense.
# Measured on a 2-core x86 box (scipy 1.17), chains of 5 successors per
# state: from 12-16k cells up, 1-4 objects over 6,000-8,000 states
# (with their shadow rows) sweep 1.4-4x faster as a frontier; 5-40
# rows over 1,500 states (7.5-60k cells) sweep 0.4-0.9x as fast, a
# CSR x CSR step carrying ~60 us of fixed cost a small dense step does
# not.
_FRONTIER_MIN_CELLS = 1 << 15
# A frontier holding this share of its cells densifies.  Same box:
# one CSR step costs one dense step at 5-8 % fill (300 x 5,001 and
# 500 x 20,001 OB stacks), and densifying costs about one dense step.
# On Section VI sweeps of 40-127 objects over 6,000 states and 68-125
# steps, 1/16 and 1/32 ran 1.0-1.3x as fast as dense, 1/8 0.6-1.0x,
# and never densifying 0.4-0.8x.  A shard worker's stack densifies per
# row group (per shard): on a 16-shard store of 2,000 objects x 4,001
# states, region [0, 1599], times [60, 120], OB with the filters off,
# one stack per worker densified on its aggregate fill and took
# 2.4-2.6 s per scatter against 1.38 s for one task per shard;
# grouped, 1.46 s (2.0 s with the dense blocks stepped in lockstep
# rather than back to back).
_DENSE_FILL = 1 / 16


def sweeps_frontier(n_cells: int) -> bool:
    """Whether a sweep over ``n_cells`` stack cells starts on a
    :class:`_Frontier`."""
    return n_cells >= _FRONTIER_MIN_CELLS


class ForwardSweep(Operator):
    """One stacked forward pass executing a :class:`SweepSchedule`.

    This is the single implementation behind the Section V-A
    object-based pass, the Section VI pass (via ``fusions`` +
    ``read="tail"``), and the per-object OB fallback (a one-row
    schedule).  ``inputs`` is the schedule; the result is one value
    per schedule row.  Every step multiplies by the chain's own ``M``;
    no augmented matrix is built.

    An absorbing (Section V-A) sweep keeps TOP's mass per row in the
    stack's ``absorbed`` vector: ``x . M_minus`` is ``x_real . M`` with
    TOP kept, and ``x . M_plus`` is that with the ``S_q`` mass then
    moved onto TOP, which the sweep does after each step into ``T_q``;
    ``read="top"`` reads ``absorbed``.  A Section VI sweep stacks each
    object as two rows over the real states: row ``r`` has not hit
    ``S_q`` yet and its shadow row ``r + n_rows`` has.  Both step on
    ``M``, and after each step into ``T_q`` (or at a start at a query
    time) row ``r``'s ``S_q`` entries move into the shadow row -- this
    is ``diag(M, M)`` followed by the ``M_in`` move, the doubled
    ``M_plus``.  A fusion multiplies both rows by the pdf and
    renormalises over the two together; ``read="tail"`` sums the
    shadow row.

    A stack of at least ``_FRONTIER_MIN_CELLS`` cells sweeps as a
    :class:`_Frontier`, a smaller one as a :class:`_DenseStack`.  Both
    give the same answers to rounding; an absorbing frontier trims to
    ``schedule.reach``.
    """

    name = "forward_sweep"

    def run(self, inputs, chain, region, context=None, **_):
        schedule = inputs
        n, n_rows = chain.n_states, schedule.n_rows
        absorbs = schedule.read == "top"
        if absorbs:
            height, cells, groups = n_rows, n_rows * (n + 1), schedule.groups
        else:
            # Section VI: row r + n_rows is row r's shadow
            height = 2 * n_rows
            cells = height * n
            groups = schedule.groups
            if groups is not None:
                groups = np.tile(groups, 2)
        if sweeps_frontier(cells):
            stack = _Frontier(chain, height, groups, shadow=not absorbs)
        else:
            stack = _DenseStack(chain, height, shadow=not absorbs)
        result = np.zeros(n_rows, dtype=float)

        def read(rows) -> np.ndarray:
            if absorbs:
                return stack.absorbed[rows]
            return stack.read(rows + n_rows)

        every_row = np.arange(n_rows)
        inside = np.zeros(n, dtype=bool)
        inside[region.array] = True

        def visit(time: int) -> bool:
            if time in schedule.activations:
                rows, block = schedule.activations[time]
                if absorbs:
                    entry_rows, states, values = extend_block(
                        block, region, time, schedule.times
                    )
                    rows = rows[entry_rows]
                    # TOP entries start the row's absorbed mass; rows
                    # are fresh
                    top = states == n
                    stack.absorbed[rows[top]] = values[top]
                    rows, states, values = rows[~top], states[~top], values[~top]
                else:
                    rows, states, values = (
                        rows[block.entry_rows()], block.states, block.probs
                    )
                    if time in schedule.times:
                        # a start at a query time has hit S_q already
                        rows = np.where(inside[states], rows + n_rows, rows)
                stack.activate(rows, states, values)
            for row, pdf in schedule.fusions.get(time, ()):
                if stack.fuse(row, pdf) <= 0.0:
                    raise InfeasibleEvidenceError(
                        f"observation at t={time} contradicts the "
                        f"trajectory model: posterior mass is zero"
                    )
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
            if schedule.reach is not None:
                stack.trim(schedule.reach, schedule.last - (time - 1))
            stack = stack.step()
            if time in schedule.times:
                stack.absorb(inside)
            if visit(time):
                return read(every_row)
        return result


# ----------------------------------------------------------------------
# BackwardSweep
# ----------------------------------------------------------------------
class BackwardSweep(Operator):
    """Section V-B backward vectors for every requested start time.

    ``inputs`` is ``(window, start_times)``.  One pass from ``t_end``
    down to the earliest start yields ``v(t)`` for *all* intermediate
    ``t``; the requested ones are copied out.  The pass steps the
    chain's own matrix, not the Section V-A pair: ``v[TOP]`` is 1 at
    every step, so ``M_plus . v = M . (v with its S_q entries set to
    1)`` and ``M_minus . v = M . v``.  A step into a query time
    therefore sets ``real[S_q] = 1`` and then takes ``real <- M .
    real``; the returned ``(n + 1)`` vectors carry ``TOP = 1``.

    Each step multiplies only the rows ``real``'s support can reach
    (:meth:`~repro.core.markov.MarkovChain.window_product`, bit-identical
    to ``M @ real``): the hull ``[lo, hi)`` takes in ``S_q``'s at a
    query time and widens by :meth:`~repro.core.markov.MarkovChain.band`
    to ``[lo - up, hi + down)`` per step.
    """

    name = "backward_sweep"

    def run(self, inputs, chain, region, context=None, **_):
        window, start_times = inputs
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
        columns = window.region.array
        n = chain.n_states
        down, up = chain.band()
        real = np.zeros(n, dtype=float)
        lo, hi = n, 0  # the hull of real's support, empty so far
        keep = set(wanted)

        def augmented() -> np.ndarray:
            vector = np.empty(n + 1, dtype=float)
            vector[:n] = real
            vector[n] = 1.0
            return vector

        result: Dict[int, np.ndarray] = {}
        if window.t_end in keep:  # degenerate: observation at t_end
            result[window.t_end] = augmented()
        for time in range(window.t_end - 1, wanted[0] - 1, -1):
            if time + 1 in window.times:
                real[columns] = 1.0
                lo = min(lo, int(columns[0]))
                hi = max(hi, int(columns[-1]) + 1)
            lo, hi = max(0, lo - up), min(n, hi + down)
            real = chain.window_product(real, lo, hi)
            if time in keep:
                result[time] = augmented()
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

    def run(self, inputs, chain, region, context=None, **_):
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

    def run(self, inputs, chain, region, context=None, **_):
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
            if target in window.times:
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

    Each step multiplies a row window of ``M^T``
    (:meth:`~repro.core.markov.MarkovChain.window_product`): the
    support's hull grows by ``(down, up)`` per step
    (:meth:`~repro.core.markov.MarkovChain.band`), clipped to the
    states that reach the next observation's support hull ``[t_lo,
    t_hi)`` in the ``left`` steps that remain, ``[t_lo - left*up, t_hi
    + left*down)``.  Mass outside that lens never meets a non-zero of
    the observation pdf, so the fused, normalised posterior is
    bit-identical to stepping all of ``M^T``.
    """

    name = "posterior_collapse"

    def run(self, inputs, chain, region, context=None, **_):
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
        n = chain.n_states
        down, up = chain.band()
        for observation in observations.after(time):
            steps, time = observation.time - time, observation.time
            pdf = np.asarray(observation.distribution.vector, dtype=float)
            support, target = np.flatnonzero(vector), np.flatnonzero(pdf)
            lo = hi = 0
            if support.size:
                lo, hi = int(support[0]), int(support[-1]) + 1
            t_lo, t_hi = int(target[0]), int(target[-1]) + 1
            for left in range(steps - 1, -1, -1):
                lo = max(0, lo - down, t_lo - left * up)
                hi = max(lo, min(n, hi + up, t_hi + left * down))
                vector = chain.window_product(vector, lo, hi, True)
            vector = vector * pdf
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
    """Monte-Carlo PST-exists or k-times for many objects sharing a
    chain: ``inputs`` are the arguments of one columnar
    :meth:`~repro.core.montecarlo.MonteCarloSampler.estimate` call.
    Each object samples from its own seed, so its estimate is
    independent of which other objects a pruning stage removed.
    """

    name = "mc_sample"

    def run(self, inputs, chain, region, context=None, **_):
        from repro.core.montecarlo import MonteCarloSampler

        return MonteCarloSampler(chain).estimate(*inputs)


# ----------------------------------------------------------------------
# LadderExtend
# ----------------------------------------------------------------------
class LadderExtend(Operator):
    """Extend a backward-vector ladder by repeated steps of the chain
    matrix (TOP and any trailing entries copied).

    ``inputs`` is ``(matrix, base, steps)``; writes the ``steps``
    new rungs ``[M.base, M^2.base, ...]`` along axis 0 of ``out``
    (``(steps,) + base.shape``, the spare tail of the caller's ladder
    array) and returns it.  ``matrix`` steps the
    leading ``matrix.shape[0]`` entries of each rung and the rest are
    copied: an exists rung's TOP entry stays 1 under the chain matrix,
    since ``M_minus``'s real rows are exactly ``M``'s (bit-identical
    rungs).
    This is the streaming engine's per-tick kernel: shift invariance
    makes every slid window's backward column a plain ``M_minus``
    extension of the previous one.
    """

    name = "ladder_extend"

    def run(self, inputs, chain, region, out, context=None, **_):
        matrix, base, steps = inputs
        n = matrix.shape[0]
        vector = base
        for step in range(steps):
            out[step][:n] = matrix @ vector[:n]
            out[step][n:] = vector[n:]
            vector = out[step]
        return out


# ----------------------------------------------------------------------
# filter-stage wrappers
# ----------------------------------------------------------------------
class BfsPrune(Operator):
    """Section V-C reachability filter over a block of objects.

    ``inputs`` is ``(fetch_levels, block, start_times, t_end)`` -- see
    :func:`repro.database.pruning.reachable_rows`, which this times;
    returns the boolean keep-mask over the block's rows.  The pipeline
    feeds it a cohort's candidate rows, store shard workers their slab
    rows.  Two instances: :data:`BFS_PRUNE` over the exact reverse-BFS
    labels (the pruner's, or the worker-local ones), and
    :data:`PREFILTER` over the geometric lower bound of
    :meth:`~repro.database.pruning.GeometricPrefilter.probe`.  Safe by
    construction: a dropped row provably has probability zero in the
    window.
    """

    def __init__(self, name: str = "bfs_prune") -> None:
        self.name = name

    def run(self, inputs, chain, region, context=None, **_):
        from repro.database.pruning import reachable_rows

        return reachable_rows(*inputs)


# Shared singleton instances -- operators are stateless, so one of each
# serves every caller (including forked workers).
FORWARD_SWEEP = ForwardSweep()
BACKWARD_SWEEP = BackwardSweep()
KTIMES_SWEEP = KTimesSweep()
KTIMES_CORE = KTimesCore()
POSTERIOR_COLLAPSE = PosteriorCollapse()
MC_SAMPLE = MCSample()
LADDER_EXTEND = LadderExtend()
PREFILTER = BfsPrune("prefilter")
BFS_PRUNE = BfsPrune()
