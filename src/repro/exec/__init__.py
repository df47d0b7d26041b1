"""Unified operator execution layer.

Every execution mode of the engine -- the batched qb/ob sweeps, the
per-object fallbacks, the Monte-Carlo sampler, the streaming ladder,
and the filter stages -- used to carry its own copy of the same few
kernels.  This package is the single home of those kernels:

* :mod:`repro.exec.operators` -- the operator abstraction
  (:class:`~repro.exec.operators.BuildMatrices`,
  :class:`~repro.exec.operators.ForwardSweep`,
  :class:`~repro.exec.operators.BackwardSweep`,
  :class:`~repro.exec.operators.PosteriorCollapse`,
  :class:`~repro.exec.operators.MCSample`,
  :class:`~repro.exec.operators.LadderExtend`, plus the
  :class:`~repro.exec.operators.BfsPrune` filter wrapper) with uniform
  ``(inputs, chain, region) -> arrays`` signatures and
  per-call timing hooks collected on an
  :class:`~repro.exec.operators.ExecutionContext`;
* :mod:`repro.exec.dispatch` -- process-pool dispatch of operator
  work (the alternative to serial evaluation in the calling thread):
  workers memory-map a store's slab shards (an
  in-RAM database is spilled once per version into the same slab
  format), run under a supervisor (cost-priced deadlines, retry with
  pool rebuild, degradation of a shard to the parent) with a startup
  janitor for spills leaked by crashed sessions;
* :mod:`repro.exec.faults` -- deterministic fault injection
  (:class:`~repro.exec.faults.FaultInjector` /
  :class:`~repro.exec.faults.FaultSpec`) driving the recovery paths
  on demand in the fault-tolerance test suite.
"""

from repro.exec.dispatch import (
    SegmentInfo,
    list_segments,
    memory_stats,
    sweep_orphans,
)
from repro.exec.faults import FaultInjector, FaultSpec
from repro.exec.operators import (
    BACKWARD_SWEEP,
    BFS_PRUNE,
    BUILD_ABSORBING,
    BUILD_DOUBLED,
    FORWARD_SWEEP,
    LADDER_EXTEND,
    MC_SAMPLE,
    POSTERIOR_COLLAPSE,
    PREFILTER,
    BackwardSweep,
    BfsPrune,
    BuildMatrices,
    ExecutionContext,
    ForwardSweep,
    LadderExtend,
    MCSample,
    Operator,
    OperatorStats,
    PosteriorCollapse,
    SweepSchedule,
)

__all__ = [
    "BACKWARD_SWEEP",
    "BFS_PRUNE",
    "BUILD_ABSORBING",
    "BUILD_DOUBLED",
    "FORWARD_SWEEP",
    "LADDER_EXTEND",
    "MC_SAMPLE",
    "POSTERIOR_COLLAPSE",
    "PREFILTER",
    "BackwardSweep",
    "BfsPrune",
    "BuildMatrices",
    "ExecutionContext",
    "ForwardSweep",
    "LadderExtend",
    "MCSample",
    "Operator",
    "OperatorStats",
    "PosteriorCollapse",
    "SweepSchedule",
    "FaultInjector",
    "FaultSpec",
    "SegmentInfo",
    "list_segments",
    "memory_stats",
    "sweep_orphans",
]
