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
  :class:`~repro.exec.operators.Prefilter` /
  :class:`~repro.exec.operators.BfsPrune` filter wrappers) with uniform
  ``(inputs, chain, region, backend) -> arrays`` signatures and
  per-call timing hooks collected on an
  :class:`~repro.exec.operators.ExecutionContext`;
* :mod:`repro.exec.dispatch` -- process-pool dispatch of operator
  work (the alternative to serial evaluation in the calling thread),
  with CSR matrices and stacked state
  vectors published once into :mod:`multiprocessing.shared_memory`
  and rebuilt pickle-free on the worker side, run under a supervisor
  (cost-priced deadlines, retry with pool rebuild, tier degradation)
  with a startup janitor for segments leaked by crashed sessions;
* :mod:`repro.exec.faults` -- deterministic fault injection
  (:class:`~repro.exec.faults.FaultInjector` /
  :class:`~repro.exec.faults.FaultSpec`) driving the recovery paths
  on demand in the fault-tolerance test suite;
* :mod:`repro.exec.calibrate` -- measures each operator over a
  parameter grid and least-squares-fits the
  :class:`~repro.core.planner.CostModel` coefficients so the planner's
  choices reflect the hardware it actually runs on.
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
    Prefilter,
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
    "Prefilter",
    "SweepSchedule",
    "FaultInjector",
    "FaultSpec",
    "SegmentInfo",
    "list_segments",
    "memory_stats",
    "sweep_orphans",
]
