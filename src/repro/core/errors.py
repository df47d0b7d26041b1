"""Exception hierarchy for the :mod:`repro` library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Validation failures raise the most specific subclass
available; the message always names the offending value.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An input value violates a documented invariant."""


class NotStochasticError(ValidationError):
    """A transition matrix is not row-stochastic.

    Raised when a row of a transition matrix contains a negative entry or
    does not sum to one (within tolerance).
    """


class DimensionMismatchError(ValidationError):
    """Two linear-algebra operands have incompatible shapes."""


class StateSpaceError(ValidationError):
    """A state index or geometric coordinate is outside the state space."""


class QueryError(ValidationError):
    """A query specification is malformed (empty regions, bad times...)."""


class ObservationError(ValidationError):
    """An observation is inconsistent (bad time, zero-mass distribution...)."""


class InfeasibleEvidenceError(ReproError):
    """All possible worlds were eliminated by the given observations.

    Raised by observation fusion (Lemma 1 of the paper) when the product of
    the observation distributions has zero total mass, i.e. the observations
    contradict each other under the model.
    """


class SerializationError(ReproError):
    """A persisted artifact cannot be read or written."""


class ExecutionError(ReproError):
    """A failure in the execution substrate (the process pool).

    Unlike :class:`ValidationError` (the *input* was wrong), an
    execution error means the *machinery* failed: a worker process
    died, or a task overran its deadline.  The supervised dispatch
    layer (:mod:`repro.exec.dispatch`) retries transient execution
    errors and evaluates an exhausted shard in the parent, so user
    code normally only sees this after every recovery path was
    exhausted.
    """


class WorkerCrashError(ExecutionError):
    """A pool worker process died mid-task.

    What the dispatch supervisor reports once pool rebuilds and
    resubmissions failed ``max_retries`` times in a row; the shard is
    then evaluated in the parent.  A single crash is recovered
    transparently (the pool is rebuilt and the unfinished shards
    resubmitted) and only recorded as a ``plan.degradations`` event.
    """


class TaskTimeoutError(ExecutionError):
    """A dispatched task overran its supervised deadline.

    Deadlines are priced from the
    :class:`~repro.core.planner.CostModel` (predicted seconds times
    :attr:`~repro.core.planner.SupervisorPolicy.timeout_multiplier`);
    a timed-out pool is torn down (the hung worker cannot be
    reclaimed) and the task retried on a fresh one before this is
    reported and the shard evaluated in the parent.
    """


class InjectedFaultError(ExecutionError):
    """The deterministic chaos hook of :mod:`repro.exec.faults` fired.

    Never raised in production -- only by a
    :class:`~repro.exec.faults.FaultInjector` threaded through an
    :class:`~repro.exec.operators.ExecutionContext` in fault-injection
    tests, so recovery paths can be driven deterministically.
    """


class AdmissionRejected(ReproError):
    """The query service refused to admit a request.

    Raised by :meth:`repro.service.QueryService.submit` *before* any
    kernel work happens, when the cost-priced admission control of the
    request broker decides the request cannot (or should not) run:

    * the owning tenant's token budget is exhausted,
    * the predicted backlog already exceeds the service's
      ``backlog_budget_seconds`` (load shedding), or
    * the request's deadline is infeasible against the cost model's
      wall-time prediction.

    The message names the reason and the prices involved; the
    :attr:`reason` attribute carries a stable machine-readable tag
    (``"tenant-budget"``, ``"backlog"``, ``"deadline"`` or
    ``"stopped"``) so load generators can bucket rejections.
    """

    def __init__(self, message: str, reason: str = "backlog") -> None:
        super().__init__(message)
        self.reason = reason


class QuarantinedQueryError(ExecutionError):
    """A standing query was quarantined after repeated tick failures.

    The original error is recorded on
    :attr:`~repro.core.streaming.StandingQuery.error`; call
    :meth:`~repro.core.streaming.StandingQuery.reset` to rebuild the
    query's state from the database and resume ticking.
    """


class DegradedExecutionWarning(UserWarning):
    """Execution fell back to a slower-but-safe tier.

    Emitted (via :mod:`warnings`) when process dispatch cannot serve
    the engine and the evaluate stage degrades process -> serial.  The
    query still returns the exact answer; the degradation is also
    recorded on ``plan.degradations`` so ``explain()`` shows what
    happened.
    """
