"""Deterministic fault injection for the execution layer.

The fault-tolerant dispatch of :mod:`repro.exec.dispatch` (supervised
timeouts, pool rebuilds, tier degradation) and the transactional
streaming ticks of :mod:`repro.core.streaming` are only trustworthy if
their recovery paths can be *driven on demand*.  This module provides
the chaos hooks: a :class:`FaultInjector` holds a list of
:class:`FaultSpec` rules and is threaded through the
:class:`~repro.exec.operators.ExecutionContext` (and pickled into
worker-process shard tasks), and the execution layer calls
:meth:`FaultInjector.fire` at named *sites*.  A spec that matches a
site fires its action -- raise, kill the worker, sleep past a
deadline -- a configured number of times, deterministically.

Sites currently wired through the engine:

``worker:store-shard``
    per shard of a pool task in
    :func:`repro.exec.dispatch._evaluate_store_shards`, for every
    process-dispatched query (a sharded store's shards, or the spill of
    an in-RAM database); info carries ``shard_id``, the task's
    ``attempt``, ``pid``.  A failed task is retried one shard per task;
    exhausted retries degrade the shard to in-parent evaluation.
``operator:<name>``
    every :class:`~repro.exec.operators.Operator` call (e.g.
    ``operator:forward_sweep``); fires on the calling side, which is
    the worker process under process dispatch.
``dispatch:submit``
    parent side, inside :func:`repro.exec.dispatch.supervise`
    immediately before each ``executor.submit``; info carries
    ``index`` (position in the scatter),
    ``attempt`` and ``label``.  Raising ``BrokenProcessPool`` here
    drives the kill-during-scatter window deterministically: the
    supervisor replaces the pool and moves every unfinished task over.
``streaming:tick`` / ``streaming:commit``
    inside :meth:`~repro.core.streaming.StandingQuery.tick`, after the
    journal sync and after evaluation (before the commit point); info
    carries ``tick``.

Example -- kill the worker evaluating the first shard, first attempt
only (the supervisor's pool rebuild then recovers the query)::

    faults = FaultInjector(
        FaultSpec(site="worker:store-shard", action="kill",
                  match={"shard_id": "shard-0000", "attempt": 0}),
    )
    engine.evaluate(query, options=PlanOptions(
        dispatch="process", faults=faults))

Injectors are deliberately cheap when idle (one attribute check per
site) and never installed by default -- production queries carry
``faults=None`` everywhere.
"""

from __future__ import annotations

import os
import signal
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

from repro.core.errors import InjectedFaultError, ValidationError

__all__ = ["FaultSpec", "FaultInjector"]

_ACTIONS = ("raise", "kill", "delay")


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic chaos rule.

    Attributes:
        site: the hook name the rule listens on (see module docs).
        action: ``"raise"`` (raise :attr:`exception`), ``"kill"``
            (SIGKILL the current process -- only honoured in a child
            of the process that built the injector, so a spec can
            never kill the test runner itself; in the origin process
            it raises instead), or ``"delay"`` (sleep
            :attr:`delay_seconds`).
        match: event-info keys that must all be present and equal for
            the rule to count the event (e.g. ``{"attempt": 0}`` fires
            on first attempts only, making retries succeed).
        times: how many matching events fire the action before the
            rule disarms; ``None`` fires forever.
        after: matching events to skip before the first firing (e.g.
            ``after=2`` poisons the third streaming tick).
        delay_seconds: sleep length for ``"delay"``.
        exception: the type ``"raise"`` instantiates.
        message: text for the raised exception.
    """

    site: str
    action: str = "raise"
    match: Mapping[str, Any] = field(default_factory=dict)
    times: Optional[int] = 1
    after: int = 0
    delay_seconds: float = 0.0
    exception: Type[BaseException] = InjectedFaultError
    message: str = ""

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValidationError(
                f"unknown fault action {self.action!r}; expected one "
                f"of {_ACTIONS}"
            )
        if self.times is not None and self.times < 1:
            raise ValidationError(
                f"times must be >= 1 or None, got {self.times!r}"
            )
        if self.after < 0:
            raise ValidationError(
                f"after must be >= 0, got {self.after!r}"
            )
        if self.delay_seconds < 0:
            raise ValidationError(
                f"delay_seconds must be >= 0, got "
                f"{self.delay_seconds!r}"
            )


class FaultInjector:
    """Fires :class:`FaultSpec` actions at named execution sites.

    Deterministic by construction: rules match on explicit event info
    (shard row, attempt number, tick index) and count matching events,
    never on wall-clock or randomness.  The injector pickles into
    worker tasks -- each task carries its own counter state, which is
    why specs that should fire once per *query* match on
    ``attempt``/``row_lo`` rather than relying on shared counters.

    Thread-safe on the parent side (one lock around the counters);
    the lock is dropped on pickling and re-created on load.
    """

    def __init__(self, *specs: FaultSpec) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self._seen: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._origin_pid = os.getpid()
        self._lock = threading.Lock()

    # -- pickling: locks do not cross the process boundary -------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def add(self, spec: FaultSpec) -> "FaultInjector":
        """Arm one more rule; returns self for chaining."""
        self.specs.append(spec)
        return self

    def fired(self, site: Optional[str] = None) -> int:
        """Total actions fired (optionally for one site) -- parent
        side only; worker-side counters live in the worker's copy."""
        with self._lock:
            return sum(
                count
                for index, count in self._fired.items()
                if site is None or self.specs[index].site == site
            )

    def _matching(self, site: str, info: Mapping[str, Any]):
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if any(
                key not in info or info[key] != value
                for key, value in spec.match.items()
            ):
                continue
            yield index, spec

    def fire(self, site: str, **info: Any) -> None:
        """Report one event; execute every armed rule it matches."""
        actions: List[Tuple[FaultSpec, Dict[str, Any]]] = []
        with self._lock:
            for index, spec in self._matching(site, info):
                seen = self._seen.get(index, 0) + 1
                self._seen[index] = seen
                if seen <= spec.after:
                    continue
                if (
                    spec.times is not None
                    and seen > spec.after + spec.times
                ):
                    continue
                self._fired[index] = self._fired.get(index, 0) + 1
                actions.append((spec, dict(info)))
        for spec, event in actions:
            self._execute(spec, event)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _execute(self, spec: FaultSpec, info: Dict[str, Any]) -> None:
        if spec.action == "delay":
            _time.sleep(spec.delay_seconds)
            return
        if spec.action == "kill":
            if os.getpid() != self._origin_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            # in the origin process a kill would take down the caller
            # (typically the test runner); degrade to a raise so the
            # spec still exercises a failure path
            raise spec.exception(
                spec.message
                or f"injected kill at {spec.site} refused in origin "
                f"process {self._origin_pid}"
            )
        raise spec.exception(
            spec.message or f"injected fault at {spec.site}: {info}"
        )
