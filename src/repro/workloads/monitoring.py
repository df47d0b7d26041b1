"""Sliding-window monitoring workloads.

The paper's motivating scenarios -- iceberg tracking, traffic
surveillance -- are *standing* queries: the same window re-issued every
tick as time advances, while objects enter the monitored area, are
re-sighted, and leave.  This generator produces exactly that shape on
top of the Table I synthetic model:

* a :class:`~repro.database.uncertain_db.TrajectoryDatabase` of
  initially-observed objects over one or more Table I chains;
* a base query window placed ``window_lead`` timestamps ahead, sliding
  ``stride`` timestamps per tick;
* a deterministic per-tick event script
  (:class:`TickEvents`): *arrivals* (new objects observed "now"),
  *re-sightings* (a later observation appended to a live object --
  always feasible, because it is generated around a state actually
  sampled from the object's own trajectory), and *departures*.

The script is data, not side effects: the caller applies each tick's
events through :meth:`MonitoringWorkload.apply` (which routes them
through the database's online
:meth:`~repro.database.uncertain_db.TrajectoryDatabase.append_observation`
/ :meth:`~repro.database.uncertain_db.TrajectoryDatabase.remove`
entry points), so incremental and from-scratch engines can be driven
over the *same* evolving database and compared tick by tick --
which is precisely what the streaming property tests and the
end-to-end benchmark's ``monitor_stream`` workload do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.distribution import StateDistribution
from repro.core.errors import ValidationError
from repro.core.observation import Observation
from repro.core.query import PSTExistsQuery, SpatioTemporalWindow
from repro.core.state_space import LineStateSpace
from repro.core.trajectory import sample_trajectory
from repro.database.objects import UncertainObject
from repro.database.uncertain_db import TrajectoryDatabase
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

__all__ = [
    "MonitoringConfig",
    "TickEvents",
    "MonitoringWorkload",
    "make_monitoring_workload",
]


@dataclass(frozen=True)
class MonitoringConfig:
    """Parameters of one monitoring scenario.

    Attributes:
        n_objects: objects present at tick 0.
        n_states: Table I state-space size.
        n_chains: object classes (each with its own Table I chain).
        object_spread: states per observation pdf (Table I).
        state_spread: chain out-degree (Table I).
        max_step: chain locality bound (Table I).
        n_ticks: length of the event script.
        stride: timestamps the window advances per tick.
        window_low: lowest state of the query region.
        window_high: highest state of the query region.
        window_lead: how far ahead of the observations the window
            starts (``T_q`` begins at ``window_lead`` at tick 0).
        window_duration: number of query timestamps ``|T_q|``.
        arrivals_per_tick: new objects entering per tick.
        resightings_per_tick: live objects re-observed per tick.
        departures_per_tick: objects leaving per tick.
        seed: RNG seed; the full scenario is reproducible.
    """

    n_objects: int = 500
    n_states: int = 5_000
    n_chains: int = 1
    object_spread: int = 5
    state_spread: int = 5
    max_step: int = 40
    n_ticks: int = 50
    stride: int = 1
    window_low: int = 100
    window_high: int = 120
    window_lead: int = 20
    window_duration: int = 5
    arrivals_per_tick: int = 2
    resightings_per_tick: int = 2
    departures_per_tick: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_objects < 1:
            raise ValidationError(
                f"n_objects must be positive, got {self.n_objects}"
            )
        if self.n_chains < 1:
            raise ValidationError(
                f"n_chains must be positive, got {self.n_chains}"
            )
        if self.n_ticks < 1:
            raise ValidationError(
                f"n_ticks must be positive, got {self.n_ticks}"
            )
        if self.stride < 1:
            raise ValidationError(
                f"stride must be positive, got {self.stride}"
            )
        if self.window_lead < 1:
            raise ValidationError(
                f"window_lead must be positive (the window starts "
                f"ahead of the observations), got {self.window_lead}"
            )
        if not (
            0 <= self.window_low <= self.window_high < self.n_states
        ):
            raise ValidationError(
                f"window [{self.window_low}, {self.window_high}] "
                f"outside the {self.n_states}-state space"
            )


@dataclass(frozen=True)
class TickEvents:
    """The mutations arriving during one tick.

    Attributes:
        tick: the tick index the events precede.
        arrivals: new objects entering the database.
        resightings: ``(object_id, observation)`` pairs appended to
            live objects (each becomes a Section VI multi-observation
            object).
        departures: object ids leaving the database.
    """

    tick: int
    arrivals: Tuple[UncertainObject, ...] = ()
    resightings: Tuple[Tuple[str, Observation], ...] = ()
    departures: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return (
            len(self.arrivals)
            + len(self.resightings)
            + len(self.departures)
        )


@dataclass
class MonitoringWorkload:
    """A generated monitoring scenario.

    Attributes:
        config: the generating parameters.
        database: the tick-0 database (mutated in place by
            :meth:`apply`).
        query: the base (tick-0) standing query.
        events: one :class:`TickEvents` per tick.
    """

    config: MonitoringConfig
    database: TrajectoryDatabase
    query: PSTExistsQuery
    events: List[TickEvents]

    def apply(self, tick: int) -> TickEvents:
        """Apply tick ``tick``'s events to the database (returns them).

        Routes every event through the database's online mutation
        entry points, exercising the incremental R-tree/journal
        machinery exactly the way a live feed would.
        """
        events = self.events[tick]
        for obj in events.arrivals:
            self.database.add(obj)
        for object_id, observation in events.resightings:
            self.database.append_observation(object_id, observation)
        for object_id in events.departures:
            self.database.remove(object_id)
        return events

    def window_at(self, tick: int) -> SpatioTemporalWindow:
        """The query window evaluated at tick ``tick``."""
        offset = tick * self.config.stride
        return SpatioTemporalWindow(
            self.query.region,
            frozenset(t + offset for t in self.query.times),
        )


def _chain_id(index: int) -> str:
    return f"class-{index}"


def _walk(
    chain, state: int, steps: int, rng: np.random.Generator
) -> int:
    """Advance one sampled possible world ``steps`` transitions."""
    trajectory = sample_trajectory(
        chain,
        StateDistribution.point(chain.n_states, state),
        steps,
        rng,
    )
    return trajectory.states[-1]


def make_monitoring_workload(
    config: MonitoringConfig,
) -> MonitoringWorkload:
    """Generate a full monitoring scenario from ``config``.

    Tick ``k`` evaluates the window over times
    ``[window_lead + k * stride, window_lead + window_duration - 1 +
    k * stride]``; its events happen at "now" (``k * stride``), so
    every observation always precedes the window it is queried
    against.
    """
    rng = np.random.default_rng(config.seed)
    database = TrajectoryDatabase(
        config.n_states, state_space=LineStateSpace(config.n_states)
    )
    chains = []
    for index in range(config.n_chains):
        chain = make_line_chain(
            config.n_states,
            state_spread=config.state_spread,
            max_step=config.max_step,
            rng=rng,
        )
        database.register_chain(_chain_id(index), chain)
        chains.append(chain)

    for index in range(config.n_objects):
        database.add(
            UncertainObject.with_distribution(
                f"obj-{index}",
                make_object_distribution(
                    config.n_states, config.object_spread, rng
                ),
                chain_id=_chain_id(index % config.n_chains),
            )
        )

    window = SpatioTemporalWindow.from_ranges(
        config.window_low,
        config.window_high,
        config.window_lead,
        config.window_lead + config.window_duration - 1,
    )
    query = PSTExistsQuery(window)

    # script the events against a simulated "alive" set so departures
    # and re-sightings always reference live objects.  Each object
    # carries one sampled possible world (its "true" trajectory,
    # advanced lazily); re-sightings are uniform pdfs *around the true
    # state*, which keeps every appended observation feasible: the
    # true path has positive probability and positive weight under
    # each of its observations.
    alive: List[str] = list(database.object_ids)
    chain_index_of: dict = {}
    truth: dict = {}  # object_id -> (true state, its timestamp)
    for index, object_id in enumerate(database.object_ids):
        obj = database.get(object_id)
        chain_index_of[object_id] = index % config.n_chains
        truth[object_id] = (
            obj.initial.distribution.sample(rng),
            obj.initial.time,
        )
    events: List[TickEvents] = []
    next_arrival = 0
    last_sighting = {object_id: 0 for object_id in alive}
    for tick in range(config.n_ticks):
        now = tick * config.stride
        arrivals = []
        for _ in range(config.arrivals_per_tick):
            chain_index = next_arrival % config.n_chains
            distribution = make_object_distribution(
                config.n_states, config.object_spread, rng
            )
            obj = UncertainObject.with_distribution(
                f"arrival-{next_arrival}",
                distribution,
                time=now,
                chain_id=_chain_id(chain_index),
            )
            next_arrival += 1
            arrivals.append(obj)
            alive.append(obj.object_id)
            chain_index_of[obj.object_id] = chain_index
            truth[obj.object_id] = (distribution.sample(rng), now)
            last_sighting[obj.object_id] = now
        resightings = []
        if now >= 1:
            for _ in range(config.resightings_per_tick):
                object_id = alive[int(rng.integers(len(alive)))]
                if last_sighting[object_id] >= now:
                    continue  # already sighted this instant
                chain = chains[chain_index_of[object_id]]
                state, state_time = truth[object_id]
                state = _walk(chain, state, now - state_time, rng)
                truth[object_id] = (state, now)
                half = config.object_spread // 2
                observation = Observation.uniform(
                    now,
                    config.n_states,
                    range(
                        max(0, state - half),
                        min(config.n_states, state + half + 1),
                    ),
                )
                resightings.append((object_id, observation))
                last_sighting[object_id] = now
        departures = []
        for _ in range(config.departures_per_tick):
            if len(alive) <= 1:
                break
            object_id = alive.pop(int(rng.integers(len(alive))))
            if any(object_id == oid for oid, _ in resightings):
                alive.append(object_id)  # keep this tick consistent
                continue
            departures.append(object_id)
        events.append(
            TickEvents(
                tick=tick,
                arrivals=tuple(arrivals),
                resightings=tuple(resightings),
                departures=tuple(departures),
            )
        )
    return MonitoringWorkload(
        config=config,
        database=database,
        query=query,
        events=events,
    )
