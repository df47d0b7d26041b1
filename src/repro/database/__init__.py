"""Database layer: collections of uncertain objects and access methods.

* :mod:`repro.database.objects` -- the :class:`UncertainObject` record.
* :mod:`repro.database.uncertain_db` -- :class:`TrajectoryDatabase`, a
  validated collection of objects over shared Markov chains.
* :mod:`repro.database.pruning` -- reachability-based object pruning
  (exact reverse BFS, plus a geometric lower bound on the same labels
  that runs only when a query forces it).
* :mod:`repro.database.serialization` -- persistence of chains and
  databases.
"""

from repro.database.objects import UncertainObject
from repro.database.uncertain_db import TrajectoryDatabase
from repro.database.pruning import ReachabilityPruner

__all__ = [
    "UncertainObject",
    "TrajectoryDatabase",
    "ReachabilityPruner",
]
