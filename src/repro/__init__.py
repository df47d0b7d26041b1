"""repro -- Querying Uncertain Spatio-Temporal Data.

A faithful, laptop-scale reproduction of

    T. Emrich, H.-P. Kriegel, N. Mamoulis, M. Renz, A. Zuefle:
    "Querying Uncertain Spatio-Temporal Data", ICDE 2012.

Uncertain object trajectories are modelled as discrete Markov chains;
probabilistic spatio-temporal queries (exists / for-all / k-times) are
answered *exactly* under possible-worlds semantics.  Every pass steps
the chain's own sparse transition matrix: query-based evaluation runs
one backward pass per chain and window (Section V-B), object-based
evaluation one stacked forward sweep per chain group (Sections V-A and
VI), and k-times one suffix-count backward pass (Section VII).
:class:`QueryEngine` plans each query (filters, method, dispatch) and
runs it through a staged filter--refinement pipeline.  No augmented
matrix is built at runtime: the plan cache holds only backward vectors
and k-times suffix-count blocks.
See docs/ARCHITECTURE.md for the layers and how a query flows through
them.

Quickstart::

    import repro

    chain = repro.MarkovChain([[0.0, 0.0, 1.0],
                               [0.6, 0.0, 0.4],
                               [0.0, 0.8, 0.2]])
    window = repro.SpatioTemporalWindow(frozenset({0, 1}), frozenset({2, 3}))
    start = repro.StateDistribution.point(3, 1)
    p = repro.ob_exists_probability(chain, start, window)   # 0.864
"""

from repro.core.batch import (
    backward_vectors,
    batch_exists_multi,
    batch_ktimes_distribution,
    batch_ob_exists,
    batch_qb_exists,
)
from repro.core.distribution import StateDistribution
from repro.core.engine import QueryEngine, QueryResult
from repro.core.errors import (
    AdmissionRejected,
    DegradedExecutionWarning,
    DimensionMismatchError,
    ExecutionError,
    InfeasibleEvidenceError,
    InjectedFaultError,
    NotStochasticError,
    ObservationError,
    QuarantinedQueryError,
    QueryError,
    ReproError,
    SerializationError,
    StateSpaceError,
    TaskTimeoutError,
    ValidationError,
    WorkerCrashError,
)
from repro.core.ktimes import (
    ktimes_distribution,
    ktimes_distribution_blocked,
    ktimes_probability,
)
from repro.core.markov import MarkovChain
from repro.core.matrices import (
    build_ktimes_block_matrices,
)
from repro.core.montecarlo import (
    MonteCarloResult,
    MonteCarloSampler,
    mc_exists_probability,
    mc_forall_probability,
    mc_ktimes_distribution,
)
from repro.core.naive import (
    naive_exists_probability,
    naive_forall_probability,
    naive_ktimes_distribution,
    region_marginals,
)
from repro.core.object_based import (
    ob_exists_probability,
    ob_exists_probability_multi,
    ob_forall_probability,
)
from repro.core.observation import Observation, ObservationSet
from repro.core.pipeline import QueryPipeline
from repro.core.plan_cache import PlanCache, PlanCacheStats
from repro.core.planner import (
    CostModel,
    GroupPlan,
    PlanOptions,
    QueryPlan,
    QueryPlanner,
    StageStats,
    SupervisorPolicy,
)
from repro.core.query import (
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    PSTQuery,
    SpatioTemporalWindow,
)
from repro.core.query_based import (
    QueryBasedEvaluator,
    QueryBasedKTimesEvaluator,
    qb_exists_probability,
    qb_forall_probability,
)
from repro.core.state_space import (
    GraphStateSpace,
    GridStateSpace,
    LineStateSpace,
    StateSpace,
)
from repro.core.streaming import StandingQuery, StreamingQueryEngine
from repro.core.trajectory import (
    PossibleWorldEnumerator,
    Trajectory,
    sample_trajectory,
)
from repro.database.objects import UncertainObject
from repro.database.pruning import GeometricPrefilter, ReachabilityPruner
from repro.database.serialization import (
    load_chain,
    load_database,
    save_chain,
    save_database,
)
from repro.database.uncertain_db import TrajectoryDatabase
from repro.exec.faults import FaultInjector, FaultSpec
from repro.service import (
    QueryService,
    ServiceStandingQuery,
    TenantAccount,
    TenantLedger,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "MarkovChain",
    "StateDistribution",
    "Observation",
    "ObservationSet",
    "Trajectory",
    "sample_trajectory",
    "PossibleWorldEnumerator",
    # state spaces
    "StateSpace",
    "LineStateSpace",
    "GridStateSpace",
    "GraphStateSpace",
    # queries
    "SpatioTemporalWindow",
    "PSTQuery",
    "PSTExistsQuery",
    "PSTForAllQuery",
    "PSTKTimesQuery",
    # matrices
    "build_ktimes_block_matrices",
    # processors
    "batch_ob_exists",
    "batch_qb_exists",
    "batch_exists_multi",
    "batch_ktimes_distribution",
    "backward_vectors",
    "PlanCache",
    "PlanCacheStats",
    # planner + pipeline
    "CostModel",
    "PlanOptions",
    "QueryPlan",
    "GroupPlan",
    "StageStats",
    "QueryPlanner",
    "QueryPipeline",
    "SupervisorPolicy",
    # fault injection
    "FaultInjector",
    "FaultSpec",
    # streaming / monitoring
    "StreamingQueryEngine",
    "StandingQuery",
    # query service
    "QueryService",
    "ServiceStandingQuery",
    "TenantAccount",
    "TenantLedger",
    "ob_exists_probability",
    "ob_forall_probability",
    "ob_exists_probability_multi",
    "QueryBasedEvaluator",
    "QueryBasedKTimesEvaluator",
    "qb_exists_probability",
    "qb_forall_probability",
    "ktimes_distribution",
    "ktimes_distribution_blocked",
    "ktimes_probability",
    "MonteCarloSampler",
    "MonteCarloResult",
    "mc_exists_probability",
    "mc_forall_probability",
    "mc_ktimes_distribution",
    "naive_exists_probability",
    "naive_forall_probability",
    "naive_ktimes_distribution",
    "region_marginals",
    # database
    "UncertainObject",
    "TrajectoryDatabase",
    "QueryEngine",
    "QueryResult",
    "ReachabilityPruner",
    "GeometricPrefilter",
    "save_chain",
    "load_chain",
    "save_database",
    "load_database",
    # errors
    "ReproError",
    "ValidationError",
    "NotStochasticError",
    "DimensionMismatchError",
    "StateSpaceError",
    "QueryError",
    "ObservationError",
    "InfeasibleEvidenceError",
    "SerializationError",
    "ExecutionError",
    "WorkerCrashError",
    "TaskTimeoutError",
    "InjectedFaultError",
    "QuarantinedQueryError",
    "AdmissionRejected",
    "DegradedExecutionWarning",
]
