"""repro -- Querying Uncertain Spatio-Temporal Data.

A faithful, laptop-scale reproduction of

    T. Emrich, H.-P. Kriegel, N. Mamoulis, M. Renz, A. Zuefle:
    "Querying Uncertain Spatio-Temporal Data", ICDE 2012.

Uncertain object trajectories are modelled as discrete Markov chains;
probabilistic spatio-temporal queries (exists / for-all / k-times) are
answered *exactly* under possible-worlds semantics through augmented
transition matrices -- see :mod:`repro.core.matrices` for the construction
and DESIGN.md for the full system inventory.

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
from repro.core.forecast import (
    CongestionEvent,
    congestion_report,
    expected_occupancy,
)
from repro.core.estimation import ChainEstimator, estimate_chain
from repro.core.intervals import (
    IntervalMarkovChain,
    bound_exists_probability,
)
from repro.core.nearest_neighbor import nearest_neighbor_probabilities
from repro.core.sequence import Pattern, sequence_probability
from repro.core.smoothing import map_trajectory, posterior_marginals
from repro.core.temporal import (
    FirstPassageResult,
    expected_entry_time,
    expected_visit_count,
    first_passage_distribution,
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
from repro.database.clustering import (
    ChainCluster,
    ClusteredThresholdProcessor,
    ThresholdAnswer,
    cluster_chains,
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
    # analysis
    "expected_occupancy",
    "congestion_report",
    "CongestionEvent",
    # model estimation and smoothing
    "ChainEstimator",
    "estimate_chain",
    "posterior_marginals",
    "map_trajectory",
    # sequence (Lahar-style) queries
    "Pattern",
    "sequence_probability",
    # temporal analyses and nearest neighbours
    "FirstPassageResult",
    "first_passage_distribution",
    "expected_entry_time",
    "expected_visit_count",
    "nearest_neighbor_probabilities",
    # interval chains / clustering (Section V-C)
    "IntervalMarkovChain",
    "bound_exists_probability",
    "ChainCluster",
    "cluster_chains",
    "ClusteredThresholdProcessor",
    "ThresholdAnswer",
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
