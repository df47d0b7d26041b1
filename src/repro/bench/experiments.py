"""One experiment per paper figure (Section VIII) plus five ablations.

Every driver returns an :class:`~repro.bench.harness.ExperimentSeries`
holding the same axes as the corresponding figure of the paper.  Sizes
default to laptop scale (documented in each series' ``notes``); the
``scale`` argument multiplies database/state sizes for larger runs.

The absolute numbers differ from the paper's 2011 MATLAB/Xeon setup; the
*shapes* are what the reproduction compares: MC >> OB >> QB, OB growing
with the query horizon while QB barely moves, the naive independence
model over-estimating with growing window length, PSTkQ being the most
expensive predicate, and near-linear scaling in ``max_step`` /
``state_spread``.  ``tests/test_bench.py`` asserts the ones that hold;
README.md lists the ones that do not.  Speed of the system as a whole
is not measured here but by the end-to-end benchmark
(``benchmarks/e2e``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.bench.harness import ExperimentSeries, measure_seconds
from repro.core.distribution import StateDistribution
from repro.core.engine import QueryEngine
from repro.core.errors import ValidationError
from repro.core.markov import MarkovChain
from repro.core.planner import PlanOptions
from repro.core.ktimes import ktimes_distribution
from repro.core.naive import naive_exists_probability
from repro.core.object_based import ob_exists_probability
from repro.core.query import (
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    SpatioTemporalWindow,
)
from repro.core.query_based import (
    QueryBasedEvaluator,
    QueryBasedKTimesEvaluator,
)
from repro.database.clustering import ClusteredThresholdProcessor
from repro.database.objects import UncertainObject
from repro.database.uncertain_db import TrajectoryDatabase
from repro.workloads.road_network import (
    make_road_database,
    munich_like_config,
    north_america_like_config,
)
from repro.workloads.synthetic import (
    SyntheticConfig,
    make_line_chain,
    make_synthetic_database,
)

__all__ = ["EXPERIMENTS", "run_experiment"]


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


def _window(
    n_states: int,
    time_low: int = 20,
    time_high: int = 25,
    state_low: int = 100,
    state_high: int = 120,
) -> SpatioTemporalWindow:
    state_high = min(state_high, n_states - 1)
    return SpatioTemporalWindow.from_ranges(
        state_low, state_high, time_low, time_high
    )


# the figure sweeps time the *methods themselves* (the paper runs no
# pruning), so the planner's filter stages are forced off and the
# backend pinned: letting best_backend() promote only one side of an
# OB-vs-QB comparison to the native kernels would skew the ordering
_NO_FILTERS = PlanOptions(prefilter=False, bfs_prune=False, backend="scipy")


def _time_exists(
    database: TrajectoryDatabase,
    window: SpatioTemporalWindow,
    method: str,
    n_samples: int = 100,
) -> float:
    engine = QueryEngine(database)
    query = PSTExistsQuery(window)
    return measure_seconds(
        lambda: engine.evaluate(
            query,
            method=method,
            n_samples=n_samples,
            seed=0,
            options=_NO_FILTERS,
        )
    )


# ----------------------------------------------------------------------
# Figure 8: runtime vs number of states
# ----------------------------------------------------------------------
def fig8a(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 8(a): MC vs OB vs QB over a small state space."""
    result = ExperimentSeries(
        experiment_id="fig8a",
        title="Query runtime vs |S| (small state space, with Monte-Carlo)",
        x_label="states",
        y_label="runtime (s)",
        notes=(
            "paper: |D|=1,000, |S|=2,000..18,000, query [100,120]x[20,25], "
            "MC with 100 samples; here |D| scaled to "
            f"{_scaled(200, scale)} objects"
        ),
    )
    n_objects = _scaled(200, scale)
    for n_states in [2_000, 6_000, 10_000, 14_000, 18_000]:
        n_states = _scaled(n_states, scale, minimum=200)
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=n_objects, n_states=n_states, seed=7
            )
        )
        window = _window(n_states)
        result.x_values.append(n_states)
        result.add_point("MC", _time_exists(database, window, "mc"))
        result.add_point("OB", _time_exists(database, window, "ob"))
        result.add_point("QB", _time_exists(database, window, "qb"))
    result.validate()
    return result


def fig8b(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 8(b): OB vs QB over large state spaces."""
    result = ExperimentSeries(
        experiment_id="fig8b",
        title="Query runtime vs |S| (large state space)",
        x_label="states",
        y_label="runtime (s)",
        notes=(
            "paper: |D|=100,000 objects over |S|=10,000..90,000; "
            f"here |D|={_scaled(2_000, scale)}"
        ),
    )
    n_objects = _scaled(2_000, scale)
    for n_states in [10_000, 30_000, 50_000, 70_000, 90_000]:
        n_states = _scaled(n_states, scale, minimum=1_000)
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=n_objects, n_states=n_states, seed=11
            )
        )
        window = _window(n_states)
        result.x_values.append(n_states)
        result.add_point("OB", _time_exists(database, window, "ob"))
        result.add_point("QB", _time_exists(database, window, "qb"))
    result.validate()
    return result


# ----------------------------------------------------------------------
# Figure 9: runtime vs query start time; accuracy of the naive model
# ----------------------------------------------------------------------
def _starttime_sweep(
    database: TrajectoryDatabase,
    experiment_id: str,
    title: str,
    notes: str,
    start_times: Sequence[int] = tuple(range(5, 51, 5)),
    window_length: int = 5,
    region_states: int = 21,
) -> ExperimentSeries:
    result = ExperimentSeries(
        experiment_id=experiment_id,
        title=title,
        x_label="query start time",
        y_label="runtime (s)",
        notes=notes,
    )
    n_states = database.n_states
    region_low = min(100, n_states - region_states - 1)
    for start in start_times:
        window = SpatioTemporalWindow.from_ranges(
            region_low,
            region_low + region_states - 1,
            start,
            start + window_length,
        )
        result.x_values.append(start)
        result.add_point("OB", _time_exists(database, window, "ob"))
        result.add_point("QB", _time_exists(database, window, "qb"))
    result.validate()
    return result


def fig9a(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 9(a): runtime vs query start time, synthetic data."""
    n_objects = _scaled(500, scale)
    n_states = _scaled(20_000, scale, minimum=2_000)
    database = make_synthetic_database(
        SyntheticConfig(n_objects=n_objects, n_states=n_states, seed=13)
    )
    return _starttime_sweep(
        database,
        "fig9a",
        "Runtime vs query start time (synthetic)",
        f"|D|={n_objects}, |S|={n_states}; OB grows with the horizon, "
        "QB stays almost flat",
    )


def fig9b(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 9(b): runtime vs query start time, Munich-like network."""
    config = munich_like_config(scale=0.05 * scale, seed=17)
    database = make_road_database(
        config, n_objects=_scaled(500, scale)
    )
    return _starttime_sweep(
        database,
        "fig9b",
        "Runtime vs query start time (Munich-like road network)",
        f"synthetic stand-in: {config.n_nodes} nodes, "
        f"{config.n_edges} edges (paper: 73,120 / 93,925)",
    )


def fig9c(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 9(c): runtime vs query start time, NA-like network."""
    config = north_america_like_config(scale=0.05 * scale, seed=19)
    database = make_road_database(
        config, n_objects=_scaled(500, scale)
    )
    return _starttime_sweep(
        database,
        "fig9c",
        "Runtime vs query start time (North-America-like road network)",
        f"synthetic stand-in: {config.n_nodes} nodes, "
        f"{config.n_edges} edges (paper: 175,813 / 179,102)",
    )


def fig9d(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 9(d): accuracy -- Markov model vs temporal independence.

    For growing query windows, the average (over objects with a non-zero
    exact answer) PST-exists probability is reported for the correct
    Markov evaluation and for the naive model that multiplies marginal
    probabilities as if independent.  The naive answer is biased upward
    and the bias grows with the window -- the paper's justification for
    modelling time dependence.
    """
    result = ExperimentSeries(
        experiment_id="fig9d",
        title="Average query probability: temporal correlation vs "
              "independence",
        x_label="query window timeslots",
        y_label="average probability",
        notes="naive independence over-estimates; gap grows with window",
    )
    n_objects = _scaled(200, scale)
    n_states = _scaled(2_000, scale, minimum=500)
    database = make_synthetic_database(
        SyntheticConfig(n_objects=n_objects, n_states=n_states, seed=23)
    )
    chain = database.chain()
    start = 10
    for length in range(1, 11):
        window = SpatioTemporalWindow.from_ranges(
            100, min(120, n_states - 1), start, start + length - 1
        )
        evaluator = QueryBasedEvaluator(chain, window)
        exact: List[float] = []
        naive: List[float] = []
        for obj in database:
            p_exact = evaluator.probability(obj.initial.distribution)
            if p_exact <= 0.0:
                continue
            exact.append(p_exact)
            naive.append(
                naive_exists_probability(
                    chain, obj.initial.distribution, window
                )
            )
        result.x_values.append(length)
        result.add_point(
            "with temporal correlation",
            float(np.mean(exact)) if exact else 0.0,
        )
        result.add_point(
            "without temporal correlation",
            float(np.mean(naive)) if naive else 0.0,
        )
    result.validate()
    return result


# ----------------------------------------------------------------------
# Figure 10: query predicates (exists / for-all / k-times)
# ----------------------------------------------------------------------
def _predicate_sweep(
    method: str, experiment_id: str, scale: float
) -> ExperimentSeries:
    result = ExperimentSeries(
        experiment_id=experiment_id,
        title=f"Predicate runtimes ({method.upper()} approach)",
        x_label="query window timeslots",
        y_label="runtime (s)",
        notes="k-times is the most expensive predicate; exists and "
              "for-all are comparable",
    )
    n_objects = _scaled(100, scale)
    n_states = _scaled(5_000, scale, minimum=500)
    database = make_synthetic_database(
        SyntheticConfig(n_objects=n_objects, n_states=n_states, seed=29)
    )
    engine = QueryEngine(database)
    start = 20
    for length in range(1, 11):
        window = SpatioTemporalWindow.from_ranges(
            100, min(120, n_states - 1), start, start + length - 1
        )
        result.x_values.append(length)
        result.add_point(
            "exists",
            measure_seconds(
                lambda: engine.evaluate(
                    PSTExistsQuery(window), method=method
                )
            ),
        )
        result.add_point(
            "forall",
            measure_seconds(
                lambda: engine.evaluate(
                    PSTForAllQuery(window), method=method
                )
            ),
        )
        result.add_point(
            "ktimes",
            measure_seconds(
                lambda: engine.evaluate(
                    PSTKTimesQuery(window), method=method
                )
            ),
        )
    result.validate()
    return result


def fig10a(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 10(a): exists / for-all / k-times under OB."""
    return _predicate_sweep("ob", "fig10a", scale)


def fig10b(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 10(b): exists / for-all / k-times under QB.

    The engine's QB path uses the shared backward pass for exists and
    for-all; the k-times curve uses the C(t) algorithm per object (the
    dedicated blocked QB evaluator is benchmarked in the ablations).
    """
    return _predicate_sweep("qb", "fig10b", scale)


# ----------------------------------------------------------------------
# Figure 11: locality parameters
# ----------------------------------------------------------------------
def fig11a(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 11(a): impact of ``max_step`` on OB and QB."""
    result = ExperimentSeries(
        experiment_id="fig11a",
        title="Runtime vs max_step",
        x_label="max_step",
        y_label="runtime (s)",
        notes="both approaches scale at most linearly (paper Fig. 11(a))",
    )
    n_objects = _scaled(500, scale)
    n_states = _scaled(20_000, scale, minimum=2_000)
    for max_step in range(10, 101, 10):
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=n_objects,
                n_states=n_states,
                max_step=max_step,
                seed=31,
            )
        )
        window = _window(n_states)
        result.x_values.append(max_step)
        result.add_point("OB", _time_exists(database, window, "ob"))
        result.add_point("QB", _time_exists(database, window, "qb"))
    result.validate()
    return result


def fig11b(scale: float = 1.0) -> ExperimentSeries:
    """Fig. 11(b): impact of ``state_spread`` on OB and QB."""
    result = ExperimentSeries(
        experiment_id="fig11b",
        title="Runtime vs state_spread",
        x_label="state_spread",
        y_label="runtime (s)",
        notes="both approaches scale at most linearly (paper Fig. 11(b))",
    )
    n_objects = _scaled(500, scale)
    n_states = _scaled(20_000, scale, minimum=2_000)
    for state_spread in range(2, 21, 2):
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=n_objects,
                n_states=n_states,
                state_spread=state_spread,
                max_step=40,
                seed=37,
            )
        )
        window = _window(n_states)
        result.x_values.append(state_spread)
        result.add_point("OB", _time_exists(database, window, "ob"))
        result.add_point("QB", _time_exists(database, window, "qb"))
    result.validate()
    return result


# ----------------------------------------------------------------------
# Ablations: one design choice each, same answers either way
# ----------------------------------------------------------------------
def ablation_backend(scale: float = 1.0) -> ExperimentSeries:
    """scipy CSR vs the pure-Python CSR backend on OB processing."""
    result = ExperimentSeries(
        experiment_id="ablation_backend",
        title="Linear-algebra backend: scipy vs pure-Python CSR",
        x_label="states",
        y_label="runtime (s)",
        notes="same algorithm, same results; quantifies how much the "
              "paper's 'use a fast matrix library' advice buys",
    )
    for n_states in [500, 1_000, 2_000]:
        n_states = _scaled(n_states, scale, minimum=200)
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=20, n_states=n_states, seed=41
            )
        )
        chain = database.chain()
        window = _window(n_states)
        initials = [
            obj.initial.distribution for obj in database
        ]
        result.x_values.append(n_states)
        for backend in ("scipy", "pure"):
            result.add_point(
                backend,
                measure_seconds(
                    lambda b=backend: [
                        ob_exists_probability(
                            chain, initial, window, backend=b
                        )
                        for initial in initials
                    ]
                ),
            )
    result.validate()
    return result


def ablation_pruning(scale: float = 1.0) -> ExperimentSeries:
    """OB with and without the reachability pruning filter.

    The query region sits at one end of the line state space, so most
    randomly-placed objects provably cannot reach it in time -- the
    setting where Section V-C's pruning argument pays off.
    """
    result = ExperimentSeries(
        experiment_id="ablation_pruning",
        title="Reachability pruning for object-based processing",
        x_label="states",
        y_label="runtime (s)",
        notes="query window near state 0; objects spread uniformly, so "
              "pruning discards most of them",
    )
    n_objects = _scaled(300, scale)
    for n_states in [5_000, 10_000, 20_000]:
        n_states = _scaled(n_states, scale, minimum=1_000)
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=n_objects, n_states=n_states, seed=43
            )
        )
        window = _window(n_states, time_low=10, time_high=15)
        engine = QueryEngine(database)
        query = PSTExistsQuery(window)
        result.x_values.append(n_states)
        result.add_point(
            "OB",
            measure_seconds(
                lambda: engine.evaluate(
                    query, method="ob", options=_NO_FILTERS
                )
            ),
        )
        result.add_point(
            "OB+pruning",
            measure_seconds(
                lambda: engine.evaluate(
                    query,
                    method="ob",
                    options=PlanOptions(bfs_prune=True, prefilter=False),
                )
            ),
        )
    result.validate()
    return result


def ablation_ktimes_algorithms(scale: float = 1.0) -> ExperimentSeries:
    """C(t) algorithm vs blocked matrices vs blocked QB for PSTkQ."""
    result = ExperimentSeries(
        experiment_id="ablation_ktimes",
        title="PSTkQ algorithms: C(t) vs blocked OB vs blocked QB",
        x_label="query window timeslots",
        y_label="runtime (s)",
        notes="C(t) avoids the |T|-fold blow-up of the blocked matrices",
    )
    n_states = _scaled(2_000, scale, minimum=500)
    database = make_synthetic_database(
        SyntheticConfig(n_objects=50, n_states=n_states, seed=47)
    )
    chain = database.chain()
    initials = [obj.initial.distribution for obj in database]
    start = 10
    from repro.core.ktimes import ktimes_distribution_blocked

    for length in (2, 4, 6, 8):
        window = SpatioTemporalWindow.from_ranges(
            100, min(120, n_states - 1), start, start + length - 1
        )
        result.x_values.append(length)
        result.add_point(
            "C(t)",
            measure_seconds(
                lambda: [
                    ktimes_distribution(chain, initial, window)
                    for initial in initials
                ]
            ),
        )
        result.add_point(
            "blocked OB",
            measure_seconds(
                lambda: [
                    ktimes_distribution_blocked(chain, initial, window)
                    for initial in initials
                ]
            ),
        )
        result.add_point(
            "blocked QB",
            measure_seconds(
                lambda: QueryBasedKTimesEvaluator(chain, window)
                and [
                    QueryBasedKTimesEvaluator(chain, window).distribution(
                        initial
                    )
                    for initial in initials[:1]
                ]
            ),
        )
    result.validate()
    return result


def _jittered(
    base: MarkovChain, rng: np.random.Generator
) -> MarkovChain:
    """A copy of ``base`` with every non-zero entry perturbed by <= 0.02."""
    dense = base.to_dense()
    mask = dense > 0
    dense = np.clip(
        dense + rng.uniform(-0.02, 0.02, size=dense.shape) * mask,
        1e-6,
        None,
    ) * mask
    return MarkovChain(dense / dense.sum(axis=1, keepdims=True))


def ablation_clustered(scale: float = 1.0) -> ExperimentSeries:
    """Section V-C cluster pruning vs per-object threshold evaluation.

    Objects follow many *similar* chains -- two families of jittered
    copies of one base chain each.  The clustered processor decides
    whole clusters from interval bounds and refines only the rest; the
    baseline evaluates every object exactly.
    """
    result = ExperimentSeries(
        experiment_id="ablation_clustered",
        title="Clustered threshold processing vs per-object evaluation",
        x_label="chains per family",
        y_label="runtime (s)",
        notes="two chain families, 5 objects per chain, threshold 0.3, "
              "cluster radius 0.1; clustering itself is not timed",
    )
    n_states = _scaled(400, scale, minimum=200)
    window = _window(n_states, time_low=10, time_high=15)
    threshold = 0.3
    rng = np.random.default_rng(5)
    bases = [make_line_chain(n_states, seed=seed) for seed in (50, 51)]
    for per_family in (2, 4, 6):
        database = TrajectoryDatabase(n_states)
        for index in range(per_family):
            for family, base in zip("ab", bases):
                database.register_chain(
                    f"{family}{index}", _jittered(base, rng)
                )
        for chain_id in database.chain_ids:
            for _ in range(5):
                database.add(
                    UncertainObject.at_state(
                        f"o{len(database)}",
                        n_states,
                        int(rng.integers(0, n_states)),
                        chain_id=chain_id,
                    )
                )
        processor = ClusteredThresholdProcessor(database, radius=0.1)
        result.x_values.append(per_family)
        result.add_point(
            "per-object",
            measure_seconds(
                lambda: [
                    obj.object_id
                    for obj in database
                    if ob_exists_probability(
                        database.chain(obj.chain_id),
                        obj.initial.distribution,
                        window,
                    )
                    >= threshold
                ]
            ),
        )
        result.add_point(
            "clustered",
            measure_seconds(lambda: processor.evaluate(window, threshold)),
        )
    result.validate()
    return result


def ablation_early_termination(scale: float = 1.0) -> ExperimentSeries:
    """Thresholded OB (Section V-A early termination) vs full OB.

    Objects start just below the query region, so ``P(TOP)`` crosses
    the threshold at the first window timestamps and the thresholded
    pass skips the window's remaining steps.  ``P(TOP)`` cannot grow
    before ``t_start``, so the saving is bounded by the window's share
    of the horizon (6 of the 26 timestamps 0..25 here).
    """
    result = ExperimentSeries(
        experiment_id="ablation_early_termination",
        title="Early termination: thresholded vs full OB",
        x_label="states",
        y_label="runtime (s)",
        notes="20 objects observed just below [100,120] x [20,25]; "
              "threshold 0.1",
    )
    for n_states in [1_000, 2_000, 3_000]:
        n_states = _scaled(n_states, scale, minimum=500)
        chain = make_line_chain(n_states, seed=59)
        window = _window(n_states)
        initials = [
            StateDistribution.uniform(
                n_states, range(95 + offset, 100 + offset)
            )
            for offset in range(0, 40, 2)
        ]
        result.x_values.append(n_states)
        for label, threshold in (("full", None), ("early stop", 0.1)):
            result.add_point(
                label,
                measure_seconds(
                    lambda t=threshold: [
                        ob_exists_probability(
                            chain, initial, window, stop_at_probability=t
                        )
                        for initial in initials
                    ]
                ),
            )
    result.validate()
    return result


EXPERIMENTS: Dict[str, Callable[[float], ExperimentSeries]] = {
    "fig8a": fig8a,
    "fig8b": fig8b,
    "fig9a": fig9a,
    "fig9b": fig9b,
    "fig9c": fig9c,
    "fig9d": fig9d,
    "fig10a": fig10a,
    "fig10b": fig10b,
    "fig11a": fig11a,
    "fig11b": fig11b,
    "ablation_backend": ablation_backend,
    "ablation_pruning": ablation_pruning,
    "ablation_ktimes": ablation_ktimes_algorithms,
    "ablation_clustered": ablation_clustered,
    "ablation_early_termination": ablation_early_termination,
}


def run_experiment(
    experiment_id: str, scale: float = 1.0
) -> ExperimentSeries:
    """Run one experiment by id (see :data:`EXPERIMENTS`)."""
    try:
        driver = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValidationError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENTS)}"
        ) from None
    return driver(scale)
