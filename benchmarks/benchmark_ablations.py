"""Ablation benchmarks for the design choices listed in DESIGN.md.

* backend: scipy CSR vs the pure-Python CSR on identical OB evaluations;
* pruning: OB with and without the reachability filter on a workload
  where most objects provably cannot reach the window;
* k-times algorithms: the memory-efficient C(t) sweep vs the blocked
  matrices (OB) vs the blocked QB evaluator;
* early termination: thresholded OB vs full OB.
"""

from __future__ import annotations

import pytest

from repro.core.engine import QueryEngine
from repro.core.ktimes import (
    ktimes_distribution,
    ktimes_distribution_blocked,
)
from repro.core.object_based import ob_exists_probability
from repro.core.planner import PlanOptions
from repro.core.query import PSTExistsQuery, SpatioTemporalWindow
from repro.core.query_based import QueryBasedKTimesEvaluator

from _bench_fixtures import paper_window, synthetic_database


@pytest.mark.parametrize("backend", ["scipy", "pure"])
def test_ablation_backend(benchmark, backend):
    database = synthetic_database(n_objects=10, n_states=800)
    chain = database.chain()
    window = paper_window(database.n_states)
    initials = [obj.initial.distribution for obj in database]

    def run():
        return [
            ob_exists_probability(chain, initial, window, backend=backend)
            for initial in initials
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(0.0 <= p <= 1.0 for p in results)


@pytest.mark.parametrize("prune", [False, True], ids=["plain", "pruned"])
def test_ablation_pruning(benchmark, prune):
    # the window sits at the low end of the line; uniformly placed
    # objects mostly cannot reach it within the horizon
    database = synthetic_database(n_objects=150, n_states=8_000)
    engine = QueryEngine(database)
    query = PSTExistsQuery(
        SpatioTemporalWindow.from_ranges(100, 120, 10, 15)
    )
    # plain: both filter stages off; pruned: the exact BFS filter on,
    # the R-tree prefilter left to the planner
    options = PlanOptions(
        prefilter=None if prune else False, bfs_prune=prune
    )
    result = benchmark.pedantic(
        lambda: engine.evaluate(query, method="ob", options=options),
        rounds=1,
        iterations=1,
    )
    assert len(result) == len(database)


@pytest.mark.parametrize(
    "algorithm", ["ct", "blocked_ob", "blocked_qb"]
)
def test_ablation_ktimes_algorithms(benchmark, algorithm):
    database = synthetic_database(n_objects=20, n_states=1_500)
    chain = database.chain()
    window = SpatioTemporalWindow.from_ranges(100, 120, 10, 15)
    initials = [obj.initial.distribution for obj in database]

    if algorithm == "ct":
        run = lambda: [
            ktimes_distribution(chain, initial, window)
            for initial in initials
        ]
    elif algorithm == "blocked_ob":
        run = lambda: [
            ktimes_distribution_blocked(chain, initial, window)
            for initial in initials
        ]
    else:
        def run():
            evaluator = QueryBasedKTimesEvaluator(chain, window)
            return [
                evaluator.distribution(initial) for initial in initials
            ]

    distributions = benchmark.pedantic(run, rounds=1, iterations=1)
    for distribution in distributions:
        assert distribution.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "strategy", ["per-object", "clustered"]
)
def test_ablation_clustered_threshold(benchmark, strategy):
    """Section V-C cluster pruning vs per-object evaluation.

    A database whose objects follow many *similar* chains (two
    families).  The clustered processor decides most clusters from
    interval bounds; the baseline evaluates every object exactly.
    """
    import numpy as np

    from repro.core.markov import MarkovChain
    from repro.database.clustering import ClusteredThresholdProcessor
    from repro.database.uncertain_db import TrajectoryDatabase
    from repro.database.objects import UncertainObject
    from repro.workloads.synthetic import make_line_chain

    rng = np.random.default_rng(5)
    n_states = 400
    base_a = make_line_chain(n_states, seed=50)
    base_b = make_line_chain(n_states, seed=51)
    database = TrajectoryDatabase(n_states)

    def jitter(base):
        dense = base.to_dense()
        for i in range(n_states):
            row = dense[i]
            mask = row > 0
            row = np.clip(
                row + rng.uniform(-0.02, 0.02, size=n_states) * mask,
                1e-6, None,
            ) * mask
            dense[i] = row / row.sum()
        return MarkovChain(dense)

    for index in range(6):
        database.register_chain(f"a{index}", jitter(base_a))
        database.register_chain(f"b{index}", jitter(base_b))
    counter = 0
    for chain_id in database.chain_ids:
        for _ in range(5):
            database.add(
                UncertainObject.at_state(
                    f"o{counter}", n_states,
                    int(rng.integers(0, n_states)),
                    chain_id=chain_id,
                )
            )
            counter += 1
    window = SpatioTemporalWindow.from_ranges(100, 120, 10, 15)
    threshold = 0.3

    if strategy == "clustered":
        processor = ClusteredThresholdProcessor(database, radius=0.1)

        def run():
            return processor.evaluate(window, threshold).accepted
    else:
        def run():
            accepted = []
            for obj in database:
                chain = database.chain(obj.chain_id)
                p = ob_exists_probability(
                    chain, obj.initial.distribution, window
                )
                if p >= threshold:
                    accepted.append(obj.object_id)
            return tuple(sorted(accepted))

    accepted = benchmark.pedantic(run, rounds=1, iterations=1)
    assert isinstance(accepted, tuple)


@pytest.mark.parametrize(
    "threshold", [None, 0.1], ids=["full", "early-stop"]
)
def test_ablation_early_termination(benchmark, threshold):
    """Thresholded OB on objects observed *near* the window.

    Early termination only pays off when P(TOP) actually crosses the
    threshold before t_end; objects starting close to the region do so
    within a few transitions, letting the thresholded variant skip the
    remaining horizon.
    """
    from repro.core.distribution import StateDistribution

    database = synthetic_database(n_objects=10, n_states=3_000)
    chain = database.chain()
    window = paper_window(database.n_states)
    initials = [
        StateDistribution.uniform(
            database.n_states, range(95 + offset, 100 + offset)
        )
        for offset in range(0, 40, 2)
    ]

    def run():
        return [
            ob_exists_probability(
                chain, initial, window, stop_at_probability=threshold
            )
            for initial in initials
        ]

    results = benchmark.pedantic(run, rounds=2, iterations=1)
    assert all(0.0 <= p <= 1.0 for p in results)


if __name__ == "__main__":
    import sys

    from _bench_result import pytest_smoke_main

    sys.exit(pytest_smoke_main(__file__))
