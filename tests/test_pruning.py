"""Tests for reachability pruning -- safety is the key property."""

from __future__ import annotations

from collections import OrderedDict
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    GeometricPrefilter,
    LineStateSpace,
    QueryEngine,
    PSTExistsQuery,
    ReachabilityPruner,
    SpatioTemporalWindow,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.distribution import StateDistribution, SupportBlock
from repro.core.errors import ValidationError
from repro.core.markov import MarkovChain
from repro.core.query import Region
from repro.database import pruning
from repro.database.objects import DEFAULT_CHAIN
from repro.database.pruning import reachability_levels
from repro.workloads.synthetic import (
    SyntheticConfig,
    make_synthetic_database,
)

from conftest import random_chain


def build_database(n_states=40, n_objects=12, seed=0):
    rng = np.random.default_rng(seed)
    chain = random_chain(n_states, rng, density=0.08)
    database = TrajectoryDatabase.with_chain(
        chain, state_space=LineStateSpace(n_states)
    )
    for index in range(n_objects):
        database.add(
            UncertainObject.at_state(
                f"o{index}", n_states, int(rng.integers(0, n_states))
            )
        )
    return database


class TestReachabilityPruner:
    def test_never_discards_positive_probability_objects(self):
        """Safety: every object with non-zero result must survive."""
        for seed in range(5):
            database = build_database(seed=seed)
            window = SpatioTemporalWindow(
                frozenset({0, 1, 2}), frozenset({2, 3})
            )
            pruner = ReachabilityPruner(database)
            surviving = {
                obj.object_id for obj in pruner.candidates(window)
            }
            engine = QueryEngine(database)
            result = engine.evaluate(PSTExistsQuery(window), method="qb")
            for object_id, probability in result.values.items():
                if probability > 1e-12:
                    assert object_id in surviving

    def test_pruned_objects_have_zero_probability(self):
        database = build_database(seed=3)
        window = SpatioTemporalWindow(
            frozenset({5}), frozenset({1, 2})
        )
        pruner = ReachabilityPruner(database)
        surviving = {obj.object_id for obj in pruner.candidates(window)}
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(window), method="qb")
        for object_id, probability in result.values.items():
            if object_id not in surviving:
                assert probability == pytest.approx(0.0, abs=1e-12)

    def test_pruned_fraction(self):
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=50, n_states=2_000, max_step=10, seed=1
            )
        )
        # a tight window near state 0 that few objects can reach
        window = SpatioTemporalWindow(
            frozenset(range(0, 10)), frozenset({3, 4})
        )
        pruner = ReachabilityPruner(database)
        assert len(pruner.candidates(window)) < 0.5 * len(database)

    def test_query_in_the_past_prunes_everything(self):
        database = build_database()
        pruner = ReachabilityPruner(database)
        # object observed at t=0; window entirely "before" is impossible
        # here: simulate by asking with horizon < 0 via obj at later time
        database.add(
            UncertainObject.at_state("late", database.n_states, 0, time=9)
        )
        window = SpatioTemporalWindow(frozenset({0}), frozenset({2}))
        late = database.get("late")
        assert not pruner.can_satisfy(late, window)

    def test_empty_database(self):
        chain_db = TrajectoryDatabase.with_chain(
            random_chain(5, np.random.default_rng(0))
        )
        pruner = ReachabilityPruner(chain_db)
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        assert pruner.candidates(window) == []


def geometric_ids(prefilter, database, window, start_time=None):
    """Reference for the forced geometric stage, one object at a time:
    an object survives iff some state of its first support is labelled
    within its horizon."""
    labels = prefilter.probe(window.region)
    kept = []
    for obj in database:
        start = obj.initial.time if start_time is None else start_time
        states = obj.initial.distribution.sparse()[0]
        if labels[states].min() <= window.t_end - start:
            kept.append(obj.object_id)
    return kept


class TestGeometricPrefilter:
    def test_superset_of_exact_filter(self):
        """The geometric filter must keep everything BFS keeps: its
        label never exceeds the exact reverse-BFS label."""
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=60, n_states=1_000, max_step=10, seed=2
            )
        )
        window = SpatioTemporalWindow(
            frozenset(range(100, 121)), frozenset({5, 6, 7})
        )
        geometric = GeometricPrefilter(
            database.state_positions(),
            max_displacement=5.0,  # max_step / 2
        )
        exact = ReachabilityPruner(database)
        (chain_id,) = database.chain_ids
        assert (
            geometric.probe(window.region)
            <= exact.min_levels(chain_id, window.region)
        ).all()
        geometric_kept = set(geometric_ids(geometric, database, window))
        exact_ids = {
            obj.object_id for obj in exact.candidates(window)
        }
        assert exact_ids <= geometric_kept

    def test_distant_objects_filtered(self):
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=60, n_states=5_000, max_step=10, seed=3
            )
        )
        window = SpatioTemporalWindow(
            frozenset(range(0, 20)), frozenset({2, 3})
        )
        geometric = GeometricPrefilter(
            database.state_positions(), max_displacement=5.0
        )
        kept = geometric_ids(geometric, database, window)
        # objects are uniform over 5000 states; the reachable stripe is
        # ~20 + 5*3 wide, so most objects must be gone
        assert len(kept) < len(database) / 2

    def test_requires_state_space(self):
        rng = np.random.default_rng(0)
        database = TrajectoryDatabase.with_chain(random_chain(5, rng))
        assert database.state_positions() is None
        with pytest.raises(ValidationError):
            GeometricPrefilter(
                database.state_positions(), max_displacement=1.0
            )

    def test_negative_displacement_rejected(self):
        database = build_database()
        with pytest.raises(ValidationError):
            GeometricPrefilter(
                database.state_positions(), max_displacement=-1.0
            )

    def test_past_window_returns_nothing(self):
        database = build_database()
        geometric = GeometricPrefilter(
            database.state_positions(), max_displacement=1.0
        )
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        assert geometric_ids(geometric, database, window, 5) == []


class TestEarliestTimes:
    """The one label gather every filter runs (pipeline stages, shard
    workers, standing-query thresholds), against the per-object
    :meth:`ReachabilityPruner.can_satisfy` under both labels sources."""

    @staticmethod
    def island_database():
        """Two line halves with no transition between them, objects on
        both, observed at mixed times: the far half's supports can never
        reach a region in the near half."""
        rng = np.random.default_rng(5)
        chain = two_islands(80, rng)
        database = TrajectoryDatabase.with_chain(
            chain, state_space=LineStateSpace(80)
        )
        for index in range(30):
            start = int(rng.integers(0, 80))
            states = list(range(start, min(80, start + int(rng.integers(1, 4)))))
            database.add(UncertainObject.with_distribution(
                f"o{index}",
                StateDistribution.uniform(80, states),
                time=int(rng.integers(0, 5)),
            ))
        # a support wholly on the far half, observed late: its label is
        # the sentinel, which adding the start time would overflow
        database.add(UncertainObject.at_state("far", 80, 70, time=4))
        return database

    @staticmethod
    def columns(database):
        objects = list(database)
        block = SupportBlock.from_distributions(
            [obj.initial.distribution for obj in objects], database.n_states
        )
        starts = np.array([obj.initial.time for obj in objects])
        return objects, block, starts

    @pytest.mark.parametrize("t_end", [3, 4, 6, 12, 60])
    def test_bfs_labels_match_can_satisfy(self, t_end):
        database = self.island_database()
        pruner = ReachabilityPruner(database)
        window = SpatioTemporalWindow(
            frozenset(range(10, 14)), frozenset({min(t_end, 5), t_end})
        )
        objects, block, starts = self.columns(database)
        keep = pruning.reachable_rows(
            partial(pruner.levels, DEFAULT_CHAIN, window.region),
            block, starts, window.t_end,
        )
        expect = [pruner.can_satisfy(obj, window) for obj in objects]
        assert keep.tolist() == expect
        assert not keep[-1] and any(expect) and not all(expect)

    def test_earliest_time_is_start_plus_min_steps(self):
        database = self.island_database()
        pruner = ReachabilityPruner(database)
        region = range(10, 14)
        objects, block, starts = self.columns(database)
        earliest = pruning.earliest_times(
            pruner.min_levels(DEFAULT_CHAIN, region), block, starts
        )
        for obj, time in zip(objects, earliest.tolist()):
            steps = pruner.min_steps(obj, region)
            assert time == (
                UNREACHABLE if steps == UNREACHABLE
                else obj.initial.time + steps
            )
        assert earliest[-1] == UNREACHABLE  # "far": no overflow

    @pytest.mark.parametrize("t_end", [3, 6, 12])
    def test_geometric_labels_keep_what_can_satisfy_keeps(self, t_end):
        database = self.island_database()
        pruner = ReachabilityPruner(database)
        window = SpatioTemporalWindow(
            frozenset(range(10, 14)), frozenset({t_end})
        )
        geometric = GeometricPrefilter(
            database.state_positions(),
            database.chain_displacement_bound(DEFAULT_CHAIN),
        )
        objects, block, starts = self.columns(database)
        keep = pruning.reachable_rows(
            partial(geometric.probe, window.region),
            block, starts, window.t_end,
        )
        kept = [obj.object_id for obj, k in zip(objects, keep) if k]
        assert kept == geometric_ids(geometric, database, window)
        assert {
            obj.object_id for obj in objects
            if pruner.can_satisfy(obj, window)
        } <= set(kept)

    def test_empty_block(self):
        empty = SupportBlock.from_distributions([], 4)
        earliest = pruning.earliest_times(
            np.zeros(4, dtype=np.int64), empty, np.zeros(0, dtype=np.int64)
        )
        assert earliest.dtype == np.int64 and earliest.size == 0
        keep = pruning.reachable_rows(
            lambda depth: np.zeros(4, dtype=np.int64), empty, [], 5
        )
        assert keep.dtype == bool and keep.size == 0


# ----------------------------------------------------------------------
# reachability_levels against the per-level product loop
# ----------------------------------------------------------------------
UNREACHABLE = np.iinfo(np.int64).max


def reference_levels(chain, region, depth_needed):
    """The reverse BFS one level at a time: a state joins level ``d``
    iff the chain's product against the level ``d - 1`` indicator is
    positive there.  Returns ``(levels, reached depth)``."""
    levels = np.full(chain.n_states, UNREACHABLE, dtype=np.int64)
    frontier = np.zeros(chain.n_states, dtype=bool)
    frontier[list(region)] = True
    levels[frontier] = 0
    depth = 0
    while depth < depth_needed and frontier.any():
        depth += 1
        reached = chain.matrix @ frontier.astype(np.float64)
        frontier = (reached > 0.0) & (levels == UNREACHABLE)
        levels[frontier] = depth
    return levels, depth


def up_to(levels, depth):
    """The labels final at ``depth``; deeper slots read unreachable."""
    return np.where(levels <= depth, levels, UNREACHABLE)


def with_stored_zeros(chain, rng, share=0.3):
    """``chain`` with ``share`` of its entries kept as explicit zeros
    (built unvalidated: the rows no longer sum to one)."""
    matrix = chain.matrix.copy()
    matrix.data[rng.random(matrix.nnz) < share] = 0.0
    assert (matrix.data == 0.0).any()
    return MarkovChain(matrix, validate=False)


def banded_chain(n_states, bandwidth, rng):
    """A random chain moving at most ``bandwidth`` states per step."""
    rows, cols = [], []
    for state in range(n_states):
        targets = np.arange(
            max(0, state - bandwidth), min(n_states, state + bandwidth + 1)
        )
        targets = targets[rng.random(len(targets)) < 0.5]
        if not len(targets):
            targets = np.array([state])
        rows.extend([state] * len(targets))
        cols.extend(targets.tolist())
    data = rng.random(len(rows)) + 0.01
    matrix = sp.csr_matrix(
        (data, (rows, cols)), shape=(n_states, n_states)
    )
    matrix = sp.diags(1.0 / np.asarray(matrix.sum(axis=1)).ravel()) @ matrix
    return MarkovChain(sp.csr_matrix(matrix))


def two_islands(n_states, rng):
    """Two banded halves with no transition between them: the region's
    half exhausts long before ``n_states`` levels."""
    half = banded_chain(n_states // 2, 2, rng).matrix
    return MarkovChain(sp.block_diag([half, half], format="csr"))


def oracle_chains():
    rng = np.random.default_rng(40)
    return {
        "banded": banded_chain(300, 4, rng),
        "banded-stored-zeros": with_stored_zeros(
            banded_chain(300, 4, rng), rng
        ),
        "unbanded": random_chain(150, rng, density=0.02),
        "unbanded-stored-zeros": with_stored_zeros(
            random_chain(150, rng, density=0.03), rng
        ),
        "islands": two_islands(200, rng),
    }


def oracle_regions(n_states):
    """A one-state region, a ~1 % region, a > 50 % region and the exact
    complement of a small one (for-all's shape)."""
    small = list(range(n_states // 2, n_states // 2 + 3))
    return {
        "one-state": [n_states // 3],
        "one-percent": list(range(7, 7 + max(1, n_states // 100))),
        "majority": list(range(0, n_states * 3 // 5)),
        "complement": sorted(set(range(n_states)) - set(small)),
    }


CHAINS = oracle_chains()
CASES = [
    (chain_name, region_name)
    for chain_name, chain in CHAINS.items()
    for region_name in oracle_regions(chain.n_states)
]


def case(chain_name, region_name):
    chain = CHAINS[chain_name]
    return chain, oracle_regions(chain.n_states)[region_name]


class TestReachabilityLevelsOracle:
    @pytest.mark.parametrize("chain_name,region_name", CASES)
    def test_fresh_labelling_at_every_depth(self, chain_name, region_name):
        chain, region = case(chain_name, region_name)
        d = 7
        for depth in (0, 1, d, 2 * d, chain.n_states):
            levels = reachability_levels(
                chain, region, depth, OrderedDict()
            )
            expected, _reached = reference_levels(chain, region, depth)
            assert np.array_equal(up_to(levels, depth), expected)

    @pytest.mark.parametrize("chain_name,region_name", CASES)
    def test_resuming_from_every_depth(self, chain_name, region_name):
        chain, region = case(chain_name, region_name)
        full, reached = reference_levels(chain, region, chain.n_states)
        deepest = min(reached + 2, 40)
        # one cache walked one level at a time
        cache = OrderedDict()
        for depth in range(deepest + 1):
            levels = reachability_levels(chain, region, depth, cache)
            assert np.array_equal(up_to(levels, depth), up_to(full, depth))
        # a fresh cache resumed from each depth straight to the end
        for start in range(deepest + 1):
            cache = OrderedDict()
            reachability_levels(chain, region, start, cache)
            levels = reachability_levels(
                chain, region, chain.n_states, cache
            )
            assert np.array_equal(levels, full)

    @pytest.mark.parametrize("chain_name,region_name", CASES)
    def test_extension_never_changes_a_final_label(
        self, chain_name, region_name
    ):
        chain, region = case(chain_name, region_name)
        cache = OrderedDict()
        for old, new in ((0, 1), (1, 5), (5, 6), (6, 30), (30, 10_000)):
            levels = reachability_levels(chain, region, old, cache)
            before = levels.copy()
            after = reachability_levels(chain, region, new, cache)
            assert after is levels  # extended in place
            final = before <= old
            assert np.array_equal(after[final], before[final])
            # only sentinel slots were written
            changed = after != before
            assert (before[changed] == UNREACHABLE).all()

    def test_exhaustion_before_depth_needed(self):
        chain = CHAINS["islands"]
        region = [10]
        expected, reached = reference_levels(chain, region, chain.n_states)
        assert reached < chain.n_states // 2  # the half is exhausted
        cache = OrderedDict()
        levels = reachability_levels(chain, region, chain.n_states, cache)
        assert np.array_equal(levels, expected)
        # the other island never gets a label
        assert (levels[chain.n_states // 2:] == UNREACHABLE).all()
        (state,) = cache.values()
        assert state[2]  # exhausted: no deeper request relabels
        calls = []
        real = pruning.dijkstra
        try:
            pruning.dijkstra = lambda *a, **k: calls.append(1) or real(
                *a, **k
            )
            again = reachability_levels(chain, region, 10**6, cache)
        finally:
            pruning.dijkstra = real
        assert again is levels and not calls

    def test_deeper_request_relabels_to_twice_the_reached_depth(self):
        chain = CHAINS["banded"]
        cache = OrderedDict()
        reachability_levels(chain, [150], 5, cache)
        (state,) = cache.values()
        assert state[1] == 5
        reachability_levels(chain, [150], 6, cache)
        assert state[1] == 10
        reachability_levels(chain, [150], 25, cache)
        assert state[1] == 25

    def test_bounded_cache_evicts_then_relabels_to_the_same_array(
        self, monkeypatch
    ):
        monkeypatch.setattr(pruning, "_LABEL_CACHE_ENTRIES", 2)
        chain = CHAINS["banded"]
        cache = OrderedDict()
        first = reachability_levels(chain, [10], 40, cache).copy()
        reachability_levels(chain, [100], 40, cache)
        reachability_levels(chain, [200], 40, cache)
        assert len(cache) == 2
        assert (chain.fingerprint(), Region([10]).key) not in cache
        again = reachability_levels(chain, [10], 40, cache)
        assert np.array_equal(up_to(again, 40), up_to(first, 40))
        assert len(cache) == 2

    def test_bounded_cache_evicts_the_least_recently_used(
        self, monkeypatch
    ):
        monkeypatch.setattr(pruning, "_LABEL_CACHE_ENTRIES", 2)
        chain = CHAINS["banded"]
        cache = OrderedDict()
        kept = reachability_levels(chain, [10], 40, cache)
        reachability_levels(chain, [100], 40, cache)
        assert reachability_levels(chain, [10], 40, cache) is kept
        reachability_levels(chain, [200], 40, cache)
        assert list(cache) == [
            (chain.fingerprint(), Region([10]).key),
            (chain.fingerprint(), Region([200]).key),
        ]

    def test_pruner_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(pruning, "_LABEL_CACHE_ENTRIES", 3)
        database = build_database(n_states=40)
        pruner = ReachabilityPruner(database)
        (chain_id,) = database.chain_ids
        kept = pruner.levels(chain_id, [0], 40).copy()
        for state in range(1, 10):
            pruner.levels(chain_id, [state], 40)
        assert len(pruner._bfs_state) == 3
        assert np.array_equal(pruner.levels(chain_id, [0], 40), kept)
        # a lock-free hit counts as a use
        hit = pruner.levels(chain_id, [8], 40)
        pruner.levels(chain_id, [20], 40)
        assert pruner.levels(chain_id, [8], 40) is hit

    def test_bound_is_the_plan_cache_size(self):
        from repro.core.plan_cache import PlanCache

        assert pruning._LABEL_CACHE_ENTRIES == PlanCache().maxsize == 256


class CountingMatrix:
    """Stands in for ``chain.matrix`` and counts products against it."""

    products = 0

    def __init__(self, matrix):
        self.matrix = matrix

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return self.matrix @ other


class TestOneTraversal:
    """A labelling walks the predecessor graph once; only a region
    holding most of the states steps the chain level by level."""

    @pytest.fixture
    def products(self, monkeypatch):
        monkeypatch.setattr(
            MarkovChain,
            "matrix",
            property(lambda chain: CountingMatrix(chain._matrix)),
        )
        CountingMatrix.products = 0
        return lambda: CountingMatrix.products

    def test_small_region_takes_no_per_level_product(self, products):
        chain = banded_chain(2_000, 20, np.random.default_rng(1))
        for region in ([1_000], list(range(990, 1_011))):
            reachability_levels(
                chain, region, chain.n_states, OrderedDict()
            )
        assert products() == 0

    def test_complement_takes_at_most_three_products(self, products):
        chain = banded_chain(2_000, 20, np.random.default_rng(1))
        region = sorted(set(range(chain.n_states)) - set(range(990, 1_011)))
        levels = reachability_levels(
            chain, region, chain.n_states, OrderedDict()
        )
        assert 1 <= products() <= 3
        assert (levels[990:1_011] >= 1).all()
