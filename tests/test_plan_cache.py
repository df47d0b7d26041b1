"""Tests for the cross-query plan cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MarkovChain,
    PlanCache,
    PSTExistsQuery,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.errors import ValidationError

from conftest import random_chain, random_distribution

WINDOW = SpatioTemporalWindow(frozenset({0, 1}), frozenset({2, 3}))


def build_database(n_states=8, n_objects=6, seed=0):
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase.with_chain(
        random_chain(n_states, rng, density=0.5)
    )
    for index in range(n_objects):
        database.add(
            UncertainObject.with_distribution(
                f"o{index}", random_distribution(n_states, rng)
            )
        )
    return database


class TestFingerprint:
    def test_equal_chains_share_fingerprint(self, paper_chain):
        clone = MarkovChain(paper_chain.to_dense())
        assert clone is not paper_chain
        assert clone.fingerprint() == paper_chain.fingerprint()

    def test_different_chains_differ(
        self, paper_chain, paper_chain_section6
    ):
        fingerprints = {
            paper_chain.fingerprint(),
            paper_chain_section6.fingerprint(),
        }
        assert len(fingerprints) == 2

    def test_fingerprint_is_cached(self, paper_chain):
        assert paper_chain.fingerprint() is paper_chain.fingerprint()


def region_window(region) -> SpatioTemporalWindow:
    return SpatioTemporalWindow(frozenset(region), WINDOW.times)


class TestConstructionCaching:
    def test_hit_returns_same_object(self, paper_chain):
        cache = PlanCache()
        first = cache.backward_vectors(paper_chain, WINDOW, [0])[0]
        second = cache.backward_vectors(paper_chain, WINDOW, [0])[0]
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.constructions == {"backward": 1}

    def test_equal_value_chain_hits(self, paper_chain):
        cache = PlanCache()
        first = cache.backward_vectors(paper_chain, WINDOW, [0])[0]
        clone = MarkovChain(paper_chain.to_dense())
        assert cache.backward_vectors(clone, WINDOW, [0])[0] is first

    def test_regions_are_distinct_entries(self, paper_chain):
        cache = PlanCache()
        cache.backward_vectors(paper_chain, region_window({0}), [0])
        cache.backward_vectors(paper_chain, region_window({0, 1}), [0])
        assert cache.stats.constructions == {"backward": 2}

    def test_kinds_cached_separately(self, paper_chain):
        cache = PlanCache()
        cache.backward_vectors(paper_chain, WINDOW, [0])
        blocks = cache.ktimes_blocks(paper_chain, WINDOW, [0])
        assert cache.ktimes_blocks(paper_chain, WINDOW, [0])[0] is blocks[0]
        assert cache.stats.constructions == {
            "backward": 1,
            "ktimes_core": 1,
        }

    def test_lru_eviction(self, paper_chain):
        cache = PlanCache(maxsize=2)
        first = cache.backward_vectors(paper_chain, region_window({0}), [0])
        cache.backward_vectors(paper_chain, region_window({1}), [0])
        # evicts {0}
        cache.backward_vectors(paper_chain, region_window({2}), [0])
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        rebuilt = cache.backward_vectors(
            paper_chain, region_window({0}), [0]
        )
        assert rebuilt[0] is not first[0]

    def test_clear_keeps_counters(self, paper_chain):
        cache = PlanCache()
        cache.backward_vectors(paper_chain, WINDOW, [0])
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.total_constructions == 1

    def test_invalid_maxsize(self):
        with pytest.raises(ValidationError):
            PlanCache(maxsize=0)


class TestBackwardVectors:
    def test_one_pass_serves_all_starts(self, paper_chain, paper_window):
        cache = PlanCache()
        vectors = cache.backward_vectors(
            paper_chain, paper_window, [0, 1, 2]
        )
        assert set(vectors) == {0, 1, 2}
        # the pass steps the chain's own matrix: no augmented matrices
        assert cache.stats.constructions == {"backward": 1}

    def test_repeat_is_all_hits(self, paper_chain, paper_window):
        cache = PlanCache()
        first = cache.backward_vectors(paper_chain, paper_window, [0, 1])
        before = cache.stats.total_constructions
        second = cache.backward_vectors(
            paper_chain, paper_window, [0, 1]
        )
        assert cache.stats.total_constructions == before
        for start in (0, 1):
            assert second[start] is first[start]

    def test_cached_vectors_are_immutable(
        self, paper_chain, paper_window
    ):
        cache = PlanCache()
        vectors = cache.backward_vectors(paper_chain, paper_window, [0])
        with pytest.raises(ValueError):
            vectors[0][0] = 42.0


class TestEngineIntegration:
    def test_repeated_query_constructs_once(self):
        database = build_database()
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)
        first = engine.evaluate(query, method="qb")
        constructions = engine.plan_cache.stats.total_constructions
        assert constructions > 0
        second = engine.evaluate(query, method="qb")
        assert (
            engine.plan_cache.stats.total_constructions == constructions
        )
        assert engine.plan_cache.stats.hits > 0
        assert first.values == second.values

    def test_ob_adds_no_construction(self):
        # the forward sweep steps the chain's own matrix: it caches
        # nothing beside QB's backward vectors
        database = build_database(seed=1)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)
        engine.evaluate(query, method="qb")
        engine.evaluate(query, method="ob")
        assert engine.plan_cache.stats.constructions == {"backward": 1}

    def test_shared_cache_across_engines(self):
        database = build_database(seed=2)
        cache = PlanCache()
        QueryEngine(database, plan_cache=cache).evaluate(
            PSTExistsQuery(WINDOW), method="qb"
        )
        constructions = cache.stats.total_constructions
        assert constructions > 0
        QueryEngine(database, plan_cache=cache).evaluate(
            PSTExistsQuery(WINDOW), method="qb"
        )
        assert cache.stats.total_constructions == constructions

    def test_standalone_qb_accepts_cache(self, paper_chain):
        from repro import ob_exists_probability, qb_exists_probability

        cache = PlanCache()
        start = StateDistribution.point(3, 1)
        ob = ob_exists_probability(paper_chain, start, WINDOW)
        qb = qb_exists_probability(
            paper_chain, start, WINDOW, plan_cache=cache
        )
        assert ob == pytest.approx(qb, abs=1e-12)
        assert cache.stats.constructions == {"backward": 1}
