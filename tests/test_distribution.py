"""Tests for StateDistribution, including Lemma 1 fusion."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import DenseDistribution
from repro import Observation, StateDistribution
from repro.core.errors import (
    DimensionMismatchError,
    InfeasibleEvidenceError,
    ValidationError,
)
from repro.store.sharded import SlabDistribution


class TestConstruction:
    def test_point(self):
        dist = StateDistribution.point(4, 2)
        assert dist.probability(2) == 1.0
        assert dist.support() == (2,)

    def test_point_out_of_range(self):
        with pytest.raises(ValidationError):
            StateDistribution.point(3, 3)

    def test_uniform_over_support(self):
        dist = StateDistribution.uniform(5, [1, 3])
        assert dist.probability(1) == pytest.approx(0.5)
        assert dist.probability(3) == pytest.approx(0.5)
        assert dist.probability(0) == 0.0

    def test_uniform_over_everything(self):
        dist = StateDistribution.uniform(4)
        assert dist.vector == pytest.approx([0.25] * 4)

    def test_uniform_bad_state(self):
        with pytest.raises(ValidationError):
            StateDistribution.uniform(3, [5])

    def test_from_dict_normalizes(self):
        dist = StateDistribution.from_dict(
            3, {0: 2.0, 2: 2.0}, normalize=True
        )
        assert dist.probability(0) == pytest.approx(0.5)

    def test_from_dict_accumulates_duplicate_free_weights(self):
        dist = StateDistribution.from_dict(2, {0: 0.25, 1: 0.75})
        assert dist.probability(1) == pytest.approx(0.75)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            StateDistribution([0.5, 0.2])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            StateDistribution([1.5, -0.5])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            StateDistribution([[0.5, 0.5]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            StateDistribution([])

    def test_zero_mass_normalize_rejected(self):
        with pytest.raises(InfeasibleEvidenceError):
            StateDistribution([0.0, 0.0], normalize=True)

    def test_vector_is_read_only(self):
        dist = StateDistribution.point(2, 0)
        with pytest.raises(ValueError):
            dist.vector[0] = 0.5


class TestInspection:
    def test_probability_of_region(self):
        dist = StateDistribution([0.2, 0.3, 0.5])
        assert dist.probability_of([0, 2]) == pytest.approx(0.7)
        assert dist.probability_of([]) == 0.0

    def test_probability_out_of_range(self):
        with pytest.raises(ValidationError):
            StateDistribution.point(2, 0).probability(9)

    def test_probability_of_counts_each_state_once(self):
        dist = StateDistribution.from_dict(4, {1: 0.5, 2: 0.5})
        assert dist.probability_of([1, 1]) == 0.5
        assert dist.probability_of(iter([2, 1, 2])) == 1.0

    @pytest.mark.parametrize("state", [-1, 4, 7])
    def test_probability_of_out_of_range(self, state):
        dist = StateDistribution.from_dict(4, {1: 0.5, 3: 0.5})
        with pytest.raises(ValidationError, match="out of range"):
            dist.probability_of([1, state])

    def test_support_and_size(self):
        dist = StateDistribution([0.0, 0.4, 0.0, 0.6])
        assert dist.support() == (1, 3)
        assert dist.support_size() == 2

    def test_mode(self):
        assert StateDistribution([0.2, 0.5, 0.3]).mode() == 1

    def test_entropy_point_is_zero(self):
        assert StateDistribution.point(5, 1).entropy() == 0.0

    def test_entropy_uniform(self):
        dist = StateDistribution.uniform(8)
        assert dist.entropy() == pytest.approx(3.0)

    def test_items_and_to_dict(self):
        dist = StateDistribution([0.0, 1.0])
        assert dict(dist.items()) == {1: 1.0}
        assert dist.to_dict() == {1: 1.0}

    def test_repr_truncates(self):
        dist = StateDistribution.uniform(20)
        assert "..." in repr(dist)


class TestFusion:
    """Lemma 1: independent observations fuse by product + normalise."""

    def test_paper_style_fusion(self):
        # prior (0, 0.16, 0.04, 0.4, 0, 0.4) fused with obs
        # (0, 0.5, 0, 0, 0.5, 0) must give a point mass (paper Sec. VI)
        prior = StateDistribution(
            [0.0, 0.16, 0.04, 0.4, 0.0, 0.4], normalize=True
        )
        observation = StateDistribution(
            [0.0, 0.5, 0.0, 0.0, 0.5, 0.0]
        )
        fused = prior.fuse(observation)
        assert fused.probability(1) == pytest.approx(1.0)

    def test_fusion_with_uniform_is_identity(self):
        prior = StateDistribution([0.2, 0.3, 0.5])
        uniform = StateDistribution.uniform(3)
        assert prior.fuse(uniform).allclose(prior)

    def test_fusion_commutative(self):
        a = StateDistribution([0.5, 0.25, 0.25])
        b = StateDistribution([0.1, 0.6, 0.3])
        assert a.fuse(b).allclose(b.fuse(a))

    def test_fusion_multiple_observations(self):
        a = StateDistribution([0.5, 0.5, 0.0])
        b = StateDistribution([0.0, 0.5, 0.5])
        c = StateDistribution.uniform(3)
        fused = a.fuse(b, c)
        assert fused.probability(1) == pytest.approx(1.0)

    def test_contradictory_observations(self):
        a = StateDistribution.point(3, 0)
        b = StateDistribution.point(3, 2)
        with pytest.raises(InfeasibleEvidenceError):
            a.fuse(b)

    def test_fusion_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            StateDistribution.point(3, 0).fuse(
                StateDistribution.point(4, 0)
            )

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_fusion_matches_bayes_rule(self, prior_w, likelihood_w):
        n = min(len(prior_w), len(likelihood_w))
        prior = StateDistribution(np.asarray(prior_w[:n]), normalize=True)
        likelihood = StateDistribution(
            np.asarray(likelihood_w[:n]), normalize=True
        )
        fused = prior.fuse(likelihood)
        expected = prior.vector * likelihood.vector
        expected /= expected.sum()
        assert np.allclose(fused.vector, expected)


class TestOperations:
    def test_restrict(self):
        dist = StateDistribution([0.2, 0.3, 0.5])
        restricted = dist.restrict([1, 2])
        assert restricted.probability(0) == 0.0
        assert restricted.probability(2) == pytest.approx(0.5 / 0.8)

    def test_restrict_to_zero_mass(self):
        dist = StateDistribution([1.0, 0.0])
        with pytest.raises(InfeasibleEvidenceError):
            dist.restrict([1])

    def test_restrict_out_of_range(self):
        with pytest.raises(ValidationError):
            StateDistribution.point(2, 0).restrict([5])

    def test_total_variation_distance(self):
        a = StateDistribution([1.0, 0.0])
        b = StateDistribution([0.0, 1.0])
        assert a.total_variation_distance(b) == pytest.approx(1.0)
        assert a.total_variation_distance(a) == 0.0

    def test_total_variation_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            StateDistribution.point(2, 0).total_variation_distance(
                StateDistribution.point(3, 0)
            )

    def test_sample_respects_support(self):
        rng = np.random.default_rng(0)
        dist = StateDistribution([0.0, 0.5, 0.5, 0.0])
        samples = {dist.sample(rng) for _ in range(50)}
        assert samples <= {1, 2}

    def test_equality_and_hash(self):
        a = StateDistribution([0.5, 0.5])
        b = StateDistribution([0.5, 0.5])
        assert a == b
        assert hash(a) == hash(b)
        assert a != "something else"


# ----------------------------------------------------------------------
# the support format against the dense oracle
# ----------------------------------------------------------------------
_SLAB_NAMES = itertools.count()


@pytest.fixture(scope="module")
def slab_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("slabs")


@st.composite
def supports(draw, n_states=None):
    """``(n, states, weights)``: a support over ``1..200`` states."""
    n = draw(st.integers(1, 200)) if n_states is None else n_states
    states = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(1e-6, 1.0),
            min_size=len(states),
            max_size=len(states),
        )
    )
    return n, states, weights


def build(kind, n, states, weights):
    """The same input through one constructor of each class."""
    if kind == "point":
        return (
            StateDistribution.point(n, states[0]),
            DenseDistribution.from_support(n, states[:1], [1.0]),
        )
    if kind == "uniform":
        return (
            StateDistribution.uniform(n, states),
            DenseDistribution.uniform(n, states),
        )
    if kind == "dict":
        table = dict(zip(states, weights))
        return (
            StateDistribution.from_dict(n, table, normalize=True),
            DenseDistribution.from_dict(n, table, normalize=True),
        )
    if kind == "dense":
        vector = np.zeros(n)
        vector[states] = weights
        return (
            StateDistribution(vector, normalize=True),
            DenseDistribution(vector, normalize=True),
        )
    return (
        StateDistribution.from_support(n, states, weights, normalize=True),
        DenseDistribution.from_support(n, states, weights, normalize=True),
    )


def as_slab(directory, distribution):
    """``distribution`` as a row of a slab pair laid out like the
    store's, behind a few rows of another object."""
    states, probs = distribution.sparse()
    name = next(_SLAB_NAMES)
    pad = name % 3
    paths = (
        str(directory / f"{name}-obs_states.npy"),
        str(directory / f"{name}-obs_weights.npy"),
    )
    np.save(paths[0], np.concatenate([np.arange(pad), states]).astype(np.int32))
    np.save(paths[1], np.concatenate([np.full(pad, 0.5), probs]))
    return SlabDistribution(*paths, pad, pad + states.size, distribution.n_states)


def same_outcome(got, want):
    """Two thunks either raise the same error or return distributions
    within 1e-12 of each other."""
    try:
        expected = want()
    except InfeasibleEvidenceError:
        with pytest.raises(InfeasibleEvidenceError):
            got()
        return
    result = got()
    assert isinstance(result, StateDistribution)
    assert np.allclose(result.vector, expected.vector, rtol=0, atol=1e-12)


def assert_matches(got, want, other, other_want, region, seed):
    """Every public method of ``got`` answers like the oracle ``want``."""
    states, probs = got.sparse()
    want_states, want_probs = want.sparse()
    assert states.dtype == np.int64
    assert np.array_equal(states, want_states)
    assert probs.tobytes() == want_probs.tobytes()
    assert got.vector.tobytes() == want.vector.tobytes()
    assert not got.vector.flags.writeable
    assert got.n_states == want.n_states
    assert got.support() == want.support()
    assert got.support_size() == want.support_size()
    assert got.mode() == want.mode()
    assert got.to_dict() == want.to_dict()
    assert list(got.items()) == list(want.to_dict().items())
    assert [got.probability(s) for s in range(got.n_states)] == [
        want.probability(s) for s in range(want.n_states)
    ]
    for bad in (-1, got.n_states):
        with pytest.raises(ValidationError):
            got.probability(bad)
        with pytest.raises(ValidationError):
            got.probability_of(region + [bad])
    assert got.probability_of(region) == pytest.approx(
        want.probability_of(region), abs=1e-12
    )
    assert got.entropy() == pytest.approx(want.entropy(), abs=1e-12)
    assert got.total_variation_distance(other) == pytest.approx(
        want.total_variation_distance(other_want), abs=1e-12
    )
    assert got.allclose(other) == want.allclose(other_want)
    assert got.allclose(got)
    same_outcome(lambda: got.fuse(other), lambda: want.fuse(other_want))
    same_outcome(
        lambda: got.restrict(region), lambda: want.restrict(region)
    )
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [got.sample(mine) for _ in range(4)] == [
        want.sample(theirs) for _ in range(4)
    ]
    twin = StateDistribution(want.vector)
    assert got == twin and hash(got) == hash(twin)


class TestSupportFormat:
    """The kept support answers every question as the dense vector
    did: ``sparse()`` and ``vector`` bit for bit, the rest to 1e-12."""

    @given(
        kind=st.sampled_from(["support", "dict", "uniform", "point", "dense"]),
        drawn=supports(),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_support_format_matches_dense_reference(
        self, slab_dir, kind, drawn, data
    ):
        n = drawn[0]
        got, want = build(kind, *drawn)
        other, other_want = build("support", *data.draw(supports(n)))
        region = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        assert repr(got) == repr(want)
        assert_matches(got, want, other, other_want, region, seed)
        slab = as_slab(slab_dir, got)
        assert_matches(slab, want, other, other_want, region, seed)
        assert slab == got and hash(slab) == hash(got)
        assert f"support={got.support_size()}" in repr(slab)

    def test_a_stored_object_answers_like_its_source(self, tmp_path):
        from repro.store.sharded import ShardedTrajectoryStore
        from repro.workloads import SyntheticConfig, make_synthetic_database

        database = make_synthetic_database(
            SyntheticConfig(n_objects=40, n_states=300, seed=7)
        )
        store = ShardedTrajectoryStore.create(
            tmp_path / "store", database, shards_per_chain=3
        )
        other = StateDistribution.uniform(300, range(100, 140))
        other_want = DenseDistribution.uniform(300, range(100, 140))
        for index, object_id in enumerate(database.object_ids):
            source = database.get(object_id).initial.distribution
            stored = store.get(object_id).initial.distribution
            assert isinstance(stored, SlabDistribution)
            want = DenseDistribution(source.vector)
            region = [(index * 7 + j) % 300 for j in range(30)]
            assert_matches(stored, want, other, other_want, region, index)
            assert stored == source and hash(stored) == hash(source)

    def test_a_sighting_keeps_only_its_support(self):
        """1,000 five-state sightings over 6,000 states: a dense
        vector each would hold 48 MB."""
        rng = np.random.default_rng(3)
        regions = [rng.choice(6000, 5, replace=False) for _ in range(1000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sightings = [
                Observation.uniform(time, 6000, region)
                for time, region in enumerate(regions)
            ]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sightings) == 1000
        assert held < 2 * 2**20, f"{held / 2**20:.1f} MB held"
