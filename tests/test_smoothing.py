"""Tests for forward-backward smoothing and Viterbi decoding."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MarkovChain,
    Observation,
    ObservationSet,
    PossibleWorldEnumerator,
    map_trajectory,
    posterior_marginals,
)
from repro.core.errors import InfeasibleEvidenceError, ValidationError

from conftest import random_chain, random_distribution


def brute_force_marginals(chain, observations, horizon):
    """Posterior marginals by enumerating all re-weighted worlds."""
    first = observations.first
    enumerator = PossibleWorldEnumerator(
        chain, first.distribution, horizon
    )
    later = [
        (obs.time - first.time, obs.distribution)
        for obs in observations.after(first.time)
    ]
    conditioned = enumerator.conditioned_on_observations(later)
    marginals = np.zeros((horizon + 1, chain.n_states))
    for trajectory, weight in conditioned.worlds():
        for offset, state in enumerate(trajectory.states):
            marginals[offset, state] += weight
    return marginals


class TestPosteriorMarginals:
    def test_single_observation_is_forward_propagation(self, paper_chain):
        observations = ObservationSet.single(
            Observation.precise(0, 3, 1)
        )
        marginals = posterior_marginals(
            paper_chain, observations, horizon=2
        )
        assert marginals[0].probability(1) == 1.0
        assert np.allclose(marginals[2].vector, [0.0, 0.32, 0.68])

    def test_section6_example(self, paper_chain_section6):
        """Given s1@t0 and s2@t3, the paper concludes the object passed
        s3 at t=1 and then s3 or s2... the only consistent path is
        s1 -> s3 -> s3 -> s2?  Enumerate to be sure and compare."""
        observations = ObservationSet.of(
            Observation.precise(0, 3, 0),
            Observation.precise(3, 3, 1),
        )
        marginals = posterior_marginals(
            paper_chain_section6, observations
        )
        expected = brute_force_marginals(
            paper_chain_section6, observations, 3
        )
        for offset, marginal in enumerate(marginals):
            assert np.allclose(marginal.vector, expected[offset],
                               atol=1e-12)
        # endpoint posteriors equal the (certain) observations
        assert marginals[0].probability(0) == pytest.approx(1.0)
        assert marginals[3].probability(1) == pytest.approx(1.0)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 12:
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            first = random_distribution(n, rng, sparse=True)
            horizon = int(rng.integers(2, 5))
            obs_time = int(rng.integers(1, horizon + 1))
            obs = random_distribution(n, rng)
            observations = ObservationSet.of(
                Observation(0, first), Observation(obs_time, obs)
            )
            try:
                marginals = posterior_marginals(
                    chain, observations, horizon=horizon
                )
            except InfeasibleEvidenceError:
                continue
            expected = brute_force_marginals(
                chain, observations, horizon
            )
            assert len(marginals) == horizon + 1
            for offset, marginal in enumerate(marginals):
                assert np.allclose(
                    marginal.vector, expected[offset], atol=1e-9
                )
            checked += 1

    def test_marginals_are_distributions(self):
        rng = np.random.default_rng(11)
        chain = random_chain(6, rng)
        observations = ObservationSet.of(
            Observation(0, random_distribution(6, rng)),
            Observation(4, random_distribution(6, rng)),
        )
        for marginal in posterior_marginals(chain, observations):
            assert marginal.vector.sum() == pytest.approx(1.0)

    def test_infeasible_evidence(self, paper_chain):
        observations = ObservationSet.of(
            Observation.precise(0, 3, 0),
            Observation.precise(1, 3, 0),  # impossible: s1 -> s3 only
        )
        with pytest.raises(InfeasibleEvidenceError):
            posterior_marginals(paper_chain, observations)

    def test_observation_beyond_horizon(self, paper_chain):
        observations = ObservationSet.of(
            Observation.precise(0, 3, 0),
            Observation.precise(5, 3, 1),
        )
        with pytest.raises(ValidationError):
            posterior_marginals(paper_chain, observations, horizon=2)

    def test_state_count_mismatch(self, paper_chain):
        observations = ObservationSet.single(
            Observation.precise(0, 4, 0)
        )
        with pytest.raises(ValidationError):
            posterior_marginals(paper_chain, observations, horizon=2)


class TestMapTrajectory:
    def test_deterministic_chain(self):
        chain = MarkovChain(
            [
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0],
            ]
        )
        observations = ObservationSet.single(
            Observation.precise(0, 3, 0)
        )
        trajectory, probability = map_trajectory(
            chain, observations, horizon=4
        )
        assert trajectory.states == (0, 1, 2, 0, 1)
        assert probability == pytest.approx(1.0)

    def test_matches_enumeration_argmax(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 12:
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng, density=0.7)
            first = random_distribution(n, rng, sparse=True)
            horizon = int(rng.integers(2, 5))
            obs_time = int(rng.integers(1, horizon + 1))
            obs = random_distribution(n, rng, sparse=True)
            observations = ObservationSet.of(
                Observation(0, first), Observation(obs_time, obs)
            )
            enumerator = PossibleWorldEnumerator(
                chain, first, horizon
            )
            try:
                worlds = list(
                    enumerator.conditioned_on_observations(
                        [(obs_time, obs)]
                    ).worlds()
                )
            except ValidationError:
                continue
            best_world, best_weight = max(
                worlds, key=lambda pair: pair[1]
            )
            trajectory, probability = map_trajectory(
                chain, observations, horizon=horizon
            )
            assert probability == pytest.approx(best_weight, abs=1e-9)
            # several worlds may tie; compare probabilities, not paths
            checked += 1

    def test_map_consistent_with_observations(self, paper_chain_section6):
        observations = ObservationSet.of(
            Observation.precise(0, 3, 0),
            Observation.precise(3, 3, 1),
        )
        trajectory, probability = map_trajectory(
            paper_chain_section6, observations
        )
        assert trajectory[0] == 0
        assert trajectory[3] == 1
        assert probability > 0

    def test_infeasible(self, paper_chain):
        observations = ObservationSet.of(
            Observation.precise(0, 3, 0),
            Observation.precise(1, 3, 1),
        )
        with pytest.raises(InfeasibleEvidenceError):
            map_trajectory(paper_chain, observations)

    def test_path_probability_under_model(self):
        """The returned probability equals the path's posterior weight."""
        rng = np.random.default_rng(13)
        chain = random_chain(4, rng, density=0.8)
        first = random_distribution(4, rng)
        observations = ObservationSet.single(Observation(0, first))
        trajectory, probability = map_trajectory(
            chain, observations, horizon=3
        )
        direct = trajectory.probability_under(chain, first)
        assert probability == pytest.approx(direct, abs=1e-12)
