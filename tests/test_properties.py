"""Hypothesis property tests over the core query-processing invariants.

Random stochastic matrices, initial distributions and windows are
generated; the central invariants of the paper are asserted:

1. OB == QB == brute-force enumeration (possible-worlds correctness),
2. the for-all complement identity,
3. the k-times distribution is a probability distribution consistent
   with exists/for-all,
4. C(t) == blocked-matrix evaluation,
5. monotonicity: growing the window region or time set can only raise
   the exists-probability,
6. on banded chains, whose backward pass and Lemma 1 filter step row
   windows narrower than the state space, QB and the collapse agree
   with brute-force enumeration -- an oracle that shares neither
   kernel.

``REPRO_HYPOTHESIS_PROFILE=ci`` runs the banded-chain tests with the
``ci`` profile's larger example count (see ``conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    MarkovChain,
    Observation,
    ObservationSet,
    PossibleWorldEnumerator,
    PSTExistsQuery,
    PSTForAllQuery,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
    ktimes_distribution,
    ktimes_distribution_blocked,
    ob_exists_probability,
    ob_forall_probability,
    qb_exists_probability,
    qb_forall_probability,
)
from repro.core.errors import InfeasibleEvidenceError, ValidationError


@st.composite
def chain_strategy(draw, max_states: int = 5):
    """A random row-stochastic chain, 2..max_states states."""
    n = draw(st.integers(2, max_states))
    rows = []
    for _ in range(n):
        weights = draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        total = sum(weights)
        assume(total > 1e-6)
        rows.append([w / total for w in weights])
    return MarkovChain(rows)


@st.composite
def instance_strategy(draw, max_states: int = 5, max_time: int = 5):
    """A (chain, initial, window) triple."""
    chain = draw(chain_strategy(max_states))
    n = chain.n_states
    weights = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    total = sum(weights)
    assume(total > 1e-6)
    initial = StateDistribution(np.asarray(weights) / total)
    region = draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
    )
    times = draw(
        st.sets(st.integers(1, max_time), min_size=1, max_size=max_time)
    )
    window = SpatioTemporalWindow(frozenset(region), frozenset(times))
    return chain, initial, window


class TestPossibleWorldsCorrectness:
    @given(instance_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ob_matches_enumeration(self, instance):
        chain, initial, window = instance
        expected = PossibleWorldEnumerator(
            chain, initial, window.t_end
        ).exists_probability(window)
        assert ob_exists_probability(
            chain, initial, window
        ) == pytest.approx(expected, abs=1e-9)

    @given(instance_strategy())
    @settings(max_examples=60, deadline=None)
    def test_qb_matches_ob(self, instance):
        chain, initial, window = instance
        assert qb_exists_probability(
            chain, initial, window
        ) == pytest.approx(
            ob_exists_probability(chain, initial, window), abs=1e-12
        )

    @given(instance_strategy())
    @settings(max_examples=40, deadline=None)
    def test_result_is_probability(self, instance):
        chain, initial, window = instance
        p = ob_exists_probability(chain, initial, window)
        assert -1e-12 <= p <= 1.0 + 1e-12


class TestForAllIdentity:
    @given(instance_strategy())
    @settings(max_examples=40, deadline=None)
    def test_forall_matches_enumeration(self, instance):
        chain, initial, window = instance
        expected = PossibleWorldEnumerator(
            chain, initial, window.t_end
        ).forall_probability(window)
        assert ob_forall_probability(
            chain, initial, window
        ) == pytest.approx(expected, abs=1e-9)

    @given(instance_strategy())
    @settings(max_examples=40, deadline=None)
    def test_forall_le_exists(self, instance):
        chain, initial, window = instance
        forall = ob_forall_probability(chain, initial, window)
        exists = ob_exists_probability(chain, initial, window)
        assert forall <= exists + 1e-10


class TestKTimes:
    @given(instance_strategy())
    @settings(max_examples=50, deadline=None)
    def test_distribution_and_identities(self, instance):
        chain, initial, window = instance
        distribution = ktimes_distribution(chain, initial, window)
        assert distribution.sum() == pytest.approx(1.0, abs=1e-9)
        assert (distribution >= -1e-12).all()
        exists = ob_exists_probability(chain, initial, window)
        assert exists == pytest.approx(
            1.0 - distribution[0], abs=1e-9
        )
        forall = ob_forall_probability(chain, initial, window)
        assert forall == pytest.approx(
            distribution[window.duration], abs=1e-9
        )

    @given(instance_strategy())
    @settings(max_examples=40, deadline=None)
    def test_ct_equals_blocked(self, instance):
        chain, initial, window = instance
        assert np.allclose(
            ktimes_distribution(chain, initial, window),
            ktimes_distribution_blocked(chain, initial, window),
            atol=1e-10,
        )


class TestMonotonicity:
    @given(instance_strategy(max_states=4, max_time=4))
    @settings(max_examples=40, deadline=None)
    def test_larger_region_raises_exists(self, instance):
        chain, initial, window = instance
        assume(len(window.region) < chain.n_states)
        extra = next(
            s
            for s in range(chain.n_states)
            if s not in window.region
        )
        bigger = window.with_region(window.region | {extra})
        assert ob_exists_probability(
            chain, initial, bigger
        ) >= ob_exists_probability(chain, initial, window) - 1e-10

    @given(instance_strategy(max_states=4, max_time=4))
    @settings(max_examples=40, deadline=None)
    def test_more_times_raise_exists(self, instance):
        chain, initial, window = instance
        bigger = SpatioTemporalWindow(
            window.region, window.times | {window.t_end + 1}
        )
        assert ob_exists_probability(
            chain, initial, bigger
        ) >= ob_exists_probability(chain, initial, window) - 1e-10

    @given(instance_strategy(max_states=4, max_time=4))
    @settings(max_examples=40, deadline=None)
    def test_more_times_lower_forall(self, instance):
        chain, initial, window = instance
        bigger = SpatioTemporalWindow(
            window.region, window.times | {window.t_end + 1}
        )
        assert ob_forall_probability(
            chain, initial, bigger
        ) <= ob_forall_probability(chain, initial, window) + 1e-10


class TestEnumerationAgreement:
    @given(instance_strategy(max_states=4, max_time=4))
    @settings(max_examples=25, deadline=None)
    def test_ob_equals_enumeration_to_1e12(self, instance):
        chain, initial, window = instance
        assert ob_exists_probability(
            chain, initial, window
        ) == pytest.approx(
            PossibleWorldEnumerator(
                chain, initial, window.t_end
            ).exists_probability(window),
            abs=1e-12,
        )


class TestExtensionInvariants:
    @given(instance_strategy(max_states=4, max_time=4))
    @settings(max_examples=30, deadline=None)
    def test_first_passage_mass_and_cdf(self, instance):
        from repro import first_passage_distribution

        chain, initial, window = instance
        result = first_passage_distribution(
            chain, initial, window.region, window.t_end
        )
        assert result.pmf.sum() + result.never_probability == (
            pytest.approx(1.0, abs=1e-9)
        )
        # the CDF at t_end equals the exists query over [0 .. t_end]
        full_window = SpatioTemporalWindow(
            window.region, frozenset(range(0, window.t_end + 1))
        )
        assert result.entry_by(window.t_end) == pytest.approx(
            ob_exists_probability(chain, initial, full_window),
            abs=1e-9,
        )

    @given(instance_strategy(max_states=4, max_time=4))
    @settings(max_examples=30, deadline=None)
    def test_anchored_pattern_equals_exists(self, instance):
        """An explicit unrolled pattern reproduces any exists window."""
        from repro.core.sequence import Pattern, sequence_probability

        chain, initial, window = instance
        dot = Pattern.any()
        region = Pattern.states(window.region)
        # build sum-of-positions pattern: at least one query time in S_q
        alternatives = None
        for query_time in sorted(window.times):
            arm = Pattern.epsilon()
            for position in range(window.t_end + 1):
                arm = arm.then(
                    region if position == query_time else dot
                )
            alternatives = arm if alternatives is None else (
                alternatives.alt(arm)
            )
        probability = sequence_probability(
            chain, initial, alternatives, length=window.t_end
        )
        assert probability == pytest.approx(
            ob_exists_probability(chain, initial, window), abs=1e-9
        )

    @given(instance_strategy(max_states=4, max_time=4))
    @settings(max_examples=30, deadline=None)
    def test_interval_bounds_enclose_exact(self, instance):
        from repro import (
            IntervalMarkovChain,
            bound_exists_probability,
        )

        chain, initial, window = instance
        interval = IntervalMarkovChain.from_chains([chain])
        low, high = bound_exists_probability(interval, initial, window)
        exact = ob_exists_probability(chain, initial, window)
        assert low == pytest.approx(exact, abs=1e-9)
        assert high == pytest.approx(exact, abs=1e-9)


# ----------------------------------------------------------------------
# banded chains: the row windows clip
# ----------------------------------------------------------------------
WEIGHT = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


@st.composite
def banded_chain_strategy(draw, max_states: int = 8):
    """A chain over 3..max_states states whose transitions move at most
    1..3 states down and, independently, 1..3 up, with zero entries
    inside the band too, so the backward and Lemma 1 row windows clip."""
    n = draw(st.integers(3, max_states))
    down, up = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    matrix = np.zeros((n, n))
    for state in range(n):
        lo, hi = max(0, state - down), min(n, state + up + 1)
        weights = draw(st.lists(WEIGHT, min_size=hi - lo, max_size=hi - lo))
        if not any(weights):
            weights[state - lo] = 1.0
        matrix[state, lo:hi] = np.asarray(weights) / sum(weights)
    return MarkovChain(matrix)


@st.composite
def sparse_pdf(draw, n: int):
    """A distribution over a random non-empty subset of ``n`` states."""
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                  max_size=max(1, n // 2))))
    weights = np.zeros(n)
    weights[support] = draw(st.lists(
        st.floats(0.05, 1.0), min_size=len(support), max_size=len(support)
    ))
    return StateDistribution(weights / weights.sum())


@st.composite
def banded_instance(draw, max_time: int = 4):
    """A banded chain, a sparse initial pdf and a window."""
    chain = draw(banded_chain_strategy())
    n = chain.n_states
    region = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    times = draw(st.sets(st.integers(1, max_time), min_size=1,
                         max_size=max_time))
    window = SpatioTemporalWindow(frozenset(region), frozenset(times))
    return chain, draw(sparse_pdf(n)), window


class TestBandedChainOracle:
    """Section V-B's backward pass and Lemma 1's filter against
    possible-world enumeration at 1e-12 on chains with locality."""

    @given(banded_instance())
    @settings(deadline=None)
    def test_banded_qb_exists_and_forall_match_enumeration(self, instance):
        chain, initial, window = instance
        oracle = PossibleWorldEnumerator(chain, initial, window.t_end)
        assert qb_exists_probability(
            chain, initial, window
        ) == pytest.approx(oracle.exists_probability(window), abs=1e-12)
        assert qb_forall_probability(
            chain, initial, window
        ) == pytest.approx(oracle.forall_probability(window), abs=1e-12)

    @given(banded_instance(max_time=2), st.data())
    @settings(deadline=None)
    def test_banded_resighted_object_matches_conditioned_enumeration(
        self, instance, data
    ):
        """An object re-sighted before the window rides its Lemma 1
        posterior through the planned QB call."""
        chain, initial, window = instance
        n = chain.n_states
        later = [
            (time, data.draw(sparse_pdf(n)))
            for time in sorted(data.draw(st.sets(
                st.integers(1, 2), min_size=1, max_size=2
            )))
        ]
        # shift the window past the last sighting
        window = SpatioTemporalWindow(
            window.region, frozenset(t + later[-1][0] for t in window.times)
        )
        database = TrajectoryDatabase.with_chain(chain)
        database.add(UncertainObject("o", ObservationSet.of(
            Observation(0, initial),
            *(Observation(time, pdf) for time, pdf in later),
        )))
        oracle = PossibleWorldEnumerator(
            chain, initial, window.t_end
        ).conditioned_on_observations(later)
        engine = QueryEngine(database)
        try:
            exists = oracle.exists_probability(window)
        except ValidationError:  # the sightings contradict the chain
            with pytest.raises(InfeasibleEvidenceError):
                engine.evaluate(PSTExistsQuery(window), method="qb")
            return
        forall = oracle.probability_that(
            lambda world: world.stays_within(window)
        )
        for query, expected in ((PSTExistsQuery(window), exists),
                                (PSTForAllQuery(window), forall)):
            result = engine.evaluate(query, method="qb")
            assert result.values["o"] == pytest.approx(expected, abs=1e-12)
