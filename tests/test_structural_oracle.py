"""Every exact entry point against possible-world enumeration on
hand-built chains.

The property tests draw dense random weights, which almost never give
the structures that exercise the sparse paths: absorbing states,
periodic and reducible chains, the identity chain, a query time at the
observation time, gapped time sets, a region of all states but one.
Each structure below pins one of them, and each of PST-exists,
PST-for-all and PSTkQ is answered by every exact entry point (the
per-object functions, the batched kernels and the engine with ``qb`` and
``ob`` forced) and compared with :class:`PossibleWorldEnumerator` at
1e-12.  Batched and engine answers are checked for two objects at once:
the structure's own start and a point mass at state 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro import (
    MarkovChain,
    PossibleWorldEnumerator,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryBasedKTimesEvaluator,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
    batch_ktimes_distribution,
    batch_ob_exists,
    batch_qb_exists,
    ktimes_distribution,
    ktimes_distribution_blocked,
    ob_exists_probability,
    ob_forall_probability,
    qb_exists_probability,
    qb_forall_probability,
)


class Structure(NamedTuple):
    matrix: list
    initial: list
    region: frozenset
    times: frozenset


def _cycle(n: int) -> list:
    return [[1.0 if j == (i + 1) % n else 0.0 for j in range(n)]
            for i in range(n)]


STRUCTURES = {
    # Sections V-A / V-B running example, started at s2
    "paper": Structure(
        [[0.0, 0.0, 1.0], [0.6, 0.0, 0.4], [0.0, 0.8, 0.2]],
        [0.0, 1.0, 0.0],
        frozenset({0, 1}),
        frozenset({2, 3}),
    ),
    # mass that enters the region never leaves it
    "absorbing-in-region": Structure(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.3, 0.3, 0.4],
            [0.0, 0.0, 0.6, 0.4],
        ],
        [0.0, 0.0, 0.5, 0.5],
        frozenset({0}),
        frozenset({2, 3, 4}),
    ),
    # mass that falls into state 3 can never reach the region again
    "absorbing-outside": Structure(
        [
            [0.2, 0.5, 0.0, 0.3],
            [0.4, 0.0, 0.6, 0.0],
            [0.0, 0.7, 0.0, 0.3],
            [0.0, 0.0, 0.0, 1.0],
        ],
        [0.25, 0.25, 0.5, 0.0],
        frozenset({0, 1}),
        frozenset({1, 3, 5}),
    ),
    # deterministic 4-cycle: every trajectory is periodic
    "periodic": Structure(
        _cycle(4),
        [0.4, 0.3, 0.2, 0.1],
        frozenset({0}),
        frozenset({1, 2, 3, 5}),
    ),
    # objects never move
    "identity": Structure(
        np.eye(4).tolist(),
        [0.1, 0.2, 0.3, 0.4],
        frozenset({1, 2}),
        frozenset({3, 4}),
    ),
    # two closed classes {0, 1} and {2, 3}, start split across both
    "reducible": Structure(
        [
            [0.3, 0.7, 0.0, 0.0],
            [0.9, 0.1, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.2, 0.8],
        ],
        [0.5, 0.0, 0.0, 0.5],
        frozenset({1, 3}),
        frozenset({2, 4}),
    ),
    # the observation time is itself a query time (footnote 3)
    "query-at-observation": Structure(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.2, 0.8, 0.0],
            [0.1, 0.0, 0.0, 0.9],
            [0.0, 0.6, 0.0, 0.4],
        ],
        [0.2, 0.5, 0.3, 0.0],
        frozenset({0, 3}),
        frozenset({0, 1, 2}),
    ),
    # tridiagonal chain, a far region and a gapped time set
    "banded-gapped": Structure(
        [
            [0.6, 0.4, 0.0, 0.0, 0.0],
            [0.3, 0.3, 0.4, 0.0, 0.0],
            [0.0, 0.3, 0.3, 0.4, 0.0],
            [0.0, 0.0, 0.3, 0.3, 0.4],
            [0.0, 0.0, 0.0, 0.5, 0.5],
        ],
        [0.7, 0.3, 0.0, 0.0, 0.0],
        frozenset({4}),
        frozenset({1, 4, 6}),
    ),
    # for-all reduces to avoiding the single state outside the region
    "all-but-one": Structure(
        [
            [0.1, 0.2, 0.3, 0.4],
            [0.0, 0.5, 0.0, 0.5],
            [0.25, 0.25, 0.25, 0.25],
            [0.3, 0.0, 0.3, 0.4],
        ],
        [0.0, 0.0, 0.5, 0.5],
        frozenset({0, 1, 2}),
        frozenset({1, 2, 3}),
    ),
    # one query time long after the observation
    "single-late-time": Structure(
        [[0.2, 0.8, 0.0], [0.5, 0.0, 0.5], [0.0, 0.9, 0.1]],
        [0.0, 0.3, 0.7],
        frozenset({1}),
        frozenset({6}),
    ),
}


def _instance(name):
    structure = STRUCTURES[name]
    chain = MarkovChain(structure.matrix)
    initial = StateDistribution(np.asarray(structure.initial, dtype=float))
    window = SpatioTemporalWindow(structure.region, structure.times)
    return chain, initial, window


def _starts(chain, initial):
    return [initial, StateDistribution.point(chain.n_states, 0)]


def _engine(chain, initials):
    database = TrajectoryDatabase.with_chain(chain)
    for index, initial in enumerate(initials):
        database.add(UncertainObject.with_distribution(f"o{index}", initial))
    return QueryEngine(database)


def _by_engine(method, query):
    def answer(chain, initials, window):
        result = _engine(chain, initials).evaluate(query(window), method)
        return [result.values[f"o{i}"] for i in range(len(initials))]

    return answer


def _per_object(function):
    def answer(chain, initials, window):
        return [function(chain, initial, window) for initial in initials]

    return answer


EXISTS = {
    "ob": _per_object(ob_exists_probability),
    "qb": _per_object(qb_exists_probability),
    "batch-ob": lambda c, i, w: list(batch_ob_exists(c, i, w)),
    "batch-qb": lambda c, i, w: list(batch_qb_exists(c, i, w)),
    "engine-qb": _by_engine("qb", PSTExistsQuery),
    "engine-ob": _by_engine("ob", PSTExistsQuery),
    "ktimes-complement": _per_object(
        lambda c, i, w: 1.0 - ktimes_distribution(c, i, w)[0]
    ),
}

FORALL = {
    "ob": _per_object(ob_forall_probability),
    "qb": _per_object(qb_forall_probability),
    "engine-qb": _by_engine("qb", PSTForAllQuery),
    "engine-ob": _by_engine("ob", PSTForAllQuery),
}

KTIMES = {
    "forward": _per_object(ktimes_distribution),
    "blocked": _per_object(ktimes_distribution_blocked),
    "qb-evaluator": lambda c, i, w: [
        QueryBasedKTimesEvaluator(c, w).distribution(x) for x in i
    ],
    "batch": lambda c, i, w: list(batch_ktimes_distribution(c, i, w)),
    "engine-qb": _by_engine("qb", PSTKTimesQuery),
    "engine-ob": _by_engine("ob", PSTKTimesQuery),
}


def _truth(chain, initials, window, ask):
    return [
        ask(PossibleWorldEnumerator(chain, initial, window.t_end), window)
        for initial in initials
    ]


@pytest.mark.parametrize("entry", sorted(EXISTS))
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_exists_matches_enumeration(name, entry):
    chain, initial, window = _instance(name)
    initials = _starts(chain, initial)
    truth = _truth(
        chain, initials, window, PossibleWorldEnumerator.exists_probability
    )
    got = EXISTS[entry](chain, initials, window)
    np.testing.assert_allclose(got, truth, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("entry", sorted(FORALL))
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_forall_matches_enumeration(name, entry):
    chain, initial, window = _instance(name)
    initials = _starts(chain, initial)
    truth = _truth(
        chain, initials, window, PossibleWorldEnumerator.forall_probability
    )
    got = FORALL[entry](chain, initials, window)
    np.testing.assert_allclose(got, truth, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("entry", sorted(KTIMES))
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_ktimes_matches_enumeration(name, entry):
    chain, initial, window = _instance(name)
    initials = _starts(chain, initial)
    truth = _truth(
        chain, initials, window, PossibleWorldEnumerator.ktimes_distribution
    )
    got = KTIMES[entry](chain, initials, window)
    np.testing.assert_allclose(
        np.asarray(got, dtype=float), truth, rtol=0.0, atol=1e-12
    )


def test_structures_are_what_they_claim():
    """The hand-built matrices are stochastic and the starts are pdfs;
    the absorbing, periodic and identity cases keep their shape."""
    for name in STRUCTURES:
        chain, initial, window = _instance(name)
        dense = chain.matrix.toarray()
        np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-15)
        assert initial.vector.sum() == pytest.approx(1.0, abs=1e-15)
        assert window.region < frozenset(range(chain.n_states))
    assert _instance("absorbing-in-region")[0].matrix[0, 0] == 1.0
    assert _instance("absorbing-outside")[0].matrix[3, 3] == 1.0
    cycle = _instance("periodic")[0].matrix.toarray()
    np.testing.assert_array_equal(
        np.linalg.matrix_power(cycle, 4), np.eye(4)
    )
    assert 0 in _instance("query-at-observation")[2].times
