"""The operator layer: one kernel implementation for every caller.

The load-bearing properties: each operator reproduces the legacy
per-path implementations bit-for-bit (the batched kernels, per-object
fallbacks, and streaming ladder are all thin schedules over the same
operators now), and the per-call timing hooks account every call.
"""

from __future__ import annotations

from collections import OrderedDict

import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    MarkovChain,
    Observation,
    ObservationSet,
    PlanOptions,
    PSTExistsQuery,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.batch import (
    batch_exists_multi,
    batch_ob_exists,
    collapse_posteriors,
)
from repro.core.distribution import SupportBlock
from repro.core.errors import InfeasibleEvidenceError
from repro.database.pruning import reachability_levels
from repro.exec import operators
from repro.exec.operators import (
    BACKWARD_SWEEP,
    FORWARD_SWEEP,
    LADDER_EXTEND,
    POSTERIOR_COLLAPSE,
    ExecutionContext,
    OperatorStats,
    SweepSchedule,
)
from repro.store.sharded import ShardedTrajectoryStore
from repro.workloads.synthetic import make_line_chain

from augmented import build_absorbing_matrices, build_doubled_matrices
from conftest import random_chain, random_distribution

N_STATES = 60
WINDOW = SpatioTemporalWindow.from_ranges(20, 30, 6, 9)


def one_row(initial: StateDistribution):
    """A one-object activation: stack row 0 starts from ``initial``."""
    return (
        np.zeros(1, dtype=np.int64),
        SupportBlock.from_distributions([initial], N_STATES),
    )


@pytest.fixture(scope="module")
def chain():
    return make_line_chain(N_STATES, rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def matrices(chain):
    return build_absorbing_matrices(chain, WINDOW.region)


# A chain wide enough that a dozen rows cross the frontier's entry size
# (12 x 4,001 and 6 x 8,000 cells) while a few rows stay dense.
WIDE_STATES = 4000
WIDE_WINDOW = SpatioTemporalWindow.from_ranges(1990, 2010, 5, 7)
ABSORBING, DOUBLED = 0, 1


@pytest.fixture(scope="module")
def wide():
    """The wide chain and its (absorbing, doubled) matrices."""
    chain = make_line_chain(WIDE_STATES, max_step=20, seed=9)
    return chain, (
        build_absorbing_matrices(chain, WIDE_WINDOW.region),
        build_doubled_matrices(chain, WIDE_WINDOW.region),
    )


@pytest.fixture
def taken(monkeypatch):
    """Class names of the sweep stacks built, in construction order."""
    names = []
    for cls in (operators._DenseStack, operators._Frontier):
        def spy(*args, _cls=cls, **kwargs):
            names.append(_cls.__name__)
            return _cls(*args, **kwargs)

        monkeypatch.setattr(operators, cls.__name__, spy)
    return names


def near(rng, n_rows, low=1950, high=2050, width=5):
    """A block of ``n_rows`` uniform pdfs over ``width`` adjacent states
    starting in ``[low, high)``."""
    return SupportBlock.from_distributions(
        [
            StateDistribution.uniform(
                WIDE_STATES, range(start, start + width)
            )
            for start in rng.integers(low, high, n_rows)
        ],
        WIDE_STATES,
    )


def rowwise(matrices, schedule):
    """``schedule`` with every row stepped on its own through the built
    augmented (absorbing) or doubled pair, ``x @ matrix_for_target_time``:
    the same activations, Lemma 1 fusions (the pdf tiled over both
    blocks), harvests and early stop as the stacked sweep, none of its
    code."""
    n_rows, first, last = schedule.n_rows, schedule.first, schedule.last
    # per row, the value the schedule reads at every time first..last
    reads = np.zeros((n_rows, last - first + 1))
    for start, (rows, block) in schedule.activations.items():
        entry_rows = block.entry_rows()
        for i, row in enumerate(rows):
            initial = np.zeros(block.n_states)
            mine = entry_rows == i
            initial[block.states[mine]] = block.probs[mine]
            x = matrices.extend_initial(initial, start, schedule.times)
            for time in range(start, last + 1):
                if time > start:
                    x = x @ matrices.matrix_for_target_time(
                        time, schedule.times
                    )
                for fused_row, pdf in schedule.fusions.get(time, ()):
                    if fused_row == row:
                        x = x * matrices.tile_observation(pdf)
                        if x.sum() <= 0.0:
                            raise InfeasibleEvidenceError(f"t={time}")
                        x = x / x.sum()
                reads[row, time - first] = (
                    x[-1] if schedule.read == "top"
                    else matrices.hit_probability(x)
                )
    if schedule.stop_threshold is not None:
        for column in reads.T:
            if (column >= schedule.stop_threshold).all():
                return column
    result = np.zeros(n_rows)
    for time, rows in schedule.harvests.items():
        rows = np.asarray(rows)
        result[rows] = reads[rows, time - first]
    return result


def against_rowwise(wide, kind, schedule, taken):
    """Run ``schedule`` as one stacked sweep and row by row on the
    built matrices; they agree to 1e-12.  Returns the sweep's answer
    and the stacks it built."""
    chain, matrices = wide
    answer = FORWARD_SWEEP(schedule, chain, WIDE_WINDOW.region)
    built = list(taken)
    reference = rowwise(matrices[kind], schedule)
    np.testing.assert_allclose(answer, reference, rtol=0, atol=1e-12)
    return answer, built


# (rows, the stack the sweep starts on) on each side of the entry size
ABSORBING_SIDES = [(4, "_DenseStack"), (12, "_Frontier")]
DOUBLED_SIDES = [(2, "_DenseStack"), (6, "_Frontier")]


class TestTimingHooks:
    def test_every_call_recorded(self, chain):
        context = ExecutionContext()
        for _ in range(3):
            BACKWARD_SWEEP(
                (WINDOW, [0]),
                chain,
                WINDOW.region,
                context=context,
            )
        stats = context.timings["backward_sweep"]
        assert stats.calls == 3
        assert stats.seconds > 0.0

    def test_no_context_is_fine(self, chain):
        result = BACKWARD_SWEEP((WINDOW, [0]), chain, WINDOW.region)
        assert 0 in result

    def test_merge_folds_worker_tuples(self):
        context = ExecutionContext()
        context.record("forward_sweep", 0.5)
        context.merge({"forward_sweep": (2, 0.25), "mc_sample": (1, 0.1)})
        assert context.timings["forward_sweep"].calls == 3
        assert context.timings["forward_sweep"].seconds == pytest.approx(
            0.75
        )
        assert context.timings["mc_sample"] == OperatorStats(1, 0.1)

    def test_serializable_roundtrip(self):
        context = ExecutionContext()
        context.record("ladder_extend", 0.125)
        other = ExecutionContext()
        other.merge(context.serializable_timings())
        assert other.timings == context.timings


class TestNothingBuilt:
    def test_ob_and_section6_construct_nothing(self, chain):
        """Forced OB over single and re-sighted objects (one seen inside
        the window, so Section VI runs) leaves the plan cache empty and
        times no build operator."""
        database = TrajectoryDatabase.with_chain(chain)
        database.add(UncertainObject.with_distribution(
            "single", StateDistribution.uniform(N_STATES, range(22, 27))
        ))
        database.add(UncertainObject("inside", ObservationSet.of(
            Observation.uniform(0, N_STATES, range(18, 24)),
            Observation.uniform(7, N_STATES, range(20, 34)),
        )))
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(WINDOW), method="ob")
        assert engine.plan_cache.stats.constructions == {}
        assert set(result.plan.operator_seconds) >= {"forward_sweep"}
        assert not any(
            name.startswith("build") for name in result.plan.operator_seconds
        )
        assert min(result.values.values()) > 0.0


class TestAbsorbingSweepOnTheChain:
    """A Section V-A sweep steps the chain's own ``M`` and moves the
    ``S_q`` mass onto TOP after each step into ``T_q``: it builds
    neither augmented matrix and answers as stepping them does."""

    GAPPED = {
        "small": SpatioTemporalWindow(WINDOW.region, frozenset({6, 8})),
        "wide": SpatioTemporalWindow(
            WIDE_WINDOW.region, frozenset({5, 7})
        ),
    }

    @staticmethod
    def reference(chain, window, initials, starts):
        """Row by row, the extended initial stepped on ``M_minus`` /
        ``M_plus``."""
        augmented = build_absorbing_matrices(chain, window.region)
        answers = []
        for initial, start in zip(initials, starts):
            x = augmented.extend_initial(
                np.asarray(initial.vector, dtype=float), start,
                window.times,
            )
            for time in range(start + 1, window.t_end + 1):
                x = x @ augmented.matrix_for_target_time(
                    time, window.times
                )
            answers.append(x[augmented.top_index])
        return np.array(answers)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("gapped", [False, True])
    @pytest.mark.parametrize("size,n_rows,stack", [
        ("small", 4, "_DenseStack"),
        ("wide", 12, "_Frontier"),
    ])
    def test_matches_the_augmented_pair_and_builds_neither(
        self, seed, gapped, size, n_rows, stack, taken,
    ):
        rng = np.random.default_rng(seed)
        if size == "small":
            chain = make_line_chain(N_STATES, rng=rng)
            window, low, high = WINDOW, 0, N_STATES - 5
        else:
            chain = make_line_chain(WIDE_STATES, max_step=20, seed=seed)
            window, low, high = WIDE_WINDOW, 1950, 2050
        if gapped:
            window = self.GAPPED[size]
        initials = [
            StateDistribution.uniform(
                chain.n_states, range(start, start + 5)
            )
            for start in rng.integers(low, high, n_rows)
        ]
        # before, at and inside T_q
        t_min = min(window.times)
        starts = np.array(
            [(0, 2, t_min, t_min + 1)[row % 4] for row in range(n_rows)]
        )
        expected = self.reference(chain, window, initials, starts)
        activations = {}
        for start in np.unique(starts):
            rows = np.flatnonzero(starts == start)
            activations[int(start)] = (
                rows,
                SupportBlock.from_distributions(
                    [initials[row] for row in rows], chain.n_states
                ),
            )
        answer = FORWARD_SWEEP(
            SweepSchedule(
                n_rows=n_rows,
                first=0,
                last=window.t_end,
                times=window.times,
                activations=activations,
                harvests={window.t_end: range(n_rows)},
                read="top",
            ),
            chain, window.region,
        )
        assert taken == [stack]
        assert expected.max() > 0.0
        np.testing.assert_allclose(answer, expected, rtol=0, atol=1e-12)


class TestForwardSweep:
    def test_matches_backward_answer(self, chain, matrices):
        """Forward (OB) and backward (QB) operators agree exactly."""
        initial = StateDistribution.point(N_STATES, 3)
        schedule = SweepSchedule(
            n_rows=1,
            first=0,
            last=WINDOW.t_end,
            times=WINDOW.times,
            activations={0: one_row(initial)},
            harvests={WINDOW.t_end: [0]},
            read="top",
        )
        forward = FORWARD_SWEEP(schedule, chain, WINDOW.region)
        backward = BACKWARD_SWEEP((WINDOW, [0]), chain, WINDOW.region)
        extended = matrices.extend_initial(
            np.asarray(initial.vector, dtype=float), 0, WINDOW.times
        )
        assert forward[0] == pytest.approx(
            float(extended @ backward[0]), abs=1e-12
        )

    def test_stop_threshold_returns_lower_bound(self, chain, matrices):
        initial = StateDistribution.point(N_STATES, 25)
        base_schedule = dict(
            n_rows=1,
            first=0,
            last=WINDOW.t_end,
            times=WINDOW.times,
            activations={0: one_row(initial)},
            harvests={WINDOW.t_end: [0]},
            read="top",
        )
        exact = FORWARD_SWEEP(
            SweepSchedule(**base_schedule), chain, WINDOW.region
        )[0]
        assert exact > 0.05
        bounded = FORWARD_SWEEP(
            SweepSchedule(**base_schedule, stop_threshold=0.05),
            chain,
            WINDOW.region,
        )[0]
        assert 0.05 <= bounded <= exact + 1e-12

    def test_infeasible_fusion_raises(self, chain):
        start = StateDistribution.point(N_STATES, 0)
        contradiction = np.zeros(N_STATES, dtype=float)
        contradiction[N_STATES - 1] = 1.0  # unreachable in 1 step
        schedule = SweepSchedule(
            n_rows=1,
            first=0,
            last=2,
            times=WINDOW.times,
            activations={0: one_row(start)},
            fusions={1: [(0, contradiction)]},
            harvests={2: [0]},
            read="tail",
        )
        with pytest.raises(InfeasibleEvidenceError):
            FORWARD_SWEEP(schedule, chain, WINDOW.region)

    @pytest.mark.parametrize("n_rows, stack", ABSORBING_SIDES)
    def test_mixed_activations_match_rowwise(self, wide, taken, n_rows, stack):
        rng = np.random.default_rng(n_rows)
        # rows join at 0, 2 and at the query time 5; the last group
        # straddles the region's edge, so part of it starts on TOP
        groups = np.array_split(np.arange(n_rows), 3)
        activations = {
            0: (groups[0], near(rng, len(groups[0]))),
            2: (groups[1], near(rng, len(groups[1]))),
            5: (groups[2], near(rng, len(groups[2]), 2007, 2009)),
        }
        answer, built = against_rowwise(wide, ABSORBING, SweepSchedule(
            n_rows=n_rows, first=0, last=WIDE_WINDOW.t_end,
            times=WIDE_WINDOW.times, activations=activations,
            harvests={WIDE_WINDOW.t_end: range(n_rows)},
            read="top",
        ), taken)
        assert built == [stack]
        # states 2007-2010 of the five are inside: 0.6 is on TOP at once
        assert (answer[groups[2]] >= 0.6 - 1e-12).all()
        assert 0.0 < answer.min() and answer.max() < 1.0

    @pytest.mark.parametrize("n_rows, stack", DOUBLED_SIDES)
    def test_doubled_fusions_match_rowwise(self, wide, taken, n_rows, stack):
        rng = np.random.default_rng(n_rows)
        centers = rng.integers(1950, 2050, n_rows)
        first = SupportBlock.from_distributions(
            [
                StateDistribution.uniform(WIDE_STATES, range(c, c + 5))
                for c in centers
            ],
            WIDE_STATES,
        )

        def sighting(row):
            return np.asarray(StateDistribution.uniform(
                WIDE_STATES, range(centers[row] - 30, centers[row] + 35)
            ).vector)

        rows = np.arange(n_rows)
        # odd rows join at 3; every row is re-sighted before the
        # window, even rows inside it, row 0 after t_end (read at 9)
        fusions = {
            4: [(row, sighting(row)) for row in rows],
            6: [(row, sighting(row)) for row in rows[::2]],
            9: [(0, sighting(0))],
        }
        answer, built = against_rowwise(wide, DOUBLED, SweepSchedule(
            n_rows=n_rows, first=0, last=9, times=WIDE_WINDOW.times,
            activations={
                0: (rows[::2], first.take(rows[::2])),
                3: (rows[1::2], first.take(rows[1::2])),
            },
            fusions=fusions,
            harvests={WIDE_WINDOW.t_end: rows[1:], 9: [0]},
            read="tail",
        ), taken)
        assert built == [stack]
        assert 0.0 < answer.min() and answer.max() < 1.0

    @pytest.mark.parametrize("n_rows, stack", ABSORBING_SIDES)
    def test_stop_threshold_matches_rowwise(self, wide, taken, n_rows, stack):
        rng = np.random.default_rng(n_rows)
        base = dict(
            n_rows=n_rows, first=0, last=WIDE_WINDOW.t_end,
            times=WIDE_WINDOW.times,
            activations={0: (np.arange(n_rows), near(rng, n_rows, 1995, 2001))},
            harvests={WIDE_WINDOW.t_end: range(n_rows)},
            read="top",
        )
        exact = FORWARD_SWEEP(
            SweepSchedule(**base), wide[0], WIDE_WINDOW.region
        )
        taken.clear()
        bounded, built = against_rowwise(
            wide, ABSORBING, SweepSchedule(**base, stop_threshold=0.05),
            taken,
        )
        assert built == [stack]
        assert (bounded >= 0.05).all()
        assert (bounded <= exact + 1e-12).all()
        assert (bounded < exact - 1e-3).any()  # it stopped early

    @pytest.mark.parametrize("n_rows, stack", DOUBLED_SIDES)
    def test_infeasible_fusion_raises_on_both_sides(
        self, wide, taken, n_rows, stack
    ):
        rng = np.random.default_rng(n_rows)
        contradiction = np.zeros(WIDE_STATES, dtype=float)
        contradiction[0] = 1.0  # ~2,000 states from any row's start
        schedule = SweepSchedule(
            n_rows=n_rows, first=0, last=WIDE_WINDOW.t_end,
            times=WIDE_WINDOW.times,
            activations={0: (np.arange(n_rows), near(rng, n_rows))},
            fusions={1: [(n_rows - 1, contradiction)]},
            harvests={WIDE_WINDOW.t_end: range(n_rows)},
            read="tail",
        )
        with pytest.raises(InfeasibleEvidenceError, match="t=1"):
            FORWARD_SWEEP(schedule, wide[0], WIDE_WINDOW.region)
        assert taken == [stack]

    def test_frontier_densifies_on_long_horizons(self, wide, taken):
        """Supports spreading over 1/16 of the stack hand the sweep to
        the dense representation; the answers do not change."""
        n_rows = 12
        window = SpatioTemporalWindow(WIDE_WINDOW.region, range(25, 28))
        rng = np.random.default_rng(3)
        answer, built = against_rowwise(wide, ABSORBING, SweepSchedule(
            n_rows=n_rows, first=0, last=window.t_end, times=window.times,
            activations={0: (np.arange(n_rows), near(rng, n_rows))},
            harvests={window.t_end: range(n_rows)},
            read="top",
        ), taken)
        assert built == ["_Frontier", "_DenseStack"]
        assert 0.0 < answer.min()

    def test_frontier_memory_bound(self):
        """A 2,000 x 8,001 OB sweep stays far below one dense stack
        (128 MB per copy)."""
        n_states, n_rows = 8000, 2000
        chain = make_line_chain(n_states, seed=3)
        window = SpatioTemporalWindow.from_ranges(3990, 4010, 3, 5)
        starts = np.random.default_rng(3).integers(0, n_states - 5, n_rows)
        block = SupportBlock(
            n_states,
            np.arange(0, 5 * n_rows + 1, 5),
            (starts[:, None] + np.arange(5)).ravel(),
            np.full(5 * n_rows, 0.2),
        )
        schedule = SweepSchedule(
            n_rows=n_rows, first=0, last=window.t_end, times=window.times,
            activations={0: (np.arange(n_rows), block)},
            harvests={window.t_end: range(n_rows)},
            read="top",
        )
        tracemalloc.start()
        try:
            answer = FORWARD_SWEEP(schedule, chain, window.region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert answer.max() > 0.0

    def test_engine_ob_with_multi_observations_matches_qb(
        self, wide, taken
    ):
        """method="ob" on a database whose objects were re-sighted
        before the window: their Lemma 1 posteriors join the single
        observations' frontier, and the one sweep agrees with QB."""
        built = self.engine_ob_parity(wide, taken, resighted_at=3)
        assert built == ["_Frontier"]

    def test_engine_ob_with_a_sighting_inside_the_window_sweeps_twice(
        self, wide, taken
    ):
        """Evidence inside the window keeps the Section VI doubled
        sweep: the single- and multi-observation rows sweep as two
        frontiers."""
        built = self.engine_ob_parity(wide, taken, resighted_at=6)
        assert built == ["_Frontier", "_Frontier"]

    @staticmethod
    def engine_ob_parity(wide, taken, resighted_at):
        """OB agrees with QB and with the Section VI doubled sweep;
        returns the stacks OB built."""
        chain, _ = wide
        database = TrajectoryDatabase.with_chain(chain)
        rng = np.random.default_rng(21)
        for index in range(40):
            center = int(rng.integers(1930, 2070))
            observations = [
                Observation.uniform(0, WIDE_STATES, range(center, center + 5))
            ]
            if index % 2:
                observations.append(Observation.uniform(
                    resighted_at, WIDE_STATES,
                    range(center - 25, center + 30),
                ))
            database.add(UncertainObject(
                f"o{index}", ObservationSet.of(*observations)
            ))
        query = PSTExistsQuery(WIDE_WINDOW)
        options = PlanOptions(prefilter=False, bfs_prune=False)
        ob = QueryEngine(database).evaluate(
            query, method="ob", options=options
        )
        built = list(taken)
        qb = QueryEngine(database).evaluate(
            query, method="qb", options=options
        )
        ids = database.object_ids
        section6 = batch_exists_multi(
            chain,
            [database.get(object_id).observations for object_id in ids],
            WIDE_WINDOW,
        )
        for object_id, expected in zip(ids, section6):
            value = ob.values[object_id]
            assert value == pytest.approx(qb.values[object_id], abs=1e-12)
            assert value == pytest.approx(expected, abs=1e-12)
        assert max(ob.values.values()) > 0.0
        return built


def fetch_levels(chain, window):
    """The ``fetch_levels(depth)`` callable the pipeline and the shard
    workers hand the OB kernel."""
    return partial(
        reachability_levels, chain, window.region, cache=OrderedDict()
    )


def points(states, n_states=WIDE_STATES):
    """A block of point masses."""
    return SupportBlock.from_distributions(
        [StateDistribution.point(n_states, int(s)) for s in states],
        n_states,
    )


# the class itself, whether or not ``taken`` has swapped the name
FRONTIER = operators._Frontier


@pytest.fixture
def trims(monkeypatch):
    """``(entries before, entries after)`` of every frontier trim."""
    seen = []
    original = FRONTIER.trim

    def spy(self, reach, budget):
        before = self.x.nnz
        original(self, reach, budget)
        seen.append((before, self.x.nnz))

    monkeypatch.setattr(FRONTIER, "trim", spy)
    return seen


class TestReachTrim:
    """With ``levels`` the OB frontier drops the mass that can no
    longer reach S_q before each step; every answer is ``==`` the
    untrimmed sweep's (both on the frontier, neither densifying)."""

    @staticmethod
    def oracle(wide, taken, trims, block, window, starts):
        chain, _ = wide
        untrimmed = batch_ob_exists(chain, block, window, starts)
        assert not trims
        trimmed = batch_ob_exists(
            chain, block, window, starts,
            levels=fetch_levels(chain, window),
        )
        assert taken == ["_Frontier", "_Frontier"]
        assert len(trims) == window.t_end - int(np.min(starts))
        np.testing.assert_array_equal(trimmed, untrimmed)
        return trimmed

    def test_line_chain_mixed_reach(self, wide, taken, trims):
        rng = np.random.default_rng(41)
        # supports from 300 states below the region to 300 above: the
        # far ones are dropped before the first step, the near ones
        # keep a shrinking cone towards the region
        block = near(rng, 16, 1700, 2300)
        answer = self.oracle(wide, taken, trims, block, WIDE_WINDOW, 0)
        assert (answer == 0.0).any() and (answer > 0.0).any()
        assert trims[0][1] < trims[0][0]
        assert trims[-1][1] < trims[-1][0]

    def test_supports_at_both_ends(self, wide, taken, trims):
        region = frozenset(range(0, 6)) | frozenset(range(3994, 4000))
        window = SpatioTemporalWindow(region, frozenset(range(5, 8)))
        states = [0, 2, 4, 40, 60, 2000, 3940, 3960, 3995, 3997, 3999, 10]
        answer = self.oracle(
            wide, taken, trims, points(states), window, 0
        )
        assert answer[5] == 0.0
        assert (answer[[0, 1, 2, 8, 9, 10]] > 0.0).all()

    def test_t_end_exactly_at_the_reach_edge(self, wide, taken, trims):
        chain, _ = wide
        window = WIDE_WINDOW
        labels = reachability_levels(
            chain, window.region, 4000, OrderedDict()
        )
        starts = np.array([0] * 6 + [2] * 6)
        horizons = window.t_end - starts
        # per row a state labelled exactly the horizon, or one past it
        states = [
            int(np.flatnonzero(labels == horizon + (row % 2))[0])
            for row, horizon in enumerate(horizons)
        ]
        answer = self.oracle(
            wide, taken, trims, points(states), window, starts
        )
        assert (answer[0::2] > 0.0).all()
        assert (answer[1::2] == 0.0).all()

    def test_late_activations_and_starts_inside_the_window(
        self, wide, taken, trims
    ):
        rng = np.random.default_rng(43)
        block = near(rng, 15, 1900, 2100).concat(
            near(rng, 6, 2006, 2009)
        )
        # rows join at 0, 2 and 4, and at the query time 5 -- the last
        # group straddles the region's edge, so part of it starts on TOP
        starts = np.repeat([0, 2, 4, 5], [5, 5, 5, 6])
        answer = self.oracle(
            wide, taken, trims, block, WIDE_WINDOW, starts
        )
        assert (answer[-6:] >= 0.4 - 1e-12).all()

    def test_gapped_query_times(self, wide, taken, trims):
        rng = np.random.default_rng(47)
        window = SpatioTemporalWindow(
            WIDE_WINDOW.region, frozenset({3, 6, 9})
        )
        answer = self.oracle(
            wide, taken, trims, near(rng, 14, 1850, 2150), window,
            rng.integers(0, 3, 14),
        )
        assert (answer > 0.0).any()

    def test_all_unreachable_block_answers_zero(self, wide, taken, trims):
        rng = np.random.default_rng(53)
        answer = self.oracle(
            wide, taken, trims, near(rng, 12, 100, 900), WIDE_WINDOW, 0
        )
        assert (answer == 0.0).all()
        assert trims[0] == (60, 0)

    def test_dense_sweeps_fetch_no_labels(self, wide, taken):
        """A stack below the frontier's entry size steps every state
        anyway, so it never pays for a labelling."""
        chain, _ = wide

        def refuse(depth):
            raise AssertionError(f"labels to depth {depth} fetched")

        block = near(np.random.default_rng(67), 4)
        answer = batch_ob_exists(chain, block, WIDE_WINDOW, 0, levels=refuse)
        assert taken == ["_DenseStack"]
        np.testing.assert_array_equal(
            answer, batch_ob_exists(chain, block, WIDE_WINDOW, 0)
        )

    def test_stop_threshold(self, wide, taken):
        chain, _ = wide
        rng = np.random.default_rng(59)
        n_rows = 12
        base = dict(
            n_rows=n_rows, first=0, last=WIDE_WINDOW.t_end,
            times=WIDE_WINDOW.times,
            activations={
                0: (np.arange(n_rows), near(rng, n_rows, 1995, 2001))
            },
            harvests={WIDE_WINDOW.t_end: range(n_rows)},
            read="top",
            stop_threshold=0.05,
        )
        reach = np.append(
            fetch_levels(chain, WIDE_WINDOW)(WIDE_WINDOW.t_end), 0
        )
        region = WIDE_WINDOW.region
        untrimmed = FORWARD_SWEEP(SweepSchedule(**base), chain, region)
        trimmed = FORWARD_SWEEP(
            SweepSchedule(**base, reach=reach), chain, region
        )
        assert taken == ["_Frontier", "_Frontier"]
        np.testing.assert_array_equal(trimmed, untrimmed)
        assert (trimmed >= 0.05).all()

    @pytest.mark.parametrize("layout", ["in-RAM", "store"])
    @pytest.mark.parametrize("dispatch", ["serial", "process"])
    def test_engine_ob_without_bfs_stage(
        self, wide, tmp_path, layout, dispatch
    ):
        """``bfs_prune=False`` drops no object, yet the OB kernel still
        trims: answers match the untrimmed sweep at 1e-12."""
        chain, _ = wide
        database = TrajectoryDatabase.with_chain(chain)
        rng = np.random.default_rng(61)
        starts = rng.integers(0, 4, 48)
        initials = [
            StateDistribution.uniform(WIDE_STATES, range(c, c + 5))
            for c in rng.integers(1800, 2200, 48)
        ]
        for index, (start, initial) in enumerate(zip(starts, initials)):
            database.add(UncertainObject(
                f"o{index}",
                ObservationSet.of(Observation(int(start), initial)),
            ))
        target = database
        if layout == "store":
            target = ShardedTrajectoryStore.create(
                tmp_path / "store", database, shards_per_chain=2
            )
        result = QueryEngine(target).evaluate(
            PSTExistsQuery(WIDE_WINDOW),
            method="ob",
            options=PlanOptions(
                bfs_prune=False, dispatch=dispatch, max_workers=2
            ),
        )
        expected = batch_ob_exists(chain, initials, WIDE_WINDOW, starts)
        for index, value in enumerate(expected):
            assert result.values[f"o{index}"] == pytest.approx(
                value, abs=1e-12
            )
        assert 0.0 < expected.max() and expected.min() == 0.0


class TestRowGroups:
    """A grouped frontier densifies each group on its own fill: rows
    of a group that fills move to its own dense block, the others keep
    the shared CSR product and the trim, and every row answers as it
    would in a sweep of its group alone."""

    @pytest.fixture
    def frontiers(self, monkeypatch):
        """Every frontier built, as it stands after its sweep."""
        built = []

        class Recording(FRONTIER):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(operators, "_Frontier", Recording)
        return built

    def test_grouped_sweep_equals_a_sweep_per_group(self, wide, frontiers):
        chain, _ = wide
        window = SpatioTemporalWindow(WIDE_WINDOW.region, range(25, 28))
        rng = np.random.default_rng(71)
        # group 7's 400-state supports near the region fill it in;
        # group 3 starts far below, so the trim keeps it sparse
        block = near(rng, 12, 1800, 1900, width=400).concat(
            near(rng, 12, 200, 600)
        )
        groups = np.repeat([7, 3], 12)
        starts = rng.integers(0, 3, 24)
        levels = fetch_levels(chain, window)
        grouped = batch_ob_exists(
            chain, block, window, starts, levels=levels, groups=groups
        )
        stack = frontiers[0]
        for label in (7, 3):
            rows = np.flatnonzero(groups == label)
            alone = batch_ob_exists(
                chain, block.take(rows), window, starts[rows],
                levels=levels,
            )
            np.testing.assert_allclose(
                grouped[rows], alone, rtol=0, atol=1e-15
            )
        # groups are numbered in sorted order: 3 -> 0, 7 -> 1
        assert list(stack.blocks) == [1]
        assert (stack.column[groups == 3] == -1).all()
        assert (stack.column[groups == 7] >= 0).all()
        assert grouped[groups == 7].min() > 0.0
        assert (grouped[groups == 3] == 0.0).all()

    def test_ungrouped_stack_densifies_as_a_whole(self, wide, taken):
        chain, _ = wide
        window = SpatioTemporalWindow(WIDE_WINDOW.region, range(25, 28))
        rng = np.random.default_rng(71)
        block = near(rng, 12, 1800, 1900, width=400).concat(
            near(rng, 12, 200, 600)
        )
        batch_ob_exists(chain, block, window, 0)
        assert taken == ["_Frontier", "_DenseStack"]

    def test_late_rows_join_a_dense_block(self, wide, frontiers):
        rng = np.random.default_rng(73)
        # group 0's 400-state supports fill it at the first step; two
        # of its rows and two of group 1's narrow ones join at t=3
        wide_rows, narrow_rows = np.arange(8), np.arange(8, 16)
        late = np.array([6, 7, 14, 15])
        early = np.setdiff1d(np.arange(16), late)
        block = near(rng, 8, 1700, 1800, width=400).concat(
            near(rng, 8, 1950, 2000)
        )
        schedule = SweepSchedule(
            n_rows=16, first=0, last=WIDE_WINDOW.t_end,
            times=WIDE_WINDOW.times,
            activations={
                0: (early, block.take(early)), 3: (late, block.take(late)),
            },
            harvests={WIDE_WINDOW.t_end: range(16)},
            read="top",
            groups=np.repeat([0, 1], 8),
        )
        answer, _ = against_rowwise(wide, ABSORBING, schedule, [])
        assert len(frontiers) == 1
        assert list(frontiers[0].blocks) == [0]
        assert (frontiers[0].column[narrow_rows] == -1).all()
        assert answer[wide_rows].min() > 0.0

    def test_fusions_on_a_dense_block_match_rowwise(self, wide, frontiers):
        rng = np.random.default_rng(79)
        block = near(rng, 3, 1700, 1800, width=800).concat(
            near(rng, 3, 1950, 2000)
        )

        def sighting(low, high):
            return np.asarray(
                StateDistribution.uniform(WIDE_STATES, range(low, high)).vector
            )

        rows = np.arange(6)
        answer, built = against_rowwise(wide, DOUBLED, SweepSchedule(
            n_rows=6, first=0, last=9, times=WIDE_WINDOW.times,
            activations={0: (rows, block)},
            fusions={
                4: [(0, sighting(1700, 2300)), (4, sighting(1900, 2100))],
                6: [(1, sighting(1800, 2200))],
            },
            harvests={WIDE_WINDOW.t_end: rows[1:], 9: [0]},
            read="tail",
            groups=np.array([0, 0, 0, 1, 1, 1]),
        ), [])
        assert len(frontiers) == 1
        assert list(frontiers[0].blocks) == [0]
        assert 0.0 < answer.min() and answer.max() < 1.0


TINY_STATES = 7
TINY_TIMES = frozenset({2, 3, 4})


class TestSectionVITwoRows:
    """A Section VI sweep stacks each object as a row and its "window
    hit" shadow row over the chain's own ``M``; on tiny chains it
    answers as the doubled pair stepped row by row does, at 1e-12, on
    every stack: dense, a frontier that stays sparse, one that hands
    over to a dense stack, and one densifying per row group."""

    # mode -> (_FRONTIER_MIN_CELLS, _DENSE_FILL, groups, stacks built)
    MODES = {
        "dense": (operators._FRONTIER_MIN_CELLS, operators._DENSE_FILL,
                  None, ["_DenseStack"]),
        "frontier": (0, 2.0, None, ["_Frontier"]),
        "densifying": (0, 1 / 16, None, ["_Frontier", "_DenseStack"]),
        "grouped": (0, 1 / 16, np.array([0, 1, 0, 1, 0, 1]),
                    ["_Frontier", "_DenseStack", "_DenseStack"]),
    }

    @pytest.fixture(params=list(MODES))
    def mode(self, request, monkeypatch, taken):
        min_cells, fill, groups, stacks = self.MODES[request.param]
        monkeypatch.setattr(operators, "_FRONTIER_MIN_CELLS", min_cells)
        monkeypatch.setattr(operators, "_DENSE_FILL", fill)
        return groups, stacks

    @staticmethod
    def case(seed, groups=None):
        """A tiny chain and a six-row schedule: rows start before
        (t=0, 1), at (t=2) and inside (t=3) the window T_q = {2, 3, 4};
        Lemma 1 fusions land before (t=1), at (t=2, one on a row that
        starts then) and inside (t=3) the window, and one after t_end
        (t=6, that row read there)."""
        rng = np.random.default_rng(seed)
        chain = random_chain(TINY_STATES, rng, density=0.5)
        region = frozenset(
            int(s) for s in rng.choice(TINY_STATES, 3, replace=False)
        )
        window = SpatioTemporalWindow(region, TINY_TIMES)
        starts = np.array([0, 0, 1, 2, 2, 3])
        firsts = [
            random_distribution(TINY_STATES, rng, sparse=True)
            for _ in starts
        ]
        activations = {
            int(start): (
                np.flatnonzero(starts == start),
                SupportBlock.from_distributions(
                    [firsts[row] for row in np.flatnonzero(starts == start)],
                    TINY_STATES,
                ),
            )
            for start in np.unique(starts)
        }

        def pdf():
            return np.asarray(random_distribution(TINY_STATES, rng).vector)

        schedule = SweepSchedule(
            n_rows=6, first=0, last=6, times=TINY_TIMES,
            activations=activations,
            fusions={
                1: [(0, pdf())],
                2: [(1, pdf()), (3, pdf())],
                3: [(2, pdf()), (5, pdf())],
                6: [(4, pdf())],
            },
            harvests={4: [0, 1, 2, 3, 5], 6: [4]},
            read="tail",
            groups=groups,
        )
        return chain, window, schedule

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_doubled_pair(self, seed, mode, taken):
        groups, stacks = mode
        chain, window, schedule = self.case(seed, groups)
        answer = FORWARD_SWEEP(schedule, chain, window.region)
        expected = rowwise(
            build_doubled_matrices(chain, window.region), schedule
        )
        assert taken == stacks
        np.testing.assert_allclose(answer, expected, rtol=0, atol=1e-12)
        assert 0.0 < answer.max() and answer.min() < 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_stop_threshold_matches_the_doubled_pair(self, seed, mode):
        groups, _ = mode
        chain, window, schedule = self.case(seed, groups)
        schedule.stop_threshold = 0.2
        np.testing.assert_allclose(
            FORWARD_SWEEP(schedule, chain, window.region),
            rowwise(build_doubled_matrices(chain, window.region), schedule),
            rtol=0, atol=1e-12,
        )

    def test_infeasible_evidence_keeps_its_message(self, mode):
        groups, _ = mode
        # a line: one state per step at most, so state 6 is out of
        # reach one step after state 0
        matrix = np.eye(TINY_STATES) * 0.5
        matrix[np.arange(TINY_STATES - 1), np.arange(1, TINY_STATES)] = 0.5
        matrix[-1, -1] = 1.0
        chain = MarkovChain(matrix)
        far = np.zeros(TINY_STATES)
        far[-1] = 1.0
        schedule = SweepSchedule(
            n_rows=6, first=0, last=4, times=TINY_TIMES,
            activations={0: (np.arange(6), SupportBlock.from_distributions(
                [StateDistribution.point(TINY_STATES, 0)] * 6, TINY_STATES,
            ))},
            fusions={1: [(5, far)]},
            harvests={4: range(6)},
            read="tail",
            groups=groups,
        )
        with pytest.raises(InfeasibleEvidenceError) as raised:
            FORWARD_SWEEP(
                schedule, chain, SpatioTemporalWindow({3}, TINY_TIMES).region
            )
        assert str(raised.value) == (
            "observation at t=1 contradicts the trajectory model: "
            "posterior mass is zero"
        )


def dense_backward(chain, window, starts):
    """The reference Section V-B pass: every step multiplies all of
    ``M``."""
    real = np.zeros(chain.n_states)
    result = {}
    if window.t_end in starts:
        result[window.t_end] = np.append(real, 1.0)
    for time in range(window.t_end - 1, min(starts) - 1, -1):
        if time + 1 in window.times:
            real[window.region.array] = 1.0
        real = chain.matrix @ real
        if time in starts:
            result[time] = np.append(real, 1.0)
    return result


class TestBackwardSweep:
    EVERY_STATE = frozenset(range(N_STATES))
    WINDOWS = [
        SpatioTemporalWindow.from_ranges(0, 2, 6, 9),  # lower edge
        SpatioTemporalWindow.from_ranges(N_STATES - 3, N_STATES - 1, 6, 9),
        # a non-contiguous region steps its hull; gapped query times
        SpatioTemporalWindow(frozenset({5, 40}), frozenset({4, 9, 15})),
        # a complement region (for-all) spans nearly everything
        SpatioTemporalWindow(EVERY_STATE - set(range(20, 31)),
                             frozenset({7, 8})),
        SpatioTemporalWindow(EVERY_STATE, frozenset({3})),
    ]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_bit_identical_to_dense_steps(self, window):
        # a one-time window's t_start is its t_end: no step at all
        starts = [0, 2, window.t_start - 1, window.t_start]
        for chain in (
            make_line_chain(N_STATES, max_step=10, seed=3),
            make_line_chain(N_STATES, max_step=40, seed=6),
            make_line_chain(N_STATES, state_spread=3, max_step=2, seed=1),
            MarkovChain.identity(N_STATES),
            unbanded_chain(),
            drift_chain(3, 1),
            drift_chain(1, 3),
        ):
            vectors = BACKWARD_SWEEP((window, starts), chain, window.region)
            expected = dense_backward(chain, window, starts)
            assert sorted(vectors) == sorted(expected)
            for time, vector in expected.items():
                assert np.array_equal(vectors[time], vector)

    def test_start_at_t_end_steps_nothing(self):
        spy = WindowSpy(make_line_chain(N_STATES, max_step=10, seed=3))
        window = SpatioTemporalWindow.from_ranges(20, 30, 6, 6)
        vectors = BACKWARD_SWEEP((window, [6]), spy, window.region)
        assert spy.windows == []
        assert not vectors[6][:-1].any() and vectors[6][-1] == 1.0

    def test_hull_takes_in_the_region_and_widens_per_step(self):
        chain = make_line_chain(N_STATES, state_spread=3, max_step=2,
                                seed=1)
        assert chain.band() == (1, 1)
        spy = WindowSpy(chain)
        window = SpatioTemporalWindow(frozenset({10, 20}), frozenset({3, 5}))
        vectors = BACKWARD_SWEEP((window, [0]), spy, window.region)
        # steps into t = 5, 4, 3 (region again, inside the hull), 2, 1
        assert spy.windows == [(10 - j, 21 + j) for j in range(1, 6)]
        assert np.array_equal(
            vectors[0], dense_backward(chain, window, [0])[0]
        )


class TestLadderExtend:
    def test_rungs_are_repeated_products(self, chain, matrices):
        base = np.zeros(matrices.size, dtype=float)
        base[matrices.top_index] = 1.0
        # the streaming ladder passes the spare tail of its own array
        ladder = np.zeros((5, matrices.size), dtype=float)
        rungs = LADDER_EXTEND(
            (matrices.m_minus, base, 3), chain, WINDOW.region,
            out=ladder[1:4],
        )
        assert len(rungs) == 3 and np.shares_memory(rungs, ladder)
        expected = base
        for rung in rungs:
            expected = matrices.m_minus @ expected
            np.testing.assert_allclose(rung, expected, atol=0)
        assert not ladder[0].any() and not ladder[4].any()

    def test_chain_matrix_step_equals_m_minus_step(self, chain, matrices):
        """A tick steps ``chain.matrix`` on the real block and keeps TOP
        at 1; ``M_minus``'s real rows are ``M``'s, so from the same
        anchor the rungs are bit-identical."""
        anchor = BACKWARD_SWEEP(
            (WINDOW, [WINDOW.t_start - 1]), chain, WINDOW.region
        )[WINDOW.t_start - 1]
        plain = np.zeros((3, matrices.size), dtype=float)
        augmented = np.zeros((3, matrices.size), dtype=float)
        LADDER_EXTEND(
            (chain.matrix, anchor, 3), chain, WINDOW.region, out=plain
        )
        LADDER_EXTEND(
            (matrices.m_minus, anchor, 3), chain, WINDOW.region,
            out=augmented,
        )
        assert (plain == augmented).all()
        assert (plain[:, matrices.top_index] == 1.0).all()


class TestPosteriorCollapse:
    def test_matches_fresh_filtering_when_resumed(self, chain):
        observations = ObservationSet.of(
            Observation.precise(0, N_STATES, 10),
            Observation.uniform(3, N_STATES, range(8, 16)),
            Observation.uniform(6, N_STATES, range(10, 20)),
        )
        t_fresh, support, fresh = POSTERIOR_COLLAPSE(
            (observations, None), chain, WINDOW.region
        )
        prefix = ObservationSet.of(*observations.observations[:2])
        middle = POSTERIOR_COLLAPSE((prefix, None), chain, WINDOW.region)
        t_resumed, resumed_support, resumed = POSTERIOR_COLLAPSE(
            (observations, middle), chain, WINDOW.region
        )
        # the sparse form: exactly the nonzero entries of the posterior
        assert fresh.min() > 0.0 and fresh.sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(resumed_support, support)
        assert t_fresh == t_resumed == 6
        np.testing.assert_allclose(resumed, fresh, atol=1e-14)

    def test_banded_gaps_bit_identical_to_dense_steps(self):
        """Supports anywhere, the edges included, over 1-step to
        whole-space gaps and several Table I spreads."""
        rng = np.random.default_rng(17)
        chains = [make_line_chain(N_STATES, max_step=max_step, rng=rng)
                  for max_step in (2, 6, 10, 40)]
        for chain in chains + [drift_chain(3, 1), drift_chain(1, 3)]:
            for start in (0, N_STATES - 1, 7, 30):
                observations = sighted_path(chain, start, rng)
                check_against_dense(chain, observations)

    def test_gaps_clip_at_both_ends_and_reach_the_whole_space(self):
        chain = make_line_chain(N_STATES, max_step=10, seed=3)
        spy = WindowSpy(chain)
        observations = ObservationSet.of(
            Observation.uniform(0, N_STATES, [0, N_STATES - 1]),
            Observation.uniform(1, N_STATES, range(N_STATES)),
            Observation.uniform(40, N_STATES, range(N_STATES)),
        )
        check_against_dense(spy, observations)
        # both ends already on the support: every step is the whole
        # space, the long gap's too
        assert spy.windows == [(0, N_STATES)] * 40
        down, up = chain.band()
        for edge, near, clipped in (
            (0, range(6), (0, 1 + up)),
            (N_STATES - 1, range(N_STATES - 6, N_STATES),
             (N_STATES - 1 - down, N_STATES)),
        ):
            spy.windows.clear()
            check_against_dense(spy, ObservationSet.of(
                Observation.precise(0, N_STATES, edge),
                Observation.uniform(1, N_STATES, near),
            ))
            assert spy.windows == [clipped]

    def test_unbanded_chain_steps_the_whole_transpose(self):
        """Every step is the whole space but a gap's last, which the
        lens clips to the next observation's support hull."""
        chain = unbanded_chain()
        spy = WindowSpy(chain)
        rng = np.random.default_rng(8)
        for start in (0, 25, N_STATES - 1):
            observations = sighted_path(chain, start, rng)
            spy.windows.clear()
            check_against_dense(spy, observations)
            expected = []
            for before, after in zip(observations.observations,
                                     observations.observations[1:]):
                target = after.distribution.support()
                expected += [(0, N_STATES)] * (after.time - before.time - 1)
                expected.append((min(target), max(target) + 1))
            assert spy.windows == expected

    def test_identity_chain_steps_only_the_support(self):
        """No transitions: every step is the support's hull clipped to
        the next observation's, ``[20, 30) & [25, 40)``."""
        chain = MarkovChain.identity(N_STATES)
        spy = WindowSpy(chain)
        observations = ObservationSet.of(
            Observation.uniform(0, N_STATES, range(20, 30)),
            Observation.uniform(5, N_STATES, range(25, 40)),
        )
        check_against_dense(spy, observations)
        assert spy.windows == [(25, 30)] * 5

    @pytest.mark.parametrize("start, sighting", [
        (30, range(0, 3)),  # far below the support, at the edge
        (30, range(N_STATES - 3, N_STATES)),  # far above, at the edge
        (1, range(0, 2)),  # next to the support, at the edge
        (N_STATES - 2, range(N_STATES - 2, N_STATES)),
    ])
    def test_lens_clips_to_what_reaches_the_next_sighting(self, start,
                                                          sighting):
        """Window ``j`` of a ``k``-step gap is the support hull grown by
        ``j`` steps, intersected with the states that reach the next
        sighting's hull in the ``k - j`` steps left."""
        chain = make_line_chain(N_STATES, state_spread=3, max_step=2,
                                seed=1)
        down, up = chain.band()
        assert (down, up) == (1, 1)
        spy = WindowSpy(chain)
        steps = 40
        check_against_dense(spy, ObservationSet.of(
            Observation.precise(0, N_STATES, start),
            Observation.uniform(steps, N_STATES, sighting),
        ))
        expected, grown = [], []
        for j in range(1, steps + 1):
            left = steps - j
            lo = max(0, start - j * down, sighting[0] - left * up)
            hi = min(N_STATES, start + 1 + j * up,
                     sighting[-1] + 1 + left * down)
            expected.append((lo, max(lo, hi)))
            grown.append((max(0, start - j * down),
                          min(N_STATES, start + 1 + j * up)))
        assert spy.windows == expected
        assert expected != grown  # the lens cut some steps short

    def test_lens_keeps_unreachable_evidence_infeasible(self):
        chain = make_line_chain(N_STATES, state_spread=3, max_step=2,
                                seed=1)
        for target in (0, N_STATES - 1):
            # 30 states away in 10 steps of at most one state
            contradiction = ObservationSet.of(
                Observation.precise(0, N_STATES, 30),
                Observation.precise(10, N_STATES, target),
            )
            with pytest.raises(
                InfeasibleEvidenceError,
                match="observation at t=10 contradicts the trajectory "
                      "model: posterior mass is zero",
            ):
                POSTERIOR_COLLAPSE((contradiction, None), chain, None)

    def test_resumed_entries_bit_identical_to_dense_resume(self):
        rng = np.random.default_rng(21)
        chain = make_line_chain(N_STATES, max_step=8, rng=rng)
        for start in (0, 33, N_STATES - 1):
            observations = sighted_path(chain, start, rng)
            for cut in range(1, len(observations)):
                prefix = ObservationSet.of(*observations.observations[:cut])
                middle = POSTERIOR_COLLAPSE((prefix, None), chain, None)
                check_against_dense(chain, observations, resume=middle)

    def test_shard_block_holds_the_operator_rows(self):
        """``collapse_posteriors`` (the store shard worker's table) is
        exactly the operator's sparse rows, with no dense round trip."""
        rng = np.random.default_rng(29)
        chain = make_line_chain(N_STATES, max_step=8, rng=rng)
        sets = [sighted_path(chain, start, rng) for start in (0, 20, 59)]
        block = collapse_posteriors(chain, sets)
        dense = SupportBlock.from_distributions([
            StateDistribution.from_support(
                N_STATES, *POSTERIOR_COLLAPSE((o, None), chain, None)[1:]
            )
            for o in sets
        ], N_STATES)
        for name in ("indptr", "states", "probs"):
            assert np.array_equal(getattr(block, name), getattr(dense, name))

    def test_infeasible_evidence_still_raises(self, chain):
        contradiction = ObservationSet.of(
            Observation.precise(0, N_STATES, 0),
            Observation.precise(1, N_STATES, N_STATES - 1),
        )
        with pytest.raises(InfeasibleEvidenceError, match="t=1"):
            POSTERIOR_COLLAPSE((contradiction, None), chain, None)
        # an all-zero resumed posterior has no support to band around
        empty = (0, np.zeros(0, dtype=np.int64), np.zeros(0))
        with pytest.raises(InfeasibleEvidenceError, match="t=1"):
            POSTERIOR_COLLAPSE((contradiction, empty), chain, None)


def unbanded_chain():
    """A Table I chain plus the two transitions ``0 <-> N_STATES - 1``:
    its band is the whole space."""
    matrix = make_line_chain(N_STATES, max_step=6, seed=4).matrix.tolil()
    matrix[0, N_STATES - 1] = matrix[N_STATES - 1, 0] = 0.5
    matrix = sp.diags(1.0 / np.asarray(matrix.sum(axis=1)).ravel()) @ matrix
    chain = MarkovChain(matrix)
    assert chain.band() == (N_STATES - 1, N_STATES - 1)
    return chain


def drift_chain(down, up):
    """A chain over ``N_STATES`` whose band is ``(down, up)``: every
    state moves to each of ``[s - down, s + up]`` (clipped)."""
    rng = np.random.default_rng(12)
    matrix = np.zeros((N_STATES, N_STATES))
    for state in range(N_STATES):
        lo, hi = max(0, state - down), min(N_STATES, state + up + 1)
        matrix[state, lo:hi] = rng.random(hi - lo) + 0.05
    chain = MarkovChain(matrix / matrix.sum(axis=1, keepdims=True))
    assert chain.band() == (down, up)
    return chain


def sighted_path(chain, start, rng, n_sightings=6):
    """Uniform sightings around one path of ``chain`` from ``start``:
    consistent evidence, gaps of 1 to 8 steps."""
    matrix = chain.matrix.tocsr()
    state, time = start, 0
    observations = [Observation.precise(0, chain.n_states, start)]
    for _ in range(n_sightings - 1):
        for _ in range(int(rng.integers(1, 9))):
            row = slice(matrix.indptr[state], matrix.indptr[state + 1])
            state = int(rng.choice(matrix.indices[row], p=matrix.data[row]))
            time += 1
        width = int(rng.integers(0, 4))
        observations.append(Observation.uniform(time, chain.n_states, range(
            max(0, state - width), min(chain.n_states, state + width + 1)
        )))
    return ObservationSet.of(*observations)


def dense_collapse(chain, observations, resume=None):
    """The reference Lemma 1 filter: every step multiplies all of
    ``M^T``."""
    transpose = chain.transpose_matrix()
    if resume is not None:
        time, support, weights = resume
        vector = np.zeros(chain.n_states)
        vector[support] = weights
    else:
        time = observations.first.time
        vector = np.asarray(observations.first.distribution.vector)
    for observation in observations.after(time):
        while time < observation.time:
            vector = np.asarray(transpose @ vector, dtype=float).reshape(-1)
            time += 1
        vector = vector * observation.distribution.vector
        vector = vector / float(vector.sum())
    support = np.flatnonzero(vector)
    return observations.last.time, support, vector[support]


def check_against_dense(chain, observations, resume=None):
    t_last, support, weights = POSTERIOR_COLLAPSE(
        (observations, resume), chain, None
    )
    expected = dense_collapse(
        getattr(chain, "chain", chain), observations, resume  # unspied
    )
    assert t_last == expected[0]
    assert np.array_equal(support, expected[1])
    assert np.array_equal(weights, expected[2])


class WindowSpy:
    """A chain that records the ``(lo, hi)`` of every row window the
    operators multiply through ``window_product``."""

    def __init__(self, chain):
        self.chain = chain
        self.n_states = chain.n_states
        self.windows = []

    def band(self):
        return self.chain.band()

    def window_product(self, vector, lo, hi, transpose=False):
        self.windows.append((lo, hi))
        return self.chain.window_product(vector, lo, hi, transpose)
