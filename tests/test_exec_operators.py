"""The operator layer: one kernel implementation for every caller.

The load-bearing properties: each operator reproduces the legacy
per-path implementations bit-for-bit (the batched kernels, per-object
fallbacks, and streaming ladder are all thin schedules over the same
operators now), and the per-call timing hooks account every call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Observation,
    ObservationSet,
    SpatioTemporalWindow,
    StateDistribution,
)
from repro.core.distribution import SupportBlock
from repro.core.errors import InfeasibleEvidenceError, QueryError
from repro.core.matrices import (
    build_absorbing_matrices,
    build_doubled_matrices,
)
from repro.core.plan_cache import PlanCache
from repro.exec.operators import (
    BACKWARD_SWEEP,
    BUILD_ABSORBING,
    FORWARD_SWEEP,
    LADDER_EXTEND,
    POSTERIOR_COLLAPSE,
    ExecutionContext,
    OperatorStats,
    SweepSchedule,
)
from repro.workloads.synthetic import make_line_chain

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


class TestTimingHooks:
    def test_every_call_recorded(self, chain, matrices):
        context = ExecutionContext()
        for _ in range(3):
            BACKWARD_SWEEP(
                (matrices, WINDOW, [0]),
                chain,
                WINDOW.region,
                context=context,
            )
        stats = context.timings["backward_sweep"]
        assert stats.calls == 3
        assert stats.seconds > 0.0

    def test_no_context_is_fine(self, chain, matrices):
        result = BACKWARD_SWEEP(
            (matrices, WINDOW, [0]), chain, WINDOW.region
        )
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


class TestBuildMatrices:
    def test_resolves_through_plan_cache(self, chain):
        cache = PlanCache()
        context = ExecutionContext(plan_cache=cache)
        first = BUILD_ABSORBING(
            None, chain, WINDOW.region, None, context=context
        )
        second = BUILD_ABSORBING(
            None, chain, WINDOW.region, None, context=context
        )
        assert first is second
        assert cache.stats.constructions["absorbing"] == 1

    def test_prebuilt_region_mismatch_raises(self, chain, matrices):
        with pytest.raises(QueryError):
            BUILD_ABSORBING(
                matrices, chain, frozenset({0, 1}), None
            )


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
            read_offset=matrices.top_index,
        )
        forward = FORWARD_SWEEP(
            (matrices, schedule), chain, WINDOW.region
        )
        backward = BACKWARD_SWEEP(
            (matrices, WINDOW, [0]), chain, WINDOW.region
        )
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
            read_offset=matrices.top_index,
        )
        exact = FORWARD_SWEEP(
            (matrices, SweepSchedule(**base_schedule)),
            chain,
            WINDOW.region,
        )[0]
        assert exact > 0.05
        bounded = FORWARD_SWEEP(
            (
                matrices,
                SweepSchedule(**base_schedule, stop_threshold=0.05),
            ),
            chain,
            WINDOW.region,
        )[0]
        assert 0.05 <= bounded <= exact + 1e-12

    def test_infeasible_fusion_raises(self, chain):
        doubled = build_doubled_matrices(chain, WINDOW.region)
        start = StateDistribution.point(N_STATES, 0)
        contradiction = np.zeros(N_STATES, dtype=float)
        contradiction[N_STATES - 1] = 1.0  # unreachable in 1 step
        schedule = SweepSchedule(
            n_rows=1,
            first=0,
            last=2,
            times=WINDOW.times,
            activations={0: one_row(start)},
            fusions={1: [(
                0, doubled.tile_observation(contradiction)
            )]},
            harvests={2: [0]},
            read="tail",
            read_offset=doubled.n_states,
        )
        with pytest.raises(InfeasibleEvidenceError):
            FORWARD_SWEEP((doubled, schedule), chain, WINDOW.region)


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
