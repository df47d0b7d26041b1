"""Tests for the benchmark harness, reporting, and CLI.

The ``TestExperimentRegistry`` shape checks assert the curve shapes the
paper states for Section VIII, at the CI scale and compared on sums of
runtimes (single points are timing noise at this size).  Each asserted
shape held in 20 of 20 runs on a 2-core machine; shapes that did not
are listed in README.md as *differs from paper* and not asserted.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentSeries, Timer, measure_seconds
from repro.bench.cli import SMOKE_SCALE, main as cli_main
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import to_ascii_table, to_csv, to_markdown
from repro.core.errors import ValidationError


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.elapsed > 0.0

    def test_measure_seconds(self):
        elapsed = measure_seconds(lambda: sum(range(1000)), repeat=2)
        assert elapsed > 0.0

    def test_measure_seconds_validates_repeat(self):
        with pytest.raises(ValidationError):
            measure_seconds(lambda: None, repeat=0)


def sample_series() -> ExperimentSeries:
    series = ExperimentSeries(
        experiment_id="demo",
        title="Demo",
        x_label="x",
        y_label="y",
        x_values=[1, 2],
        notes="a note",
    )
    series.add_point("OB", 0.5)
    series.add_point("OB", 0.7)
    series.add_point("QB", 0.1)
    series.add_point("QB", 0.2)
    return series


def _half_sums(values):
    half = len(values) // 2
    return sum(values[:half]), sum(values[half:])


class TestExperimentSeries:
    def test_validate_aligned(self):
        sample_series().validate()

    def test_validate_misaligned(self):
        series = sample_series()
        series.add_point("OB", 0.9)
        with pytest.raises(ValidationError):
            series.validate()

    def test_curve_lookup(self):
        series = sample_series()
        assert series.curve("QB") == [0.1, 0.2]
        with pytest.raises(ValidationError):
            series.curve("MC")

    def test_speedup(self):
        series = sample_series()
        assert series.speedup("OB", "QB") == pytest.approx([5.0, 3.5])

    def test_speedup_division_by_zero(self):
        series = sample_series()
        series.series["QB"] = [0.0, 0.2]
        assert series.speedup("OB", "QB")[0] == float("inf")


class TestReporting:
    def test_ascii_table(self):
        text = to_ascii_table(sample_series())
        assert "Demo" in text
        assert "OB" in text and "QB" in text
        assert "a note" in text

    def test_markdown(self):
        text = to_markdown(sample_series())
        assert text.startswith("### Demo")
        assert "| x | OB | QB |" in text

    def test_csv(self):
        text = to_csv(sample_series())
        lines = text.strip().split("\n")
        assert lines[0] == "x,OB,QB"
        assert len(lines) == 3

    def test_value_formatting_extremes(self):
        series = ExperimentSeries(
            experiment_id="fmt",
            title="fmt",
            x_label="x",
            y_label="y",
            x_values=[1],
        )
        series.add_point("tiny", 1e-9)
        series.add_point("huge", 123456.0)
        series.add_point("zero", 0.0)
        text = to_csv(series)
        assert "e-09" in text
        assert "e+05" in text


class TestExperimentRegistry:
    def test_all_paper_figures_present(self):
        for figure in (
            "fig8a", "fig8b", "fig9a", "fig9b", "fig9c", "fig9d",
            "fig10a", "fig10b", "fig11a", "fig11b",
        ):
            assert figure in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError):
            run_experiment("fig99")

    def test_tiny_fig9d_run_shows_overestimation(self):
        series = run_experiment("fig9d", scale=0.2)
        series.validate()
        exact = series.curve("with temporal correlation")
        naive = series.curve("without temporal correlation")
        # averaged over many objects, the naive model never falls below
        # the exact average, and from 6 timeslots on the bias is visible
        for length, n, e in zip(series.x_values, naive, exact):
            assert n >= e - 1e-9
            if length >= 6:
                assert n > e

    def test_tiny_fig8a_run_orders_methods(self):
        series = run_experiment("fig8a", scale=0.05)
        series.validate()
        # the headline ordering holds even at toy scale; compare sums,
        # single points are timing-noise territory at this size
        mc = sum(series.curve("MC"))
        ob = sum(series.curve("OB"))
        qb = sum(series.curve("QB"))
        assert mc > ob > qb

    def test_tiny_fig9a_run_shapes(self):
        series = run_experiment("fig9a", scale=0.05)
        series.validate()
        ob = series.curve("OB")
        qb = series.curve("QB")
        assert all(o > q for o, q in zip(ob, qb))
        # OB grows with the horizon; compare half-sums -- at toy scale
        # the batched sweep makes single points timing-noise territory
        half = len(ob) // 2
        assert sum(ob[half:]) > sum(ob[:half])

    @pytest.mark.parametrize(
        "experiment_id, growing",
        [("fig8b", ("OB", "QB")), ("fig9b", ("OB",)), ("fig9c", ("OB",))],
    )
    def test_tiny_ob_above_qb_and_growing(self, experiment_id, growing):
        # 8(b): both grow with |S|; 9(b)/(c): OB grows with the start time
        series = run_experiment(experiment_id, scale=SMOKE_SCALE)
        assert sum(series.curve("OB")) > sum(series.curve("QB"))
        for label in growing:
            low, high = _half_sums(series.curve(label))
            assert high > low

    def test_tiny_fig10a_ktimes_grows(self):
        series = run_experiment("fig10a", scale=SMOKE_SCALE)
        low, high = _half_sums(series.curve("ktimes"))
        assert high > low

    def test_tiny_fig10b_ktimes_costliest_and_growing(self):
        series = run_experiment("fig10b", scale=SMOKE_SCALE)
        exists = sum(series.curve("exists"))
        forall = sum(series.curve("forall"))
        ktimes = series.curve("ktimes")
        assert sum(ktimes) > max(exists, forall)
        assert 0.5 <= exists / forall <= 2.0
        low, high = _half_sums(ktimes)
        assert high > low

    @pytest.mark.parametrize("experiment_id", ["fig11a", "fig11b"])
    def test_tiny_locality_sweep_at_most_linear(self, experiment_id):
        series = run_experiment(experiment_id, scale=SMOKE_SCALE)
        x_low, x_high = _half_sums(series.x_values)
        assert sum(series.curve("OB")) > sum(series.curve("QB"))
        for label in ("OB", "QB"):
            low, high = _half_sums(series.curve(label))
            assert high / low <= x_high / x_low

    @pytest.mark.parametrize(
        "experiment_id", ["ablation_clustered", "ablation_early_termination"]
    )
    def test_ported_ablations_run_at_smoke_scale(self, experiment_id):
        series = run_experiment(experiment_id, scale=SMOKE_SCALE)
        assert len(series.series) == 2
        assert all(
            value > 0.0
            for curve in series.series.values()
            for value in curve
        )


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8a" in out

    def test_no_selection_is_an_error(self, capsys):
        assert cli_main([]) == 2

    def test_unknown_id_is_an_error(self, capsys):
        assert cli_main(["nope"]) == 2

    def test_smoke_runs_experiments_at_ci_scale(self, monkeypatch, capsys):
        scales = {}

        def record(experiment_id, scale=1.0):
            scales[experiment_id] = scale
            return sample_series()

        monkeypatch.setattr("repro.bench.cli.run_experiment", record)
        assert cli_main(["--all", "--smoke", "--scale", "3"]) == 0
        assert scales == {i: SMOKE_SCALE for i in EXPERIMENTS}
        assert cli_main(["fig8a", "--scale", "0.5"]) == 0
        assert scales["fig8a"] == 0.5

    def test_run_one_experiment_with_output(self, tmp_path, capsys):
        code = cli_main(
            [
                "ablation_backend",
                "--scale",
                "0.3",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "ablation_backend.md").exists()
        assert (tmp_path / "ablation_backend.csv").exists()
        out = capsys.readouterr().out
        assert "backend" in out.lower()
