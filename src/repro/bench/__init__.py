"""Benchmark harness regenerating the paper's evaluation (Section VIII).

* :mod:`repro.bench.harness` -- timing utilities and the experiment
  result container.
* :mod:`repro.bench.experiments` -- one driver per paper figure
  (Fig. 8(a) through Fig. 11(b)) plus five design ablations.
* :mod:`repro.bench.reporting` -- ASCII / Markdown / CSV rendering.
* :mod:`repro.bench.cli` -- the ``repro-bench`` command-line entry point.
"""

from repro.bench.harness import ExperimentSeries, Timer, measure_seconds
from repro.bench.experiments import (
    EXPERIMENTS,
    run_experiment,
)
from repro.bench.reporting import (
    to_ascii_table,
    to_csv,
    to_markdown,
)

__all__ = [
    "ExperimentSeries",
    "Timer",
    "measure_seconds",
    "EXPERIMENTS",
    "run_experiment",
    "to_ascii_table",
    "to_csv",
    "to_markdown",
]
