"""Timing utilities and the experiment result container."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.errors import ValidationError

__all__ = ["Timer", "measure_seconds", "ExperimentSeries"]


class Timer:
    """A context manager measuring wall-clock seconds.

    Example::

        with Timer() as timer:
            expensive()
        print(timer.elapsed)
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start


def measure_seconds(
    function: Callable[[], object], repeat: int = 1
) -> float:
    """Best-of-``repeat`` wall-clock seconds of calling ``function``.

    Best-of is the standard noise-reduction strategy for micro-timings;
    the paper reports single-run wall clocks, so ``repeat=1`` matches it.
    As in :mod:`timeit`, the garbage collector is off while ``function``
    runs, so a collection of some earlier call's garbage is not charged
    to it.
    """
    if repeat < 1:
        raise ValidationError(f"repeat must be positive, got {repeat}")
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            start = time.perf_counter()
            function()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


@dataclass
class ExperimentSeries:
    """The data behind one paper figure.

    Attributes:
        experiment_id: identifier (e.g. ``"fig8a"``).
        title: human-readable title.
        x_label: meaning of the x values.
        y_label: meaning of the series values.
        x_values: the sweep parameter values.
        series: ``{curve label: values}`` -- one curve per method, each
            aligned with ``x_values``.
        notes: free-form remarks (scale factors, expected shape...).
    """

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    x_values: List[float] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: str = ""

    def add_point(self, label: str, value: float) -> None:
        """Append one measurement to a curve."""
        self.series.setdefault(label, []).append(float(value))

    def curve(self, label: str) -> List[float]:
        """One curve's values."""
        try:
            return self.series[label]
        except KeyError:
            raise ValidationError(
                f"no curve {label!r}; available: {sorted(self.series)}"
            ) from None

    def validate(self) -> None:
        """Check all curves are aligned with the x values."""
        for label, values in self.series.items():
            if len(values) != len(self.x_values):
                raise ValidationError(
                    f"curve {label!r} has {len(values)} points, "
                    f"x axis has {len(self.x_values)}"
                )

    def speedup(self, slow: str, fast: str) -> List[float]:
        """Pointwise ratio ``slow / fast`` between two curves."""
        numerator = self.curve(slow)
        denominator = self.curve(fast)
        return [
            (n / d if d > 0 else float("inf"))
            for n, d in zip(numerator, denominator)
        ]
