"""Host-speed calibration: a fixed pure-Python kernel timed beside the work.

The benchmark host changes speed from one moment to the next (the same
pass over a stream can take 2x longer in one second than in the next,
with CPU time equal to wall time).  Every timed slice of work is
therefore bracketed by two timings of :func:`kernel`, a fixed
interpreter-bound loop, and reported in *calibrated seconds*: the raw
time scaled by ``NOMINAL_MS / calib_ms``, where ``calib_ms`` is the mean
of the samples just before and just after the slice.  A calibrated
second is a second on a host where the kernel takes ``NOMINAL_MS``.

The host's speed changes within tens of milliseconds, so only the
samples adjacent to a slice describe it; a median over a wider
neighbourhood lags behind.  A sample that is hit by a preemption (tens
of milliseconds against a median of one or two) is an outlier, not a
host state: a sample more than :data:`OUTLIER` times the median of its
neighbourhood is replaced by that median.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Sequence

NOMINAL_MS = 2.0
"""Kernel time, in ms, that defines one calibrated second."""

OUTLIER = 3.0
"""A sample this many times its neighbourhood median is an outlier."""

WINDOW = 3
"""Neighbours on each side that form a sample's neighbourhood."""


def kernel() -> int:
    """The fixed calibration workload: dict, int and loop bytecode."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        acc ^= key + (i >> 3)
    return acc + len(table)


def sample() -> float:
    """One timing of :func:`kernel`, in seconds."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def scales(samples: Sequence[float]) -> list[float]:
    """Scale factors of the slices between consecutive samples.

    Slice ``j`` lies between samples ``j`` and ``j + 1`` and is scaled by
    ``NOMINAL / mean(sample j, sample j + 1)`` after outliers have been
    replaced by their neighbourhood median.
    """
    count = len(samples)
    cleaned = []
    for j, value in enumerate(samples):
        median = statistics.median(
            samples[max(0, j - WINDOW):min(count, j + WINDOW + 1)]
        )
        cleaned.append(median if value > OUTLIER * median else value)
    nominal = NOMINAL_MS / 1e3
    return [
        2 * nominal / (cleaned[j] + cleaned[j + 1]) for j in range(count - 1)
    ]


class Calibrator:
    """Collects calibration samples around timed slices of work.

    Construction takes the first sample.  The measured code records raw
    durations into the open slice and calls :meth:`mark` after each
    slice, which takes the next sample.  Once the run is over,
    :meth:`calibrated` rescales every recorded duration by its slice's
    bracketing samples.
    """

    def __init__(self) -> None:
        self.samples: list[float] = [sample()]
        self._slices: list[list[float]] = [[]]

    def record(self, seconds: float) -> None:
        """Add one raw duration to the open slice."""
        self._slices[-1].append(seconds)

    def mark(self) -> None:
        """Close the open slice with one calibration sample."""
        self.samples.append(sample())
        self._slices.append([])

    def calibrated(self) -> list[float]:
        """Every recorded duration, in calibrated seconds, in order.

        The caller closes the last slice with :meth:`mark` right after
        it; a slice still open has no sample after it and is dropped.
        """
        return [
            seconds * factor
            for durations, factor in zip(self._slices, scales(self.samples))
            for seconds in durations
        ]

    def raw(self) -> list[float]:
        """Every recorded duration, uncalibrated, in order."""
        return [seconds for durations in self._slices for seconds in durations]


def timed_median(
    once: Callable[[], float], samples: int, min_seconds: float = 0.02
) -> float:
    """Median calibrated duration of ``once``, which returns its own
    raw duration.

    Each sample repeats ``once`` until at least ``min_seconds`` of raw
    time has accumulated, so a millisecond-scale operation is never
    timed alone; every sample is its own calibrated slice.
    """
    calibrator = Calibrator()
    for _ in range(samples):
        total, calls = 0.0, 0
        while calls == 0 or total < min_seconds:
            total += once()
            calls += 1
        calibrator.record(total / calls)
        calibrator.mark()
    return statistics.median(calibrator.calibrated())
