"""Summary statistics with the benchmark's sample-count rules."""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10
"""Samples that must lie beyond a reported percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (nearest rank) of ``samples``.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond it, so a p95 needs at least 200 samples: a percentile read
    off fewer tail samples does not repeat from run to run.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    count = len(samples)
    rank = max(1, math.ceil(q * count))
    if count - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {count} samples has {count - rank} beyond it; "
            f"{MIN_BEYOND} are needed"
        )
    return sorted(samples)[rank - 1]


def cost_growth(passes: Sequence[tuple[Sequence[float], Sequence[int]]]) -> float:
    """Per-event cost of the last quarter of a stream over the first.

    Each pass is ``(durations, events)``: the service time and event
    count of each granule batch, in stream order.  The quarters of all
    passes are pooled, so every stream weighs by its events.  A
    detector whose per-event cost does not grow with the stream reads
    about 1.0.
    """
    first_time = first_events = last_time = last_events = 0
    for durations, events in passes:
        if len(durations) != len(events) or len(durations) < 4:
            raise ValueError("need matching durations and events, at least 4")
        quarter = len(durations) // 4
        first_time += sum(durations[:quarter])
        first_events += sum(events[:quarter])
        last_time += sum(durations[-quarter:])
        last_events += sum(events[-quarter:])
    return (last_time / last_events) / (first_time / first_events)
