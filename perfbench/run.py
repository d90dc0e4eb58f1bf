"""Serving benchmark of ``repro``: one workload, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload chronicle_long --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see NOTES.md).  Passes over
the workload's stream repeat until ``--seconds`` have elapsed (at least
one pass).  The last line of standard output is the JSON result; the
lines before it carry details such as sample counts and, when traced,
the span table.  Every timing is in calibrated seconds (see calib.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]
# Cluster workers are `python -m repro.cli` subprocesses: they import
# the same source tree.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

import layers  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from workloads import STATE_DIR, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("detections_per_s", "1/s"),
    ("granule_p50_ms", "ms"),
    ("granule_p95_ms", "ms"),
    ("cost_growth", "ratio"),
    ("retained_peak", "count"),
    ("rss_peak_mb", "MB"),
    ("recovery_s", "s"),
)


def quiesce() -> None:
    """Collect, then freeze what survives: the benchmark's own long-lived
    objects (streams, references) then cost no collector time in a
    measurement."""
    gc.collect()
    gc.freeze()


def measuring(workload, seconds: float):
    """Yield pass indices until ``seconds`` of passes have run and every
    stream has been served equally often (at least once).

    Time spent computing the reference detections of a stream does not
    count against the budget.
    """
    started = time.perf_counter()
    index = 0
    streams = len(workload.streams)
    while index % streams or (
        index == 0
        or time.perf_counter() - started - workload.reference_seconds < seconds
    ):
        quiesce()
        yield index
        index += 1


def run_passes(workload, seconds: float) -> list:
    """Untraced passes over the workload's streams for ``seconds``."""
    return [workload.run_pass(index) for index in measuring(workload, seconds)]


def rss_peak_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def steady(result) -> tuple[list[float], list[int]]:
    """Durations and event counts of the granules no fault hit."""
    kept = [
        (duration, events)
        for index, (duration, events) in enumerate(
            zip(result.durations, result.events))
        if index not in result.fault_granules
    ]
    return [d for d, _ in kept], [e for _, e in kept]


def end_to_end(workload, passes: list) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of untraced passes, plus details."""
    durations = [d for p in passes for d in p.durations]
    busy = sum(durations)
    quiesce()
    values = {
        "setup_s": workload.setup_seconds(passes),
        "events_per_s": sum(sum(p.events) for p in passes) / busy,
        "detections_per_s": sum(p.detections for p in passes) / busy,
        "granule_p50_ms": stats.percentile(durations, 0.5) * 1e3,
        "granule_p95_ms": stats.percentile(durations, 0.95) * 1e3,
        "cost_growth": stats.cost_growth([steady(p) for p in passes]),
        "retained_peak": statistics.mean(p.retained_peak for p in passes),
        "rss_peak_mb": rss_peak_mb(),
        "recovery_s": workload.recovery_seconds(passes),
    }
    details = {
        "passes": len(passes),
        "granule_samples": len(durations),
        "events_per_pass": statistics.mean(sum(p.events) for p in passes),
        "raw_events_per_s": sum(sum(p.events) for p in passes)
        / sum(sum(p.calibrator.raw()) for p in passes),
        "host.calib_ms": statistics.median(
            s for p in passes for s in p.calibrator.samples) * 1e3,
    }
    return values, details


def traced(workload, seconds: float) -> tuple[list, dict[str, float], dict]:
    """Alternate untraced and traced passes; per-layer metrics."""
    tracer = spans.Tracer()
    untraced_passes, traced_passes = [], []
    for index in measuring(workload, seconds):
        untraced_passes.append(workload.run_pass(index))
        quiesce()
        layers.install(tracer)
        try:
            traced_passes.append(workload.run_pass(
                index,
                tracer=tracer,
                probe_layers=lambda runtime, index: layers.probe_kinds(
                    tracer, [shard.detector for shard in runtime.shards]),
            ))
        finally:
            tracer.uninstall()
    values = layers.metrics(tracer, traced_passes, untraced_passes)
    details = {"passes": len(traced_passes), "spans": tracer.table()}
    return untraced_passes + traced_passes, values, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        workload.prepare()
        if args.trace:
            passes, values, details = traced(workload, args.seconds)
            units = dict(layers.PER_LAYER)
        else:
            passes = run_passes(workload, args.seconds)
            values, details = end_to_end(workload, passes)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(os.path.join(ROOT, STATE_DIR), ignore_errors=True)
    details.update(workload=args.workload, seed=args.seed)
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": all(p.correct for p in passes),
        "attempted": sum(len(p.events) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
