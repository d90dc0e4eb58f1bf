"""Tests of the benchmark's own rules, bookkeeping and workloads.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os

import pytest

import calib
import layers
import run
import spans
import stats
from workloads import WORKLOADS, ChronicleLong, DurableCluster, WireFanout

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# --- percentiles -------------------------------------------------------------


def test_p95_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 0.95)
    assert stats.percentile(list(range(200)), 0.95) == 189


def test_p50_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 0.5)
    assert stats.percentile([5, 1, 4, 2, 3] * 4, 0.5) == 3


# --- cost growth -------------------------------------------------------------


def test_cost_growth_is_one_for_constant_per_event_cost():
    events = [3, 5, 2, 4] * 10
    durations = [0.001 * e for e in events]
    assert stats.cost_growth([(durations, events)]) == pytest.approx(1.0)


def test_cost_growth_compares_last_quarter_with_first():
    events = [2] * 8
    durations = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0]
    assert stats.cost_growth([(durations, events)]) == pytest.approx(3.0)


def test_cost_growth_pools_the_quarters_of_all_passes():
    slow = ([1.0, 1.0, 9.0, 9.0], [1, 1, 1, 1])
    fast = ([3.0, 1.0, 1.0, 5.0], [1, 1, 1, 1])
    # first quarters: 1 + 3 over 2 events; last: 9 + 5 over 2 events
    assert stats.cost_growth([slow, fast]) == pytest.approx(14 / 4)


# --- calibration -------------------------------------------------------------


def test_one_outlier_sample_does_not_set_a_scale():
    nominal = calib.NOMINAL_MS / 1e3
    samples = [nominal] * 5 + [10 * nominal] + [nominal] * 5
    assert calib.scales(samples) == pytest.approx([1.0] * 10)


def test_slices_follow_the_host_speed_around_them(monkeypatch):
    nominal = calib.NOMINAL_MS / 1e3
    # Host at half speed for the first two slices, full speed after.
    host = iter([2 * nominal] * 2 + [nominal] * 9)
    monkeypatch.setattr(calib, "sample", lambda: next(host))
    calibrator = calib.Calibrator()
    for _ in range(10):
        calibrator.record(0.010)
        calibrator.mark()
    calibrated = calibrator.calibrated()
    assert calibrated[0] == pytest.approx(0.005)
    # The second slice is bracketed by one slow and one fast sample.
    assert calibrated[1] == pytest.approx(0.010 / 1.5)
    assert calibrated[2:] == pytest.approx([0.010] * 8)
    assert calibrator.raw() == [0.010] * 10


def test_timed_median_repeats_short_operations():
    calls = []

    def once():
        calls.append(1)
        return 0.001

    assert calib.timed_median(once, samples=3, min_seconds=0.005) > 0
    assert len(calls) == 15


# --- spans -------------------------------------------------------------------


def test_self_time_subtracts_children_and_leaves(monkeypatch):
    clock = iter([0, 10, 15, 40, 50, 60])
    monkeypatch.setattr(spans, "_now", lambda: next(clock))
    tracer = spans.Tracer()
    tracer.counting = True
    granule = tracer.begin("granule")  # 0..60
    child = tracer.begin("a")  # 10..15, holding a 5 ns leaf call
    tracer.leaf("hb", 5)
    tracer.end(child)
    other = tracer.begin("b")  # 40..50
    tracer.end(other)
    tracer.end(granule)
    table = tracer.table()
    assert table["a"] == {"calls": 1, "total_ns": 5, "self_ns": 0}
    assert table["b"] == {"calls": 1, "total_ns": 10, "self_ns": 10}
    assert table["granule"] == {"calls": 1, "total_ns": 60, "self_ns": 45}
    assert table["hb"] == {"calls": 1, "total_ns": 5, "self_ns": 5}


def test_spans_outside_counting_are_left_out():
    tracer = spans.Tracer()
    tracer.end(tracer.begin("before"))
    tracer.leaf("hb", 7)
    tracer.count("n", 3)
    tracer.counting = True
    tracer.end(tracer.begin("during"))
    tracer.count("n", 2)
    assert set(tracer.table()) == {"during"}
    assert tracer.counts["n"] == 2


class _Target:
    def work(self, x):
        return x + 1


def test_wrap_records_and_uninstall_restores():
    original = _Target.work
    tracer = spans.Tracer()
    tracer.counting = True
    seen = []
    tracer.wrap(_Target, "work", "target.work",
                after=lambda t, args, kwargs, result: seen.append(result))
    assert _Target().work(1) == 2
    tracer.uninstall()
    assert _Target.work is original
    assert seen == [2]
    assert tracer.table()["target.work"]["calls"] == 1


# --- the benchmark definition ------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


# --- tiny smoke runs with their reference checks -----------------------------


def _smoke(workload):
    workload.prepare()
    result = workload.run_pass(0)
    assert result.correct and result.failed == 0
    assert result.detections == sum(workload.streams[0].reference.values()) > 0
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        traced = workload.run_pass(0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.correct
    values = layers.metrics(tracer, [traced], [result])
    assert set(values) == {name for name, _ in layers.PER_LAYER}
    return values


def test_chronicle_long_smoke(tmp_path):
    values = _smoke(ChronicleLong(3, str(tmp_path), events=300))
    assert values["detection.sequence.calls"] > 0
    assert values["time.happens_before_calls_per_event"] > 0


def test_wire_fanout_smoke(tmp_path):
    values = _smoke(WireFanout(3, str(tmp_path), granules=30))
    assert values["protocol.decode_us_per_event"] > 0
    assert values["router.fanout_per_event"] > 1


def test_reference_mismatch_fails_the_pass(tmp_path):
    workload = WireFanout(4, str(tmp_path), granules=20)
    workload.prepare()
    stream = workload.streams[0]
    stream.reference = workload.reference(stream)
    stream.reference[next(iter(stream.reference))] += 1
    result = workload.run_pass(0)
    assert not result.correct
    assert result.failed == len(stream.batches)


def test_durable_cluster_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    workload = DurableCluster(3, str(tmp_path), events=150)
    values = _smoke(workload)
    assert values["wal.append_us_per_entry"] > 0
    assert values["cluster.respawn_s"] > 0
