"""Per-layer metrics of the traced run.

:func:`install` wraps the public functions and methods at each layer
boundary of ``repro`` (see the map in NOTES.md); :func:`metrics` turns
the recorded spans and counters into the per-layer metric set.  Every
workload reports every metric; a layer the workload does not exercise
reads 0.

Times are scaled to calibrated units by the traced passes' median
calibration sample, like the end-to-end metrics.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from typing import Any

import calib
from spans import Tracer
from workloads import buffered_by_kind

import repro.detection.nodes as nodes
import repro.serve.protocol as protocol
from repro.detection.detector import Detector
from repro.serve.cluster import ClusterSupervisor
from repro.serve.protocol import BinaryCodec, StreamDecoder
from repro.serve.runtime import ServingRuntime
from repro.serve.shard import DetectionShard
from repro.serve.transport import SubprocessLink
from repro.serve.wal import ShardWAL

KINDS = ("sequence", "and", "or")
"""Operator kinds of the benchmark's rules, reported one by one."""

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("protocol.decode_us_per_event", "us"),
    ("protocol.encode_us_per_row", "us"),
    ("protocol.wire_bytes_per_event", "B"),
    ("router.route_us_per_event", "us"),
    ("router.fanout_per_event", "count"),
    ("shard.enqueue_us_per_batch", "us"),
    ("shard.overhead_us_per_event", "us"),
    ("shard.queue_depth_peak", "count"),
    ("detection.feed_us_per_event", "us"),
    ("detection.emitted_per_event", "count"),
    *(
        (f"detection.{kind}.{what}", unit)
        for kind in KINDS
        for what, unit in (("self_us", "us"), ("calls", "count"))
    ),
    *((f"detection.retained.{kind}", "count") for kind in KINDS),
    ("contexts.select_us", "us"),
    ("contexts.candidates_per_select", "count"),
    ("contexts.consumed_ratio", "ratio"),
    ("time.happens_before_calls_per_event", "count"),
    ("time.happens_before_us", "us"),
    ("time.max_of_calls_per_event", "count"),
    ("time.max_of_us", "us"),
    ("wal.append_us_per_entry", "us"),
    ("wal.bytes_per_event", "B"),
    ("transport.send_us_per_frame", "us"),
    ("cluster.ack_wait_ms_per_granule", "ms"),
    ("cluster.replayed_entries", "count"),
    ("cluster.ledger_dup_ratio", "ratio"),
    ("cluster.respawn_s", "s"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("host.calib_ms", "ms"),
)


def _count(key: str, amount):
    def after(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(key, amount(args, result))

    return after


def _peak(key: str, value):
    def after(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.peak(key, value(args, result))

    return after


def _wal_bytes(tracer: Tracer, args: tuple, kwargs: dict, entry: Any) -> None:
    wal = args[0]
    if wal.codec is not None:
        size = len(entry.encode(wal.codec))
    else:
        size = len(json.dumps(entry.to_dict(), sort_keys=True)) + 1
    tracer.count("wal_bytes", size)


def _select(tracer: Tracer, args: tuple, kwargs: dict, selection: Any) -> None:
    tracer.count("candidates", len(args[1]))
    tracer.count("selected", sum(len(group) for group in selection.groups))


def install(tracer: Tracer) -> None:
    """Wrap every traced name where its callers look it up."""
    births: dict[int, float] = {}

    def link_born(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        # A link born while a granule span is open replaces a killed worker.
        if tracer.active:
            births[id(args[0])] = time.perf_counter()

    def first_frame(tracer: Tracer, args: tuple, kwargs: dict, frame: Any) -> None:
        born = births.pop(id(args[0]), None)
        if born is not None and frame is not None:
            tracer.samples["respawn_s"].append(time.perf_counter() - born)

    wrap = tracer.wrap
    # repro.serve.protocol
    wrap(StreamDecoder, "feed", "protocol.stream_feed",
         after=_count("wire_bytes", lambda a, r: len(a[1])))
    wrap(BinaryCodec, "decode_batch", "protocol.decode_batch")
    wrap(protocol, "detection_to_json", "protocol.detection_to_json")
    wrap(BinaryCodec, "encode_detections", "protocol.encode_detections",
         after=_count("rows", lambda a, r: len(a[1])))
    # repro.serve.router / runtime / shard
    wrap(ServingRuntime, "ingest_batch", "runtime.ingest_batch",
         after=_peak("queue_depth_peak", lambda a, r: max(a[0].depths())))
    wrap(ServingRuntime, "drain", "runtime.drain")
    wrap(DetectionShard, "put_batch", "shard.put_batch",
         after=_count("routed", lambda a, r: len(a[1])))
    # repro.detection, repro.contexts, repro.time
    wrap(Detector, "feed", "detector.feed",
         after=_count("emitted", lambda a, r: len(r)))
    wrap(Detector, "advance_time", "detector.advance_time",
         after=_count("emitted", lambda a, r: len(r)))
    for cls in vars(nodes).values():
        if isinstance(cls, type) and "receive" in vars(cls):
            wrap(cls, "receive", f"receive.{cls.kind}")
    wrap(nodes, "composite_happens_before", "time.happens_before", leaf=True)
    wrap(nodes, "max_of", "time.max_of", leaf=True)
    wrap(nodes, "select_initiators", "contexts.select", leaf=True, after=_select)
    # repro.serve.wal / transport / cluster
    wrap(ShardWAL, "append_event", "wal.append", after=_wal_bytes)
    wrap(ShardWAL, "append_advance", "wal.append", after=_wal_bytes)
    wrap(SubprocessLink, "send", "transport.send",
         after=_count("wire_bytes",
                      lambda a, r: len(json.dumps(a[1], sort_keys=True)) + 1))
    wrap(SubprocessLink, "__init__", after=link_born)
    wrap(SubprocessLink, "read", after=first_frame)
    wrap(ClusterSupervisor, "ingest", "cluster.ingest",
         after=_count("routed", lambda a, r: len(a[0].router.route(a[1].event_type))))
    wrap(ClusterSupervisor, "drain", "cluster.drain")


def probe_kinds(tracer: Tracer, detectors) -> None:
    """Track the peak buffered occurrences per operator kind."""
    total: Counter = Counter()
    for detector in detectors:
        total.update(buffered_by_kind(detector))
    for kind, buffered in total.items():
        key = f"retained.{kind}"
        tracer.counts[key] = max(tracer.counts[key], buffered)


def metrics(tracer: Tracer, traced: list, untraced: list) -> dict[str, float]:
    """The per-layer metric set from the traced and untraced passes."""
    # Granules a fault hit are measured by recovery_s; the tracer did
    # not count their spans (respawn and replay inside ingest/drain).
    rows = tracer.table()
    counts = tracer.counts
    passes = len(traced)
    steady = [
        events
        for p in traced
        for index, events in enumerate(p.events)
        if index not in p.fault_granules
    ]
    events, granules = sum(steady), len(steady)
    scale = calib.NOMINAL_MS / 1e3 / statistics.median(
        s for p in traced for s in p.calibrator.samples
    )

    def row(name: str) -> dict[str, int]:
        return rows.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    def us(ns: float) -> float:
        return ns / 1e3 * scale

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_call(name: str) -> float:
        r = row(name)
        return ratio(us(r["total_ns"]), r["calls"])

    inside_drain = (
        row("runtime.drain")["total_ns"]
        - row("detector.feed")["total_ns"]
        - row("detector.advance_time")["total_ns"]
        if row("runtime.drain")["calls"] else 0
    )
    extra = [p.extra for p in traced]
    respawns = tracer.samples["respawn_s"]
    accepted = sum(e.get("accepted", 0) for e in extra)
    duplicates = sum(e.get("duplicates", 0) for e in extra)
    out = {
        "protocol.decode_us_per_event": ratio(
            us(row("protocol.stream_feed")["total_ns"]
               + row("protocol.decode_batch")["total_ns"]), events),
        "protocol.encode_us_per_row": ratio(
            us(row("protocol.detection_to_json")["total_ns"]
               + row("protocol.encode_detections")["total_ns"]), counts["rows"]),
        "protocol.wire_bytes_per_event": ratio(counts["wire_bytes"], events),
        "router.route_us_per_event": ratio(
            us(row("runtime.ingest_batch")["self_ns"]
               + row("cluster.ingest")["self_ns"]), events),
        "router.fanout_per_event": ratio(counts["routed"], events),
        "shard.enqueue_us_per_batch": per_call("shard.put_batch"),
        "shard.overhead_us_per_event": ratio(us(max(0, inside_drain)), events),
        "shard.queue_depth_peak": counts["queue_depth_peak"],
        "detection.feed_us_per_event": ratio(
            us(row("detector.feed")["total_ns"]), events),
        "detection.emitted_per_event": ratio(counts["emitted"], events),
        "contexts.select_us": per_call("contexts.select"),
        "contexts.candidates_per_select": ratio(
            counts["candidates"], row("contexts.select")["calls"]),
        "contexts.consumed_ratio": ratio(counts["selected"], counts["candidates"]),
        "time.happens_before_calls_per_event": ratio(
            row("time.happens_before")["calls"], events),
        "time.happens_before_us": per_call("time.happens_before"),
        "time.max_of_calls_per_event": ratio(row("time.max_of")["calls"], events),
        "time.max_of_us": per_call("time.max_of"),
        "wal.append_us_per_entry": per_call("wal.append"),
        "wal.bytes_per_event": ratio(counts["wal_bytes"], events),
        "transport.send_us_per_frame": per_call("transport.send"),
        "cluster.ack_wait_ms_per_granule": ratio(
            us(row("cluster.drain")["total_ns"]) / 1e3, granules)
        if row("cluster.drain")["calls"] else 0.0,
        "cluster.replayed_entries": ratio(
            sum(e.get("replayed", 0) for e in extra), passes),
        "cluster.ledger_dup_ratio": ratio(duplicates, accepted + duplicates),
        "cluster.respawn_s": (
            statistics.median(respawns) * scale if respawns else 0.0
        ),
        "checkpoint.count": ratio(
            sum(e.get("checkpoints", 0) for e in extra), passes),
        "checkpoint.bytes": ratio(
            sum(e.get("checkpoint_bytes", 0) for e in extra), passes),
        "trace.overhead_ratio": ratio(
            statistics.mean(sum(p.durations) for p in traced),
            statistics.mean(sum(p.durations) for p in untraced)),
        "trace.unattributed_share": ratio(
            row("granule")["self_ns"], row("granule")["total_ns"]),
        "host.calib_ms": statistics.median(
            s for p in traced + untraced for s in p.calibrator.samples) * 1e3,
    }
    for kind in KINDS:
        receive = row(f"receive.{kind}")
        out[f"detection.{kind}.self_us"] = ratio(us(receive["self_ns"]), receive["calls"])
        out[f"detection.{kind}.calls"] = ratio(receive["calls"], passes)
        out[f"detection.retained.{kind}"] = max(
            [counts[f"retained.{kind}"]]
            + [e.get("retained_kinds", {}).get(kind, 0) for e in extra]
        )
    return out
