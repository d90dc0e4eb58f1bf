"""Detector state checkpoint and restore.

A production detector must survive restarts without losing open windows:
a ``seq`` initiator buffered for an hour, a half-accumulated ``A*``
window, a pending ``Plus`` timer.  This module serializes a
:class:`~repro.detection.detector.Detector`'s *dynamic* state — node
buffers, periodic windows, pending timers, the engine clock — to a
JSON-compatible dictionary and restores it into a freshly constructed
detector with the **same registrations** (expressions and contexts are
code, not state; re-register them, then call :func:`restore`).

Occurrence identity: uids are process-local, so restored occurrences get
fresh uids while preserving structure (type, timestamp, parameters,
provenance).  Fresh uids follow the saved buffer order, and a
``CHRONICLE`` initiator buffer is stable-sorted by recency key on load
(checkpoints from before buffers were key-ordered hold arrival order),
so the oldest-first pairing is the one the saved buffer implies.
Everything else — buffer order, window progress, timer deadlines —
round-trips exactly; the tests verify detection continuity
(feed half a stream, checkpoint, restore into a new detector, feed the
rest: the detections match an uninterrupted run).
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import DetectionError
from repro.events.occurrences import EventOccurrence
from repro.detection.detector import Detector
from repro.detection.nodes import (
    AndNode,
    AperiodicNode,
    AperiodicStarNode,
    FilterNode,
    Node,
    NotNode,
    OrNode,
    PeriodicNode,
    PlusNode,
    PrimitiveNode,
    SequenceNode,
    TimesNode,
    _Window,
)
from repro.time.composite import CompositeTimestamp, max_of_many
from repro.time.timestamps import PrimitiveTimestamp

FORMAT_VERSION = 1


# --- occurrence (de)serialization ------------------------------------------------


def occurrence_to_dict(occurrence: EventOccurrence) -> dict[str, Any]:
    """Serialize an occurrence tree (provenance included)."""
    return {
        "event_type": occurrence.event_type,
        "timestamp": [list(t.as_triple()) for t in occurrence.timestamp],
        "parameters": _plain(occurrence.parameters),
        "constituents": [
            occurrence_to_dict(child) for child in occurrence.constituents
        ],
    }


def occurrence_from_dict(data: dict[str, Any]) -> EventOccurrence:
    """Rebuild an occurrence tree (fresh uids, same structure)."""
    stamps = [
        PrimitiveTimestamp(site, int(global_time), int(local))
        for site, global_time, local in data["timestamp"]
    ]
    return EventOccurrence(
        event_type=data["event_type"],
        timestamp=CompositeTimestamp(stamps),
        parameters=dict(data["parameters"]),
        constituents=tuple(
            occurrence_from_dict(child) for child in data["constituents"]
        ),
    )


def _plain(parameters: Any) -> dict[str, Any]:
    """Force parameters into JSON-compatible plain data."""
    result = {}
    for key, value in dict(parameters).items():
        if isinstance(value, tuple):
            value = list(value)
        result[key] = value
    return result


# --- per-node-state handlers --------------------------------------------------------


def _node_key(node: Node) -> str:
    return f"{node.name}::{node.context.value}"


def _dump_node(node: Node) -> dict[str, Any] | None:
    if isinstance(node, SequenceNode):
        return {
            "kind": "sequence",
            "firsts": [occurrence_to_dict(o) for o in node._firsts],
            "seconds": [occurrence_to_dict(o) for o in node._seconds],
        }
    if isinstance(node, AndNode):
        return {
            "kind": "and",
            "left": [occurrence_to_dict(o) for o in node._buffers["left"]],
            "right": [occurrence_to_dict(o) for o in node._buffers["right"]],
        }
    if isinstance(node, NotNode):
        return {
            "kind": "not",
            "openers": [occurrence_to_dict(o) for o in node._openers],
            "negated": [occurrence_to_dict(o) for o in node._negated],
            "closers": [occurrence_to_dict(o) for o in node._closers],
        }
    if isinstance(node, AperiodicNode):
        return {
            "kind": "aperiodic",
            "openers": [occurrence_to_dict(o) for o in node._openers],
            "closers": [occurrence_to_dict(o) for o in node._closers],
        }
    if isinstance(node, AperiodicStarNode):
        return {
            "kind": "aperiodic_star",
            "openers": [occurrence_to_dict(o) for o in node._openers],
            "bodies": [occurrence_to_dict(o) for o in node._bodies],
        }
    if isinstance(node, PeriodicNode):
        return {
            "kind": "periodic",
            "windows": [
                {
                    "opener": occurrence_to_dict(window.opener),
                    "ticks": [occurrence_to_dict(t) for t in window.ticks],
                    "next_tick": window.next_tick,
                }
                for window in node._windows
                if not window.closed
            ],
        }
    if isinstance(node, TimesNode):
        return {
            "kind": "times",
            "pending": [occurrence_to_dict(o) for o in node._pending],
        }
    if isinstance(node, (OrNode, FilterNode, PrimitiveNode, PlusNode)):
        return None  # stateless (Plus state lives in the timer heap)
    raise DetectionError(f"cannot checkpoint node type {type(node).__name__}")


def _load_node(node: Node, state: dict[str, Any]) -> None:
    if isinstance(node, SequenceNode) and state["kind"] == "sequence":
        node._firsts.load(occurrence_from_dict(o) for o in state["firsts"])
        node._seconds = [occurrence_from_dict(o) for o in state["seconds"]]
        return
    if isinstance(node, AndNode) and state["kind"] == "and":
        node._buffers["left"].load(occurrence_from_dict(o) for o in state["left"])
        node._buffers["right"].load(occurrence_from_dict(o) for o in state["right"])
        return
    if isinstance(node, NotNode) and state["kind"] == "not":
        node._openers.load(occurrence_from_dict(o) for o in state["openers"])
        node._negated = [occurrence_from_dict(o) for o in state["negated"]]
        node._closers = [occurrence_from_dict(o) for o in state["closers"]]
        return
    if isinstance(node, AperiodicNode) and state["kind"] == "aperiodic":
        node._openers = [occurrence_from_dict(o) for o in state["openers"]]
        node._closers = [occurrence_from_dict(o) for o in state["closers"]]
        return
    if isinstance(node, AperiodicStarNode) and state["kind"] == "aperiodic_star":
        node._openers.load(occurrence_from_dict(o) for o in state["openers"])
        node._bodies = [occurrence_from_dict(o) for o in state["bodies"]]
        return
    if isinstance(node, TimesNode) and state["kind"] == "times":
        node._pending = [occurrence_from_dict(o) for o in state["pending"]]
        # Rebuild the running-Max accumulator the node folds per arrival;
        # leaving it None would make the first post-restore batch emit a
        # timestamp that ignores the restored constituents (found by the
        # conformance fuzzer's checkpoint-continuity check).
        node._acc = (
            max_of_many(o.timestamp for o in node._pending)
            if node._pending
            else None
        )
        return
    if isinstance(node, PeriodicNode) and state["kind"] == "periodic":
        node._windows = []
        for window_state in state["windows"]:
            window = _Window(
                opener=occurrence_from_dict(window_state["opener"]),
                next_tick=int(window_state["next_tick"]),
            )
            window.ticks = [occurrence_from_dict(t) for t in window_state["ticks"]]
            node._windows.append(window)
        return
    raise DetectionError(
        f"checkpoint state kind {state.get('kind')!r} does not match node "
        f"{type(node).__name__}"
    )


# --- detector snapshot / restore ------------------------------------------------------


def snapshot(detector: Detector) -> dict[str, Any]:
    """Capture a detector's dynamic state as a JSON-compatible dict."""
    nodes: dict[str, Any] = {}
    for node in detector.graph.nodes():
        state = _dump_node(node)
        if state is not None:
            nodes[_node_key(node)] = state
    plus_timers = [
        {
            "fire_global": fire_global,
            "node": _node_key(node),
            "base": occurrence_to_dict(payload),
        }
        for fire_global, _, node, payload in detector._timer_heap
        if isinstance(node, PlusNode)
    ]
    return {
        "version": FORMAT_VERSION,
        "site": detector.site,
        "now_global": detector.now_global,
        "nodes": nodes,
        "plus_timers": plus_timers,
    }


def restore(detector: Detector, data: dict[str, Any]) -> None:
    """Load a snapshot into a detector with identical registrations.

    The detector must have the same expressions registered (same names
    and contexts); unknown node keys in the snapshot raise
    :class:`DetectionError` so drift between code and checkpoint is loud.
    """
    if data.get("version") != FORMAT_VERSION:
        raise DetectionError(
            f"unsupported checkpoint version {data.get('version')!r}"
        )
    by_key = {_node_key(node): node for node in detector.graph.nodes()}
    for key, state in data["nodes"].items():
        node = by_key.get(key)
        if node is None:
            name = key.split("::")[0]
            raise DetectionError(
                f"checkpoint contains state for unregistered node {name!r}"
            )
        _load_node(node, state)
    detector.now_global = int(data["now_global"])
    for timer in data["plus_timers"]:
        node = by_key.get(timer["node"])
        if not isinstance(node, PlusNode):
            raise DetectionError(
                f"checkpoint timer references non-Plus node {timer['node']!r}"
            )
        detector.schedule(
            node, int(timer["fire_global"]), occurrence_from_dict(timer["base"])
        )
    # Periodic windows re-arm their own timers.
    for node in detector.graph.nodes():
        if isinstance(node, PeriodicNode):
            for window in node._windows:
                detector.schedule(node, window.next_tick, window)


def save_checkpoint(detector: Detector, path: str) -> None:
    """Snapshot to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot(detector), handle)


def load_checkpoint(detector: Detector, path: str) -> None:
    """Restore from a JSON file written by :func:`save_checkpoint`."""
    with open(path, "r", encoding="utf-8") as handle:
        restore(detector, json.load(handle))


# --- distributed coordinator snapshot / restore ------------------------------


def snapshot_distributed(detector) -> dict[str, Any]:
    """Capture a :class:`DistributedDetector`'s dynamic state.

    Covers every node's buffers, per-site clocks and timers, and the
    in-flight outbox (messages not yet delivered).  Like the local
    variant, registrations are code: the restoring process must
    re-register the same expressions (same names, contexts, and
    placement-relevant site homes) before calling
    :func:`restore_distributed`.
    """
    from repro.detection.coordinator import DistributedDetector

    assert isinstance(detector, DistributedDetector)
    nodes: dict[str, Any] = {}
    for node in detector.graph.nodes():
        state = _dump_node(node)
        if state is not None:
            nodes[_node_key(node)] = state
    plus_timers = []
    for site, heap in detector._timer_heaps.items():
        for fire_global, _, node, payload in heap:
            if isinstance(node, PlusNode):
                plus_timers.append(
                    {
                        "site": site,
                        "fire_global": fire_global,
                        "node": _node_key(node),
                        "base": occurrence_to_dict(payload),
                    }
                )
    outbox = [
        {
            "src": message.src,
            "dst": message.dst,
            "node": _node_key(detector._nodes_by_id[message.node_id]),
            "role": message.role,
            "occurrence": occurrence_to_dict(message.occurrence),
        }
        for message in detector.outbox
    ]
    return {
        "version": FORMAT_VERSION,
        "kind": "distributed",
        "now_global": dict(detector._now_global),
        "nodes": nodes,
        "plus_timers": plus_timers,
        "outbox": outbox,
    }


def restore_distributed(detector, data: dict[str, Any]) -> None:
    """Load a distributed snapshot into an identically-registered engine."""
    from repro.detection.coordinator import DistributedDetector, Message

    assert isinstance(detector, DistributedDetector)
    if data.get("version") != FORMAT_VERSION or data.get("kind") != "distributed":
        raise DetectionError("not a distributed checkpoint of a supported version")
    by_key = {_node_key(node): node for node in detector.graph.nodes()}
    for key, state in data["nodes"].items():
        node = by_key.get(key)
        if node is None:
            raise DetectionError(
                f"checkpoint contains state for unregistered node "
                f"{key.split('::')[0]!r}"
            )
        _load_node(node, state)
    for site, now in data["now_global"].items():
        if site in detector._now_global:
            detector._now_global[site] = int(now)
    for timer in data["plus_timers"]:
        node = by_key.get(timer["node"])
        if not isinstance(node, PlusNode):
            raise DetectionError(
                f"checkpoint timer references non-Plus node {timer['node']!r}"
            )
        detector.schedule_at(
            timer["site"],
            node,
            int(timer["fire_global"]),
            occurrence_from_dict(timer["base"]),
        )
    for node in detector.graph.nodes():
        if isinstance(node, PeriodicNode):
            site = detector._timer_site_binding.get(node, detector.coordinator)
            for window in node._windows:
                detector.schedule_at(site, node, window.next_tick, window)
    for entry in data["outbox"]:
        node = by_key.get(entry["node"])
        if node is None:
            raise DetectionError(
                f"outbox message targets unregistered node {entry['node']!r}"
            )
        detector.outbox.append(
            Message(
                src=entry["src"],
                dst=entry["dst"],
                node_id=detector._node_ids[node],
                role=entry["role"],
                occurrence=occurrence_from_dict(entry["occurrence"]),
                seq=next(detector._message_seq),
            )
        )
