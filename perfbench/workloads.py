"""The benchmark's three workloads, each a closed loop over granule batches.

Every workload generates its inputs from the seed before anything is
timed and checks each pass against reference detections computed
outside the timed section.  A *pass* serves one whole stream through a
fresh serving stack, one granule batch in flight at a time: the next
batch is sent only once the previous one is fully served.  A pass
records the raw service time of each granule batch, with a calibration
sample after every :data:`SLICE` batches (see :mod:`calib`).

A run rotates through ``streams`` streams derived from its seed (more
where passes are short), so a per-run figure does not hang on the
quirks of a single random stream: how far one stream's backlog happens
to wander, say.

Why these three (NOTES.md has the full rationale):

* ``chronicle_long`` -- the standard rules under CHRONICLE on one shard.
  The ``churn`` initiator backlog grows past 1k occurrences, so time
  goes to SequenceNode scans, ``select_initiators`` and
  ``composite_happens_before``; wire and router are negligible.
* ``wire_fanout`` -- 16 event types at 400 ev/s over 4 shards, fed as
  binary frames, cheap RECENT/CONTINUOUS rules: the per-event serving
  path (decode, route, enqueue, shard entry, encode) dominates and
  detection-operator gains are bypassed.
* ``durable_cluster`` -- supervised subprocess workers with a binary
  WAL, checkpoints and scripted worker kills: durability, transport and
  recovery layers.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import random
import shutil
import statistics
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Iterable

import calib
import repro.detection.nodes as nodes
from repro.contexts.policies import Context
from repro.detection.detector import Detector
from repro.detection.introspect import inspect_detector
from repro.serve import protocol
from repro.serve.cluster import (
    CheckpointStore,
    ClusterSupervisor,
    FaultPlan,
    ShardReplica,
)
from repro.serve.config import ServeConfig
from repro.serve.protocol import StreamDecoder, batch_occurrences, get_codec
from repro.serve.protocol import detection_to_json as _detection_to_json
from repro.serve.runtime import ServingRuntime, serve_events
from repro.sim.serving import STANDARD_RULES, ServingWorkload
from repro.sim.workloads import uniform_stream
from repro.time.clocks import ClockEnsemble
from repro.time.ticks import TimeModel

SLICE = 5
"""Granule batches per calibration sample."""


STATE_DIR = ".perfbench_state"
"""Scratch directory (under the working directory) for cluster state."""

KIND_OF_CLASS = {
    cls.__name__: cls.kind
    for cls in vars(nodes).values()
    if isinstance(cls, type) and issubclass(cls, nodes.Node)
}
"""``introspect`` reports class names; metrics use the operator kind."""


def row_key(row: dict[str, Any]) -> tuple:
    """Canonical, process-independent identity of one detection row."""
    return (
        row["detection"],
        tuple(sorted(tuple(stamp) for stamp in row["timestamp"])),
        tuple(sorted(row["parameters"].items())),
    )


def detection_rows(pairs: Iterable[tuple[int, Any]]) -> Counter:
    """Multiset of canonical keys of ``(shard, Detection)`` pairs.

    Uses the row function bound at import, so checks made after a traced
    pass are not recorded as encode work.
    """
    return Counter(
        row_key(_detection_to_json(shard, detection))
        for shard, detection in pairs
    )


def buffered_by_kind(detector: Detector) -> dict[str, int]:
    """Buffered occurrences per operator kind (``introspect`` view)."""
    per_kind: Counter = Counter()
    for node in inspect_detector(detector).nodes:
        per_kind[KIND_OF_CLASS.get(node.kind, node.kind)] += node.buffered
    return dict(per_kind)


@dataclass
class Stream:
    """One generated input stream and what is derived from it."""

    serving: ServingWorkload
    batches: list[tuple] = field(default_factory=list)
    frames: list[bytes] = field(default_factory=list)
    plan: FaultPlan | None = None
    fault_granules: frozenset[int] = frozenset()
    reference: Counter | None = None

    def __post_init__(self) -> None:
        self.batches = self.serving.granule_batches()


@dataclass
class PassResult:
    """What one pass over a stream measured."""

    calibrator: calib.Calibrator
    events: list[int]
    fault_granules: frozenset[int] = frozenset()
    detections: int = 0
    failed: int = 0
    retained_peak: int = 0
    correct: bool = True
    setup: float | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    @functools.cached_property
    def durations(self) -> list[float]:
        """Calibrated service time of each granule batch, in order."""
        return self.calibrator.calibrated()


class Workload:
    """Streams, reference checks and the timed granule loop."""

    name = ""
    streams_per_run = 4
    """Distinct seed-derived streams a run rotates through."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.streams: list[Stream] = []
        #: Wall time spent computing references (not part of any pass).
        self.reference_seconds = 0.0

    def prepare(self) -> None:
        """Generate every stream of the run (nothing is timed yet)."""
        rng = random.Random(self.seed)
        self.streams = [
            self.build(rng.randrange(1 << 31)) for _ in range(self.streams_per_run)
        ]

    def build(self, seed: int) -> Stream:
        raise NotImplementedError

    def reference(self, stream: Stream) -> Counter:
        raise NotImplementedError

    def run_pass(self, index: int, tracer=None, probe_layers=None) -> PassResult:
        """Serve stream ``index`` (modulo the count) through a fresh stack."""
        stream = self.streams[index % len(self.streams)]
        result, observed = asyncio.run(
            self.serve_stream(stream, tracer, probe_layers)
        )
        self.check(stream, result, observed)
        return result

    async def serve_stream(
        self, stream, tracer, probe_layers
    ) -> tuple[PassResult, Counter]:
        """One timed pass; returns it with its detection multiset."""
        raise NotImplementedError

    async def granule_loop(self, stream, serve, probe=None, tracer=None) -> PassResult:
        """Time ``await serve(i)`` per granule batch ``i``, in order.

        ``serve`` returns False for a batch the system refused; a batch
        that raises counts as failed too.  ``probe(i)`` runs after the
        timing and returns the state size at that granule boundary.
        With a tracer, each batch is one ``granule`` span, and the
        tracer counts only batches that no fault hits.
        """
        faults = stream.fault_granules
        result = PassResult(
            calib.Calibrator(), [len(b) for b in stream.batches], faults
        )
        clock = time.perf_counter
        for index in range(len(stream.batches)):
            handle = None
            if tracer is not None:
                tracer.counting = index not in faults
                handle = tracer.begin("granule")
            started = clock()
            try:
                if not await serve(index):
                    result.failed += 1
            except Exception:  # noqa: BLE001 - a raising batch is a failed op
                result.failed += 1
                traceback.print_exc()
            result.calibrator.record(clock() - started)
            if handle is not None:
                tracer.end(handle)
                tracer.counting = False
            if probe is not None:
                result.retained_peak = max(result.retained_peak, probe(index))
            if (index + 1) % SLICE == 0:
                result.calibrator.mark()
        if len(stream.batches) % SLICE:
            result.calibrator.mark()
        return result

    def check(self, stream: Stream, result: PassResult, observed: Counter) -> None:
        """Compare a pass's detections with the stream's reference; a
        mismatch fails every batch of the pass."""
        if stream.reference is None:
            started = time.perf_counter()
            stream.reference = self.reference(stream)
            self.reference_seconds += time.perf_counter() - started
        result.detections = sum(observed.values())
        if observed != stream.reference:
            result.correct = False
            result.failed = len(stream.batches)


# --- in-process runtime workloads --------------------------------------------


class RuntimeWorkload(Workload):
    """A :class:`ServingRuntime` served in-process, one batch in flight."""

    shards = 1
    contexts: dict[str, Context] = {}

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        #: End-of-stream checkpoint of each stream's first pass, with
        #: the buffered occurrences it holds.
        self.checkpoints: dict[int, tuple[dict[str, Any], int]] = {}

    def prepare(self) -> None:
        super().prepare()
        first = self.streams[0].serving
        self.rules = first.rules
        self.config = ServeConfig(shards=self.shards, timer_ratio=first.timer_ratio)

    def reference(self, stream: Stream) -> Counter:
        """Detections of one plain :class:`Detector` fed the stream.

        Its clock follows the granule batches exactly as a shard's
        does, then advances to the stream horizon.
        """
        serving = stream.serving
        detector = Detector(site="shard", timer_ratio=serving.timer_ratio)
        for name, expression in serving.rules.items():
            detector.register(expression, name=name, context=self.contexts[name])
        for batch in stream.batches:
            granule = batch[0].granule
            if granule > detector.now_global:
                detector.advance_time(granule)
            for occurrence in batch_occurrences(batch):
                detector.feed(occurrence)
        detector.advance_time(max(detector.now_global, serving.horizon()))
        return detection_rows((0, d) for d in detector.detections)

    def construct(self, callback=None) -> ServingRuntime:
        """A fresh runtime with the rules registered; ``callback(shard,
        detection)`` streams detections as the shards emit them."""
        runtime = ServingRuntime(config=self.config)
        for name, expression in self.rules.items():
            shard = runtime.router.assign(name)
            runtime.register(
                expression, name=name, context=self.contexts[name],
                callback=(
                    None if callback is None
                    else (lambda d, shard=shard: callback(shard, d))
                ),
            )
        return runtime

    def setup_seconds(self, passes: list[PassResult]) -> float:
        """Median calibrated construct-and-register time of the runtime."""

        def once() -> float:
            started = time.perf_counter()
            self.construct()
            return time.perf_counter() - started

        return calib.timed_median(once, samples=41)

    def recovery_seconds(self, passes: list[PassResult]) -> float:
        """Median calibrated time to rebuild the runtime (register plus
        restore) from the end-of-stream checkpoints, taken in turn."""
        checkpoints = itertools.cycle(self.checkpoints.values())

        def once() -> float:
            state, buffered = next(checkpoints)
            started = time.perf_counter()
            runtime = self.construct()
            runtime.restore(state)
            elapsed = time.perf_counter() - started
            if self.buffered(runtime) != buffered:
                raise RuntimeError(
                    f"restore rebuilt {self.buffered(runtime)} buffered "
                    f"occurrences, the checkpoint held {buffered}"
                )
            return elapsed

        return calib.timed_median(once, samples=41, min_seconds=0.05)

    @staticmethod
    def buffered(runtime: ServingRuntime) -> int:
        return sum(s.detector.buffered_occurrences() for s in runtime.shards)

    async def serve_stream(
        self, stream, tracer, probe_layers
    ) -> tuple[PassResult, Counter]:
        runtime = self.construct(callback=self.on_detection)
        serve = self.server(stream, runtime)

        def probe(index: int) -> int:
            if probe_layers is not None:
                probe_layers(runtime, index)
            return self.buffered(runtime)

        async with runtime:
            result = await self.granule_loop(stream, serve, probe, tracer)
            await runtime.drain(stream.serving.horizon())
            if id(stream) not in self.checkpoints:
                self.checkpoints[id(stream)] = (
                    runtime.checkpoint(), self.buffered(runtime)
                )
        return result, detection_rows(runtime.detections())

    on_detection = None

    def server(self, stream: Stream, runtime: ServingRuntime):
        """``serve(i)``: one closed-loop round trip of granule batch ``i``."""
        batches = stream.batches
        ingest, drain = runtime.ingest_batch, runtime.drain

        async def serve(index: int) -> bool:
            await ingest(batches[index])
            await drain()
            return True

        return serve


class ChronicleLong(RuntimeWorkload):
    """Standard rules under CHRONICLE on one shard; a growing backlog."""

    name = "chronicle_long"
    shards = 1

    contexts = {name: Context.CHRONICLE for name in STANDARD_RULES}

    def __init__(self, seed: int, workdir: str, events: int = 4800) -> None:
        super().__init__(seed, workdir)
        self.size = events

    def build(self, seed: int) -> Stream:
        return Stream(ServingWorkload.standard(seed, events=self.size))


WIRE_TYPES = 16
WIRE_RATE = 400  # events per second: ~40 per 100 ms granule


def wire_rules() -> tuple[dict[str, str], dict[str, Context]]:
    """Eight cheap rules; each even type feeds two rules (fan-out)."""
    rules, contexts = {}, {}
    for i in range(WIRE_TYPES // 2):
        name = f"pair{i}"
        rules[name] = (
            f"(e{2 * i} or e{2 * i + 1}) ; e{(2 * i + 2) % WIRE_TYPES}"
        )
        contexts[name] = Context.RECENT if i % 2 == 0 else Context.CONTINUOUS
    return rules, contexts


class WireFanout(RuntimeWorkload):
    """Binary frames through decode, route, four shards and encode."""

    name = "wire_fanout"
    shards = 4
    streams_per_run = 8

    def __init__(self, seed: int, workdir: str, granules: int = 300) -> None:
        super().__init__(seed, workdir)
        self.granules = granules
        self.codec = get_codec("binary")
        self._pending: list[tuple[int, Any]] = []

    def build(self, seed: int) -> Stream:
        sites = [f"site{i}" for i in range(4)]
        rules, self.contexts = wire_rules()
        events = uniform_stream(
            random.Random(seed),
            sites,
            [f"e{i}" for i in range(WIRE_TYPES)],
            rate_per_second=WIRE_RATE,
            duration_seconds=Fraction(self.granules, 10),
        )
        ensemble = ClockEnsemble.perfect(TimeModel.example_5_1(), sites)
        stream = Stream(ServingWorkload.from_workload(events, ensemble, rules=rules))
        stream.frames = [self.codec.encode_batch(list(b)) for b in stream.batches]
        return stream

    def on_detection(self, shard: int, detection) -> None:
        self._pending.append((shard, detection))

    def server(self, stream: Stream, runtime: ServingRuntime):
        frames, codec, pending = stream.frames, self.codec, self._pending
        pending.clear()
        decoder = StreamDecoder()
        ingest, drain = runtime.ingest_batch, runtime.drain

        async def serve(index: int) -> bool:
            events = []
            for unit in decoder.feed(frames[index]):
                if unit.kind != "frame":
                    return False
                events.extend(codec.decode_batch(unit.payload))
            await ingest(events)
            await drain()
            if pending:
                rows = [protocol.detection_to_json(s, d) for s, d in pending]
                codec.encode_detections(rows)
                pending.clear()
            return True

        return serve


# --- the durable multi-process cluster ---------------------------------------


class DurableCluster(Workload):
    """Supervised subprocess workers, binary WAL, scripted kills."""

    name = "durable_cluster"
    streams_per_run = 12
    procs = 2
    salt = 1  # splits the three standard rules across both workers
    # Kill points, as shares of a shard's entries.  They stay clear of
    # the first and last quarter of the stream, so the respawned (cold)
    # workers do not skew cost_growth.
    kills = (0.35, 0.5, 0.65)

    def __init__(self, seed: int, workdir: str, events: int = 1200) -> None:
        super().__init__(seed, workdir)
        self.size = events
        self.state_root = os.path.join(workdir, STATE_DIR)

    def prepare(self) -> None:
        os.makedirs(self.state_root, exist_ok=True)
        self.config = ServeConfig(
            procs=self.procs,
            salt=self.salt,
            timer_ratio=TimeModel.example_5_1().ratio,
            codec="binary",
            checkpoint_every=64,
            state_dir=self.state_root,
        )
        probe_dir = tempfile.mkdtemp(prefix="probe", dir=self.state_root)
        try:
            probe = ClusterSupervisor(config=replace(self.config, state_dir=probe_dir))
            self.rules = dict(STANDARD_RULES)
            self.register(probe)
            self.router = probe.router
            asyncio.run(probe.stop())
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        super().prepare()

    def build(self, seed: int) -> Stream:
        stream = Stream(ServingWorkload.standard(seed, events=self.size))
        # WAL seq n of shard k is the n-th event routed to k (each pass
        # starts a fresh WAL and logs no advance before the end).
        granule_of_seq: dict[int, list[int]] = {k: [] for k in range(self.procs)}
        for index, batch in enumerate(stream.batches):
            for event in batch:
                for shard in self.router.route(event.event_type):
                    granule_of_seq[shard].append(index)
        kills, granules = [], set()
        for n, share in enumerate(self.kills):
            shard = n % self.procs
            seq = max(1, int(len(granule_of_seq[shard]) * share))
            kills.append((shard, seq))
            granules.add(granule_of_seq[shard][seq - 1])
        stream.plan = FaultPlan(kills=tuple(kills))
        stream.fault_granules = frozenset(granules)
        return stream

    def run_pass(self, index: int, tracer=None, probe_layers=None) -> PassResult:
        """A pass with the supervisor and its workers on one CPU.

        The calibration kernel runs in this process; pinned together,
        every process of the cluster runs on the CPU whose speed it
        samples (a worker on another CPU sees another host state).
        """
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            return super().run_pass(index, tracer, probe_layers)
        finally:
            os.sched_setaffinity(0, cpus)

    def reference(self, stream: Stream) -> Counter:
        """The fault-free in-process ``serve_events`` multiset."""
        serving = stream.serving
        runtime = serve_events(
            serving.rules,
            serving.events,
            config=ServeConfig(shards=1, timer_ratio=serving.timer_ratio),
            context=Context.RECENT,
            horizon=serving.horizon(),
        )
        return detection_rows(runtime.detections())

    def register(self, supervisor: ClusterSupervisor) -> None:
        for name, expression in self.rules.items():
            supervisor.register(expression, name=name, context=Context.RECENT)

    def setup_seconds(self, passes: list[PassResult]) -> float:
        """Median calibrated construct-register-start time over passes."""
        return statistics.median(p.setup for p in passes)

    def recovery_seconds(self, passes: list[PassResult]) -> float:
        """Median calibrated service time of the granules a kill hit."""
        return statistics.median(
            duration
            for p in passes
            for index, duration in enumerate(p.durations)
            if index in p.fault_granules
        )

    async def serve_stream(
        self, stream, tracer, probe_layers
    ) -> tuple[PassResult, Counter]:
        state_dir = tempfile.mkdtemp(prefix="pass", dir=self.state_root)
        saved: list[dict[str, Any]] = []
        original_save = CheckpointStore.save

        def save(store, state, **kwargs):
            saved.append(state)
            return original_save(store, state, **kwargs)

        CheckpointStore.save = save
        supervisor = None
        try:
            setup = calib.Calibrator()
            started = time.perf_counter()
            supervisor = ClusterSupervisor(
                config=replace(self.config, state_dir=state_dir),
                fault_plan=stream.plan,
            )
            self.register(supervisor)
            await supervisor.start()
            setup.record(time.perf_counter() - started)
            setup.mark()
            batches, ingest, drain = stream.batches, supervisor.ingest, supervisor.drain

            async def serve(index: int) -> bool:
                signals = []
                for event in batches[index]:
                    signals.extend(await ingest(event))
                signals.extend(await drain())
                return not signals

            result = await self.granule_loop(stream, serve, tracer=tracer)
            result.setup = setup.calibrated()[0]
            await drain(stream.serving.horizon())
            observed = Counter(
                row_key(row)
                for name in self.rules
                for row in supervisor.detection_rows(name)
            )
            await supervisor.stop()
            result.extra = {
                "replayed": supervisor.replayed,
                "duplicates": supervisor.ledger.duplicates,
                "accepted": supervisor.ledger.accepted,
                "checkpoints": supervisor.checkpoints,
                "checkpoint_bytes": sum(
                    os.path.getsize(os.path.join(state_dir, name))
                    for name in os.listdir(state_dir)
                    if ".ckpt" in name
                ),
            }
            supervisor = None
        finally:
            CheckpointStore.save = original_save
            if supervisor is not None:
                await supervisor.stop()
            shutil.rmtree(state_dir, ignore_errors=True)
        result.retained_peak, result.extra["retained_kinds"] = self.retained_from(saved)
        return result, observed

    def retained_from(self, states: list[dict[str, Any]]) -> tuple[int, dict[str, int]]:
        """Peak cluster-wide buffered occurrences over the checkpoints,
        in total and per operator kind.

        The detectors live in the worker processes, so their state is
        read from the checkpoints they shipped: each snapshot is
        restored into a fresh replica and inspected.
        """
        latest: dict[int, dict[str, int]] = {}
        peak, kinds = 0, Counter()
        for state in states:
            index = int(state["index"])
            replica = ShardReplica(index, timer_ratio=self.config.timer_ratio)
            for name in self.router.rules_of(index):
                replica.register(self.rules[name], name, Context.RECENT)
            replica.restore(state)
            latest[index] = buffered_by_kind(replica.detector)
            total = Counter()
            for per_kind in latest.values():
                total.update(per_kind)
            peak = max(peak, sum(total.values()))
            for kind, count in total.items():
                kinds[kind] = max(kinds[kind], count)
        return peak, dict(kinds)


WORKLOADS = {
    cls.name: cls for cls in (ChronicleLong, WireFanout, DurableCluster)
}
