"""Spans around every layer boundary, recorded from outside the program.

Nothing under ``src/`` carries instrumentation.  :func:`install_server`
(in the server child) and :func:`install_client` (in the load generator)
replace public functions, methods and per-policy-instance methods with
wrappers that record one span per call: name, start and end in
``CLOCK_MONOTONIC`` ns (comparable across the two processes), parent
span, thread, and the request the call served.

Spans of one request share a trace id: ``[route key, seq]`` for observe
blocks (set when the block enters the ingest queue, and carried by the
consumer thread from ``IngestQueue.get`` into ``Monitor.observe_batch``
and the policy calls below it) and ``["q", n]`` for every other request.
Spans stay in memory and are written as JSONL by :meth:`Tracer.dump`.

:func:`layer_metrics` turns spans into the per-layer metrics, using self
time: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from bench.stats import mean, percentile

# Span record layout (a list, filled in place while the call runs).
_ID, _NAME, _START, _END, _PARENT, _THREAD, _CTX, _ATTRS = range(8)

#: Span names that read the monitor or the store on behalf of a query.
READ_SPANS = ("monitor.snapshot", "monitor.group_by", "store.query_range")

#: Policy methods wrapped on every policy instance the program builds.
POLICY_METHODS = {
    "accumulate_batch": "sketch.accumulate",
    "seal_subwindow": "sketch.seal",
    "expire_subwindow": "sketch.expire",
    "query": "sketch.query",
    "to_state": "serde.to_state",
}


def route_key(route) -> str:
    """The reorder identity of a queued block's route (metric or series key)."""
    return route if isinstance(route, str) else route[2]


class _CountingReader:
    """Counts the bytes ``recv_message`` pulls from a buffered socket."""

    __slots__ = ("stream", "count")

    def __init__(self, stream) -> None:
        self.stream = stream
        self.count = 0

    def readline(self, limit: int = -1) -> bytes:
        line = self.stream.readline(limit)
        self.count += len(line)
        return line

    def read(self, n: int = -1) -> bytes:
        data = self.stream.read(n)
        self.count += len(data)
        return data


class Tracer:
    """An in-memory span recorder plus the patches that feed it.

    ``enabled`` may be flipped at run time; a disabled wrapper calls
    straight through.  A request context is a two-element list
    ``[trace id, request number]`` shared by every span of the request.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._queries = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: id(values array) of a dequeued block -> that block's context,
        #: so a block applied after parking keeps its own trace id.
        self._block_ctx: Dict[int, list] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.ctx = None
            local.name = threading.current_thread().name
        return local

    def new_context(self, trace=None) -> list:
        return [trace, next(self._requests)]

    def begin(self, name: str) -> list:
        local = self._thread()
        stack = local.stack
        record = [next(self._ids), name, 0, 0, stack[-1][_ID] if stack else 0,
                  local.name, local.ctx, None]
        stack.append(record)
        self.spans.append(record)
        record[_START] = time.monotonic_ns()
        return record

    def end(self, record: list) -> None:
        record[_END] = time.monotonic_ns()
        self._local.stack.pop()

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``attrs(args, result)``
        may return a dict stored with the span."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(record)
            if attrs is not None:
                record[_ATTRS] = attrs(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _tag_request(self, request) -> None:
        """Non-observe requests get the next query trace id."""
        ctx = self._thread().ctx
        if ctx is not None and isinstance(request, dict) and request.get("op") != "observe":
            ctx[0] = ["q", next(self._queries)]

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_policy(self, policy):
        """Wrap one policy instance's lifecycle methods (QLOVE binds
        ``accumulate_batch`` per instance, so the class cannot be patched)."""
        for method, span in POLICY_METHODS.items():
            attrs = _events_attr if method == "accumulate_batch" else None
            setattr(policy, method, self.wrap(span, getattr(policy, method), attrs))
        return policy

    def _recv(self, fn: Callable, json_wire: bool) -> Callable:
        """A connection's frame read: the idle wait for the first byte is
        its own span, so ``wire.recv`` is the cost of reading the frame."""
        tracer = self

        def traced(stream):
            if not tracer.enabled:
                return fn(stream)
            local = tracer._thread()
            local.ctx = None
            idle = tracer.begin("wire.idle")
            try:
                stream.peek(1)
            except (OSError, ValueError):
                pass  # the real read reports the failure
            finally:
                tracer.end(idle)
            local.ctx = tracer.new_context()
            record = tracer.begin("wire.recv")
            source = _CountingReader(stream) if json_wire else stream
            try:
                result = fn(source)
            finally:
                tracer.end(record)
            if json_wire:
                record[_ATTRS] = {"bytes": source.count}
                tracer._tag_request(result)
            else:
                record[_ATTRS] = {"bytes": 8 + len(result[1]) if result else 0}
            return result

        return traced

    def _put(self, fn: Callable) -> Callable:
        tracer = self

        def put(queue, block, timeout=None):
            if not tracer.enabled:
                return fn(queue, block, timeout)
            ctx = tracer._thread().ctx
            if ctx is not None:
                ctx[0] = [route_key(block[0]), block[1]]
            record = tracer.begin("queue.put")
            try:
                accepted = fn(queue, block, timeout)
            finally:
                tracer.end(record)
            record[_ATTRS] = {"depth": queue.qsize(), "accepted": bool(accepted)}
            return accepted

        return put

    def _get(self, fn: Callable) -> Callable:
        tracer = self

        def get(queue, timeout=None):
            if not tracer.enabled:
                return fn(queue, timeout)
            local = tracer._thread()
            local.ctx = None
            record = tracer.begin("queue.get")
            try:
                block = fn(queue, timeout)
            finally:
                tracer.end(record)
            if block is not None:
                ctx = tracer.new_context([route_key(block[0]), block[1]])
                record[_CTX] = local.ctx = ctx
                tracer._block_ctx[id(block[2])] = ctx
            return block

        return get

    def _observe_batch(self, fn: Callable) -> Callable:
        tracer = self

        def observe_batch(monitor, name, values, labels=None):
            if not tracer.enabled:
                return fn(monitor, name, values, labels)
            ctx = tracer._block_ctx.pop(id(values), None)
            if ctx is not None:
                tracer._thread().ctx = ctx
            record = tracer.begin("monitor.observe_batch")
            try:
                return fn(monitor, name, values, labels)
            finally:
                tracer.end(record)
                record[_ATTRS] = {"events": len(values)}

        return observe_batch

    def _client_observe(self, fn: Callable) -> Callable:
        from repro.series.labels import canonical_labelset, series_key

        tracer = self

        def observe(client, metric, values, seq=None, labels=None):
            if not tracer.enabled:
                return fn(client, metric, values, seq, labels)
            key = metric
            if labels is not None:
                key = series_key(metric, canonical_labelset(labels, sorted(labels), metric))
            tracer._thread().ctx = tracer.new_context([key, seq])
            record = tracer.begin("client.observe")
            try:
                return fn(client, metric, values, seq, labels)
            finally:
                tracer.end(record)

        return observe

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def records(self) -> Iterable[dict]:
        for span in list(self.spans):
            if not span[_END]:
                continue  # still open at dump time
            ctx = span[_CTX]
            record = {
                "id": span[_ID],
                "name": span[_NAME],
                "start": span[_START],
                "end": span[_END],
                "parent": span[_PARENT],
                "thread": span[_THREAD],
                "trace": ctx[0] if ctx else None,
                "req": ctx[1] if ctx else 0,
            }
            if span[_ATTRS]:
                record.update(span[_ATTRS])
            yield record

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _events_attr(args, _result) -> dict:
    return {"events": len(args[0])}


def _ok_attr(args, _result) -> dict:
    return {"ok": bool(args[0].get("ok", False))}


def install_server(tracer: Tracer) -> None:
    """Wrap the server process's layer boundaries (call before building)."""
    from repro.series import groupby
    from repro.series.index import SeriesIndex
    from repro.service import binary, protocol
    from repro.service import server as server_module
    from repro.service.monitor import Monitor
    from repro.service.server import IngestQueue
    from repro.service.spec import MetricSpec
    from repro.sketches import registry
    from repro.store import query as store_query
    from repro.store.store import SegmentStore

    def segments_attr(_args, result) -> dict:
        return {"segments": int(result.get("segments_merged", 0))}

    def tag_decoded(fn):
        def decode(opcode, payload):
            request = fn(opcode, payload)
            if tracer.enabled:
                tracer._tag_request(request)
            return request

        return decode

    # The JSON wire decodes inside recv_message through the protocol
    # module's ``json``; a stand-in module times only its ``loads``.
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(json.__dict__)
    json_proxy.loads = tracer.wrap("wire.decode", json.loads)
    tracer.patch(protocol, "json", json_proxy)
    tracer.patch(protocol, "encode_message", tracer.wrap("wire.encode", protocol.encode_message, _ok_attr))
    tracer.patch(server_module, "recv_message", tracer._recv(server_module.recv_message, json_wire=True))
    tracer.patch(server_module, "send_message", tracer.wrap("wire.send", server_module.send_message))
    tracer.patch(binary, "recv_frame", tracer._recv(binary.recv_frame, json_wire=False))
    tracer.patch(binary, "decode_request", tag_decoded(tracer.wrap("wire.decode", binary.decode_request)))
    tracer.patch(binary, "encode_response", tracer.wrap("wire.encode", binary.encode_response, _ok_attr))
    tracer.patch(IngestQueue, "put", tracer._put(IngestQueue.put))
    tracer.patch(IngestQueue, "get", tracer._get(IngestQueue.get))
    tracer.patch(Monitor, "observe_batch", tracer._observe_batch(Monitor.observe_batch))
    for method in ("snapshot", "group_by", "save"):
        tracer.patch(Monitor, method, tracer.wrap(f"monitor.{method}", getattr(Monitor, method)))
    tracer.patch(SeriesIndex, "observe_batch", tracer.wrap("series.observe_batch", SeriesIndex.observe_batch))
    tracer.patch(SegmentStore, "append", tracer.wrap("store.append", SegmentStore.append))
    tracer.patch(store_query, "query_range", tracer.wrap("store.query_range", store_query.query_range, segments_attr))

    build_policy = MetricSpec.build_policy
    tracer.patch(MetricSpec, "build_policy", lambda spec: tracer.wrap_policy(build_policy(spec)))
    from_state = registry.policy_from_state
    traced_from_state = tracer.wrap("serde.from_state", from_state)

    def policy_from_state(state):
        return tracer.wrap_policy(traced_from_state(state))

    for module in (registry, store_query, groupby):
        tracer.patch(module, "policy_from_state", policy_from_state)


def install_client(tracer: Tracer) -> None:
    """Wrap the load generator's client calls and request encoders."""
    from repro.service import binary, protocol
    from repro.service.client import TelemetryClient

    tracer.patch(TelemetryClient, "observe", tracer._client_observe(TelemetryClient.observe))
    tracer.patch(protocol, "encode_message", tracer.wrap("client.encode", protocol.encode_message))
    tracer.patch(binary, "encode_request", tracer.wrap("client.encode", binary.encode_request))


def load(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def duration(span: dict) -> int:
    return span["end"] - span["start"]


def self_times(spans: Sequence[dict]) -> Dict[int, int]:
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread inside its interval, one after
    another, so their covered time is the sum of their durations.
    """
    own = {span["id"]: duration(span) for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent in own:
            own[parent] -= duration(span)
    return own


def unattributed_fraction(spans: Sequence[dict], threads: Iterable[str]) -> float:
    """Share of the named threads' traced time outside any top-level span."""
    total = covered = 0
    for thread in threads:
        tops = [s for s in spans if s["thread"] == thread and s["parent"] == 0]
        if not tops:
            continue
        total += max(s["end"] for s in tops) - min(s["start"] for s in tops)
        covered += sum(duration(s) for s in tops)
    return (total - covered) / total if total else 0.0


def parked_max(gets: Sequence[dict], applies: Sequence[dict]) -> int:
    """Most blocks dequeued but not yet applied, sampled at each dequeue.

    The consumer has finished with earlier blocks when it asks for the
    next one, so anything dequeued and not yet applied is parked behind
    a sequence gap.
    """
    applied_at: Dict[tuple, int] = {}
    for span in applies:
        if span["trace"] is not None:
            applied_at.setdefault(tuple(span["trace"]), span["start"])
    changes: List[Tuple[int, int]] = []
    for span in gets:
        if span["trace"] is not None:
            changes.append((span["end"], 1))
            applied = applied_at.get(tuple(span["trace"]))
            if applied is not None:
                changes.append((applied, -1))
    changes.sort()
    worst = level = position = 0
    for now in sorted(span["start"] for span in gets):
        while position < len(changes) and changes[position][0] <= now:
            level += changes[position][1]
            position += 1
        worst = max(worst, level)
    return worst


def queue_waits(puts: Sequence[dict], gets: Sequence[dict]) -> List[int]:
    """Per block: dequeue end minus enqueue end (ns), paired on trace id."""
    put_end = {tuple(s["trace"]): s["end"] for s in puts if s["trace"] is not None}
    waits = []
    for span in gets:
        if span["trace"] is not None and tuple(span["trace"]) in put_end:
            waits.append(max(0, span["end"] - put_end[tuple(span["trace"])]))
    return waits


def request_gaps(spans: Sequence[dict]) -> Tuple[List[int], List[int]]:
    """Per request on a connection thread: ``(handle, drain wait)`` in ns.

    Handle time runs from the end of the frame read/decode to the start
    of the response encode; drain wait from the same point to the first
    monitor/store read of a query request.
    """
    by_request: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["req"] and span["name"] != "wire.idle":
            by_request[span["req"]].append(span)
    handles, drains = [], []
    for members in by_request.values():
        decoded = [s["end"] for s in members if s["name"] in ("wire.recv", "wire.decode")]
        encodes = [s["start"] for s in members if s["name"] == "wire.encode"]
        if not decoded or not encodes:
            continue
        ready = max(decoded)
        handles.append(max(0, min(encodes) - ready))
        trace = members[0]["trace"]
        reads = [s["start"] for s in members if s["name"] in READ_SPANS]
        if trace is not None and trace[0] == "q" and reads:
            drains.append(max(0, min(reads) - ready))
    return handles, drains


def layer_metrics(
    server: Sequence[dict],
    client: Sequence[dict],
    start_ns: int,
    end_ns: int,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of spans that started in ``[start_ns, end_ns)``.

    ``extras`` supplies what spans cannot: server counters from the
    ``stats`` op, file sizes, the offline replay and load-generator
    numbers, keyed by their final metric names.
    """
    own = self_times(server)
    server = [s for s in server if start_ns <= s["start"] < end_ns]
    client = [s for s in client if start_ns <= s["start"] < end_ns]
    named: Dict[str, List[dict]] = defaultdict(list)
    for span in server:
        named[span["name"]].append(span)

    def durations(name: str, scale: float) -> List[float]:
        return [duration(s) / scale for s in named[name]]

    def self_sum(spans: Iterable[dict]) -> int:
        return sum(own[s["id"]] for s in spans)

    window = end_ns - start_ns

    def share(name: str) -> float:
        # Self time of a path only some workloads take, over the window's
        # wall time: a per-call time would read 0 on every run of the others.
        return self_sum(named[name]) / window

    frames = sum(1 for s in named["wire.recv"] if s.get("bytes"))
    per_frame = max(frames, 1)
    consumer = {s["thread"] for s in named["queue.get"]}
    idle = sum(duration(s) for s in named["queue.get"])
    busy = max(window * len(consumer) - idle, 1)
    sketch_self = self_sum(
        s for s in server if s["thread"] in consumer and s["name"].startswith("sketch.")
    )
    handles, drains = request_gaps([s for s in server if s["thread"] not in consumer])
    waits = queue_waits(named["queue.put"], named["queue.get"])
    accumulate_events = sum(s.get("events", 0) for s in named["sketch.accumulate"])
    client_observes = {s["id"] for s in client if s["name"] == "client.observe"}
    client_encodes = [
        duration(s) / 1e3 for s in client
        if s["name"] == "client.encode" and s["parent"] in client_observes
    ]
    conn_threads = {s["thread"] for s in server if s["name"].startswith("wire.")}

    metrics = {
        "loadgen.encode_us_per_frame": mean(client_encodes),
        "service.wire.frames": float(frames),
        "service.wire.bytes_in": float(sum(s.get("bytes", 0) for s in named["wire.recv"])),
        "service.wire.recv_us_per_frame": self_sum(named["wire.recv"]) / per_frame / 1e3,
        "service.wire.decode_us_per_frame": sum(durations("wire.decode", 1e3)) / per_frame,
        "service.wire.encode_us_per_frame": mean(durations("wire.encode", 1e3)),
        "service.server.queue_put_wait_us_p99": percentile(durations("queue.put", 1e3), 0.99),
        "service.server.queue_wait_us_p50": percentile([w / 1e3 for w in waits], 0.5),
        "service.server.queue_wait_us_p99": percentile([w / 1e3 for w in waits], 0.99),
        "service.server.queue_depth_max": float(max((s.get("depth", 0) for s in named["queue.put"]), default=0)),
        "service.server.consumer_busy_frac": busy / (window * max(len(consumer), 1)),
        "service.server.handle_us_p90": percentile([h / 1e3 for h in handles], 0.9),
        "service.server.drain_wait_us_p90": percentile([d / 1e3 for d in drains], 0.9),
        "service.server.parked_blocks_max": float(parked_max(named["queue.get"], named["monitor.observe_batch"])),
        "service.server.error_responses": float(sum(1 for s in named["wire.encode"] if not s.get("ok", True))),
        "service.monitor.observe_batch_calls": float(len(named["monitor.observe_batch"])),
        "service.monitor.observe_batch_self_us": mean([own[s["id"]] / 1e3 for s in named["monitor.observe_batch"]]),
        "service.monitor.read_us_p90": percentile(
            [duration(s) / 1e3 for name in READ_SPANS for s in named[name]], 0.9
        ),
        "service.monitor.save_share": share("monitor.save"),
        "sketches.accumulate_ns_per_event": sum(durations("sketch.accumulate", 1)) / max(accumulate_events, 1),
        "sketches.seal_us": mean(durations("sketch.seal", 1e3)),
        "sketches.expire_us": mean(durations("sketch.expire", 1e3)),
        "sketches.query_us": mean(durations("sketch.query", 1e3)),
        "sketches.boundary_calls": float(sum(len(named[n]) for n in ("sketch.seal", "sketch.expire", "sketch.query"))),
        "sketches.consumer_share": sketch_self / busy,
        "serde.to_state_share": share("serde.to_state"),
        "serde.to_state_calls": float(len(named["serde.to_state"])),
        "serde.from_state_share": share("serde.from_state"),
        "serde.from_state_calls": float(len(named["serde.from_state"])),
        "series.route_share": share("series.observe_batch"),
        "store.appends": float(len(named["store.append"])),
        "store.append_share": share("store.append"),
        "store.query_range_share": share("store.query_range"),
        "store.segments_per_query": mean([s.get("segments", 0) for s in named["store.query_range"]]),
        "trace.spans": float(len(server) + len(client)),
        "trace.unattributed_frac": unattributed_fraction(server, conn_threads | consumer),
    }
    metrics.update(extras)
    return metrics
