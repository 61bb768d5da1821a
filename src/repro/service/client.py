"""Clients for the telemetry serving protocol.

Two layers:

- :class:`TelemetryClient` — one connection, synchronous
  request/response.  It speaks the newline-delimited JSON protocol by
  default and can negotiate the length-prefixed binary framing
  (``protocol="binary"`` or an explicit :meth:`~TelemetryClient.hello`),
  after which observe blocks travel as raw float64 payloads.  Every
  call returns the decoded payload or raises :class:`ServerError` with
  the server's one-line error.
- :class:`LoadGenerator` — a deterministic, seeded, multi-connection
  driver: it generates a registered workload (the exact array
  ``workloads.get_dataset`` yields for the same seed), slices it into
  fixed blocks, and fans block *i* to connection ``i % connections``
  with a global per-metric sequence number.  The partitioning is a pure
  function of ``(dataset, events, seed, block_size)`` — **not** of the
  connection count — so the event sequence is byte-identical across
  runs and across connection counts, and the server's seq-reordering
  consumer applies the exact offline stream order.  Served snapshots
  are therefore bit-identical to an offline Monitor run.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.service import binary
from repro.service.protocol import ConnectionClosed, recv_message, send_message
from repro.streaming.result import WindowResult

#: Wire protocols a :class:`TelemetryClient` can speak.
CLIENT_PROTOCOLS = ("json", "binary")


class ServerError(RuntimeError):
    """The server answered ``ok: false``; the message is its error line."""


class TelemetryClient:
    """One synchronous connection to a :class:`TelemetryServer`.

    Usable as a context manager; every request method blocks until the
    server's response arrives (which is how ingest backpressure reaches
    the sender: a full ``"block"``-mode queue withholds the ack).

    ``protocol="binary"`` negotiates the length-prefixed binary framing
    at connect time (a ``hello`` handshake); the default keeps the
    human-readable JSON wire.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 60.0,
        protocol: str = "json",
    ) -> None:
        if protocol not in CLIENT_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; choose from {CLIENT_PROTOCOLS}"
            )
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._sock.makefile("rb")
        self._protocol = "json"
        if protocol == "binary":
            try:
                self.hello("binary")
            except BaseException:
                self.close()
                raise

    @property
    def protocol(self) -> str:
        """The connection's negotiated wire protocol."""
        return self._protocol

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request(self, message: dict) -> dict:
        """Send one request and return the decoded success payload."""
        if self._protocol == "json":
            send_message(self._sock, message)
            response = recv_message(self._stream)
        else:
            self._sock.sendall(binary.encode_request(message))
            frame = binary.recv_frame(self._stream)
            response = None if frame is None else binary.decode_response(*frame)
        if response is None:
            raise ConnectionClosed(
                "server closed the connection before responding"
            )
        if not response.get("ok"):
            raise ServerError(response.get("error", "unspecified server error"))
        return response

    def hello(self, protocol: str, version: int = binary.BINARY_VERSION) -> dict:
        """Negotiate the connection's wire protocol.

        The request (and its response) travel on the current framing;
        on success every subsequent frame uses the negotiated one.  A
        rejected negotiation raises :class:`ServerError` and leaves the
        connection's protocol unchanged.
        """
        response = self.request(
            {"op": "hello", "protocol": protocol, "version": version}
        )
        self._protocol = protocol
        return response

    def close(self) -> None:
        try:
            self._stream.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "TelemetryClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ingest + control ops
    # ------------------------------------------------------------------
    def ping(self) -> List[str]:
        """Liveness probe; returns the server's registered metric names."""
        return list(self.request({"op": "ping"})["metrics"])

    def ping_info(self) -> dict:
        """The full ping payload: ``metrics`` plus ``labels`` (the label
        schema of every labeled metric, ``{name: [label, ...]}``)."""
        response = self.request({"op": "ping"})
        return {
            "metrics": list(response["metrics"]),
            "labels": {
                name: list(schema)
                for name, schema in response.get("labels", {}).items()
            },
        }

    def observe(
        self,
        metric: str,
        values: Sequence[float],
        seq: Optional[int] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> dict:
        """Send one block; returns the ack (``accepted`` may be False
        when the server sheds under overload).

        A plain list passes through unconverted, so senders fanning one
        block to several metrics can ``tolist()`` once and reuse it.
        On the binary protocol arrays are never listified — they ship as
        raw float64 bytes.  ``labels`` routes the block to one series of
        a labeled metric (required for those; the ``seq`` space is then
        per-series).
        """
        if self._protocol == "binary" or isinstance(values, list):
            payload = values
        else:
            payload = np.asarray(values, dtype=np.float64).tolist()
        message = {"op": "observe", "metric": metric, "values": payload}
        if seq is not None:
            message["seq"] = int(seq)
        if labels is not None:
            message["labels"] = dict(labels)
        return self.request(message)

    def flush(self) -> dict:
        """Wait (server-side) until every acked block is applied."""
        return self.request({"op": "flush"})

    def snapshot(self) -> Dict[str, object]:
        """Latest per-metric estimates, exactly as ``Monitor.snapshot``.

        Labeled metrics come back nested (``{series_key: {phi: estimate}
        | None}``), mirroring the monitor's shape.
        """
        response = self.request({"op": "snapshot"})
        labeled = set(response.get("labeled", []))

        def native(estimates):
            if estimates is None:
                return None
            return {float(phi): value for phi, value in estimates.items()}

        return {
            name: (
                {key: native(latest) for key, latest in entry.items()}
                if name in labeled
                else native(entry)
            )
            for name, entry in response["snapshot"].items()
        }

    def group_by(
        self,
        metric: str,
        by: Sequence[str],
        quantiles: Optional[Sequence[float]] = None,
    ) -> dict:
        """A live group-by over a labeled metric's current window.

        Returns the same result dict
        :func:`repro.series.groupby.group_by_live` produces locally, so
        server and CLI answers render to identical bytes.
        """
        message: dict = {
            "op": "group_by",
            "metric": metric,
            "by": by if isinstance(by, str) else list(by),
        }
        if quantiles is not None:
            message["quantiles"] = [float(phi) for phi in quantiles]
        return self.request(message)["result"]

    def results(
        self, metric: str, labels: Optional[Dict[str, str]] = None
    ) -> List[WindowResult]:
        """Every emitted evaluation, as ``Monitor.results`` returns them.

        For labeled metrics, ``labels`` picks the series to read.
        """
        message: dict = {"op": "results", "metric": metric}
        if labels is not None:
            message["labels"] = dict(labels)
        raw = self.request(message)["results"]
        return [
            WindowResult(
                index=entry["index"],
                window_count=entry["window_count"],
                end=entry["end"],
                result={
                    float(phi): value for phi, value in entry["result"].items()
                },
            )
            for entry in raw
        ]

    def stats(self) -> dict:
        """Server accounting: per-metric reports, queue, pipeline, checkpoint."""
        return self.request({"op": "stats"})

    def seen(self) -> Dict[str, int]:
        """Per-metric ingested-element counts (the resume offsets)."""
        stats = self.request({"op": "stats"})
        return {
            name: int(report["seen"]) for name, report in stats["metrics"].items()
        }

    def checkpoint(self) -> dict:
        """Force a drain + checkpoint save now."""
        return self.request({"op": "checkpoint"})

    def pull_state(self) -> dict:
        """The server monitor's full serialized state (drained first).

        ``Monitor.from_state`` rebuilds an identical monitor from it; on
        the binary protocol the state arrives as one opaque ``OP_STATE``
        frame instead of inline JSON.
        """
        return self.request({"op": "state"})["state"]

    def push_merge(self, state: dict) -> dict:
        """Ship a serialized monitor state for the server to fold in.

        The push side of checkpoint shipping: merging per-shard monitors
        at period boundaries reproduces the unsplit stream bit-for-bit.
        """
        return self.request({"op": "merge", "state": state})

    def history(
        self,
        metric: str,
        *,
        at: Optional[int] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
        step: Optional[int] = None,
        quantiles: Optional[Sequence[float]] = None,
    ) -> dict:
        """A historical quantile query over the server's segment store.

        Pass either ``at`` (one period) or ``start``+``end`` (a period
        range, optionally bucketed by ``step``).  Returns the same result
        dict :func:`repro.store.query.query_range` (or ``query_at`` /
        ``query_series``) produces locally, so server and CLI answers
        render to identical bytes.
        """
        message: dict = {"op": "history", "metric": metric}
        if at is not None:
            message["at"] = int(at)
        if start is not None:
            message["start"] = int(start)
        if end is not None:
            message["end"] = int(end)
        if step is not None:
            message["step"] = int(step)
        if quantiles is not None:
            message["quantiles"] = [float(phi) for phi in quantiles]
        return self.request(message)["result"]

    def shutdown(self) -> dict:
        """Ask the server to stop (it drains and saves before exiting)."""
        return self.request({"op": "shutdown"})


def wait_for_server(
    host: str, port: int, timeout: float = 15.0, interval: float = 0.1
) -> TelemetryClient:
    """Poll until a server answers ``ping`` on ``host:port``.

    Returns a connected client; raises ``ConnectionError`` after
    ``timeout`` seconds with the last underlying failure.
    """
    deadline = time.monotonic() + timeout
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        client = None
        try:
            client = TelemetryClient(host, port, timeout=timeout)
            client.ping()
            return client
        except (OSError, ServerError) as exc:
            if client is not None:  # connected but ping failed: no fd leak
                client.close()
            last = exc
            time.sleep(interval)
    raise ConnectionError(
        f"no telemetry server answered on {host}:{port} within {timeout:.0f}s "
        f"(last error: {last})"
    )


@dataclass(frozen=True)
class BlockAssignment:
    """One planned send: dataset slice ``[start, stop)`` as block ``seq``
    of every metric, carried by connection ``connection``."""

    seq: int
    start: int
    stop: int
    connection: int


class LoadGenerator:
    """Deterministic multi-connection load for a telemetry server.

    Parameters
    ----------
    host, port:
        The server to drive.
    dataset, events, seed:
        The workload (any :func:`~repro.workloads.registry.get_dataset`
        name); the generated array is identical to the offline CLI's for
        the same arguments.
    connections:
        Concurrent sender connections.  Changing this re-routes blocks
        but never changes the event sequence, the block boundaries, or
        the per-metric sequence numbers — reproducibility is structural.
    block_size:
        Events per ``observe`` message.  Matches the offline monitor
        CLI's ``--chunk-size`` for bit-identical comparisons.
    metrics:
        Metric names to fan the stream into; ``None`` asks the server
        (every registered metric, the offline CLI's fan-out).
    series, label_fanout:
        The labeled-metric discipline: event ``i`` of the stream belongs
        to series ``i % series``, whose labelset is
        :func:`~repro.series.labels.deterministic_labelsets` entry ``i %
        series`` (first schema label cycling through ``label_fanout``
        values).  A pure function of ``(dataset, events, seed)`` — the
        connection count and block size never change which event lands
        in which series, so served labeled runs replay offline
        byte-identically.
    protocol:
        The wire protocol the sender connections speak: ``"json"``
        (default), ``"binary"``, or ``"mixed"`` — connection ``i`` uses
        JSON when ``i`` is even and binary when odd, exercising a fleet
        of heterogeneous clients against one server.  Like the
        connection count, the protocol never changes the event
        sequence, block boundaries, or sequence numbers.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        dataset: str = "netmon",
        events: int = 200_000,
        seed: int = 0,
        connections: int = 1,
        block_size: int = 65_536,
        metrics: Optional[Sequence[str]] = None,
        series: int = 8,
        label_fanout: int = 4,
        protocol: str = "json",
    ) -> None:
        if protocol not in (*CLIENT_PROTOCOLS, "mixed"):
            raise ValueError(
                f"unknown protocol {protocol!r}; choose from "
                f"{(*CLIENT_PROTOCOLS, 'mixed')}"
            )
        if connections < 1:
            raise ValueError(f"connections must be >= 1, got {connections}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if events < 0:
            raise ValueError(f"events must be >= 0, got {events}")
        if series < 1:
            raise ValueError(f"series must be >= 1, got {series}")
        if label_fanout < 1:
            raise ValueError(f"label_fanout must be >= 1, got {label_fanout}")
        self.host = host
        self.port = port
        self.dataset = dataset
        self.events = events
        self.seed = seed
        self.connections = connections
        self.block_size = block_size
        self.series = series
        self.label_fanout = label_fanout
        self.protocol = protocol
        self._metrics = list(metrics) if metrics is not None else None

    def connection_protocol(self, index: int) -> str:
        """The wire protocol sender connection ``index`` speaks."""
        if self.protocol == "mixed":
            return "json" if index % 2 == 0 else "binary"
        return self.protocol

    # ------------------------------------------------------------------
    # The deterministic plan
    # ------------------------------------------------------------------
    def event_sequence(self) -> np.ndarray:
        """The full seeded event array — independent of connection count."""
        from repro.workloads.registry import get_dataset

        return get_dataset(self.dataset, self.events, seed=self.seed)

    def plan(self, start_offset: int = 0, stop_after: Optional[int] = None) -> List[BlockAssignment]:
        """Block assignments for the slice ``[start_offset, stop_after)``.

        Blocks are numbered from 0 within the slice and routed
        round-robin (block ``i`` → connection ``i % connections``); each
        carries its seq to the server, whose reorder buffer restores the
        exact global order however the connections interleave.
        """
        stop = self.events if stop_after is None else min(stop_after, self.events)
        if start_offset < 0 or start_offset > stop:
            raise ValueError(
                f"start_offset {start_offset} outside [0, {stop}] "
                f"(events={self.events}, stop_after={stop_after})"
            )
        assignments = []
        for seq, start in enumerate(range(start_offset, stop, self.block_size)):
            assignments.append(
                BlockAssignment(
                    seq=seq,
                    start=start,
                    stop=min(start + self.block_size, stop),
                    connection=seq % self.connections,
                )
            )
        return assignments

    # ------------------------------------------------------------------
    # Driving the server
    # ------------------------------------------------------------------
    def resolve_metrics(self) -> List[str]:
        """The metric fan-out (asks the server when not pinned)."""
        if self._metrics is not None:
            return list(self._metrics)
        with TelemetryClient(self.host, self.port) as client:
            return client.ping()

    def labelsets_for(self, schema: Sequence[str]) -> List[Dict[str, str]]:
        """The deterministic labelsets this generator routes events to —
        entry ``j`` receives every event ``i`` with ``i % series == j``."""
        from repro.series.labels import deterministic_labelsets

        return [
            dict(items)
            for items in deterministic_labelsets(
                schema, self.series, self.label_fanout
            )
        ]

    def _seq_base(self, metrics: Sequence[str]) -> int:
        """Where the server's per-metric seq numbering currently stands.

        The server's seq cursor is per-process and monotonic; a sender
        that numbered a fresh run from 0 against a server that already
        consumed seqs would have every block silently dropped as a
        replay.  Requires the fan-out metrics to agree (they do under
        this generator's uniform discipline).
        """
        with TelemetryClient(self.host, self.port) as client:
            reports = client.stats()["metrics"]
        bases = {name: int(reports[name].get("next_seq", 0)) for name in metrics}
        if len(set(bases.values())) > 1:
            raise ValueError(
                f"metrics disagree on the server's sequence position "
                f"({bases}); this server state was not produced by the "
                "load generator's uniform fan-out"
            )
        return next(iter(bases.values())) if bases else 0

    def run(
        self, start_offset: int = 0, stop_after: Optional[int] = None
    ) -> Dict[str, object]:
        """Stream the planned blocks over ``connections`` sockets.

        Every block goes to every metric (the offline CLI's uniform
        fan-out), tagged with its per-metric seq — continuing from the
        server's current sequence position, so repeated runs against one
        live server keep applying (never replay-dropped).  Returns a
        summary: events/blocks sent, sheds reported by the server,
        elapsed time.
        """
        metrics = self.resolve_metrics()
        if not metrics:
            raise ValueError("server has no registered metrics to feed")
        with TelemetryClient(self.host, self.port) as client:
            schemas = client.ping_info()["labels"]
        labelsets = {
            name: self.labelsets_for(schema)
            for name, schema in schemas.items()
            if name in metrics
        }
        seq_base = self._seq_base(metrics)
        values = self.event_sequence()
        assignments = self.plan(start_offset=start_offset, stop_after=stop_after)
        per_connection: List[List[BlockAssignment]] = [
            [] for _ in range(self.connections)
        ]
        for assignment in assignments:
            per_connection[assignment.connection].append(assignment)

        shed_blocks = [0] * self.connections
        sent_events = [0] * self.connections
        errors: List[Exception] = []
        lock = threading.Lock()
        from repro.series.labels import series_slice

        def sender(index: int, mine: List[BlockAssignment]) -> None:
            try:
                proto = self.connection_protocol(index)
                with TelemetryClient(self.host, self.port, protocol=proto) as client:
                    text_wire = client.protocol == "json"
                    for assignment in mine:
                        block = values[assignment.start : assignment.stop]
                        # JSON serialises once per block; the binary wire
                        # ships the array's bytes without listifying.
                        payload = block.tolist() if text_wire else block
                        for metric in metrics:
                            if metric in labelsets:
                                # Per-series strided sub-blocks, one per
                                # labelset; empty ones still go out so
                                # every series' seq space stays gap-free.
                                for j, labels in enumerate(labelsets[metric]):
                                    sub = series_slice(
                                        block, assignment.start, self.series, j
                                    )
                                    ack = client.observe(
                                        metric,
                                        sub.tolist() if text_wire else sub,
                                        seq=seq_base + assignment.seq,
                                        labels=labels,
                                    )
                                    if not ack.get("accepted", False):
                                        shed_blocks[index] += 1
                                continue
                            ack = client.observe(
                                metric, payload, seq=seq_base + assignment.seq
                            )
                            if not ack.get("accepted", False):
                                shed_blocks[index] += 1
                        sent_events[index] += len(block)
            except Exception as exc:
                with lock:
                    errors.append(exc)

        started = time.perf_counter()
        threads = [
            threading.Thread(target=sender, args=(i, mine), daemon=True)
            for i, mine in enumerate(per_connection)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        with TelemetryClient(self.host, self.port) as client:
            flush = client.flush()
        elapsed = time.perf_counter() - started
        return {
            "metrics": metrics,
            "connections": self.connections,
            "protocol": self.protocol,
            "blocks": len(assignments),
            "events": int(sum(sent_events)),
            "shed_blocks": int(sum(shed_blocks)),
            "drained": bool(flush.get("drained", False)),
            "elapsed": elapsed,
        }

    def resume_offset(self) -> int:
        """The uniform per-metric ``seen`` count on the server.

        This is where a resumed run continues from after a crash
        recovery (the server restarted from its checkpoint).  Raises
        when metrics disagree — such a state was not produced by this
        generator's uniform fan-out.
        """
        with TelemetryClient(self.host, self.port) as client:
            seen = client.seen()
        counts = set(seen.values())
        if len(counts) > 1:
            raise ValueError(
                f"metrics saw different element counts ({seen}); this server "
                "state was not produced by the load generator's uniform "
                "fan-out and cannot be resumed here"
            )
        return counts.pop() if counts else 0


__all__ = [
    "BlockAssignment",
    "LoadGenerator",
    "ServerError",
    "TelemetryClient",
    "wait_for_server",
]
