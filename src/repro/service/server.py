"""``TelemetryServer``: a network front door for the :class:`Monitor`.

The paper's deployment shape — and Chambers et al.'s incremental
collectors — is a long-lived process ingesting telemetry from many
networked components with bounded memory.  This module is that process,
stdlib-only (``socket`` + ``threading``), speaking the newline-delimited
JSON protocol of :mod:`repro.service.protocol`:

- **Ingest**: any number of concurrent connections send ``observe``
  blocks.  Accepted blocks land in a bounded queue
  (:class:`IngestQueue`) with explicit backpressure — ``"block"`` mode
  stalls the producing connection (the ack is withheld, so TCP and the
  request/response discipline throttle the sender), ``"shed"`` mode
  drops the block and says so in the ack.
- **Apply**: one consumer thread drains the queue into
  ``Monitor.observe_batch`` (the PR-1 bulk path).  Blocks may carry a
  per-metric sequence number; the consumer reorders on it, so a
  multi-connection sender that numbers blocks globally reproduces the
  exact offline stream order — the served snapshot is then
  **bit-identical** to an offline monitor fed the same stream.
- **Control**: ``snapshot`` / ``results`` / ``stats`` / ``flush`` /
  ``checkpoint`` / ``shutdown`` answer over the same protocol.  Reads
  first wait for the ingest pipeline to drain (bounded by
  ``flush_timeout``), so a reply reflects every block acked before it.
- **Durability**: a checkpoint thread calls :meth:`Monitor.save` every
  ``checkpoint_interval`` seconds (atomic temp-file replace, PR 4); a
  killed server restarts from the file and the resumed stream's final
  report equals the uninterrupted run's.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.service import binary
from repro.service.monitor import Monitor
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    ConnectionClosed,
    FrameTooLarge,
    ProtocolError,
    error_response,
    ok_response,
    recv_message,
    send_message,
)

logger = logging.getLogger(__name__)

#: Backpressure modes an :class:`IngestQueue` implements.
BACKPRESSURE_MODES = ("block", "shed")

#: Where a block lands: a plain metric name, or — for labeled metrics —
#: ``(metric, labels, series_key)``.  The series key is the reorder
#: cursor's identity, so every series gets its own sequence space.
Route = Union[str, Tuple[str, Mapping[str, str], str]]

#: One queued ingest item: route, optional sequence number, values, and
#: whether this is a shed *marker* — a zero-event placeholder a shedding
#: server enqueues so the consumer can advance past the dropped block's
#: seq instead of parking every later block behind a permanent gap.
Block = Tuple[Route, Optional[int], np.ndarray, bool]


def _route_key(route: Route) -> str:
    """The reorder-buffer identity of a route (the series key when
    labeled; for plain metrics, the metric name)."""
    return route if isinstance(route, str) else route[2]


class IngestQueue:
    """A bounded block queue with explicit, documented backpressure.

    ``capacity`` is counted in blocks (one ``observe`` message each), so
    the server's buffered-but-unapplied memory is bounded by
    ``capacity * max block size`` regardless of how many connections
    push concurrently.

    - ``mode="block"``: :meth:`put` blocks until the consumer frees a
      slot — lossless; the producing connection simply stalls.
    - ``mode="shed"``: :meth:`put` returns ``False`` immediately when
      full — lossy under overload, by declared choice; shed blocks and
      events are counted.
    """

    def __init__(self, capacity: int = 64, mode: str = "block") -> None:
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"queue capacity must be a positive int, got {capacity!r}")
        if mode not in BACKPRESSURE_MODES:
            raise ValueError(
                f"unknown backpressure mode {mode!r}; "
                f"accepted: {list(BACKPRESSURE_MODES)}"
            )
        self.capacity = capacity
        self.mode = mode
        self._queue: "queue.Queue[Optional[Block]]" = queue.Queue(maxsize=capacity)
        self._lock = threading.Lock()
        self.accepted_blocks = 0
        self.accepted_events = 0
        self.shed_blocks = 0
        self.shed_events = 0

    def put(self, block: Block, timeout: Optional[float] = None) -> bool:
        """Enqueue one block; returns whether it was accepted.

        In ``"block"`` mode this waits (up to ``timeout``) for space and
        raises :class:`queue.Full` only on timeout; in ``"shed"`` mode a
        full queue sheds immediately and returns ``False``.
        """
        if self.mode == "shed":
            try:
                self._queue.put_nowait(block)
            except queue.Full:
                with self._lock:
                    self.shed_blocks += 1
                    self.shed_events += len(block[2])
                return False
        else:
            self._queue.put(block, timeout=timeout)
        with self._lock:
            self.accepted_blocks += 1
            self.accepted_events += len(block[2])
        return True

    def get(self, timeout: Optional[float] = None) -> Optional[Block]:
        """Dequeue the next block (None is the consumer-shutdown sentinel)."""
        return self._queue.get(timeout=timeout)

    def put_marker(self, block: Block) -> None:
        """Enqueue a shed marker, bypassing the capacity bound.

        Markers carry no events (a few dozen bytes each), so letting them
        exceed ``capacity`` keeps the memory bound honest while keeping
        the sequence space gap-free under shedding.
        """
        with self._queue.mutex:
            self._queue.queue.append(block)
            self._queue.not_empty.notify()

    def drop_all(self) -> int:
        """Discard every queued block (crash simulation); returns how many."""
        with self._queue.mutex:
            dropped = len(self._queue.queue)
            self._queue.queue.clear()
            self._queue.not_full.notify_all()
        return dropped

    def close(self) -> None:
        """Enqueue the shutdown sentinel (bypasses the capacity bound)."""
        # A plain put() could deadlock against a full queue if the
        # consumer already exited; growing by one sentinel is harmless.
        with self._queue.mutex:
            self._queue.queue.append(None)
            self._queue.not_empty.notify()

    def qsize(self) -> int:
        return self._queue.qsize()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "mode": self.mode,
                "depth": self._queue.qsize(),
                "accepted_blocks": self.accepted_blocks,
                "accepted_events": self.accepted_events,
                "shed_blocks": self.shed_blocks,
                "shed_events": self.shed_events,
            }


class TelemetryServer:
    """Serve a :class:`Monitor` over TCP (see module docstring).

    Parameters
    ----------
    monitor:
        The monitor to front; metrics must already be registered.
    host, port:
        Bind address. ``port=0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    queue_blocks, backpressure:
        Ingest-queue capacity (in blocks) and mode (``"block"``/``"shed"``).
    checkpoint_path, checkpoint_interval:
        When both are set, a daemon thread saves the monitor every
        ``checkpoint_interval`` seconds; a final save runs on clean
        shutdown and on the ``checkpoint`` control op.
    flush_timeout:
        Upper bound on how long ``flush``/``snapshot``/``results``/
        ``stats``/``checkpoint`` wait for the ingest pipeline to drain
        before answering with whatever has been applied.
    history_writer:
        A :class:`~repro.store.writer.HistoryWriter` already attached to
        ``monitor``; enables the ``history`` op (time-range quantile
        queries over the durable segment store, answering with the same
        result dicts ``python -m repro query`` renders).
    """

    def __init__(
        self,
        monitor: Monitor,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_blocks: int = 64,
        backpressure: str = "block",
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: Optional[float] = None,
        flush_timeout: float = 30.0,
        history_writer=None,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        if checkpoint_interval is not None and checkpoint_path is None:
            raise ValueError(
                "checkpoint_interval without checkpoint_path; pass the file "
                "to save the monitor state to"
            )
        self.monitor = monitor
        self._host = host
        self._port = port
        self.ingest_queue = IngestQueue(queue_blocks, backpressure)
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        self.flush_timeout = flush_timeout
        self.history_writer = history_writer

        #: Guards every read/write of the monitor (consumer applies,
        #: control ops read, checkpoint thread saves).
        self._monitor_lock = threading.Lock()
        #: Pipeline accounting: accepted == applied + parked ⇔ drained.
        #: Also guards structural access to the reorder buffers, which
        #: the consumer mutates while control threads count them.
        self._pipeline = threading.Condition()
        self._applied_blocks = 0
        self._applied_events = 0
        self._forced_blocks = 0
        self._duplicate_blocks = 0
        #: Requests whose handler raised (answered with an error response).
        self._internal_errors = 0
        #: Per-route reorder buffers: route key (metric name, or series
        #: key for labeled blocks) -> seq -> (route, values, is_marker).
        #: Written by the consumer thread, sized by control threads;
        #: every structural access holds ``self._pipeline``.
        self._pending: Dict[str, Dict[int, Tuple["Route", np.ndarray, bool]]] = {}
        self._next_seq: Dict[str, int] = {}

        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._connections: List[socket.socket] = []
        self._connections_lock = threading.Lock()
        self._stopping = threading.Event()
        self._shutdown_requested = threading.Event()
        #: Crash simulation: stop(drain=False) — the consumer skips the
        #: forced apply of orphaned parked blocks.
        self._abandon = False
        self._started = False
        self._checkpoint_saves = 0
        self._checkpoint_failures = 0
        self._checkpoint_error: Optional[str] = None
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError("server is not started; call start() first")
        return self._listener.getsockname()[:2]

    def start(self) -> "TelemetryServer":
        """Bind, then spawn the accept, consumer and checkpoint threads."""
        if self._started:
            raise RuntimeError("server is already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(128)
        listener.settimeout(0.2)
        self._listener = listener
        self._started = True
        self._started_at = time.time()
        for name, target in (
            ("telemetry-accept", self._accept_loop),
            ("telemetry-consume", self._consume_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.checkpoint_path is not None and self.checkpoint_interval is not None:
            thread = threading.Thread(
                target=self._checkpoint_loop, name="telemetry-checkpoint", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down: stop accepting, drain the queue, final checkpoint.

        With ``drain=True`` (the default) every block accepted before the
        call is applied to the monitor before threads exit — zero event
        loss on a clean shutdown.  ``drain=False`` abandons queued and
        parked blocks unapplied (crash simulation for tests).
        """
        if not self._started or self._stopping.is_set():
            self._stopping.set()
            return
        self._stopping.set()
        if drain:
            # A sender that died mid-gap leaves parked blocks that no
            # flush can resolve; the consumer force-applies them after
            # the sentinel, so only the queue itself must go quiescent.
            self._wait_drained(self.flush_timeout, ignore_parked=True)
        else:
            self._abandon = True
            self.ingest_queue.drop_all()
        self.ingest_queue.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        with self._connections_lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    conn.close()
                except OSError:
                    pass
            self._connections.clear()
        if self._listener is not None:
            self._listener.close()
        if drain and self.checkpoint_path is not None:
            self._save_checkpoint()
        if self.history_writer is not None:
            # Appends are flushed per segment; this just closes handles.
            self.history_writer.close()

    def wait_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Block until a client sends the ``shutdown`` op (True) or timeout."""
        return self._shutdown_requested.wait(timeout=timeout)

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accept + connection threads
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._connections_lock:
                self._connections.append(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _send(
        self, conn: socket.socket, response: dict, protocol: str, request_op: object
    ) -> None:
        """Write one response in the connection's negotiated framing."""
        if protocol == "json":
            send_message(conn, response)
        else:
            conn.sendall(binary.encode_response(response, request_op))

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rb")
        # Every connection starts on the JSON wire; a ``hello`` op may
        # switch it to the binary framing for all subsequent frames.
        protocol = "json"
        try:
            while not self._stopping.is_set():
                request_op: object = None
                try:
                    if protocol == "json":
                        request = recv_message(stream)
                    else:
                        frame = binary.recv_frame(stream)
                        request = None if frame is None else binary.decode_request(*frame)
                except FrameTooLarge as exc:
                    # The binary framing's length prefix lets the receiver
                    # drain an oversized payload and stay synchronised; an
                    # oversized JSON line leaves an unreadable tail, so the
                    # connection must drop after answering.
                    try:
                        self._send(conn, error_response(str(exc)), protocol, None)
                    except OSError:
                        break
                    if exc.recoverable:
                        continue
                    break
                except ProtocolError as exc:
                    try:
                        self._send(conn, error_response(str(exc)), protocol, None)
                    except OSError:
                        break  # peer sent garbage and hung up
                    continue
                except (ConnectionClosed, OSError):
                    break
                if request is None:
                    break
                request_op = request.get("op")
                next_protocol = protocol
                try:
                    if request_op == "hello":
                        # The hello response itself still travels on the
                        # current framing; the switch starts at the next frame.
                        response, next_protocol = self._op_hello(request, protocol)
                    else:
                        response = self._handle(request)
                except Exception as exc:  # keep the connection alive
                    logger.exception("internal error handling op %r", request_op)
                    with self._pipeline:
                        self._internal_errors += 1
                    response = error_response(
                        f"internal error handling {request_op!r}: {exc}"
                    )
                try:
                    self._send(conn, response, protocol, request_op)
                except ProtocolError as exc:
                    # e.g. a response that cannot ride the JSON wire
                    # (non-finite floats): report instead of going silent.
                    try:
                        self._send(conn, error_response(str(exc)), protocol, None)
                    except (ProtocolError, OSError):
                        break
                except OSError:
                    break
                finally:
                    if request_op == "shutdown":
                        # Only once the reply is written: the owner's stop()
                        # closes this connection as soon as the event is set.
                        self._shutdown_requested.set()
                protocol = next_protocol
        finally:
            stream.close()
            try:
                conn.close()
            except OSError:
                pass
            with self._connections_lock:
                if conn in self._connections:
                    self._connections.remove(conn)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "observe":
            return self._op_observe(request)
        if op == "ping":
            return ok_response(
                pong=True,
                metrics=self.monitor.metrics(),
                labels={
                    spec.name: list(spec.labels)
                    for spec in self.monitor.specs()
                    if spec.labels is not None
                },
            )
        if op == "flush":
            drained = self._wait_drained(self.flush_timeout)
            return ok_response(drained=drained, **self._pipeline_stats())
        if op == "snapshot":
            return self._op_snapshot()
        if op == "results":
            return self._op_results(request)
        if op == "stats":
            return self._op_stats()
        if op == "checkpoint":
            return self._op_checkpoint()
        if op == "history":
            return self._op_history(request)
        if op == "group_by":
            return self._op_group_by(request)
        if op == "state":
            return self._op_state()
        if op == "merge":
            return self._op_merge(request)
        if op == "hello":
            # Reached only through direct _handle calls (tests, embedding);
            # the connection loop intercepts hello to switch its framing.
            return self._op_hello(request, "json")[0]
        if op == "shutdown":
            # The connection loop raises the shutdown event after this
            # reply is sent (see _serve_connection).
            return ok_response(stopping=True)
        return error_response(
            f"unknown op {op!r}; supported: observe, snapshot, results, "
            "flush, stats, checkpoint, history, group_by, state, merge, "
            "shutdown, ping, hello"
        )

    def _op_hello(self, request: dict, protocol: str) -> Tuple[dict, str]:
        """Negotiate the connection's wire protocol.

        Returns ``(response, next_protocol)``.  A failed negotiation
        leaves the connection on its current protocol — servers keep
        speaking JSON to clients that never (successfully) negotiate.
        """
        requested = request.get("protocol", "json")
        if requested not in ("json", "binary"):
            return (
                error_response(
                    f"unknown protocol {requested!r}; this server speaks "
                    "'json' and 'binary'"
                ),
                protocol,
            )
        version = request.get("version", binary.BINARY_VERSION)
        if requested == "binary" and version != binary.BINARY_VERSION:
            return (
                error_response(
                    f"unsupported binary protocol version {version!r}; this "
                    f"server speaks version {binary.BINARY_VERSION}"
                ),
                protocol,
            )
        return (
            ok_response(
                protocol=requested,
                version=binary.BINARY_VERSION,
                max_message_bytes=MAX_MESSAGE_BYTES,
            ),
            requested,
        )

    def _op_observe(self, request: dict) -> dict:
        metric = request.get("metric")
        if not isinstance(metric, str) or metric not in self.monitor:
            return error_response(
                f"unknown metric {metric!r}; registered: {self.monitor.metrics()}"
            )
        labels = request.get("labels")
        labeled = metric in self.monitor.labeled_metrics()
        route: Route = metric
        if labeled:
            if not isinstance(labels, dict):
                return error_response(
                    f"metric {metric!r} is labeled; send 'labels' as a "
                    "{name: value} object with every observe block"
                )
            try:
                # Validates against the schema and yields the canonical
                # series key — the block's reorder-cursor identity.
                route = (metric, labels, self.monitor.series_route(metric, labels))
            except ValueError as exc:
                return error_response(str(exc))
        elif labels is not None:
            return error_response(
                f"metric {metric!r} is not labeled; drop 'labels' or "
                "register the metric with a label schema"
            )
        values = request.get("values")
        if isinstance(values, np.ndarray):
            # A binary-protocol observe: the decoded frame hands over the
            # float64 array directly — no python list ever materialises.
            array = np.asarray(values, dtype=np.float64)
        elif isinstance(values, list):
            try:
                array = np.asarray(values, dtype=np.float64)
            except (TypeError, ValueError):
                return error_response("'values' must contain only finite numbers")
        else:
            return error_response(
                f"'values' must be a JSON array of numbers, got "
                f"{type(values).__name__}"
            )
        seq = request.get("seq")
        if seq is not None and (not isinstance(seq, int) or seq < 0):
            return error_response(f"'seq' must be a non-negative integer, got {seq!r}")
        if array.ndim != 1:
            return error_response("'values' must be a flat array of numbers")
        if len(array) and not np.isfinite(array).all():
            # NaN/inf would poison quantiles and make saved checkpoints
            # non-strict JSON (json.dumps writes bare 'Infinity').
            return error_response(
                "'values' must contain only finite numbers (got NaN or "
                "infinity)"
            )
        if len(array) == 0:
            if seq is not None:
                # Zero events, but the seq cursor must still advance or
                # every later block of this route parks behind the gap.
                self.ingest_queue.put_marker(
                    (route, seq, np.empty(0, dtype=np.float64), True)
                )
            return ok_response(accepted=True, events=0)
        accepted = self.ingest_queue.put((route, seq, array, False))
        if not accepted and seq is not None:
            # Keep the sequence space gap-free: a marker tells the
            # consumer "seq N was shed, advance past it" so later blocks
            # don't park forever behind the dropped one.
            self.ingest_queue.put_marker(
                (route, seq, np.empty(0, dtype=np.float64), True)
            )
        return ok_response(accepted=accepted, events=int(len(array)))

    def _op_snapshot(self) -> dict:
        drained = self._wait_drained(self.flush_timeout)
        labeled = self.monitor.labeled_metrics()

        def wire(estimates):
            if estimates is None:
                return None
            return {repr(phi): value for phi, value in estimates.items()}

        with self._monitor_lock:
            snapshot = {
                name: (
                    {key: wire(latest) for key, latest in entry.items()}
                    if name in labeled
                    else wire(entry)
                )
                for name, entry in self.monitor.snapshot().items()
            }
        return ok_response(snapshot=snapshot, drained=drained, labeled=labeled)

    def _op_results(self, request: dict) -> dict:
        metric = request.get("metric")
        if not isinstance(metric, str) or metric not in self.monitor:
            return error_response(
                f"unknown metric {metric!r}; registered: {self.monitor.metrics()}"
            )
        labels = request.get("labels")
        if labels is not None and not isinstance(labels, dict):
            return error_response("'labels' must be a {name: value} object")
        drained = self._wait_drained(self.flush_timeout)
        with self._monitor_lock:
            try:
                emitted = self.monitor.results(metric, labels=labels)
            except (KeyError, ValueError) as exc:
                message = exc.args[0] if exc.args else str(exc)
                return error_response(str(message))
            results = [
                {
                    "index": result.index,
                    "window_count": result.window_count,
                    "end": result.end,
                    "result": {
                        repr(phi): value for phi, value in result.result.items()
                    },
                }
                for result in emitted
            ]
        return ok_response(metric=metric, results=results, drained=drained)

    def _op_group_by(self, request: dict) -> dict:
        """Answer a live group-by over a labeled metric's current window."""
        metric = request.get("metric")
        if not isinstance(metric, str) or metric not in self.monitor:
            return error_response(
                f"unknown metric {metric!r}; registered: {self.monitor.metrics()}"
            )
        by = request.get("by")
        if not isinstance(by, (str, list)) or not by:
            return error_response(
                "'by' must be a label name or a non-empty array of label names"
            )
        quantiles = request.get("quantiles")
        if quantiles is not None and (
            not isinstance(quantiles, list)
            or not all(isinstance(phi, (int, float)) for phi in quantiles)
        ):
            return error_response("'quantiles' must be a JSON array of numbers")
        drained = self._wait_drained(self.flush_timeout)
        with self._monitor_lock:
            try:
                result = self.monitor.group_by(metric, by, quantiles)
            except (KeyError, ValueError) as exc:
                message = exc.args[0] if exc.args else str(exc)
                return error_response(str(message))
        return ok_response(result=result, drained=drained)

    def _op_stats(self) -> dict:
        drained = self._wait_drained(self.flush_timeout)
        labeled = set(self.monitor.labeled_metrics())
        with self._monitor_lock:
            metrics = self.monitor.space_report()
            seen = self.monitor.seen_counts()
            with self._pipeline:
                next_seqs = {
                    name: (
                        # A labeled metric's seq spaces are per-series;
                        # report the family's frontier (senders that fan
                        # out uniformly resume from it — LoadGenerator).
                        max(
                            (
                                cursor
                                for key, cursor in self._next_seq.items()
                                if key.startswith(name + "{")
                            ),
                            default=0,
                        )
                        if name in labeled
                        else self._next_seq.get(name, 0)
                    )
                    for name in self.monitor.metrics()
                }
        for name, report in metrics.items():
            report["seen"] = seen[name]
            # Where this run's seq numbering stands: a sender joining a
            # live server continues from here (LoadGenerator does).
            report["next_seq"] = next_seqs[name]
        checkpoint: Dict[str, object] = {"path": self.checkpoint_path}
        if self.checkpoint_path is not None:
            checkpoint["interval"] = self.checkpoint_interval
            checkpoint["saves"] = self._checkpoint_saves
            checkpoint["failures"] = self._checkpoint_failures
            checkpoint["last_error"] = self._checkpoint_error
        return ok_response(
            drained=drained,
            metrics=metrics,
            ingest=self.ingest_queue.stats(),
            pipeline=self._pipeline_stats(),
            checkpoint=checkpoint,
            uptime=(time.time() - self._started_at) if self._started_at else 0.0,
        )

    def _op_checkpoint(self) -> dict:
        if self.checkpoint_path is None:
            return error_response(
                "server has no checkpoint path; start it with "
                "checkpoint_path= (CLI: --checkpoint PATH)"
            )
        drained = self._wait_drained(self.flush_timeout)
        if not self._save_checkpoint():
            return error_response(
                f"checkpoint save to {self.checkpoint_path!r} failed: "
                f"{self._checkpoint_error}"
            )
        return ok_response(
            path=self.checkpoint_path, drained=drained, saves=self._checkpoint_saves
        )

    def _op_state(self) -> dict:
        """Ship the monitor's full serialized state to the caller.

        The checkpoint-shipping pull: a peer rebuilds an identical
        monitor with ``Monitor.from_state`` (a warm standby, an offline
        analyser) or folds it into its own via the ``merge`` op.  On the
        binary protocol the state travels as one opaque ``OP_STATE``
        frame rather than inline JSON.
        """
        drained = self._wait_drained(self.flush_timeout)
        with self._monitor_lock:
            state = self.monitor.to_state()
        return ok_response(state=state, drained=drained)

    def _op_merge(self, request: dict) -> dict:
        """Fold a shipped monitor state into the served monitor.

        The push side of checkpoint shipping: per-shard monitors merged
        at period boundaries reproduce the unsplit stream bit-for-bit
        (the ``Monitor.merge`` guarantee).  Every metric in the shipped
        state must be registered here with an equal spec.
        """
        state = request.get("state")
        if not isinstance(state, dict):
            return error_response(
                "'merge' needs 'state': a serialized monitor state object "
                "(the 'state' op or Monitor.to_state() produces one)"
            )
        try:
            other = Monitor.from_state(state)
        except (KeyError, TypeError, ValueError) as exc:
            return error_response(f"bad monitor state: {exc}")
        drained = self._wait_drained(self.flush_timeout)
        with self._monitor_lock:
            try:
                self.monitor.merge(other)
            except (TypeError, ValueError) as exc:
                return error_response(str(exc))
        return ok_response(merged=True, metrics=other.metrics(), drained=drained)

    def _op_history(self, request: dict) -> dict:
        """Answer a historical quantile query from the segment store.

        Drains ingest first, so the answer covers every period sealed by
        blocks acked before this request — then runs the same query
        functions the ``python -m repro query`` CLI uses, returning the
        identical result dict (the CLI renders server and local answers
        through one renderer, so the bytes match).
        """
        if self.history_writer is None:
            return error_response(
                "server has no history store; start it with a history "
                "writer (CLI: --history DIR)"
            )
        from repro.store.query import query_at, query_range, query_series
        from repro.store.store import StoreError

        metric = request.get("metric")
        if not isinstance(metric, str):
            return error_response(
                f"'metric' must be a metric name string, got "
                f"{type(metric).__name__}"
            )
        at = request.get("at")
        start = request.get("start")
        end = request.get("end")
        step = request.get("step")
        quantiles = request.get("quantiles")
        if quantiles is not None and (
            not isinstance(quantiles, list)
            or not all(isinstance(phi, (int, float)) for phi in quantiles)
        ):
            return error_response("'quantiles' must be a JSON array of numbers")
        if (at is None) == (start is None and end is None):
            return error_response(
                "pass either 'at' (one period) or 'start'+'end' (a period "
                "range), not both / neither"
            )
        drained = self._wait_drained(self.flush_timeout)
        store = self.history_writer.store
        try:
            with self._monitor_lock:
                if at is not None:
                    if step is not None:
                        return error_response("'step' needs a 'start'+'end' range")
                    result = query_at(store, metric, at, quantiles)
                elif step is not None:
                    result = query_series(store, metric, start, end, step, quantiles)
                else:
                    result = query_range(store, metric, start, end, quantiles)
        except StoreError as exc:
            return error_response(str(exc))
        except (TypeError, ValueError) as exc:
            return error_response(f"bad history query: {exc}")
        return ok_response(result=result, drained=drained)

    # ------------------------------------------------------------------
    # Consumer: queue → Monitor.observe_batch
    # ------------------------------------------------------------------
    def _consume_loop(self) -> None:
        while True:
            block = self.ingest_queue.get()
            if block is None:
                break
            route, seq, values, marker = block
            with self._monitor_lock:
                self._apply(route, seq, values, marker)
        # Shutdown: apply any parked out-of-order blocks rather than lose
        # them (their sender died before filling the gap) — unless the
        # shutdown is a crash simulation (stop(drain=False)).
        with self._monitor_lock:
            with self._pipeline:
                orphaned = {
                    key: sorted(parked.items())
                    for key, parked in self._pending.items()
                }
                self._pending.clear()
                self._pipeline.notify_all()
            if self._abandon:
                return
            for key in sorted(orphaned):
                forced = 0
                for seq, (route, values, marker) in orphaned[key]:
                    if marker:
                        continue
                    self._ingest(route, values)
                    forced += 1
                    with self._pipeline:
                        self._applied_blocks += 1
                        self._forced_blocks += 1
                        self._applied_events += len(values)
                        self._pipeline.notify_all()
                if forced:
                    logger.warning(
                        "shutdown force-applied %d parked block(s) of %s "
                        "past a seq gap; lowest missing seq %d",
                        forced,
                        key,
                        self._next_seq[key],
                    )

    def _ingest(self, route: Route, values: np.ndarray) -> None:
        """Hand one block's values to the monitor (per-series if labeled)."""
        if isinstance(route, str):
            self.monitor.observe_batch(route, values)
        else:
            self.monitor.observe_batch(route[0], values, labels=route[1])

    def _apply(
        self, route: Route, seq: Optional[int], values: np.ndarray, marker: bool
    ) -> None:
        """Apply one block, reordering on the route's sequence number.

        The reorder cursor lives per *route key* — the metric name, or
        the series key for labeled blocks — so every series has its own
        independent sequence space.
        """
        if seq is None:
            self._apply_now(route, values, marker)
            return
        key = _route_key(route)
        next_seq = self._next_seq.setdefault(key, 0)
        # Only this (consumer) thread mutates the reorder buffers, so the
        # membership test needs no lock.
        if seq < next_seq or seq in self._pending.get(key, ()):
            # A replay of an applied or already-parked block (e.g. a client
            # retry): keep the first copy, and count this one as applied so
            # that accepted == applied + parked still balances.
            with self._pipeline:
                if not marker:
                    self._applied_blocks += 1
                    self._duplicate_blocks += 1
                self._pipeline.notify_all()
            return
        if seq > next_seq:
            with self._pipeline:
                self._pending.setdefault(key, {})[seq] = (route, values, marker)
                self._pipeline.notify_all()
            return
        self._apply_now(route, values, marker)
        self._next_seq[key] = next_seq + 1
        while True:
            with self._pipeline:
                parked = self._pending.get(key)
                ready = parked.pop(self._next_seq[key], None) if parked else None
            if ready is None:
                break
            self._apply_now(ready[0], ready[1], ready[2])
            self._next_seq[key] += 1

    def _apply_now(self, route: Route, values: np.ndarray, marker: bool) -> None:
        if marker:
            # A shed block's placeholder: advance the seq cursor only —
            # the events were dropped at the queue boundary, by policy.
            with self._pipeline:
                self._pipeline.notify_all()
            return
        self._ingest(route, values)
        with self._pipeline:
            self._applied_blocks += 1
            self._applied_events += len(values)
            self._pipeline.notify_all()

    def _parked_blocks(self) -> int:
        """Parked *data* blocks (markers excluded — they were never
        'accepted', so counting them would skew every drain equation).
        Callers hold ``self._pipeline``."""
        return sum(
            1
            for parked in self._pending.values()
            for _, _, marker in parked.values()
            if not marker
        )

    def _pipeline_stats(self) -> Dict[str, int]:
        with self._pipeline:
            return {
                "applied_blocks": self._applied_blocks,
                "applied_events": self._applied_events,
                "parked_blocks": self._parked_blocks(),
                "forced_blocks": self._forced_blocks,
                "duplicate_blocks": self._duplicate_blocks,
                "internal_errors": self._internal_errors,
            }

    def _wait_drained(self, timeout: float, ignore_parked: bool = False) -> bool:
        """Wait until every accepted block is applied (or parked-free).

        Drained means: nothing in the queue, nothing mid-apply, and no
        reorder gaps — the monitor reflects every acked event.  Under
        sustained concurrent ingest this may time out; the caller then
        answers with the state as of the deadline.  ``ignore_parked``
        relaxes the gap condition (shutdown force-applies parked blocks
        itself, so it only needs the queue quiescent).
        """
        deadline = time.monotonic() + timeout

        def drained() -> bool:
            # Every accepted block is either applied (counted, duplicates
            # included), parked behind a reorder gap, or still queued.
            stats = self.ingest_queue.stats()
            parked = self._parked_blocks()
            if ignore_parked:
                return (
                    stats["depth"] == 0
                    and stats["accepted_blocks"] == self._applied_blocks + parked
                )
            return (
                stats["depth"] == 0
                and parked == 0
                and stats["accepted_blocks"] == self._applied_blocks
            )

        with self._pipeline:
            while not drained():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._pipeline.wait(timeout=min(remaining, 0.5))
        return True

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_loop(self) -> None:
        assert self.checkpoint_interval is not None
        while not self._stopping.wait(timeout=self.checkpoint_interval):
            self._save_checkpoint()

    def _save_checkpoint(self) -> bool:
        """Save the monitor; never raises (a transient disk error must
        not kill the periodic thread or turn shutdown into a traceback —
        it is logged, counted and surfaced via stats / the checkpoint op)."""
        assert self.checkpoint_path is not None
        # The monitor lock also serialises the periodic thread and the
        # checkpoint op on the counters below.
        with self._monitor_lock:
            try:
                self.monitor.save(self.checkpoint_path)
            except Exception as exc:  # disk errors, serde failures — record all
                self._checkpoint_error = str(exc)
                self._checkpoint_failures += 1
                logger.exception(
                    "checkpoint save to %s failed (%d failure(s) so far)",
                    self.checkpoint_path,
                    self._checkpoint_failures,
                )
                return False
            self._checkpoint_error = None
            self._checkpoint_saves += 1
        return True
