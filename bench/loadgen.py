"""The load generator: two threads, two connections, public client only.

:class:`LoadGen` owns two :class:`~repro.service.client.TelemetryClient`
connections and a global block cursor.  Its phases:

- :meth:`LoadGen.open_loop` -- the ingest thread sends frames on a fixed
  schedule (frame ``k`` due at ``t0 + k * frame_values / rate``) on
  connection 0 while the query thread sends the workload's query on its
  own schedule on connection 1.  Latencies run from the due time, so a
  stall counts against every frame queued behind it.
- :meth:`LoadGen.closed_loop` -- both threads send a fixed number of
  whole blocks, each taking the next block from the shared cursor, so
  consecutive blocks travel on different connections and the server's
  seq reorder path runs.  The phase ends with a ``flush`` that waits for
  the server to apply everything.

A phase always ends on a block boundary, so every route's seq space
stays gap-free.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List

import numpy as np

from bench.workloads import LABELED_FRAMES, METRIC, Workload
from repro.service import ServerError, TelemetryClient

#: Seconds a request may wait for its response before it counts as a timeout.
REQUEST_TIMEOUT = 60.0

#: The history query reads this many most recent sealed periods.
HISTORY_PERIODS = 64


class _Dropped(Exception):
    """The connection is unusable (timeout or closed); stop this thread."""


@dataclass
class PhaseResult:
    """What one phase measured; latencies in ms, times in monotonic s."""

    start: float
    end: float
    events: int = 0
    acks: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    queries: List[float] = field(default_factory=list)


class LoadGen:
    """Drives one server with at most two threads and two connections."""

    def __init__(self, workload: Workload, pool: np.ndarray, host: str, port: int) -> None:
        self.workload = workload
        self.pool = pool
        self.clients: List[TelemetryClient] = []
        try:
            for _ in range(2):
                self.clients.append(
                    TelemetryClient(host, port, timeout=REQUEST_TIMEOUT, protocol=workload.protocol)
                )
        except BaseException:
            self.close()
            raise
        #: Blocks sent so far; the next block's index.
        self.blocks = 0
        self.requests = 0
        self.failures: Counter = Counter()
        self.max_threads = 0
        self._acked_events = 0
        self._errors: List[BaseException] = []
        self._lock = threading.Lock()

    @property
    def events(self) -> int:
        """Events in every block sent so far."""
        return self.blocks * self.workload.block_values

    def close(self) -> None:
        for client in self.clients:
            client.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _call(self, fn, *args, **kwargs):
        """One counted request; failures are counted, a broken connection raises."""
        failure = None
        try:
            return fn(*args, **kwargs)
        except ServerError:
            failure = "error"
            return None
        except socket.timeout:
            failure = "timeout"
            raise _Dropped() from None
        except (ConnectionError, OSError):
            failure = "dropped"
            raise _Dropped() from None
        finally:
            with self._lock:
                self.requests += 1
                if failure is not None:
                    self.failures[failure] += 1

    def _observe(self, client: TelemetryClient, labels, seq: int, values: np.ndarray) -> None:
        ack = self._call(client.observe, METRIC, values, seq=seq, labels=labels)
        with self._lock:
            if ack is not None and not ack.get("accepted", False):
                self.failures["shed"] += 1
            self._acked_events += len(values)

    def _query(self, client: TelemetryClient) -> bool:
        """The workload's query op; False while no period has sealed yet
        (history and group-by answer only from sealed periods)."""
        workload = self.workload
        if workload.query == "snapshot":
            self._call(client.snapshot)
        elif workload.query == "group_by":
            # Each stable series gets 1/LABELED_FRAMES of the events.
            if self._acked_events < workload.period * LABELED_FRAMES:
                return False
            self._call(client.group_by, METRIC, ["region"])
        else:
            end = self._acked_events // workload.period
            if end == 0:
                return False
            self._call(client.history, METRIC, start=max(0, end - HISTORY_PERIODS), end=end)
        return True

    def _run_threads(self, *targets) -> None:
        threads = [threading.Thread(target=self._guard, args=(t,)) for t in targets]
        self.max_threads = max(self.max_threads, len(threads))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self._errors:
            raise self._errors[0]

    def _guard(self, target) -> None:
        try:
            target()
        except _Dropped:
            pass  # counted; the run's checks fail on the missing events
        except BaseException as exc:  # re-raised by _run_threads
            self._errors.append(exc)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def open_loop(self, seconds: float, record_after: float = 0.0) -> PhaseResult:
        """Fixed-rate ingest plus fixed-rate queries for ``seconds``.

        Samples due in the first ``record_after`` seconds are not
        recorded (the warm-up).
        """
        workload = self.workload
        per_block = len(workload.frames(self.pool, 0))
        gap = workload.block_values / per_block / workload.rate
        start = time.monotonic()
        stop = start + seconds
        recorded = start + record_after
        result = PhaseResult(start=recorded, end=stop)
        first_block = self.blocks

        def ingest() -> None:
            client = self.clients[0]
            frames = []
            frame = 0
            while True:
                position = frame % per_block
                due = start + frame * gap
                if position == 0:
                    if due >= stop:
                        break
                    frames = workload.frames(self.pool, first_block + frame // per_block)
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                self._observe(client, *frames[position])
                done = time.monotonic()
                if recorded <= due < stop:
                    result.acks.append((done - due) * 1e3)
                    result.lateness.append((sent - due) * 1e3)
                frame += 1
                if position == per_block - 1:
                    self.blocks += 1

        def query() -> None:
            client = self.clients[1]
            count = 0
            while True:
                due = start + count / workload.query_rate
                if due >= stop:
                    break
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                asked = self._query(client)
                if asked and due >= recorded:
                    result.queries.append((time.monotonic() - due) * 1e3)
                count += 1

        self._run_threads(ingest, query)
        result.events = (self.blocks - first_block) * workload.block_values
        return result

    def closed_loop(self, blocks: int) -> PhaseResult:
        """Both connections send the next ``blocks`` blocks back to back,
        then ``flush``; the result's ``end`` is when the flush answered."""
        first_block = self.blocks
        stop = first_block + blocks
        result = PhaseResult(start=time.monotonic(), end=0.0)

        def sender(client: TelemetryClient) -> None:
            acks: List[float] = []
            while True:
                with self._lock:
                    if self.blocks >= stop:
                        break
                    index = self.blocks
                    self.blocks += 1
                for labels, seq, values in self.workload.frames(self.pool, index):
                    sent = time.monotonic()
                    self._observe(client, labels, seq, values)
                    acks.append((time.monotonic() - sent) * 1e3)
            with self._lock:
                result.acks.extend(acks)

        self._run_threads(*(lambda c=c: sender(c) for c in self.clients))
        self._call(self.clients[0].flush)
        result.end = time.monotonic()
        result.events = (self.blocks - first_block) * self.workload.block_values
        return result
