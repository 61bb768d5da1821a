"""TelemetryServer: backpressure, drain, reordering, control ops.

The backpressure tests pin the documented semantics of the bounded
ingest queue — ``"block"`` stalls the producer losslessly, ``"shed"``
drops and accounts — and the shutdown tests pin the zero-event-loss
drain guarantee.
"""

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.service import (
    IngestQueue,
    Monitor,
    ServerError,
    TelemetryClient,
    TelemetryServer,
)

SPECS = [
    {
        "name": "rtt",
        "quantiles": [0.5, 0.99],
        "window": {"size": 2000, "period": 500},
        "policy": "qlove",
    },
    {
        "name": "rtt.exact",
        "quantiles": [0.5, 0.9],
        "window": {"size": 1500, "period": 500},
        "policy": "exact",
    },
]


def make_monitor() -> Monitor:
    monitor = Monitor()
    for spec in SPECS:
        monitor.register(spec)
    return monitor


@pytest.fixture()
def server():
    # Short flush timeout: tests that deliberately hold the pipeline open
    # (a seq gap) should get their "drained: false" answer quickly.
    with TelemetryServer(make_monitor(), flush_timeout=2.0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    host, port = server.address
    with TelemetryClient(host, port) as cli:
        yield cli


def block(n: int, seq=None, metric="rtt"):
    return (metric, seq, np.arange(n, dtype=np.float64), False)


class TestIngestQueueBackpressure:
    """The bounded queue's two documented full-queue behaviours."""

    def test_block_mode_blocks_until_consumer_frees_a_slot(self):
        q = IngestQueue(capacity=2, mode="block")
        assert q.put(block(10))
        assert q.put(block(10))
        started = threading.Event()
        finished = threading.Event()

        def producer():
            started.set()
            q.put(block(10))  # must block: queue is full
            finished.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert started.wait(timeout=2.0)
        # The producer is parked against the full queue, not failing.
        assert not finished.wait(timeout=0.2)
        q.get()  # consumer frees one slot
        assert finished.wait(timeout=2.0)
        assert q.stats()["accepted_blocks"] == 3
        assert q.stats()["shed_blocks"] == 0

    def test_block_mode_put_timeout_raises_full(self):
        q = IngestQueue(capacity=1, mode="block")
        q.put(block(5))
        with pytest.raises(queue.Full):
            q.put(block(5), timeout=0.05)

    def test_shed_mode_drops_and_accounts_when_full(self):
        q = IngestQueue(capacity=2, mode="shed")
        assert q.put(block(10))
        assert q.put(block(20))
        assert not q.put(block(30))  # full: shed, not blocked
        assert not q.put(block(40))
        stats = q.stats()
        assert stats["accepted_blocks"] == 2
        assert stats["accepted_events"] == 30
        assert stats["shed_blocks"] == 2
        assert stats["shed_events"] == 70
        # Draining restores acceptance.
        q.get()
        assert q.put(block(50))
        assert q.stats()["accepted_blocks"] == 3

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="capacity"):
            IngestQueue(capacity=0)
        with pytest.raises(ValueError, match="backpressure mode"):
            IngestQueue(mode="drop-newest")

    def test_close_sentinel_wakes_consumer_even_when_full(self):
        q = IngestQueue(capacity=1, mode="block")
        q.put(block(1))
        q.close()  # must not deadlock against the full queue
        assert q.get() is not None
        assert q.get(timeout=1.0) is None


class TestServerIngest:
    def test_observe_ack_reports_event_count(self, client):
        ack = client.observe("rtt", [1.0, 2.0, 3.0])
        assert ack["accepted"] is True
        assert ack["events"] == 3

    def test_empty_block_is_a_no_op_ack(self, client):
        ack = client.observe("rtt", [])
        assert ack["accepted"] is True
        assert ack["events"] == 0

    def test_unknown_metric_rejected(self, client):
        with pytest.raises(ServerError, match="unknown metric 'nope'"):
            client.observe("nope", [1.0])

    def test_malformed_values_rejected(self, client):
        with pytest.raises(ServerError, match="'values' must be a JSON array"):
            client.request({"op": "observe", "metric": "rtt", "values": "1,2,3"})
        with pytest.raises(ServerError, match="only finite numbers"):
            client.request(
                {"op": "observe", "metric": "rtt", "values": [1.0, "x"]}
            )

    def test_non_finite_values_rejected(self, client, server):
        """NaN/inf would poison quantiles and have no valid JSON encoding.

        The client-side encoder now refuses to put them on the wire at
        all (they would serialise as the invalid ``NaN``/``Infinity``
        tokens); a peer that smuggles them through anyway — the bare
        token, or a ``1e999`` literal that parses to inf — still gets
        the server's ingest rejection.
        """
        from repro.service.protocol import ProtocolError, recv_message

        with pytest.raises(ProtocolError, match="non-finite"):
            client.request(
                {"op": "observe", "metric": "rtt", "values": [1.0, float("nan")]}
            )
        for values_text in ("[1.0,NaN]", "[1e999]"):
            raw = (
                '{"op":"observe","metric":"rtt","values":' + values_text + "}\n"
            ).encode("utf-8")
            client._sock.sendall(raw)
            response = recv_message(client._stream)
            assert response["ok"] is False
            assert "NaN or infinity" in response["error"]
        assert server.monitor._channels["rtt"].seen == 0

    def test_bad_seq_rejected(self, client):
        with pytest.raises(ServerError, match="'seq' must be a non-negative"):
            client.request(
                {"op": "observe", "metric": "rtt", "values": [1.0], "seq": -1}
            )

    def test_unknown_op_lists_vocabulary(self, client):
        with pytest.raises(ServerError, match="unknown op 'frobnicate'"):
            client.request({"op": "frobnicate"})

    def test_flush_makes_observations_visible(self, server, client):
        values = np.arange(1200, dtype=np.float64)
        client.observe("rtt", values)
        flush = client.flush()
        assert flush["drained"] is True
        assert server.monitor._channels["rtt"].seen == 1200

    def test_malformed_frame_keeps_connection_alive(self, server):
        host, port = server.address
        import socket as socketlib

        with socketlib.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"{not json}\n")
            from repro.service.protocol import recv_message

            response = recv_message(stream)
            assert response["ok"] is False
            assert "not valid JSON" in response["error"]
            # The same connection still answers a well-formed request.
            sock.sendall(b'{"op": "ping"}\n')
            assert recv_message(stream)["ok"] is True

    def test_oversized_frame_closes_the_connection(self, server, monkeypatch):
        """The unread tail of an oversized line cannot be re-synchronised
        as frames, so the server answers once and drops the connection."""
        from repro.service import protocol

        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 256)
        host, port = server.address
        import socket as socketlib

        with socketlib.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rb")
            giant = protocol.encode_message(
                {"op": "observe", "metric": "rtt", "values": [1.0] * 200}
            )
            assert len(giant) > 256
            sock.sendall(giant)
            response = protocol.recv_message(stream)
            assert response["ok"] is False
            assert "exceeds 256 bytes" in response["error"]
            # The server hung up: nothing more arrives on this socket.
            assert stream.read() == b""
        # Fresh connections are unaffected.
        with TelemetryClient(host, port) as client:
            assert client.ping() == ["rtt", "rtt.exact"]


class TestSequenceReordering:
    """Out-of-order blocks apply in seq order — the multi-connection
    guarantee behind served-vs-offline bit-identity."""

    def test_blocks_apply_in_seq_order_not_arrival_order(self, server, client):
        # Arrive 2, 0, 1; values distinguish the order they were applied.
        client.observe("rtt", np.full(400, 3.0), seq=2)
        client.observe("rtt", np.full(400, 1.0), seq=0)
        client.observe("rtt", np.full(400, 2.0), seq=1)
        assert client.flush()["drained"] is True

        reference = Monitor()
        for spec in SPECS:
            reference.register(spec)
        for value in (1.0, 2.0, 3.0):
            reference.observe_batch("rtt", np.full(400, value))
        assert server.monitor.results("rtt") == reference.results("rtt")

    def test_gap_parks_blocks_until_filled(self, server, client):
        client.observe("rtt", np.full(100, 2.0), seq=1)
        stats = client.stats()
        assert stats["pipeline"]["parked_blocks"] == 1
        assert stats["drained"] is False  # the gap holds the pipeline open
        client.observe("rtt", np.full(100, 1.0), seq=0)
        assert client.flush()["drained"] is True
        assert server.monitor._channels["rtt"].seen == 200

    def test_duplicate_seq_dropped_not_double_counted(self, server, client):
        client.observe("rtt", np.full(100, 1.0), seq=0)
        client.observe("rtt", np.full(100, 1.0), seq=0)  # retry replay
        client.flush()
        assert server.monitor._channels["rtt"].seen == 100
        assert client.stats()["pipeline"]["duplicate_blocks"] == 1

    def test_duplicate_of_a_parked_seq_keeps_the_first_and_drains(self):
        """A retry of a block still parked behind a gap: the first copy
        stays parked, the second counts as applied + duplicate, so the
        pipeline balances and flush drains at once instead of waiting
        out flush_timeout."""
        with TelemetryServer(make_monitor(), flush_timeout=30.0) as server:
            host, port = server.address
            with TelemetryClient(host, port) as client:
                client.observe("rtt", np.full(100, 2.0), seq=1)
                client.observe("rtt", np.full(50, 9.0), seq=1)  # retry, parked
                client.observe("rtt", np.full(100, 1.0), seq=0)
                started = time.monotonic()
                flush = client.flush()
                assert flush["drained"] is True
                assert time.monotonic() - started < 5.0
                assert flush["duplicate_blocks"] == 1
                assert flush["parked_blocks"] == 0
                # The first copy of seq 1 was applied, not the retry.
                assert server.monitor._channels["rtt"].seen == 200
                assert client.flush()["drained"] is True

    def test_empty_sequenced_block_advances_the_cursor(self, server, client):
        """A zero-event block carrying a seq must not wedge the metric:
        the cursor advances and later blocks still apply."""
        ack = client.observe("rtt", [], seq=0)
        assert ack["accepted"] is True and ack["events"] == 0
        client.observe("rtt", np.full(100, 2.0), seq=1)
        flush = client.flush()
        assert flush["drained"] is True, "empty seq=0 must not park seq=1"
        assert server.monitor._channels["rtt"].seen == 100

    def test_second_sender_continues_the_servers_seq_numbering(
        self, server, client
    ):
        """stats reports next_seq so a new sender joining a live server
        does not restart at 0 and get replay-dropped."""
        client.observe("rtt", np.full(100, 1.0), seq=0)
        client.observe("rtt", np.full(100, 2.0), seq=1)
        client.flush()
        assert client.stats()["metrics"]["rtt"]["next_seq"] == 2
        # A naive replay from 0 is dropped; continuing from next_seq applies.
        client.observe("rtt", np.full(100, 9.0), seq=0)
        client.observe("rtt", np.full(100, 3.0), seq=2)
        client.flush()
        assert server.monitor._channels["rtt"].seen == 300
        assert client.stats()["pipeline"]["duplicate_blocks"] == 1

    def test_unsequenced_blocks_apply_in_arrival_order(self, server, client):
        client.observe("rtt", np.full(300, 1.0))
        client.observe("rtt", np.full(300, 2.0))
        client.flush()
        assert server.monitor._channels["rtt"].seen == 600


class TestControlOps:
    def test_snapshot_matches_offline_monitor(self, server, client):
        values = np.linspace(0.0, 100.0, 2500)
        client.observe("rtt", values)
        client.observe("rtt.exact", values)
        snapshot = client.snapshot()

        reference = Monitor()
        for spec in SPECS:
            reference.register(spec)
        reference.observe_batch("rtt", values)
        reference.observe_batch("rtt.exact", values)
        assert snapshot == reference.snapshot()

    def test_results_round_trip_as_window_results(self, server, client):
        values = np.linspace(0.0, 100.0, 2500)
        client.observe("rtt", values)
        reference = Monitor()
        for spec in SPECS:
            reference.register(spec)
        reference.observe_batch("rtt", values)
        assert client.results("rtt") == reference.results("rtt")

    def test_stats_report_seen_and_queue_accounting(self, client):
        client.observe("rtt", np.ones(750))
        stats = client.stats()
        assert stats["metrics"]["rtt"]["seen"] == 750
        assert stats["metrics"]["rtt.exact"]["seen"] == 0
        assert stats["ingest"]["accepted_blocks"] == 1
        assert stats["ingest"]["accepted_events"] == 750
        assert stats["ingest"]["mode"] == "block"
        assert stats["pipeline"]["applied_events"] == 750

    def test_checkpoint_without_path_is_an_error(self, client):
        with pytest.raises(ServerError, match="no checkpoint path"):
            client.checkpoint()

    def test_checkpoint_op_saves_restorable_state(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with TelemetryServer(make_monitor(), checkpoint_path=path) as server:
            host, port = server.address
            with TelemetryClient(host, port) as client:
                client.observe("rtt", np.arange(900, dtype=np.float64))
                saved = client.checkpoint()
                assert saved["path"] == path
        restored = Monitor.load(path)
        assert restored._channels["rtt"].seen == 900

    def test_failed_checkpoint_save_is_reported_not_fatal(self, tmp_path):
        """A save to an unwritable path must not kill the server or the
        periodic thread: the op errors, stats carry last_error, and a
        later save to a healed path succeeds."""
        path = str(tmp_path / "gone" / "ckpt.json")  # parent does not exist
        with TelemetryServer(make_monitor(), checkpoint_path=path) as server:
            host, port = server.address
            with TelemetryClient(host, port) as client:
                client.observe("rtt", np.ones(100))
                with pytest.raises(ServerError, match="checkpoint save"):
                    client.checkpoint()
                stats = client.stats()
                assert stats["checkpoint"]["last_error"]
                assert stats["checkpoint"]["saves"] == 0
                assert stats["checkpoint"]["failures"] == 1
                # The server still serves.
                assert client.snapshot() is not None
                (tmp_path / "gone").mkdir()
                saved = client.checkpoint()
                assert saved["saves"] == 1
        assert Monitor.load(path)._channels["rtt"].seen == 100

    def test_periodic_checkpoint_thread_saves(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with TelemetryServer(
            make_monitor(), checkpoint_path=path, checkpoint_interval=0.1
        ) as server:
            host, port = server.address
            with TelemetryClient(host, port) as client:
                client.observe("rtt", np.ones(100))
                deadline = time.monotonic() + 5.0
                while server._checkpoint_saves == 0:
                    assert time.monotonic() < deadline, "no periodic save"
                    time.sleep(0.05)
        assert Monitor.load(path)._channels["rtt"].seen == 100

    def test_periodic_checkpoint_failures_are_logged_and_counted(
        self, tmp_path, caplog
    ):
        """Every failed periodic save is logged and counted; the server
        keeps serving."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        path = str(blocker / "ckpt.json")  # parent is a regular file
        with caplog.at_level("ERROR", logger="repro.service.server"):
            with TelemetryServer(
                make_monitor(), checkpoint_path=path, checkpoint_interval=0.05
            ) as server:
                host, port = server.address
                with TelemetryClient(host, port) as client:
                    client.observe("rtt", np.ones(100))
                    deadline = time.monotonic() + 5.0
                    while server._checkpoint_failures < 2:
                        assert time.monotonic() < deadline, "no failed saves"
                        time.sleep(0.05)
                    stats = client.stats()
                    assert stats["checkpoint"]["failures"] >= 2
                    assert stats["checkpoint"]["saves"] == 0
                    assert stats["checkpoint"]["last_error"]
                    assert client.snapshot() is not None
        failures = [
            record
            for record in caplog.records
            if record.name == "repro.service.server" and path in record.getMessage()
        ]
        assert len(failures) >= 2
        assert all(record.levelname == "ERROR" for record in failures)

    def test_handler_exceptions_are_logged_and_counted(
        self, server, client, monkeypatch, caplog
    ):
        """A handler that raises answers with an error, logs the traceback,
        counts it, and leaves the connection serving."""
        handle = server._handle

        def failing(request):
            if request.get("op") == "snapshot":
                raise RuntimeError("boom")
            return handle(request)

        monkeypatch.setattr(server, "_handle", failing)
        with caplog.at_level("ERROR", logger="repro.service.server"):
            with pytest.raises(ServerError, match="internal error handling 'snapshot': boom"):
                client.snapshot()
        (record,) = [r for r in caplog.records if r.name == "repro.service.server"]
        assert "'snapshot'" in record.getMessage()
        assert record.exc_info[0] is RuntimeError
        assert client.stats()["pipeline"]["internal_errors"] == 1

    def test_shutdown_op_releases_wait_shutdown(self, server, client):
        assert not server.wait_shutdown(timeout=0.0)
        response = client.shutdown()
        assert response["stopping"] is True
        assert server.wait_shutdown(timeout=2.0)


class TestShutdownReply:
    """The ``shutdown`` reply always reaches the client, even when the
    server's owner stops it the moment ``wait_shutdown`` returns."""

    ROUNDS = 50

    @staticmethod
    def _shutdown_then_stop() -> dict:
        server = TelemetryServer(make_monitor())
        send = server._send

        def slow_send(conn, response, protocol, request_op):
            if request_op == "shutdown":
                # Widen the window in which an early stop() would close
                # the connection before the reply is written.
                time.sleep(0.25)
            send(conn, response, protocol, request_op)

        server._send = slow_send
        server.start()

        def owner():
            server.wait_shutdown(timeout=10.0)
            server.stop()

        stopper = threading.Thread(target=owner, daemon=True)
        stopper.start()
        try:
            host, port = server.address
            with TelemetryClient(host, port, timeout=10.0) as client:
                reply = client.shutdown()
        finally:
            stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        return reply

    def test_shutdown_then_stop_always_replies(self):
        # Rounds run on a few threads at once to bound the wall time.
        with ThreadPoolExecutor(max_workers=10) as pool:
            replies = list(
                pool.map(lambda _: self._shutdown_then_stop(), range(self.ROUNDS))
            )
        assert [reply.get("stopping") for reply in replies] == [True] * self.ROUNDS


class TestShutdownDrain:
    """Clean shutdown applies every accepted block: zero event loss."""

    def test_stop_drains_queued_blocks(self):
        server = TelemetryServer(make_monitor(), queue_blocks=256)
        server.start()
        host, port = server.address
        sent = 0
        with TelemetryClient(host, port) as client:
            for i in range(40):
                client.observe("rtt", np.full(123, float(i)))
                sent += 123
        server.stop()  # drain=True default
        assert server.monitor._channels["rtt"].seen == sent

    def test_stop_applies_parked_blocks_rather_than_losing_them(self):
        """A sender that dies before filling a seq gap: its parked blocks
        are force-applied on shutdown instead of discarded."""
        server = TelemetryServer(make_monitor())
        server.start()
        host, port = server.address
        with TelemetryClient(host, port) as client:
            client.observe("rtt", np.ones(100), seq=0)
            client.observe("rtt", np.full(100, 3.0), seq=2)  # gap at seq=1
            client.observe("rtt", np.full(100, 4.0), seq=3)
        server.stop()
        assert server.monitor._channels["rtt"].seen == 300
        assert server._forced_blocks == 2

    def test_forced_parked_blocks_are_logged_per_route(self, caplog):
        server = TelemetryServer(make_monitor())
        server.start()
        host, port = server.address
        with TelemetryClient(host, port) as client:
            client.observe("rtt", np.ones(100), seq=0)
            client.observe("rtt", np.full(100, 3.0), seq=2)  # gap at seq=1
            client.observe("rtt", np.full(100, 4.0), seq=3)
            client.observe("rtt.exact", np.ones(100), seq=4)  # gap at seq=0
        with caplog.at_level("WARNING", logger="repro.service.server"):
            server.stop()
        messages = [
            r.getMessage()
            for r in caplog.records
            if r.name == "repro.service.server" and r.levelname == "WARNING"
        ]
        assert messages == [
            "shutdown force-applied 2 parked block(s) of rtt past a seq gap; "
            "lowest missing seq 1",
            "shutdown force-applied 1 parked block(s) of rtt.exact past a seq "
            "gap; lowest missing seq 0",
        ]

    def test_shed_mode_server_reports_sheds_in_ack_and_stats(self):
        server = TelemetryServer(
            make_monitor(), queue_blocks=1, backpressure="shed"
        )
        server.start()
        # Pause the consumer so the queue genuinely fills.
        with server._monitor_lock:
            host, port = server.address
            with TelemetryClient(host, port) as client:
                acks = [
                    client.observe("rtt", np.ones(50))["accepted"]
                    for _ in range(6)
                ]
        assert not all(acks), "with a 1-block queue some acks must shed"
        with TelemetryClient(host, port) as client:
            stats = client.stats()
        assert stats["ingest"]["shed_blocks"] >= 1
        accepted = stats["ingest"]["accepted_events"]
        shed = stats["ingest"]["shed_events"]
        assert accepted + shed == 300
        server.stop()
        # Accepted events all applied; shed events knowingly dropped.
        assert server.monitor._channels["rtt"].seen == accepted

    def test_shed_sequenced_block_does_not_wedge_the_pipeline(self):
        """A shed block must not leave a permanent seq gap: the server
        enqueues a marker so later accepted blocks still apply, and
        flush drains instead of timing out."""
        server = TelemetryServer(
            make_monitor(), queue_blocks=1, backpressure="shed", flush_timeout=5.0
        )
        server.start()
        host, port = server.address
        with server._monitor_lock:  # pause the consumer → queue fills
            with TelemetryClient(host, port) as client:
                acks = [
                    client.observe("rtt", np.full(50, float(i)), seq=i)[
                        "accepted"
                    ]
                    for i in range(6)
                ]
        assert not all(acks)
        with TelemetryClient(host, port) as client:
            flush = client.flush()
            stats = client.stats()
        assert flush["drained"] is True, "shed seqs must not park the pipeline"
        assert stats["pipeline"]["parked_blocks"] == 0
        accepted_events = stats["ingest"]["accepted_events"]
        server.stop()
        assert server.monitor._channels["rtt"].seen == accepted_events

    def test_context_manager_stops_cleanly(self):
        with TelemetryServer(make_monitor()) as server:
            host, port = server.address
            with TelemetryClient(host, port) as client:
                client.observe("rtt", np.ones(10))
        assert server.monitor._channels["rtt"].seen == 10

    def test_stop_without_drain_abandons_parked_blocks(self):
        """Crash simulation: stop(drain=False) must not quietly apply
        work the 'crashed' process would have lost."""
        server = TelemetryServer(make_monitor(), flush_timeout=2.0)
        server.start()
        host, port = server.address
        with TelemetryClient(host, port) as client:
            client.observe("rtt", np.ones(100), seq=0)
            client.observe("rtt", np.full(100, 3.0), seq=2)  # parks: gap at 1
            client.flush()
        server.stop(drain=False)
        assert server.monitor._channels["rtt"].seen == 100
        assert server._forced_blocks == 0

    def test_ingest_queue_drop_all(self):
        q = IngestQueue(capacity=4)
        q.put(block(10))
        q.put(block(10))
        assert q.drop_all() == 2
        assert q.qsize() == 0

    def test_configuration_errors_are_actionable(self):
        with pytest.raises(ValueError, match="checkpoint_interval without"):
            TelemetryServer(make_monitor(), checkpoint_interval=5.0)
        with pytest.raises(ValueError, match="must be positive"):
            TelemetryServer(
                make_monitor(), checkpoint_path="x.json", checkpoint_interval=0
            )
