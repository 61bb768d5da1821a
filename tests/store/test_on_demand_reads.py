"""The index holds coordinates only; segment state is read from disk.

Pins the bounded-memory contract of :class:`SegmentStore` (no decoded
state stays in RAM), that byte offsets survive every rewrite, and that a
record which changed on disk after open is refused, never served.
"""

from __future__ import annotations

import json
import logging
import tracemalloc

import pytest

from repro.store import Segment, SegmentStore, StoreError, encode_line, query_range
from repro.store.segment import decode_line

from tests.store.conftest import make_spec, stream_values, write_history

SEGMENTS = 2000


def qlove_state() -> str:
    """One sealed QLOVE period's state, as the JSON a writer would append."""
    spec = make_spec("qlove")
    policy = spec.build_policy()
    policy.accumulate_batch(stream_values(0, 1))
    policy.seal_subwindow()
    return json.dumps(policy.to_state())


def assert_index_holds_no_state(store: SegmentStore, metric: str) -> None:
    entries = store._logs[metric].entries
    assert entries, "nothing indexed"
    for entry in entries:
        assert not any(isinstance(field, (dict, Segment)) for field in entry)


class TestIndexMemory:
    def test_appending_2000_segments_keeps_the_store_small(self, tmp_path):
        spec = make_spec("qlove")
        template = qlove_state()
        store = SegmentStore(str(tmp_path / "hist"))
        store.register(spec)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for period in range(SEGMENTS):
                # A freshly decoded state per segment, like a real writer's.
                store.append(
                    Segment(spec.name, period, period + 1, 250, json.loads(template))
                )
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert store.coverage(spec.name) == (0, SEGMENTS)
        assert growth < 1_000_000, f"store grew {growth / 1e6:.2f} MB"
        assert_index_holds_no_state(store, spec.name)
        store.close()

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reopened = SegmentStore(str(tmp_path / "hist"))
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert reopened.coverage(spec.name) == (0, SEGMENTS)
        assert growth < 1_000_000, f"reopen grew {growth / 1e6:.2f} MB"
        assert_index_holds_no_state(reopened, spec.name)


class TestOffsetsSurviveRewrites:
    """compact → append → prune → reopen answers like a store that never
    ran any of those steps."""

    PERIODS = 24

    def test_maintained_store_answers_like_an_untouched_one(self, tmp_path):
        spec = make_spec("qlove")
        values = stream_values(5, self.PERIODS)
        reference = write_history(tmp_path, [spec], values, subdir="reference")
        fine = reference.segments(spec.name)
        reference.close()

        store = SegmentStore(str(tmp_path / "maintained"))
        store.register(spec)
        for segment in fine[:16]:
            store.append(segment)
        assert store.compact(rollup_periods=4, min_age=4) == 3
        for segment in fine[16:]:
            store.append(segment)
        assert store.prune(max_periods=self.PERIODS - 4) == 1
        assert store.compact(rollup_periods=4, min_age=4) == 2
        assert store.coverage(spec.name) == (4, self.PERIODS)

        ranges = [(4, 8), (4, 24), (8, 16), (12, 24), (20, 21), (23, 24)]

        def answers(target: SegmentStore):
            return [
                {
                    key: result[key]
                    for key in ("start_period", "end_period", "count", "quantiles")
                }
                for result in (
                    query_range(target, spec.name, start, end)
                    for start, end in ranges
                )
            ]

        expected = answers(reference)
        assert answers(store) == expected
        store.close()
        reopened = SegmentStore(str(tmp_path / "maintained"))
        assert answers(reopened) == expected
        assert [(s.kind, s.start_period, s.end_period) for s in reopened.segments(spec.name)] == [
            ("rollup", 4, 8),
            ("rollup", 8, 12),
            ("rollup", 12, 16),
            ("rollup", 16, 20),
        ] + [("period", p, p + 1) for p in range(20, self.PERIODS)]
        # Appends after the reopen land at the recovered offsets too.
        assert reopened.segments(spec.name)[-1].state == fine[-1].state


class TestIntegrityOnRead:
    @pytest.fixture()
    def opened(self, tmp_path):
        spec = make_spec("exact", name="rtt")
        store = write_history(tmp_path, [spec], stream_values(2, 6))
        yield store, tmp_path / "hist" / "rtt.seg"
        store.close()

    def test_corrupted_record_raises_naming_file_metric_and_offset(self, opened):
        store, path = opened
        entry = store._logs["rtt"].entries[3]
        raw = bytearray(path.read_bytes())
        raw[entry.offset + 20] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreError) as caught:
            store.covering("rtt", 2, 5)
        message = str(caught.value)
        assert str(path) in message
        assert "'rtt'" in message
        assert f"byte offset {entry.offset}" in message
        # Records the corruption did not touch still read.
        assert len(store.covering("rtt", 0, 3)) == 3

    def test_truncated_log_raises(self, opened):
        store, path = opened
        entry = store._logs["rtt"].entries[5]
        with open(path, "r+b") as handle:
            handle.truncate(entry.offset + entry.length - 1)
        with pytest.raises(StoreError, match=f"byte offset {entry.offset}"):
            store.segments("rtt")

    def test_log_replaced_under_an_open_store_raises(self, opened, tmp_path):
        store, _ = opened
        # Another handle compacts the same directory: offsets all move.
        with SegmentStore(str(tmp_path / "hist")) as other:
            assert other.compact(rollup_periods=2, min_age=0) == 3
        with pytest.raises(StoreError, match="integrity check"):
            store.covering("rtt", 4, 6)

    def test_an_intact_but_different_record_is_refused(self, opened):
        """A record that passes its CRC but is not the one indexed at
        that offset (same length, other coordinates) is not served."""
        store, path = opened
        entry = store._logs["rtt"].entries[2]
        raw = path.read_bytes()
        record = decode_line(raw[entry.offset : entry.offset + entry.length])
        record["count"] += 1  # 250 -> 251: same length, valid CRC
        line = encode_line(record)
        assert len(line) == entry.length
        path.write_bytes(
            raw[: entry.offset] + line + raw[entry.offset + entry.length :]
        )
        with pytest.raises(StoreError, match="does not match its index entry"):
            store.covering("rtt", 2, 3)


class TestTornTailIsLogged:
    def test_truncation_warns_with_file_offset_and_records(self, tmp_path, caplog):
        spec = make_spec("exact", name="rtt")
        store = write_history(tmp_path, [spec], stream_values(4, 6))
        store.close()
        path = tmp_path / "hist" / "rtt.seg"
        lines = path.read_bytes().splitlines(keepends=True)
        torn_at = sum(len(line) for line in lines[:4])  # spec + 3 segments
        corrupted = bytearray(lines[4])
        corrupted[12] ^= 0xFF
        path.write_bytes(b"".join(lines[:4]) + bytes(corrupted) + b"".join(lines[5:]))
        with caplog.at_level(logging.WARNING, logger="repro.store.store"):
            reopened = SegmentStore(str(tmp_path / "hist"))
        assert reopened.coverage("rtt") == (0, 3)
        # The torn record and the two intact ones after it.
        assert reopened.torn_records_dropped == 3
        (record,) = [r for r in caplog.records if r.name == "repro.store.store"]
        assert record.levelname == "WARNING"
        message = record.getMessage()
        assert str(path) in message
        assert f"byte offset {torn_at}" in message
        assert "3 record(s)" in message
