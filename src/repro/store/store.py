"""``SegmentStore``: an append-only, time-indexed store of sketch segments.

The durable half of the historical quantile layer (see
``docs/history.md``).  One directory holds:

- ``MANIFEST.json`` — store format tag and version (atomic write);
- one ``<metric>.seg`` log per metric — a spec record followed by
  segment records, each a CRC-framed line (:mod:`repro.store.segment`).

**Append-only discipline.**  Normal operation only ever appends whole
framed lines and flushes them; the bytes of committed records are never
rewritten in place.  The two mutating maintenance operations —
:meth:`compact` and :meth:`prune` — rewrite a metric's log into a temp
file and ``os.replace`` it (the same atomic idiom ``Monitor.save`` uses),
so a crash at any instant leaves either the old or the new log, both
intact.

**Crash safety.**  On open, every log is scanned record by record; the
first torn record (bad CRC, missing newline, undecodable body) marks the
end of committed history — the in-memory index stops there and the file
is truncated back to the last intact byte before new appends (logged as
a warning and counted).  There is no separate index file to desync: the
index is always rebuilt from the data, which is what makes ``kill -9``
mid-append recoverable.

**Bounded memory.**  The index holds only each segment's coordinates —
its period range, event count, kind and the byte span of its record
line — never its sketch state.  Reads (:meth:`SegmentStore.covering`,
:meth:`SegmentStore.segments`) fetch those byte spans from the log and
CRC-check and decode them on demand, so server memory does not grow
with the length of history.  A record that fails its check on such a
read (the file changed under an open store) raises :class:`StoreError`;
a torn record is never served.

**Idempotent re-append.**  A writer resuming from a checkpoint may replay
periods whose segments were already committed (the store outlived the
crash; the checkpoint is older).  ``append`` skips a segment whose period
range is already covered, counting it in ``duplicates_skipped`` — replay
is safe by construction.
"""

from __future__ import annotations

import bisect
import json
import logging
import os
import tempfile
import urllib.parse
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro import serde
from repro.store.segment import (
    Segment,
    TornRecord,
    decode_line,
    encode_line,
    read_spec_record,
    spec_record,
)

#: File-format tag written into ``MANIFEST.json``.
STORE_FORMAT = "repro-history-store"

#: Store layout version (directory structure + record framing).
STORE_VERSION = 1

#: Suffix of per-metric segment logs.
LOG_SUFFIX = ".seg"

logger = logging.getLogger(__name__)


class StoreError(ValueError):
    """A store operation that cannot proceed (bad directory, bad query)."""


@dataclass(frozen=True)
class RetentionPolicy:
    """How much history to keep and how to coarsen it.

    Parameters
    ----------
    max_periods:
        Keep at most this many trailing periods per metric; segments
        falling entirely before ``newest_end - max_periods`` are dropped
        by :meth:`SegmentStore.prune`.  ``None`` keeps everything.
    rollup_periods:
        Target width (in periods) of compacted rollup segments; runs of
        adjacent fine segments compact into rollups of this many periods.
        ``None`` disables compaction.
    rollup_min_age:
        Only periods at least this far behind the newest committed period
        are eligible for compaction — the recent tail stays fine-grained
        so point-in-time queries over fresh history keep period
        resolution.
    """

    max_periods: Optional[int] = None
    rollup_periods: Optional[int] = None
    rollup_min_age: int = 0

    def __post_init__(self) -> None:
        for name in ("max_periods", "rollup_periods"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool) or value < 1
            ):
                raise ValueError(
                    f"retention {name} must be a positive int or None, got {value!r}"
                )
        age = self.rollup_min_age
        if not isinstance(age, int) or isinstance(age, bool) or age < 0:
            raise ValueError(
                f"retention rollup_min_age must be a non-negative int, got {age!r}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RetentionPolicy":
        if not isinstance(data, Mapping):
            raise ValueError(
                f"a retention policy must be a mapping, got {type(data).__name__}"
            )
        known = ("max_periods", "rollup_periods", "rollup_min_age")
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"unknown retention key(s) {unknown}; accepted: {list(known)}"
            )
        return cls(
            max_periods=data.get("max_periods"),
            rollup_periods=data.get("rollup_periods"),
            rollup_min_age=data.get("rollup_min_age", 0),
        )


def _metric_filename(metric: str) -> str:
    """A filesystem-safe log name for a metric (percent-encoded)."""
    return urllib.parse.quote(metric, safe="") + LOG_SUFFIX


def _metric_from_filename(filename: str) -> str:
    return urllib.parse.unquote(filename[: -len(LOG_SUFFIX)])


class _Entry(NamedTuple):
    """Where one committed segment lives: its coordinates, not its state."""

    start_period: int
    end_period: int
    count: int
    kind: str
    #: Byte offset and length of the segment's record line in the log.
    offset: int
    length: int

    @classmethod
    def of(cls, segment: Segment, offset: int, length: int) -> "_Entry":
        return cls(
            segment.start_period,
            segment.end_period,
            segment.count,
            segment.kind,
            offset,
            length,
        )

    @property
    def periods(self) -> int:
        return self.end_period - self.start_period


class _MetricLog:
    """In-memory index of one metric's segment log."""

    __slots__ = ("spec_dict", "entries", "starts", "valid_bytes")

    def __init__(self, spec_dict: Dict[str, Any]) -> None:
        self.spec_dict = spec_dict
        self.entries: List[_Entry] = []
        #: Sorted start_period of each indexed segment (bisect key).
        self.starts: List[int] = []
        self.valid_bytes = 0

    @property
    def next_period(self) -> int:
        """First period not yet covered by a committed segment."""
        return self.entries[-1].end_period if self.entries else 0


class SegmentStore:
    """A directory of per-metric, time-indexed segment logs.

    Parameters
    ----------
    directory:
        The store directory; created (parents included) when missing.
    retention:
        Default :class:`RetentionPolicy` (or its dict form) applied by
        :meth:`maintain`; ``None`` keeps all history at full resolution.
    """

    def __init__(
        self,
        directory: str,
        retention: Optional[RetentionPolicy] = None,
    ) -> None:
        if isinstance(retention, Mapping):
            retention = RetentionPolicy.from_dict(retention)
        if retention is not None and not isinstance(retention, RetentionPolicy):
            raise StoreError(
                f"retention must be a RetentionPolicy or its dict form, got "
                f"{type(retention).__name__}"
            )
        self.directory = os.path.abspath(directory)
        self.retention = retention
        self.duplicates_skipped = 0
        self.torn_records_dropped = 0
        self._logs: Dict[str, _MetricLog] = {}
        self._handles: Dict[str, Any] = {}
        self._open_directory()

    # ------------------------------------------------------------------
    # Opening / recovery
    # ------------------------------------------------------------------
    def _open_directory(self) -> None:
        manifest_path = os.path.join(self.directory, "MANIFEST.json")
        if os.path.isfile(self.directory):
            raise StoreError(
                f"history store path {self.directory!r} is a file, not a "
                "directory; pass a directory path"
            )
        os.makedirs(self.directory, exist_ok=True)
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                raise StoreError(
                    f"{manifest_path}: unreadable store manifest ({exc}); the "
                    "directory is not a history store or its manifest is corrupted"
                ) from None
            if not isinstance(manifest, dict) or manifest.get("format") != STORE_FORMAT:
                raise StoreError(
                    f"{manifest_path}: not a history-store manifest (expected "
                    f"format {STORE_FORMAT!r}); pass a directory created by "
                    "SegmentStore or an empty/new path"
                )
            version = manifest.get("version")
            if not isinstance(version, int) or version < 1 or version > STORE_VERSION:
                raise StoreError(
                    f"{manifest_path}: unknown store version {version!r}; this "
                    f"build reads versions 1..{STORE_VERSION} — the store was "
                    "written by a newer release (upgrade this installation)"
                )
        else:
            if any(name.endswith(LOG_SUFFIX) for name in os.listdir(self.directory)):
                raise StoreError(
                    f"{self.directory}: contains segment logs but no manifest; "
                    "the store was only partially created or the manifest was "
                    "deleted — restore MANIFEST.json or move the logs aside"
                )
            self._write_atomic(
                manifest_path,
                json.dumps(
                    {"format": STORE_FORMAT, "version": STORE_VERSION},
                    separators=(",", ":"),
                )
                + "\n",
            )
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(LOG_SUFFIX):
                self._load_log(_metric_from_filename(name))

    def _load_log(self, metric: str) -> None:
        """Scan one log, rebuild its index, truncate any torn tail."""
        path = self._log_path(metric)
        log: Optional[_MetricLog] = None
        valid_bytes = 0
        dropped = 0
        with open(path, "rb") as handle:
            while True:
                line = handle.readline()
                if not line:
                    break
                try:
                    record = decode_line(line)
                    kind = record.get("kind") if isinstance(record, dict) else None
                    if log is None:
                        log = _MetricLog(read_spec_record(record))
                    elif kind == "segment":
                        segment = Segment.from_record(record)
                        if segment.metric != metric:
                            raise serde.StateError(
                                f"segment for metric {segment.metric!r} found in "
                                f"{metric!r}'s log"
                            )
                        self._index_segment(log, segment, valid_bytes, len(line))
                    else:
                        raise serde.StateError(
                            f"unexpected record kind {kind!r} in segment log"
                        )
                except (TornRecord, serde.StateError):
                    # Committed history ends at the last intact record; the
                    # torn/foreign record and everything after it are
                    # dropped (and truncated below).
                    dropped = 1 + sum(1 for _ in handle)
                    break
                valid_bytes += len(line)
        if dropped:
            self.torn_records_dropped += dropped
            logger.warning(
                "%s: torn record at byte offset %d; dropping %d record(s) "
                "from there to the end of the log",
                path,
                valid_bytes,
                dropped,
            )
        if log is None:
            # Even the spec record is torn: nothing of this metric was
            # durably committed. Drop the file entirely.
            os.unlink(path)
            return
        log.valid_bytes = valid_bytes
        actual = os.path.getsize(path)
        if actual > valid_bytes:
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)
        self._logs[metric] = log

    @staticmethod
    def _index_segment(
        log: _MetricLog, segment: Segment, offset: int, length: int
    ) -> None:
        if log.entries and segment.start_period < log.next_period:
            # Replayed history after a checkpoint resume: already covered.
            raise _Duplicate()
        log.entries.append(_Entry.of(segment, offset, length))
        log.starts.append(segment.start_period)

    # ------------------------------------------------------------------
    # Registration / append
    # ------------------------------------------------------------------
    def register(self, spec: Any) -> None:
        """Ensure a metric's log exists and its spec matches ``spec``.

        ``spec`` is a :class:`~repro.service.spec.MetricSpec` or its dict
        form.  Registering an existing metric verifies spec equality — a
        store must not silently mix segments of differently-configured
        metrics under one name.
        """
        from repro.service.spec import MetricSpec

        if isinstance(spec, Mapping):
            spec = MetricSpec.from_dict(spec)
        if not isinstance(spec, MetricSpec):
            raise StoreError(
                f"register() takes a MetricSpec or its dict form, got "
                f"{type(spec).__name__}"
            )
        spec_dict = spec.to_dict()
        existing = self._logs.get(spec.name)
        if existing is not None:
            if existing.spec_dict != spec_dict:
                raise StoreError(
                    f"metric {spec.name!r} is already stored with a different "
                    "configuration; open a fresh store directory or use the "
                    "spec the store was created with (spec/store mismatch)"
                )
            return
        log = _MetricLog(spec_dict)
        line = encode_line(spec_record(spec.name, spec_dict))
        handle = self._handle(spec.name)
        handle.write(line)
        handle.flush()
        log.valid_bytes = len(line)
        self._logs[spec.name] = log

    def append(self, segment: Segment) -> bool:
        """Durably append one segment; returns whether it was new.

        Segments must arrive in time order per metric (``start_period ==``
        the log's next period).  A segment that is already covered is
        skipped idempotently (checkpoint-replay discipline, see the module
        docstring); a gap or overlap that is *not* a clean replay raises.
        """
        log = self._require_metric(segment.metric)
        # An empty log accepts any starting period: a recorder attached
        # mid-life (e.g. after resuming a pre-history checkpoint) begins
        # committed history wherever it first observes a full period.
        if log.entries:
            next_period = log.next_period
            if segment.end_period <= next_period:
                self.duplicates_skipped += 1
                return False
            if segment.start_period < next_period:
                raise StoreError(
                    f"metric {segment.metric!r}: segment "
                    f"[{segment.start_period}, {segment.end_period}) overlaps "
                    f"committed history (next period is {next_period}); "
                    "segments must replay exactly or continue the log"
                )
            if segment.start_period > next_period:
                raise StoreError(
                    f"metric {segment.metric!r}: segment starts at period "
                    f"{segment.start_period} but the log's next period is "
                    f"{next_period}; history must be gap-free — replay the "
                    "missing periods first"
                )
        line = encode_line(segment.to_record())
        handle = self._handle(segment.metric)
        handle.write(line)
        handle.flush()
        self._index_segment(log, segment, log.valid_bytes, len(line))
        log.valid_bytes += len(line)
        return True

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def metrics(self) -> List[str]:
        """Stored metric names, sorted."""
        return sorted(self._logs)

    def spec_dict(self, metric: str) -> Dict[str, Any]:
        """The canonical spec dict the metric's log was created with."""
        return dict(self._require_metric(metric).spec_dict)

    def spec(self, metric: str):
        """The metric's :class:`~repro.service.spec.MetricSpec`."""
        from repro.service.spec import MetricSpec

        return MetricSpec.from_dict(self.spec_dict(metric))

    def segments(self, metric: str) -> List[Segment]:
        """All committed segments of a metric, in time order (read from disk)."""
        return self._read(metric, self._require_metric(metric).entries)

    def coverage(self, metric: str) -> Tuple[int, int]:
        """The committed period range ``[first, next)`` of a metric."""
        log = self._require_metric(metric)
        if not log.entries:
            return (0, 0)
        return (log.entries[0].start_period, log.next_period)

    def covering(self, metric: str, start: int, end: int) -> List[Segment]:
        """The segments whose union is exactly periods ``[start, end)``.

        The segments are read from the log on demand (see :meth:`_read`).
        Raises :class:`StoreError` with an actionable message when the
        range is outside committed history, spans a retention gap, or cuts
        through a rollup segment (compaction coarsened those periods; the
        error names the achievable boundaries).
        """
        log = self._require_metric(metric)
        if not isinstance(start, int) or not isinstance(end, int) or isinstance(
            start, bool
        ) or isinstance(end, bool):
            raise StoreError(
                f"period range bounds must be ints, got [{start!r}, {end!r})"
            )
        if end <= start:
            raise StoreError(
                f"period range [{start}, {end}) is empty; end must exceed start"
            )
        first, nxt = self.coverage(metric)
        if not log.entries or start < first or end > nxt:
            raise StoreError(
                f"metric {metric!r}: periods [{start}, {end}) are outside "
                f"committed history [{first}, {nxt}); older periods may have "
                "been dropped by retention"
            )
        index = bisect.bisect_right(log.starts, start) - 1
        chosen: List[_Entry] = []
        cursor = start
        while cursor < end:
            entry = log.entries[index]
            if entry.start_period != cursor:
                boundaries = self._boundaries_near(log, start, end)
                raise StoreError(
                    f"metric {metric!r}: period {cursor} falls inside the "
                    f"compacted segment [{entry.start_period}, "
                    f"{entry.end_period}); ranges must align with segment "
                    f"boundaries — nearest achievable: {boundaries}"
                )
            if entry.end_period > end:
                boundaries = self._boundaries_near(log, start, end)
                raise StoreError(
                    f"metric {metric!r}: period range [{start}, {end}) ends "
                    f"inside the compacted segment [{entry.start_period}, "
                    f"{entry.end_period}); ranges must align with segment "
                    f"boundaries — nearest achievable: {boundaries}"
                )
            chosen.append(entry)
            cursor = entry.end_period
            index += 1
        return self._read(metric, chosen)

    def _read(self, metric: str, entries: Sequence[_Entry]) -> List[Segment]:
        """Load indexed segments (in log order) back from the metric's log.

        One read spans the entries' byte ranges; each record is then
        CRC-checked, decoded and matched against the coordinates it was
        indexed under.  Any mismatch means the file changed after the
        store opened it, and raises :class:`StoreError` rather than serve
        a torn or foreign record.
        """
        if not entries:
            return []
        path = self._log_path(metric)
        begin = entries[0].offset
        try:
            with open(path, "rb") as handle:
                handle.seek(begin)
                blob = handle.read(entries[-1].offset + entries[-1].length - begin)
        except OSError as exc:
            raise StoreError(
                f"{path}: cannot read metric {metric!r} from byte offset "
                f"{begin} ({exc})"
            ) from None
        segments: List[Segment] = []
        for entry in entries:
            at = entry.offset - begin
            try:
                segment = Segment.from_record(decode_line(blob[at : at + entry.length]))
                if (
                    segment.metric != metric
                    or _Entry.of(segment, entry.offset, entry.length) != entry
                ):
                    raise serde.StateError(
                        f"record of {segment.metric!r} {segment.kind} "
                        f"[{segment.start_period}, {segment.end_period}) with "
                        f"{segment.count} events does not match its index "
                        f"entry {entry.kind} [{entry.start_period}, "
                        f"{entry.end_period}) with {entry.count} events"
                    )
            except (TornRecord, serde.StateError) as exc:
                raise StoreError(
                    f"{path}: metric {metric!r}: the record at byte offset "
                    f"{entry.offset} fails its integrity check ({exc}); the "
                    "log changed after the store opened it — reopen the store "
                    "to recover its committed history"
                ) from None
            segments.append(segment)
        return segments

    @staticmethod
    def _boundaries_near(log: _MetricLog, start: int, end: int) -> List[int]:
        """A handful of valid segment boundaries around a failed range."""
        boundaries = sorted(
            {log.entries[0].start_period}
            | {entry.end_period for entry in log.entries}
        )
        lo = bisect.bisect_left(boundaries, start) - 2
        hi = bisect.bisect_right(boundaries, end) + 2
        return boundaries[max(0, lo) : hi]

    # ------------------------------------------------------------------
    # Retention + compaction
    # ------------------------------------------------------------------
    def compact(
        self,
        metric: Optional[str] = None,
        *,
        rollup_periods: Optional[int] = None,
        min_age: Optional[int] = None,
    ) -> int:
        """Roll fine segments into coarser rollups; returns rollups built.

        Runs of adjacent segments older than ``min_age`` periods behind
        the newest committed period merge into rollup segments covering
        ``rollup_periods`` periods each (runs shorter than a full rollup
        stay as they are — compaction never changes committed coverage,
        only its granularity).  Defaults come from the store's
        :class:`RetentionPolicy`.
        """
        policy = self.retention or RetentionPolicy()
        rollup = rollup_periods if rollup_periods is not None else policy.rollup_periods
        age = min_age if min_age is not None else policy.rollup_min_age
        if rollup is None:
            return 0
        if not isinstance(rollup, int) or isinstance(rollup, bool) or rollup < 2:
            raise StoreError(
                f"rollup_periods must be an int >= 2, got {rollup!r}"
            )
        names = [metric] if metric is not None else self.metrics()
        built = 0
        for name in names:
            built += self._compact_metric(name, rollup, age)
        return built

    def _compact_metric(self, metric: str, rollup: int, min_age: int) -> int:
        from repro.store.query import merge_segments

        log = self._require_metric(metric)
        horizon = log.next_period - min_age
        # The rewritten log, planned on coordinates alone: each group
        # becomes one segment — a rollup when it holds more than one.
        groups: List[List[_Entry]] = []
        run: List[_Entry] = []

        def flush_run() -> None:
            while len(run) and run[0].periods >= rollup:
                groups.append([run.pop(0)])
            while run:
                batch: List[_Entry] = []
                width = 0
                while run and width + run[0].periods <= rollup:
                    width += run[0].periods
                    batch.append(run.pop(0))
                if not batch:
                    # A single segment wider than the target: keep as-is.
                    groups.append([run.pop(0)])
                    continue
                if width < rollup or len(batch) == 1:
                    # A remnant shorter than a full rollup (or already one
                    # segment): leave fine-grained for a later pass.
                    groups.extend([entry] for entry in batch)
                    continue
                groups.append(batch)

        for entry in log.entries:
            if entry.end_period <= horizon:
                run.append(entry)
            else:
                flush_run()
                groups.append([entry])
        flush_run()
        built = sum(1 for group in groups if len(group) > 1)
        if built:
            segments = iter(self._read(metric, log.entries))
            rewritten = []
            for group in groups:
                batch = [next(segments) for _ in group]
                rewritten.append(
                    merge_segments(batch, kind="rollup") if len(batch) > 1 else batch[0]
                )
            self._rewrite_log(metric, rewritten)
        return built

    def prune(self, metric: Optional[str] = None, *, max_periods: Optional[int] = None) -> int:
        """Drop segments outside the retention horizon; returns drops.

        A segment is dropped only when it lies *entirely* before
        ``newest_end - max_periods`` — retention never truncates inside a
        segment, so surviving history stays queryable at its boundaries.
        """
        policy = self.retention or RetentionPolicy()
        keep = max_periods if max_periods is not None else policy.max_periods
        if keep is None:
            return 0
        if not isinstance(keep, int) or isinstance(keep, bool) or keep < 1:
            raise StoreError(f"max_periods must be a positive int, got {keep!r}")
        names = [metric] if metric is not None else self.metrics()
        dropped = 0
        for name in names:
            log = self._require_metric(name)
            horizon = log.next_period - keep
            kept = [e for e in log.entries if e.end_period > horizon]
            if len(kept) != len(log.entries):
                dropped += len(log.entries) - len(kept)
                self._rewrite_log(name, self._read(name, kept))
        return dropped

    def maintain(self) -> Dict[str, int]:
        """One retention pass: compact then prune, per the store policy."""
        return {"rollups_built": self.compact(), "segments_dropped": self.prune()}

    def _rewrite_log(self, metric: str, segments: List[Segment]) -> None:
        """Atomically replace a metric's log with the given segments."""
        log = self._logs[metric]
        path = self._log_path(metric)
        handle = self._handles.pop(metric, None)
        if handle is not None:
            handle.close()
        lines = [encode_line(spec_record(metric, log.spec_dict))]
        lines.extend(encode_line(segment.to_record()) for segment in segments)
        payload = b"".join(lines)
        entries: List[_Entry] = []
        offset = len(lines[0])
        for segment, line in zip(segments, lines[1:]):
            entries.append(_Entry.of(segment, offset, len(line)))
            offset += len(line)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as tmp:
                tmp.write(payload)
                tmp.flush()
                os.fsync(tmp.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        log.entries = entries
        log.starts = [entry.start_period for entry in entries]
        log.valid_bytes = len(payload)

    # ------------------------------------------------------------------
    # Lifecycle / plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close every open log handle (the store stays usable;
        handles reopen lazily on the next append)."""
        for handle in self._handles.values():
            try:
                handle.close()
            except OSError:
                pass
        self._handles.clear()

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """Store-level accounting (per-metric segment/period counts)."""
        metrics = {}
        for name, log in self._logs.items():
            first, nxt = self.coverage(name)
            metrics[name] = {
                "segments": len(log.entries),
                "rollups": sum(1 for e in log.entries if e.kind == "rollup"),
                "first_period": first,
                "next_period": nxt,
                "events": sum(e.count for e in log.entries),
                "bytes": log.valid_bytes,
            }
        return {
            "directory": self.directory,
            "metrics": metrics,
            "duplicates_skipped": self.duplicates_skipped,
            "torn_records_dropped": self.torn_records_dropped,
        }

    def _log_path(self, metric: str) -> str:
        return os.path.join(self.directory, _metric_filename(metric))

    def _handle(self, metric: str):
        handle = self._handles.get(metric)
        if handle is None:
            handle = open(self._log_path(metric), "ab")
            self._handles[metric] = handle
        return handle

    def _require_metric(self, metric: str) -> _MetricLog:
        try:
            return self._logs[metric]
        except KeyError:
            raise StoreError(
                f"metric {metric!r} is not in this store; stored: "
                f"{self.metrics() or '(none)'}"
            ) from None

    @staticmethod
    def _write_atomic(path: str, payload: str) -> None:
        directory = os.path.dirname(path)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


class _Duplicate(Exception):
    """Internal: an indexed segment that replays committed coverage."""
