"""Single-threaded execution loop for streaming queries.

The engine drives events from a query's source through its ``where`` /
``select`` stages into the aggregation operator, evaluating once per window
period.  It implements the incremental-evaluation semantics of Section 2:

- **Tumbling windows** never call ``deaccumulate``: state is discarded and
  rebuilt each period ("the query accumulates all data of a period on an
  initialized state, computes a result, and simply discards the state").
- **Sliding windows** with a per-element operator keep the in-window events
  buffered so each expiring element can be deaccumulated.
- **Sub-window operators** (QLOVE and the sketch baselines) are driven at
  sub-window granularity: the engine never buffers raw events for them, it
  only signals period boundaries (``seal_subwindow``) and window slides
  (``expire_subwindow``) — this is precisely where QLOVE's throughput
  advantage over per-element deaccumulation comes from.

The front door is :meth:`StreamEngine.execute`, which takes an
:class:`~repro.streaming.plan.ExecutionPlan` and dispatches to one of
three ingestion paths over the same semantics:

- the per-event reference loop (one Python object and one method call
  per element) — ``mode="events"``;
- the batched fast path — ``mode="batched"``: the source yields
  :class:`~repro.streaming.sources.Chunk` objects (numpy arrays), the
  engine slices them at sub-window / period boundaries, and operators
  ingest whole slices via ``accumulate_batch``.  Window semantics and
  results are identical to the per-event loop; only the per-element
  interpreter overhead is gone;
- the sharded path — ``mode="sharded"``: the chunk stream is partitioned
  across N per-shard policies merged at every period boundary
  (:class:`~repro.streaming.sharded.ShardedEngine`).

``mode="auto"`` (the default) picks the path from the source type and
the plan's shard count.  :meth:`StreamEngine.run` and
:meth:`StreamEngine.run_chunked` remain as the two loop implementations
the planner dispatches to; the module-level ``run_query*`` one-shot
helpers are deprecated shims over ``execute``.
"""

from __future__ import annotations

import itertools
import warnings
from collections import deque
from dataclasses import replace
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from repro.streaming.checkpoint import (
    EngineCheckpoint,
    coerce_checkpoint,
    require_window_match,
)
from repro.streaming.event import Event
from repro.streaming.operator import IncrementalOperator, SubWindowOperator
from repro.streaming.plan import ExecutionPlan
from repro.streaming.query import Query
from repro.streaming.result import WindowResult
from repro.streaming.sources import Chunk, ChunkLike, as_chunk, chunk_stream, events_of_chunks
from repro.streaming.windows import CountWindow, TimeWindow


class StreamEngine:
    """Executes :class:`~repro.streaming.query.Query` objects.

    Parameters
    ----------
    emit_partial:
        When True, evaluations are also emitted while the very first window
        is still filling (the paper's plots measure steady state, so the
        default is False: the first emission happens once a full window of
        elements has been seen).
    """

    def __init__(self, emit_partial: bool = False) -> None:
        self._emit_partial = emit_partial

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self, query: Query, plan: Optional[ExecutionPlan] = None
    ) -> Iterator[WindowResult]:
        """Evaluate ``query`` on the path selected by ``plan``.

        This is the single entry point unifying the per-event, batched
        and sharded loops.  With the default
        :class:`~repro.streaming.plan.ExecutionPlan` (``mode="auto"``)
        the path is chosen from what the query carries:

        - ``plan.n_shards > 1`` → sharded execution (requires
          ``plan.policy_factory``);
        - a numpy-array source, a chunk source, or vectorised
          ``where_values``/``select_values`` stages → the batched loop;
        - an event source or event-level ``where``/``select`` stages →
          the per-event loop.

        A raw ``np.ndarray`` source is accepted on every path: it is
        sliced into ``plan.chunk_size`` chunks for the batched/sharded
        loops (with unit-spaced timestamps when the window is
        time-based) or wrapped into an event stream for the per-event
        loop, so results are identical to pre-building the source by
        hand.
        """
        if plan is None:
            plan = ExecutionPlan()
        if query.window_spec is None:
            raise ValueError("query has no window(); call .window(size, period)")
        mode = plan.mode
        array_source = isinstance(query.source, np.ndarray)
        if mode == "auto":
            if plan.n_shards > 1:
                mode = "sharded"
            elif array_source or query.chunk_predicates or query.chunk_projectors:
                mode = "batched"
            elif query.predicates or query.projectors:
                mode = "events"
            else:
                first, query = _peek_source(query)
                mode = (
                    "batched"
                    if isinstance(first, (Chunk, np.ndarray))
                    else "events"
                )
        if array_source:
            query = replace(
                query,
                source=self._array_source(
                    query.source, query.window_spec, plan.chunk_size, mode
                ),
            )
        if mode == "events":
            return self.run(
                query,
                resume=plan.resume_from,
                checkpoint_sink=plan.checkpoint_sink,
            )
        if mode == "batched":
            return self.run_chunked(
                query,
                resume=plan.resume_from,
                checkpoint_sink=plan.checkpoint_sink,
            )
        # mode == "sharded" (the plan has already validated the name).
        from repro.streaming.sharded import ShardedEngine

        if plan.policy_factory is None:
            raise ValueError(
                "sharded execution builds one fresh policy per shard; pass "
                "ExecutionPlan(policy_factory=...) (MetricSpec.policy_factory() "
                "builds one from a declarative spec)"
            )
        sharded = ShardedEngine(
            plan.n_shards,
            partitioner=plan.partitioner,
            emit_partial=self._emit_partial,
            parallel=plan.parallel,
            processes=plan.processes,
        )
        return sharded.run_chunked(
            query,
            plan.policy_factory,
            resume=plan.resume_from,
            checkpoint_sink=plan.checkpoint_sink,
        )

    def execute_to_list(
        self, query: Query, plan: Optional[ExecutionPlan] = None
    ) -> list[WindowResult]:
        """Eagerly :meth:`execute` and collect all results."""
        return list(self.execute(query, plan))

    @staticmethod
    def _array_source(
        values: np.ndarray,
        spec: Union[CountWindow, TimeWindow],
        chunk_size: int,
        mode: str,
    ) -> Iterable:
        """Adapt a raw value array to the source type ``mode`` consumes."""
        from repro.streaming.sources import value_stream

        if mode == "events":
            return value_stream(values)
        with_timestamps = isinstance(spec, TimeWindow)
        return chunk_stream(values, chunk_size, with_timestamps=with_timestamps)

    def run(
        self,
        query: Query,
        *,
        resume: Optional[Union[EngineCheckpoint, dict]] = None,
        checkpoint_sink: Optional[Callable[[EngineCheckpoint], None]] = None,
    ) -> Iterator[WindowResult]:
        """Lazily evaluate ``query``, yielding one result per period.

        ``resume``/``checkpoint_sink`` enable the durable-state lifecycle
        (count-windowed sub-window operators only): the sink receives an
        :class:`~repro.streaming.checkpoint.EngineCheckpoint` at every
        period boundary, and a resumed run — operator state restored,
        counters fast-forwarded, source starting at element
        ``checkpoint.seen`` — emits results bit-identical to the
        uninterrupted run's remainder.
        """
        query = query.validated()
        if query.chunk_predicates or query.chunk_projectors:
            raise ValueError(
                "query has vectorised where_values()/select_values() stages; "
                "run it with run_chunked(), or use where()/select() instead"
            )
        spec = query.window_spec
        operator = query.operator
        if isinstance(spec, CountWindow):
            if isinstance(operator, SubWindowOperator):
                return self._run_count_subwindow(
                    query, spec, operator, resume=resume, sink=checkpoint_sink
                )
            self._reject_checkpointing(resume, checkpoint_sink)
            return self._run_count_incremental(query, spec, operator)
        self._reject_checkpointing(resume, checkpoint_sink)
        if isinstance(spec, TimeWindow):
            if isinstance(operator, SubWindowOperator):
                return self._run_time_subwindow(query, spec, operator)
            return self._run_time_incremental(query, spec, operator)
        raise TypeError(f"unsupported window spec: {spec!r}")

    def run_to_list(self, query: Query, **kwargs) -> list[WindowResult]:
        """Eagerly evaluate ``query`` and collect all results.

        Keyword arguments (``resume``, ``checkpoint_sink``) pass through
        to :meth:`run`.
        """
        return list(self.run(query, **kwargs))

    def run_chunked(
        self,
        query: Query,
        *,
        resume: Optional[Union[EngineCheckpoint, dict]] = None,
        checkpoint_sink: Optional[Callable[[EngineCheckpoint], None]] = None,
    ) -> Iterator[WindowResult]:
        """Batched evaluation: the query source yields chunks, not events.

        The source must yield :class:`~repro.streaming.sources.Chunk`
        objects or raw 1-D numpy arrays.  Filters must be vectorised
        (``where_values``/``select_values``); event-level ``where``/
        ``select`` stages are rejected so no filter is silently skipped.
        Results are identical to :meth:`run` over the same elements.
        ``resume``/``checkpoint_sink`` behave as in :meth:`run`.
        """
        query = query.validated()
        if query.predicates or query.projectors:
            raise ValueError(
                "query has event-level where()/select() stages; run it with "
                "run(), or use where_values()/select_values() instead"
            )
        spec = query.window_spec
        operator = query.operator
        if isinstance(spec, CountWindow):
            if isinstance(operator, SubWindowOperator):
                return self._run_count_subwindow_chunked(
                    query, spec, operator, resume=resume, sink=checkpoint_sink
                )
            self._reject_checkpointing(resume, checkpoint_sink)
            return self._run_count_incremental_chunked(query, spec, operator)
        self._reject_checkpointing(resume, checkpoint_sink)
        if isinstance(spec, TimeWindow):
            if isinstance(operator, SubWindowOperator):
                return self._run_time_subwindow_chunked(query, spec, operator)
            # Per-element deaccumulation over time windows needs every raw
            # event buffered anyway, so batching buys nothing: expand the
            # chunks and delegate to the per-event loop.
            chunks = self._timestamped(self._filtered_chunks(query))
            return self._run_time_incremental(
                replace(query, source=events_of_chunks(chunks),
                        chunk_predicates=(), chunk_projectors=()),
                spec,
                operator,
            )
        raise TypeError(f"unsupported window spec: {spec!r}")

    def run_chunked_to_list(self, query: Query, **kwargs) -> list[WindowResult]:
        """Eagerly evaluate a chunked ``query`` and collect all results.

        Keyword arguments (``resume``, ``checkpoint_sink``) pass through
        to :meth:`run_chunked`.
        """
        return list(self.run_chunked(query, **kwargs))

    # ------------------------------------------------------------------
    # Checkpoint / resume plumbing (count-windowed sub-window loops)
    # ------------------------------------------------------------------
    @staticmethod
    def _reject_checkpointing(resume, checkpoint_sink) -> None:
        """Checkpointing is defined for count-windowed sub-window runs only."""
        if resume is not None or checkpoint_sink is not None:
            raise ValueError(
                "checkpoint/resume is supported for count-windowed "
                "sub-window (policy) queries only; time windows and "
                "per-element incremental operators have no period-boundary "
                "state to freeze"
            )

    @staticmethod
    def _apply_resume(
        spec: CountWindow,
        operator: SubWindowOperator,
        resume: Union[EngineCheckpoint, dict],
    ) -> tuple[int, int, int]:
        """Restore operator state and return ``(sealed, seen, index)``."""
        checkpoint = coerce_checkpoint(resume)
        require_window_match(checkpoint, spec)
        operator.restore_state(checkpoint.policy_state)
        return checkpoint.sealed, checkpoint.seen, checkpoint.index

    # ------------------------------------------------------------------
    # Count-based windows
    # ------------------------------------------------------------------
    def _filtered(self, query: Query) -> Iterator[Event]:
        for event in query.source:
            processed = query.apply_event_pipeline(event)
            if processed is not None:
                yield processed

    def _run_count_subwindow(
        self,
        query: Query,
        spec: CountWindow,
        operator: SubWindowOperator,
        resume: Optional[Union[EngineCheckpoint, dict]] = None,
        sink: Optional[Callable[[EngineCheckpoint], None]] = None,
    ) -> Iterator[WindowResult]:
        n_sub = spec.subwindow_count
        in_flight = 0
        sealed = 0
        seen = 0
        index = 0
        if resume is not None:
            sealed, seen, index = self._apply_resume(spec, operator, resume)
        for event in self._filtered(query):
            operator.accumulate(event)
            in_flight += 1
            seen += 1
            if in_flight < spec.period:
                continue
            operator.seal_subwindow()
            in_flight = 0
            sealed += 1
            if sealed > n_sub:
                operator.expire_subwindow()
                sealed -= 1
            if sealed == n_sub or self._emit_partial:
                yield WindowResult(
                    index=index,
                    window_count=sealed * spec.period,
                    end=float(seen),
                    result=operator.compute_result(),
                )
                index += 1
            if sink is not None:
                sink(
                    EngineCheckpoint(
                        window=spec,
                        sealed=sealed,
                        seen=seen,
                        index=index,
                        policy_state=operator.to_state(),
                    )
                )

    def _run_count_incremental(
        self, query: Query, spec: CountWindow, operator: IncrementalOperator
    ) -> Iterator[WindowResult]:
        state = operator.initial_state()
        buffer: Optional[deque[Event]] = deque() if spec.is_sliding else None
        in_period = 0
        seen = 0
        index = 0
        for event in self._filtered(query):
            state = operator.accumulate(state, event)
            if buffer is not None:
                buffer.append(event)
            in_period += 1
            seen += 1
            if in_period < spec.period:
                continue
            in_period = 0
            if buffer is None:
                # Tumbling: evaluate and discard state, no deaccumulation.
                yield WindowResult(
                    index=index,
                    window_count=spec.period,
                    end=float(seen),
                    result=operator.compute_result(state),
                )
                index += 1
                state = operator.initial_state()
                continue
            while len(buffer) > spec.size:
                state = operator.deaccumulate(state, buffer.popleft())
            if len(buffer) == spec.size or self._emit_partial:
                yield WindowResult(
                    index=index,
                    window_count=len(buffer),
                    end=float(seen),
                    result=operator.compute_result(state),
                )
                index += 1

    # ------------------------------------------------------------------
    # Time-based windows
    # ------------------------------------------------------------------
    def _run_time_subwindow(
        self, query: Query, spec: TimeWindow, operator: SubWindowOperator
    ) -> Iterator[WindowResult]:
        n_sub = spec.subwindow_count
        current_slot: Optional[int] = None
        sealed = 0
        last_ts = float("-inf")
        counts: deque[int] = deque()
        in_flight = 0
        index = 0
        for event in self._filtered(query):
            if event.timestamp < last_ts:
                raise ValueError(
                    "time-windowed streams must be timestamp-ordered: "
                    f"{event.timestamp} after {last_ts}"
                )
            last_ts = event.timestamp
            slot = spec.subwindow_index(event.timestamp)
            if current_slot is None:
                current_slot = slot
            while slot > current_slot:
                # Seal the finished interval (possibly empty) and any gaps.
                operator.seal_subwindow()
                counts.append(in_flight)
                in_flight = 0
                sealed += 1
                if sealed > n_sub:
                    operator.expire_subwindow()
                    counts.popleft()
                    sealed -= 1
                if sealed == n_sub or self._emit_partial:
                    yield WindowResult(
                        index=index,
                        window_count=sum(counts),
                        end=(current_slot + 1) * spec.period,
                        result=operator.compute_result(),
                    )
                    index += 1
                current_slot += 1
            operator.accumulate(event)
            in_flight += 1

    def _run_time_incremental(
        self, query: Query, spec: TimeWindow, operator: IncrementalOperator
    ) -> Iterator[WindowResult]:
        state = operator.initial_state()
        buffer: deque[Event] = deque()
        current_slot: Optional[int] = None
        slots_seen = 0
        last_ts = float("-inf")
        index = 0
        for event in self._filtered(query):
            if event.timestamp < last_ts:
                raise ValueError(
                    "time-windowed streams must be timestamp-ordered: "
                    f"{event.timestamp} after {last_ts}"
                )
            last_ts = event.timestamp
            slot = spec.subwindow_index(event.timestamp)
            if current_slot is None:
                current_slot = slot
            while slot > current_slot:
                boundary = (current_slot + 1) * spec.period
                horizon = boundary - spec.size
                while buffer and buffer[0].timestamp < horizon:
                    state = operator.deaccumulate(state, buffer.popleft())
                slots_seen += 1
                if slots_seen >= spec.subwindow_count or self._emit_partial:
                    yield WindowResult(
                        index=index,
                        window_count=len(buffer),
                        end=boundary,
                        result=operator.compute_result(state),
                    )
                    index += 1
                current_slot += 1
            state = operator.accumulate(state, event)
            buffer.append(event)

    # ------------------------------------------------------------------
    # Chunked (batched) loops
    # ------------------------------------------------------------------
    def _filtered_chunks(self, query: Query) -> Iterator[Chunk]:
        return filtered_chunks(query)

    @staticmethod
    def _timestamped(chunks: Iterator[Chunk]) -> Iterator[Chunk]:
        """Reject timestamp-less chunks before a time-windowed evaluation.

        Without this, the per-event fallback would silently synthesise
        index-based timestamps and window real-time data incorrectly.
        """
        for chunk in chunks:
            if chunk.timestamps is None:
                raise ValueError(
                    "time-windowed chunked queries need timestamped chunks "
                    "(build them with chunk_stream(..., with_timestamps=True))"
                )
            yield chunk

    def _run_count_subwindow_chunked(
        self,
        query: Query,
        spec: CountWindow,
        operator: SubWindowOperator,
        resume: Optional[Union[EngineCheckpoint, dict]] = None,
        sink: Optional[Callable[[EngineCheckpoint], None]] = None,
    ) -> Iterator[WindowResult]:
        period = spec.period
        n_sub = spec.subwindow_count
        in_flight = 0
        sealed = 0
        seen = 0
        index = 0
        if resume is not None:
            sealed, seen, index = self._apply_resume(spec, operator, resume)
        for chunk in self._filtered_chunks(query):
            position = 0
            remaining = len(chunk)
            while remaining:
                take = min(period - in_flight, remaining)
                operator.accumulate_batch(chunk.slice(position, position + take))
                position += take
                remaining -= take
                in_flight += take
                seen += take
                if in_flight < period:
                    continue
                operator.seal_subwindow()
                in_flight = 0
                sealed += 1
                if sealed > n_sub:
                    operator.expire_subwindow()
                    sealed -= 1
                if sealed == n_sub or self._emit_partial:
                    yield WindowResult(
                        index=index,
                        window_count=sealed * period,
                        end=float(seen),
                        result=operator.compute_result(),
                    )
                    index += 1
                if sink is not None:
                    sink(
                        EngineCheckpoint(
                            window=spec,
                            sealed=sealed,
                            seen=seen,
                            index=index,
                            policy_state=operator.to_state(),
                        )
                    )

    def _run_count_incremental_chunked(
        self, query: Query, spec: CountWindow, operator: IncrementalOperator
    ) -> Iterator[WindowResult]:
        state = operator.initial_state()
        sliding = spec.is_sliding
        buffer: deque[Chunk] = deque()
        buffered = 0
        in_period = 0
        seen = 0
        index = 0
        for chunk in self._filtered_chunks(query):
            position = 0
            remaining = len(chunk)
            while remaining:
                take = min(spec.period - in_period, remaining)
                part = chunk.slice(position, position + take)
                state = operator.accumulate_batch(state, part)
                if sliding:
                    buffer.append(part)
                    buffered += take
                position += take
                remaining -= take
                in_period += take
                seen += take
                if in_period < spec.period:
                    continue
                in_period = 0
                if not sliding:
                    # Tumbling: evaluate and discard state, no deaccumulation.
                    yield WindowResult(
                        index=index,
                        window_count=spec.period,
                        end=float(seen),
                        result=operator.compute_result(state),
                    )
                    index += 1
                    state = operator.initial_state()
                    continue
                while buffered > spec.size:
                    head = buffer[0]
                    drop = min(len(head), buffered - spec.size)
                    if drop == len(head):
                        expired = buffer.popleft()
                    else:
                        expired = head.slice(0, drop)
                        buffer[0] = head.slice(drop, len(head))
                    state = operator.deaccumulate_batch(state, expired)
                    buffered -= drop
                if buffered == spec.size or self._emit_partial:
                    yield WindowResult(
                        index=index,
                        window_count=buffered,
                        end=float(seen),
                        result=operator.compute_result(state),
                    )
                    index += 1

    def _run_time_subwindow_chunked(
        self, query: Query, spec: TimeWindow, operator: SubWindowOperator
    ) -> Iterator[WindowResult]:
        n_sub = spec.subwindow_count
        current_slot: Optional[int] = None
        sealed = 0
        last_ts = float("-inf")
        counts: deque[int] = deque()
        in_flight = 0
        index = 0
        for chunk in self._filtered_chunks(query):
            timestamps = chunk.timestamps
            if timestamps is None:
                raise ValueError(
                    "time-windowed chunked queries need timestamped chunks "
                    "(build them with chunk_stream(..., with_timestamps=True))"
                )
            if timestamps[0] < last_ts or np.any(np.diff(timestamps) < 0):
                raise ValueError(
                    "time-windowed streams must be timestamp-ordered"
                )
            last_ts = float(timestamps[-1])
            # Slot of every element; identical to per-event int(t // period).
            slots = np.floor_divide(timestamps, spec.period).astype(np.int64)
            position = 0
            n = len(chunk)
            while position < n:
                slot = int(slots[position])
                if current_slot is None:
                    current_slot = slot
                while slot > current_slot:
                    # Seal the finished interval (possibly empty) and gaps.
                    operator.seal_subwindow()
                    counts.append(in_flight)
                    in_flight = 0
                    sealed += 1
                    if sealed > n_sub:
                        operator.expire_subwindow()
                        counts.popleft()
                        sealed -= 1
                    if sealed == n_sub or self._emit_partial:
                        yield WindowResult(
                            index=index,
                            window_count=sum(counts),
                            end=(current_slot + 1) * spec.period,
                            result=operator.compute_result(),
                        )
                        index += 1
                    current_slot += 1
                # Everything up to the next slot change joins this sub-window.
                upper = position + int(
                    np.searchsorted(slots[position:], current_slot, side="right")
                )
                operator.accumulate_batch(chunk.slice(position, upper))
                in_flight += upper - position
                position = upper


def filtered_chunks(query: Query) -> Iterator[Chunk]:
    """Pull the query's source as chunks with its vectorised filters applied.

    Shared by :class:`StreamEngine` and the sharded engine so the chunk
    pipeline has exactly one implementation (the sharded path's
    one-shard bit-identity depends on it).
    """
    for raw in query.source:
        chunk = query.apply_chunk_pipeline(as_chunk(raw))
        if len(chunk):
            yield chunk


def _peek_source(query: Query) -> tuple:
    """First source element (or None when empty) plus an equivalent query.

    ``mode="auto"`` needs to know whether the source yields events or
    chunks; sequences are inspected in place, iterators are peeked and
    re-chained so no element is lost.
    """
    source = query.source
    if isinstance(source, (list, tuple)):
        return (source[0] if source else None), query
    iterator = iter(source)
    try:
        first = next(iterator)
    except StopIteration:
        return None, replace(query, source=())
    return first, replace(query, source=itertools.chain([first], iterator))


def _deprecated_shim(name: str, replacement: str) -> None:
    """Emit the single DeprecationWarning every legacy entry point owes."""
    warnings.warn(
        f"{name}() is deprecated; use StreamEngine().execute(query, "
        f"ExecutionPlan({replacement})) instead",
        DeprecationWarning,
        stacklevel=3,
    )


def run_query(
    source: Iterable[Event],
    window: Union[CountWindow, TimeWindow],
    operator: Union[IncrementalOperator, SubWindowOperator],
    emit_partial: bool = False,
) -> list[WindowResult]:
    """Deprecated one-shot wrapper for the per-event loop.

    Use :meth:`StreamEngine.execute` with
    ``ExecutionPlan(mode="events")`` (results are bit-identical).
    """
    _deprecated_shim("run_query", "mode='events'")
    query = Query(source).windowed_by(window).aggregate(operator)
    return StreamEngine(emit_partial=emit_partial).execute_to_list(
        query, ExecutionPlan(mode="events")
    )


def run_query_chunked(
    source: Iterable[ChunkLike],
    window: Union[CountWindow, TimeWindow],
    operator: Union[IncrementalOperator, SubWindowOperator],
    emit_partial: bool = False,
) -> list[WindowResult]:
    """Deprecated one-shot wrapper for the batched path.

    Use :meth:`StreamEngine.execute` with
    ``ExecutionPlan(mode="batched")`` (results are bit-identical).
    """
    _deprecated_shim("run_query_chunked", "mode='batched'")
    query = Query(source).windowed_by(window).aggregate(operator)
    return StreamEngine(emit_partial=emit_partial).execute_to_list(
        query, ExecutionPlan(mode="batched")
    )


def run_query_batched(
    values: "np.ndarray",
    window: Union[CountWindow, TimeWindow],
    operator: Union[IncrementalOperator, SubWindowOperator],
    chunk_size: int = 65_536,
    emit_partial: bool = False,
) -> list[WindowResult]:
    """Deprecated one-shot wrapper for a value array on the batched path.

    Use :meth:`StreamEngine.execute` with a raw ``np.ndarray`` source and
    ``ExecutionPlan(mode="batched", chunk_size=...)`` — the planner does
    the chunk-stream slicing (with timestamps when the window is
    time-based) itself, with bit-identical results.
    """
    _deprecated_shim("run_query_batched", "mode='batched', chunk_size=...")
    query = (
        Query(np.asarray(values, dtype=np.float64))
        .windowed_by(window)
        .aggregate(operator)
    )
    return StreamEngine(emit_partial=emit_partial).execute_to_list(
        query, ExecutionPlan(mode="batched", chunk_size=chunk_size)
    )
