"""The ``Monitor`` facade: many named metrics behind one front door.

The paper's operator-facing pitch — "track Q0.5/0.9/0.99/0.999 of the
last N events, evaluated every P" over fleets of datacenter metrics —
needs no query-builder vocabulary at the call site.  A :class:`Monitor`
is a multi-metric session object driven entirely by declarative
:class:`~repro.service.spec.MetricSpec`\\ s::

    monitor = Monitor()
    monitor.register(MetricSpec(name="rtt", quantiles=[0.5, 0.99],
                                window={"size": 100_000, "period": 10_000}))
    monitor.observe_batch("rtt", values)        # or observe(name, v) per event
    monitor.snapshot()                          # {"rtt": {0.5: ..., 0.99: ...}}

Each registered metric runs the same seal/expire lifecycle as the
streaming engine, so a monitor fed a metric's full stream emits
``WindowResult``\\ s identical to the hand-assembled
``Query`` + ``StreamEngine`` pipeline.  Monitors themselves shard and
combine: :meth:`Monitor.merge` folds another monitor's per-metric state
in through the universal :meth:`QuantilePolicy.merge
<repro.sketches.base.QuantilePolicy.merge>` contract (PR 2), so
per-node monitors built independently merge into one fleet answer —
for QLOVE and Exact, bit-identically to observing the unsplit stream
when merges happen at period boundaries (the
:class:`~repro.streaming.sharded.ShardedEngine` discipline).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Mapping, Optional, Union

if TYPE_CHECKING:
    from repro.series.index import HistoryBinder, SeriesIndex

import numpy as np

from repro import serde
from repro.service.spec import MetricSpec
from repro.streaming.result import WindowResult

#: Per-period callback: ``callback(metric_name, window_result)``.
ResultCallback = Callable[[str, WindowResult], None]

#: History sink: ``sink(metric_name, period_index, count, policy_state)``
#: invoked at every period boundary with the sealed period's delta state
#: (what :class:`~repro.store.writer.HistoryWriter` persists as a segment).
HistorySink = Callable[[str, int, int, dict], None]

#: State-format versions written by the persistence layer.
CHANNEL_STATE_VERSION = 1
#: v2 adds labeled-metric families ('series_families' + 'order'); v1
#: checkpoints still load (they simply carry no labeled metrics).
MONITOR_STATE_VERSION = 2

#: File-format tag written by :meth:`Monitor.save`.
MONITOR_FORMAT = "repro-monitor-checkpoint"


def _require_matching_policy(spec: MetricSpec, fresh, restored) -> None:
    """Reject a restored policy that does not match its metric spec.

    The spec builds ``fresh``; ``restored`` comes from the saved state.
    Type, quantiles, window shape and algorithm parameters must all
    agree, otherwise the channel would silently answer with a different
    algorithm than the spec declares (the spec/state-mismatch error path).
    """
    try:
        fresh._require_compatible(restored)
    except (TypeError, ValueError) as exc:
        raise serde.StateError(
            f"metric {spec.name!r}: saved policy state does not match the "
            f"spec ({exc}); the state was written under a different metric "
            "configuration (spec/state mismatch)"
        ) from None
    for attr in ("config", "epsilon", "k", "method", "backend"):
        if getattr(fresh, attr, None) != getattr(restored, attr, None):
            raise serde.StateError(
                f"metric {spec.name!r}: saved policy state disagrees with "
                f"the spec on {attr!r} (spec: {getattr(fresh, attr, None)!r}, "
                f"state: {getattr(restored, attr, None)!r}); spec/state "
                "mismatch"
            )


class MetricChannel:
    """One registered metric: its policy plus window bookkeeping.

    Mirrors ``StreamEngine._run_count_subwindow`` exactly — accumulate
    until the period fills, seal, expire beyond the window span, emit
    once a full window is in view — so a channel fed the whole stream
    reproduces the engine's ``WindowResult`` sequence.  Channels are
    created by :meth:`Monitor.register`; drive them through the monitor.
    """

    def __init__(
        self,
        spec: MetricSpec,
        emit_partial: bool = False,
        callbacks: Optional[List[ResultCallback]] = None,
    ) -> None:
        self.spec = spec
        self.policy = spec.build_policy()
        self.results: List[WindowResult] = []
        self._emit_partial = emit_partial
        self._callbacks: List[ResultCallback] = list(callbacks or [])
        #: Element counts of the sealed sub-windows currently in view.
        self._counts: Deque[int] = deque()
        self._in_flight = 0
        self._seen = 0
        self._index = 0
        #: Period boundaries crossed so far (the next period's index).
        self._periods = 0
        #: History recording (attach_recorder): a fresh shadow policy per
        #: period whose sealed state becomes that period's stored segment.
        self._recorder = None
        self._history_sink: Optional[HistorySink] = None
        self._staged_recorder: Optional[dict] = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Fold one element into the in-flight sub-window."""
        self.policy.accumulate(float(value))
        if self._recorder is not None:
            self._recorder.accumulate(float(value))
        self._in_flight += 1
        self._seen += 1
        if self._in_flight >= self.spec.window.period:
            self._seal()

    def observe_batch(self, values: np.ndarray) -> None:
        """Bulk-ingest a value array, sealing at every period boundary."""
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1:
            raise ValueError(
                f"metric {self.spec.name!r}: observe_batch() takes a 1-D "
                f"value array, got shape {array.shape}"
            )
        period = self.spec.window.period
        position = 0
        n = len(array)
        while position < n:
            take = min(period - self._in_flight, n - position)
            self.policy.accumulate_batch(array[position : position + take])
            if self._recorder is not None:
                self._recorder.accumulate_batch(array[position : position + take])
            self._in_flight += take
            self._seen += take
            position += take
            if self._in_flight >= period:
                self._seal()

    # ------------------------------------------------------------------
    # Boundary lifecycle
    # ------------------------------------------------------------------
    def _seal(self) -> None:
        """Period boundary: seal, expire beyond the window span, emit."""
        window = self.spec.window
        self.policy.seal_subwindow()
        if self._recorder is not None:
            # The recorder saw exactly this period's events; seal it, hand
            # its state to the history sink as the period's delta segment,
            # and start a fresh recorder for the next period.
            self._recorder.seal_subwindow()
            self._history_sink(
                self.spec.name,
                self._periods,
                self._in_flight,
                self._recorder.to_state(),
            )
            self._recorder = self.spec.build_policy()
        self._counts.append(self._in_flight)
        self._periods += 1
        self._in_flight = 0
        if len(self._counts) > window.subwindow_count:
            self.policy.expire_subwindow()
            self._counts.popleft()
        if len(self._counts) == window.subwindow_count or self._emit_partial:
            result = WindowResult(
                index=self._index,
                window_count=sum(self._counts),
                end=float(self._seen),
                result=self.policy.query(),
            )
            self._index += 1
            self.results.append(result)
            for callback in self._callbacks:
                callback(self.spec.name, result)

    # ------------------------------------------------------------------
    # History recording
    # ------------------------------------------------------------------
    def attach_recorder(self, sink: HistorySink) -> None:
        """Start recording per-period delta states into ``sink``.

        From the next period boundary on, ``sink(name, period_index,
        count, policy_state)`` receives the sealed state of a fresh shadow
        policy that ingested exactly that period's events — the durable
        segment the historical store persists.  Attach either on a fresh
        channel (before any ingestion of the current period) or on one
        restored from a checkpoint whose state was saved with a recorder
        attached (the recorder's mid-period state rides in the
        checkpoint, so resume loses no events).
        """
        if self._recorder is not None:
            raise ValueError(
                f"metric {self.spec.name!r} already has a history recorder "
                "attached; one recorder per channel"
            )
        staged = self._staged_recorder
        if staged is not None:
            from repro.sketches.registry import policy_from_state

            recorder = policy_from_state(staged)
            _require_matching_policy(self.spec, self.spec.build_policy(), recorder)
            self._staged_recorder = None
        elif self._in_flight:
            raise ValueError(
                f"metric {self.spec.name!r}: cannot attach a history "
                f"recorder mid-period ({self._in_flight} in-flight events "
                "were never seen by a recorder and their period's segment "
                "would be incomplete); attach before ingesting, or resume "
                "from a checkpoint saved while history recording was active"
            )
        else:
            recorder = self.spec.build_policy()
        self._recorder = recorder
        self._history_sink = sink

    @property
    def periods(self) -> int:
        """Period boundaries crossed so far (next period's index)."""
        return self._periods

    # ------------------------------------------------------------------
    # Merging / reset (the sharded-monitor contract)
    # ------------------------------------------------------------------
    def merge_from(self, other: "MetricChannel") -> None:
        """Fold another channel's state into this one (donor unchanged).

        Sealed sub-windows and the in-flight state merge through
        :meth:`QuantilePolicy.merge`; element accounting adds.  For the
        fleet pattern — shard channels that accumulate less than one
        period between merges — merging at period boundaries reproduces
        the unsplit stream bit-for-bit (QLOVE/Exact).  After merging,
        reset or discard the donor; continuing to drive it would
        double-count its state on the next merge.
        """
        if other.spec != self.spec:
            raise ValueError(
                f"cannot merge metric {other.spec.name!r} into "
                f"{self.spec.name!r}: specs differ"
            )
        if self._recorder is not None and (
            other._seen or other._counts or other._in_flight
        ):
            raise ValueError(
                f"metric {self.spec.name!r}: cannot merge shard state into a "
                "channel with history recording attached (the donor's events "
                "were never seen by this channel's recorder, so the period's "
                "segment would be incomplete); merge shards first, then "
                "attach the HistoryWriter to the merged monitor"
            )
        self.policy.merge(other.policy)
        window = self.spec.window
        self._counts.extend(other._counts)
        while len(self._counts) > window.subwindow_count:
            self.policy.expire_subwindow()
            self._counts.popleft()
        self._in_flight += other._in_flight
        self._seen += other._seen
        if self._in_flight >= window.period:
            self._seal()

    def reset(self) -> None:
        """Discard all accumulated state and results, keep the spec.

        An attached history recorder restarts fresh too (the sink keeps
        receiving segments from period index 0 — reset a channel only
        against a fresh store, or history becomes a replay the store
        skips as duplicates).
        """
        self.policy.reset()
        self.results.clear()
        self._counts.clear()
        self._in_flight = 0
        self._seen = 0
        self._index = 0
        self._periods = 0
        if self._recorder is not None:
            self._recorder = self.spec.build_policy()

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Spec, policy state, window bookkeeping and emitted results."""
        state = serde.header("metric_channel", CHANNEL_STATE_VERSION)
        state["spec"] = serde.as_native(self.spec.to_dict())
        state["policy"] = self.policy.to_state()
        state["counts"] = [int(count) for count in self._counts]
        state["in_flight"] = int(self._in_flight)
        state["seen"] = int(self._seen)
        state["index"] = int(self._index)
        state["periods"] = int(self._periods)
        if self._recorder is not None:
            # Mid-period recorder state rides in the checkpoint so a
            # resumed channel re-attaches its recorder without losing the
            # current period's partially-ingested events.
            state["history"] = self._recorder.to_state()
        state["results"] = [
            {
                "index": int(result.index),
                "window_count": int(result.window_count),
                "end": float(result.end),
                "result": serde.pairs(result.result),
            }
            for result in self.results
        ]
        return state

    @classmethod
    def from_state(
        cls,
        state: dict,
        emit_partial: bool = False,
        callbacks: Optional[List[ResultCallback]] = None,
    ) -> "MetricChannel":
        """Rebuild a channel; validates the policy state against the spec."""
        serde.check_state(
            state, "metric_channel", CHANNEL_STATE_VERSION, "metric channel"
        )
        required = ("spec", "policy", "counts", "in_flight", "seen", "index", "results")
        serde.require_fields(state, required, "metric channel")
        serde.warn_unknown_fields(
            state, required + ("periods", "history"), "metric channel"
        )
        try:
            spec = MetricSpec.from_dict(state["spec"])
        except ValueError as exc:
            raise serde.StateError(
                f"metric channel: invalid spec in state: {exc}"
            ) from None
        channel = cls(spec, emit_partial=emit_partial, callbacks=callbacks)
        from repro.sketches.registry import policy_from_state

        restored = policy_from_state(state["policy"])
        _require_matching_policy(spec, channel.policy, restored)
        channel.policy = restored
        channel._counts = deque(int(count) for count in state["counts"])
        channel._in_flight = int(state["in_flight"])
        channel._seen = int(state["seen"])
        channel._index = int(state["index"])
        # Pre-history checkpoints carry no 'periods'; complete periods can
        # be recovered from the element count for period-aligned streams.
        channel._periods = int(
            state.get("periods", channel._seen // spec.window.period)
        )
        history = state.get("history")
        if history is not None:
            if not isinstance(history, dict):
                raise serde.StateError(
                    "metric channel: 'history' must be the recorder policy's "
                    f"state dict, got {type(history).__name__}"
                )
            channel._staged_recorder = dict(history)
        channel.results = [
            WindowResult(
                index=int(entry["index"]),
                window_count=int(entry["window_count"]),
                end=float(entry["end"]),
                result={
                    phi: float(value)
                    for phi, value in serde.mapping_from_pairs(
                        entry["result"]
                    ).items()
                },
            )
            for entry in state["results"]
        ]
        return channel

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def latest(self) -> Optional[WindowResult]:
        """The most recent evaluation, or None before a full window."""
        return self.results[-1] if self.results else None

    @property
    def seen(self) -> int:
        """Elements ingested so far (resume offset for replayed sources)."""
        return self._seen

    def report(self) -> Dict[str, object]:
        """Accounting snapshot (space, elements, evaluations)."""
        return {
            "policy": self.spec.policy,
            "window": {
                "size": self.spec.window.size,
                "period": self.spec.window.period,
            },
            "seen": self._seen,
            "evaluations": len(self.results),
            "space": self.policy.space_variables(),
            "peak_space": self.policy.peak_space_variables(),
        }


class Monitor:
    """A multi-metric monitoring session over declarative specs.

    Parameters
    ----------
    emit_partial:
        As in :class:`~repro.streaming.engine.StreamEngine`: also emit
        evaluations while a metric's first window is still filling.
    """

    def __init__(self, emit_partial: bool = False) -> None:
        self._emit_partial = emit_partial
        self._channels: Dict[str, MetricChannel] = {}
        #: Labeled metrics: one series index (family) per label schema.
        self._families: Dict[str, "SeriesIndex"] = {}
        #: Registration order across both kinds.
        self._order: List[str] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        spec: Union[MetricSpec, Mapping[str, object]],
        on_result: Optional[ResultCallback] = None,
    ) -> MetricSpec:
        """Add a metric; returns the canonical :class:`MetricSpec`.

        ``spec`` may be a :class:`MetricSpec` or its dict form (validated
        through :meth:`MetricSpec.from_dict`).  ``on_result`` is invoked
        as ``on_result(name, window_result)`` at every emitted period.
        A spec with a label schema registers a *labeled* metric — a
        :class:`~repro.series.index.SeriesIndex` family whose series
        materialise lazily per observed labelset; per-period callbacks
        are not supported on families (query via :meth:`group_by` or
        :meth:`results` with labels instead).
        """
        if isinstance(spec, Mapping):
            spec = MetricSpec.from_dict(spec)
        if not isinstance(spec, MetricSpec):
            raise TypeError(
                f"register() takes a MetricSpec or its dict form, got "
                f"{type(spec).__name__}"
            )
        if spec.name in self._channels or spec.name in self._families:
            raise ValueError(
                f"metric {spec.name!r} is already registered; metric names "
                "must be unique within a Monitor"
            )
        if spec.labels is not None:
            if on_result is not None:
                raise ValueError(
                    f"metric {spec.name!r}: per-period callbacks are not "
                    "supported on labeled metrics (series materialise "
                    "lazily); use group_by() or results(name, labels=...)"
                )
            from repro.series.index import SeriesIndex

            self._families[spec.name] = SeriesIndex(
                spec, emit_partial=self._emit_partial
            )
            self._order.append(spec.name)
            return spec
        callbacks = [on_result] if on_result is not None else []
        self._channels[spec.name] = MetricChannel(
            spec, emit_partial=self._emit_partial, callbacks=callbacks
        )
        self._order.append(spec.name)
        return spec

    def on_result(self, name: str, callback: ResultCallback) -> None:
        """Subscribe ``callback(name, result)`` to a metric's evaluations."""
        if name in self._families:
            raise ValueError(
                f"metric {name!r} is labeled; per-period callbacks are not "
                "supported on labeled metrics — use group_by() or "
                "results(name, labels=...)"
            )
        self._channel(name)._callbacks.append(callback)

    def attach_recorder(self, name: str, sink: HistorySink) -> None:
        """Record metric ``name``'s per-period delta states into ``sink``.

        The plumbing beneath :meth:`HistoryWriter.attach
        <repro.store.writer.HistoryWriter.attach>` — see
        :meth:`MetricChannel.attach_recorder` for the contract.  Labeled
        metrics need a per-series binder instead
        (:meth:`attach_series_history`) — the HistoryWriter picks the
        right one automatically.
        """
        if name in self._families:
            raise ValueError(
                f"metric {name!r} is labeled; attach history with "
                "attach_series_history(name, binder) (HistoryWriter does "
                "this automatically)"
            )
        self._channel(name).attach_recorder(sink)

    def attach_series_history(self, name: str, binder: "HistoryBinder") -> None:
        """Record a labeled family's per-series period deltas.

        ``binder(series_key)`` is called once per materialised series —
        see :meth:`SeriesIndex.attach_history
        <repro.series.index.SeriesIndex.attach_history>`.
        """
        self._family(name).attach_history(binder)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(
        self,
        name: str,
        value: float,
        ts: Optional[float] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold one element of metric ``name`` into its window.

        ``ts`` is accepted for API symmetry with timestamped pipelines;
        registered metrics are count-windowed, so it does not influence
        windowing.  ``labels`` routes the element to one series of a
        labeled metric and must match the metric's schema exactly.
        """
        if name in self._families:
            if labels is None:
                raise ValueError(
                    f"metric {name!r} is labeled "
                    f"({list(self._families[name].spec.labels)}); pass "
                    "labels={...} with every observation"
                )
            self._families[name].observe(labels, value)
            return
        if labels is not None:
            raise ValueError(
                f"metric {name!r} is not labeled; register it with "
                "labels=[...] to observe labeled values"
            )
        self._channel(name).observe(value)

    def observe_batch(
        self,
        name: str,
        values: np.ndarray,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Bulk-ingest a value array for metric ``name`` (batched path).

        For a labeled metric the whole batch belongs to the one series
        ``labels`` names (per-series routing happens upstream).
        """
        if name in self._families:
            if labels is None:
                raise ValueError(
                    f"metric {name!r} is labeled "
                    f"({list(self._families[name].spec.labels)}); pass "
                    "labels={...} with every batch"
                )
            self._families[name].observe_batch(labels, values)
            return
        if labels is not None:
            raise ValueError(
                f"metric {name!r} is not labeled; register it with "
                "labels=[...] to observe labeled values"
            )
        self._channel(name).observe_batch(values)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> List[WindowResult]:
        """All evaluations emitted so far for metric ``name``.

        A labeled metric requires ``labels`` naming one series (evicted
        series answer from their sealed state).
        """
        if name in self._families:
            if labels is None:
                raise ValueError(
                    f"metric {name!r} is labeled; pass labels={{...}} to "
                    "read one series' results (or group_by() for merged "
                    "answers)"
                )
            return list(self._families[name].results(labels))
        if labels is not None:
            raise ValueError(f"metric {name!r} is not labeled; drop labels=")
        return list(self._channel(name).results)

    def snapshot(self) -> Dict[str, object]:
        """Latest ``{phi: estimate}`` per metric (None before a window).

        Labeled metrics nest one more level: ``{series_key: {phi:
        estimate} | None}``, ordered by canonical series key.
        """
        snapshot: Dict[str, object] = {}
        for name in self._order:
            if name in self._families:
                snapshot[name] = self._families[name].snapshot()
            else:
                channel = self._channels[name]
                snapshot[name] = channel.latest.result if channel.latest else None
        return snapshot

    def group_by(
        self,
        name: str,
        by: Union[str, List[str]],
        quantiles: Optional[List[float]] = None,
    ) -> Dict[str, object]:
        """Current-window group-by over a labeled metric's series — see
        :func:`repro.series.groupby.group_by_live` for the result shape
        and the bit-identity contract."""
        return self._family(name).group_by(by, quantiles)

    def space_report(self) -> Dict[str, Dict[str, object]]:
        """Per-metric space/element/evaluation accounting.

        Labeled metrics report family totals plus a ``series`` block
        (cardinality counters and the index memory estimate).
        """
        report: Dict[str, Dict[str, object]] = {}
        for name in self._order:
            if name in self._families:
                report[name] = self._families[name].report()
            else:
                report[name] = self._channels[name].report()
        return report

    def seen_counts(self) -> Dict[str, int]:
        """Elements ingested per metric (family totals for labeled ones)."""
        counts: Dict[str, int] = {}
        for name in self._order:
            if name in self._families:
                counts[name] = self._families[name].seen()
            else:
                counts[name] = self._channels[name].seen
        return counts

    def series_route(self, name: str, labels: Mapping[str, str]) -> str:
        """The canonical series key an observation routes to (validates
        the labelset against the schema) — the wire layer's per-series
        sequence-space identifier."""
        from repro.series.labels import canonical_labelset, series_key

        spec = self._family(name).spec
        return series_key(name, canonical_labelset(labels, spec.labels, name))

    # ------------------------------------------------------------------
    # Fleet composition
    # ------------------------------------------------------------------
    def merge(self, other: "Monitor") -> "Monitor":
        """Fold another monitor's state into this one, metric by metric.

        Every metric registered in ``other`` must be registered here with
        an equal spec.  ``other`` is not modified; reset or discard it
        afterwards (its state now lives in this monitor).  Merging
        per-shard monitors at period boundaries reproduces the unsplit
        stream bit-for-bit for QLOVE and Exact — the
        :class:`~repro.streaming.sharded.ShardedEngine` guarantee, now at
        the facade level.  Returns ``self`` for chaining.
        """
        if not isinstance(other, Monitor):
            raise TypeError(f"cannot merge {type(other).__name__} into Monitor")
        missing = sorted(
            (set(other._channels) - set(self._channels))
            | (set(other._families) - set(self._families))
        )
        if missing:
            raise ValueError(
                f"cannot merge: metric(s) {missing} are not registered in "
                "this monitor; register the same specs on both sides"
            )
        for name, channel in other._channels.items():
            self._channels[name].merge_from(channel)
        for name, family in other._families.items():
            self._families[name].merge_from(family)
        return self

    def reset(self) -> None:
        """Reset every metric's state and results (specs stay registered)."""
        for channel in self._channels.values():
            channel.reset()
        for family in self._families.values():
            family.reset()

    # ------------------------------------------------------------------
    # Durable state (save / load)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Everything: specs plus every metric's full operator state."""
        state = serde.header("monitor", MONITOR_STATE_VERSION)
        state["format"] = MONITOR_FORMAT
        state["metrics"] = [
            channel.to_state() for channel in self._channels.values()
        ]
        state["series_families"] = [
            family.to_state() for family in self._families.values()
        ]
        state["order"] = list(self._order)
        return state

    @classmethod
    def from_state(cls, state: dict, emit_partial: bool = False) -> "Monitor":
        """Rebuild a monitor (specs, policies, counters, results).

        Accepts v1 states (pre-labels) as well: they carry no
        ``series_families``/``order`` fields, so families come back empty
        and registration order falls back to the channel list order.
        """
        serde.check_state(state, "monitor", MONITOR_STATE_VERSION, "monitor")
        serde.require_fields(state, ("metrics",), "monitor")
        serde.warn_unknown_fields(
            state, ("metrics", "format", "series_families", "order"), "monitor"
        )
        if not isinstance(state["metrics"], list):
            raise serde.StateError(
                "monitor: 'metrics' must be a list of metric-channel states, "
                f"got {type(state['metrics']).__name__}"
            )
        families = state.get("series_families", [])
        if not isinstance(families, list):
            raise serde.StateError(
                "monitor: 'series_families' must be a list of series-index "
                f"states, got {type(families).__name__}"
            )
        monitor = cls(emit_partial=emit_partial)
        for entry in state["metrics"]:
            channel = MetricChannel.from_state(entry, emit_partial=emit_partial)
            if channel.spec.name in monitor._channels:
                raise serde.StateError(
                    f"monitor: duplicate metric {channel.spec.name!r} in state"
                )
            monitor._channels[channel.spec.name] = channel
        from repro.series.index import SeriesIndex

        for entry in families:
            family = SeriesIndex.from_state(entry, emit_partial=emit_partial)
            name = family.spec.name
            if name in monitor._channels or name in monitor._families:
                raise serde.StateError(
                    f"monitor: duplicate metric {name!r} in state"
                )
            monitor._families[name] = family
        order = state.get("order")
        known = set(monitor._channels) | set(monitor._families)
        if order is not None:
            if not isinstance(order, list) or set(order) != known or len(
                order
            ) != len(known):
                raise serde.StateError(
                    "monitor: 'order' must list every registered metric name "
                    f"exactly once; got {order!r} for metrics {sorted(known)}"
                )
            monitor._order = [str(name) for name in order]
        else:
            monitor._order = list(monitor._channels) + list(monitor._families)
        return monitor

    def save(self, path: str) -> None:
        """Write the full monitor state to ``path`` as JSON.

        The file holds the specs *and* every per-metric operator state, so
        :meth:`load` restores a monitor that continues the stream exactly
        where this one stopped (feed it the elements after each channel's
        ``seen`` count).

        The write is atomic (temp file + ``os.replace``): a crash
        mid-save — the exact event checkpoints exist to survive — leaves
        the previous checkpoint intact instead of a truncated file.
        """
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.to_state(), handle, separators=(",", ":"))
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str, emit_partial: bool = False) -> "Monitor":
        """Restore a monitor saved by :meth:`save`.

        Error paths are actionable: a missing file, malformed JSON, a
        state version from a newer release, and per-metric spec/state
        mismatches each raise with a message naming the file and the fix.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = handle.read()
        except FileNotFoundError:
            raise FileNotFoundError(
                f"monitor checkpoint {path!r} does not exist; pass the path "
                "given to Monitor.save() (or the CLI's --checkpoint)"
            ) from None
        try:
            state = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise serde.StateError(
                f"{path}: not valid JSON ({exc}); the checkpoint is "
                "corrupted or was not written by Monitor.save()"
            ) from None
        if isinstance(state, dict) and state.get("format") not in (
            None,
            MONITOR_FORMAT,
        ):
            raise serde.StateError(
                f"{path}: file format {state.get('format')!r} is not a "
                f"monitor checkpoint (expected {MONITOR_FORMAT!r})"
            )
        try:
            return cls.from_state(state, emit_partial=emit_partial)
        except serde.StateError as exc:
            raise serde.StateError(f"{path}: {exc}") from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> List[str]:
        """Registered metric names, in registration order."""
        return list(self._order)

    def labeled_metrics(self) -> List[str]:
        """Registered *labeled* metric names, in registration order."""
        return [name for name in self._order if name in self._families]

    def specs(self) -> List[MetricSpec]:
        """The canonical specs of every registered metric."""
        return [
            (
                self._families[name].spec
                if name in self._families
                else self._channels[name].spec
            )
            for name in self._order
        ]

    def series_stats(self, name: str) -> Dict[str, object]:
        """Cardinality/eviction counters of a labeled metric's index."""
        return self._family(name).stats()

    def __contains__(self, name: object) -> bool:
        return name in self._channels or name in self._families

    def __len__(self) -> int:
        return len(self._order)

    def _channel(self, name: str) -> MetricChannel:
        try:
            return self._channels[name]
        except KeyError:
            raise KeyError(
                f"unknown metric {name!r}; registered: {self.metrics() or '(none)'}"
            ) from None

    def _family(self, name: str) -> "SeriesIndex":
        try:
            return self._families[name]
        except KeyError:
            if name in self._channels:
                raise ValueError(
                    f"metric {name!r} is not labeled; this operation needs a "
                    "metric registered with labels=[...]"
                ) from None
            raise KeyError(
                f"unknown metric {name!r}; registered: {self.metrics() or '(none)'}"
            ) from None
