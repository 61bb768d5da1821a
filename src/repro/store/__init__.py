"""Historical quantile store: durable segments + time-range queries.

The layer that answers "p99 of latency between periods 840 and 900"
after the fact: per-period sketch states persist as CRC-framed segments
(:mod:`~repro.store.segment`) in append-only per-metric logs
(:mod:`~repro.store.store`), written at period boundaries by a
:class:`~repro.store.writer.HistoryWriter` and merged back at read time
by the range-query engine (:mod:`~repro.store.query`) — bit-identically
to a sequential run for time-composable policies.  See
``docs/history.md`` for the format and semantics.

Labeled metrics persist one log per *series* (keyed by the canonical
``metric{k=v,...}`` encoding), and :func:`~repro.series.groupby.
group_by_store` — re-exported here — answers historical group-by
queries over them.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.series.groupby": ("group_by_store", "render_group_result"),
    "repro.store.query": (
        "merge_segments",
        "query_at",
        "query_range",
        "query_series",
        "rebuild_policy",
        "render_result",
    ),
    "repro.store.segment": (
        "SEGMENT_KINDS",
        "SEGMENT_VERSION",
        "Segment",
        "TornRecord",
        "decode_line",
        "encode_line",
    ),
    "repro.store.store": (
        "STORE_FORMAT",
        "STORE_VERSION",
        "RetentionPolicy",
        "SegmentStore",
        "StoreError",
    ),
    "repro.store.writer": ("HistoryWriter",),
})
