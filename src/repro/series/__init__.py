"""The labeled-series subsystem: high-cardinality metrics + group-by.

A labeled :class:`~repro.service.spec.MetricSpec` (``labels=["region",
"host"]``) turns one metric into a *family* of series, one per observed
labelset.  This package provides the three layers underneath:

- :mod:`repro.series.labels` — label validation, the canonical
  ``metric{k=v,...}`` series-key encoding (percent-encoded, length-
  capped via hashing), and the deterministic labelset/slice functions
  shared by the load generator, the CLI and the equivalence batteries.
- :mod:`repro.series.index` — :class:`SeriesIndex`: lazy per-labelset
  channel instantiation, hash-sharded internally, with deterministic
  tick-based LRU/TTL eviction that seals series through the serde path
  (evicted series stay queryable and resurrect bit-identically).
- :mod:`repro.series.groupby` — the group-by query engine: per-group
  policy merges over live indexes and historical stores, bit-identical
  to per-group offline runs for time-composable policies.

Operators drive all of it through the
:class:`~repro.service.monitor.Monitor` facade
(``observe(name, value, labels=...)``, ``group_by(name, by=[...])``),
the wire protocol's labeled ``observe`` / ``group_by`` ops, and
``python -m repro query --group-by``.  See ``docs/labels.md``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.series.groupby": ("group_by_live", "group_by_store", "render_group_result"),
    "repro.series.index": ("SERIES_INDEX_STATE_VERSION", "SeriesIndex"),
    "repro.series.labels": (
        "MAX_ENCODED_LABELSET",
        "ParsedSeriesKey",
        "canonical_labelset",
        "deterministic_labelsets",
        "encode_labelset",
        "parse_series_key",
        "series_key",
        "series_slice",
        "try_parse_series_key",
        "validate_label_schema",
    ),
})
