"""Label schemas, canonical series keys, and deterministic labelsets.

A *labeled* metric is a family of series: ``latency{region, host}`` is
one :class:`~repro.service.spec.MetricSpec` whose ``labels`` field
declares a schema, and every observed ``{region: ..., host: ...}``
labelset names one series of that family.  This module is the naming
layer everything else builds on:

- **Validation** — label names and values are checked up front with
  actionable errors (:func:`validate_label_schema`,
  :func:`canonical_labelset`), never mid-stream.
- **Canonical encoding** — a labelset encodes to one stable string
  (labels sorted by name, every component percent-encoded), and
  ``metric{enc}`` is the *series key*: the identifier used for series
  routing, store filenames, wire sequence spaces and group-by ordering.
  The encoding is injective, so two labelsets collide only if equal.
- **Length cap** — store filenames and wire keys must stay bounded, so
  an encoded labelset longer than :data:`MAX_ENCODED_LABELSET` is
  replaced by ``#<sha256-prefix>`` (deterministic, not decodable; the
  live index keeps the real labels, only *store-side* group-by loses
  them — see :func:`parse_series_key`).
- **Deterministic labelsets** — :func:`deterministic_labelsets` and
  :func:`series_slice` are the pure functions of ``(schema, n_series,
  fanout)`` and global stream position that the load generator, the
  offline monitor CLI and the equivalence batteries share, so served
  and offline labeled ingest remain byte-diffable.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import quote, unquote

import numpy as np

#: Longest encoded labelset (the text between ``{`` and ``}``) stored
#: verbatim; anything longer is hashed (see module docstring).
MAX_ENCODED_LABELSET = 256

#: Valid label *names* (values may be any non-empty string).
_LABEL_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")

#: A canonical labelset: ``(name, value)`` pairs sorted by name.
LabelItems = Tuple[Tuple[str, str], ...]


def validate_label_schema(names: object, metric: str) -> Tuple[str, ...]:
    """Validate a spec's label schema; returns the sorted name tuple.

    A schema is a non-empty sequence of distinct label names matching
    ``[A-Za-z_][A-Za-z0-9_.-]*``.  Every rejection says what was passed
    and what is accepted.
    """
    if isinstance(names, (str, bytes)) or not isinstance(names, Sequence):
        raise ValueError(
            f"metric {metric!r}: labels must be a list of label names, got "
            f"{type(names).__name__}; e.g. labels=[\"region\", \"host\"]"
        )
    if not names:
        raise ValueError(
            f"metric {metric!r}: labels must be a non-empty list of label "
            "names (omit the field entirely for an unlabeled metric)"
        )
    for name in names:
        if not isinstance(name, str):
            raise ValueError(
                f"metric {metric!r}: label names must be strings, got "
                f"{name!r} ({type(name).__name__})"
            )
        if not _LABEL_NAME_RE.match(name):
            raise ValueError(
                f"metric {metric!r}: invalid label name {name!r}; label "
                "names match [A-Za-z_][A-Za-z0-9_.-]* (values may be any "
                "non-empty string)"
            )
    duplicates = sorted({n for n in names if list(names).count(n) > 1})
    if duplicates:
        raise ValueError(
            f"metric {metric!r}: duplicate label name(s) {duplicates}; "
            "each label appears once in the schema"
        )
    return tuple(sorted(names))


def canonical_labelset(
    labels: object, schema: Sequence[str], metric: str
) -> LabelItems:
    """Validate one observed labelset against ``schema``; canonical form.

    The labelset must be a mapping carrying *exactly* the schema's label
    names, every value a non-empty string.  Returns ``(name, value)``
    pairs sorted by name — the canonical order every encoding, merge and
    group-by iteration uses.
    """
    if not isinstance(labels, Mapping):
        raise ValueError(
            f"metric {metric!r}: labels must be a {{name: value}} mapping, "
            f"got {type(labels).__name__}"
        )
    missing = sorted(set(schema) - set(labels))
    if missing:
        raise ValueError(
            f"metric {metric!r}: labelset is missing label(s) {missing}; "
            f"the schema is {sorted(schema)} and every observation must "
            "carry all of it"
        )
    extra = sorted(set(labels) - set(schema))
    if extra:
        raise ValueError(
            f"metric {metric!r}: unknown label(s) {extra}; the schema is "
            f"{sorted(schema)} — register the metric with these labels to "
            "use them"
        )
    items = []
    for name in sorted(schema):
        value = labels[name]
        if not isinstance(value, str) or not value:
            raise ValueError(
                f"metric {metric!r}: label {name!r} must be a non-empty "
                f"string, got {value!r} ({type(value).__name__})"
            )
        items.append((name, value))
    return tuple(items)


def encode_labelset(items: LabelItems) -> str:
    """The canonical encoded form: ``k=v,k2=v2`` with each component
    percent-encoded (``quote(..., safe="")``), so ``=``, ``,``, ``{``,
    ``}`` and ``%`` inside values never collide with the syntax."""
    return ",".join(
        f"{quote(name, safe='')}={quote(value, safe='')}" for name, value in items
    )


def series_key(metric: str, items: LabelItems) -> str:
    """The series identifier: ``metric{enc}``, hashed past the length cap.

    Above :data:`MAX_ENCODED_LABELSET` the encoding is replaced with
    ``#`` + 32 hex chars of its SHA-256 — still deterministic and
    collision-free for practical purposes, but not decodable (the live
    index keeps the labels alongside; only store-side group-by needs to
    decode keys, and it reports hashed keys with an actionable error).
    """
    encoded = encode_labelset(items)
    if len(encoded) > MAX_ENCODED_LABELSET:
        # Imported here: hashlib loads OpenSSL's libcrypto (~3 MB of RSS),
        # and only an over-length labelset needs it.
        import hashlib

        digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:32]
        encoded = f"#{digest}"
    return f"{metric}{{{encoded}}}"


class ParsedSeriesKey(NamedTuple):
    """A decoded series key: the base metric, the labels (None when the
    key was length-capped into a hash), and whether it was hashed."""

    metric: str
    labels: Optional[Dict[str, str]]
    hashed: bool


def parse_series_key(key: str) -> ParsedSeriesKey:
    """Decode a series key produced by :func:`series_key`.

    Raises ``ValueError`` for strings that are not series keys (no
    ``{...}`` suffix) — callers scanning a store use
    :func:`try_parse_series_key` to skip plain metric names instead.
    """
    if not key.endswith("}") or "{" not in key:
        raise ValueError(
            f"{key!r} is not a series key; expected 'metric{{k=v,...}}' as "
            "produced by series_key()"
        )
    split = key.rindex("{")
    metric, encoded = key[:split], key[split + 1 : -1]
    if encoded.startswith("#"):
        return ParsedSeriesKey(metric=metric, labels=None, hashed=True)
    labels: Dict[str, str] = {}
    for part in encoded.split(","):
        name, eq, value = part.partition("=")
        if not eq:
            raise ValueError(
                f"series key {key!r}: malformed label component {part!r} "
                "(expected 'name=value')"
            )
        labels[unquote(name)] = unquote(value)
    return ParsedSeriesKey(metric=metric, labels=labels, hashed=False)


def try_parse_series_key(key: str) -> Optional[ParsedSeriesKey]:
    """:func:`parse_series_key`, or ``None`` for plain metric names."""
    if not key.endswith("}") or "{" not in key:
        return None
    try:
        return parse_series_key(key)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Deterministic labeled workloads (shared by loadgen / CLI / batteries)
# ----------------------------------------------------------------------
def deterministic_labelsets(
    schema: Sequence[str], n_series: int, fanout: int
) -> List[Dict[str, str]]:
    """``n_series`` labelsets, a pure function of the arguments.

    The schema's first label (sorted order) is the *group* dimension: its
    value cycles through ``fanout`` distinct values, so group-by over it
    yields non-trivial groups.  Every other label gets a per-series
    unique value, so all ``n_series`` labelsets are distinct.  Values
    are zero-padded, making lexicographic (canonical) order equal
    numeric order.
    """
    if n_series < 1:
        raise ValueError(f"n_series must be >= 1, got {n_series}")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    names = sorted(validate_label_schema(schema, "deterministic_labelsets"))
    sets: List[Dict[str, str]] = []
    for j in range(n_series):
        labels = {names[0]: f"{names[0]}-{j % fanout:03d}"}
        for name in names[1:]:
            labels[name] = f"{name}-{j:06d}"
        sets.append(labels)
    return sets


def series_slice(
    values: np.ndarray, offset: int, n_series: int, index: int
) -> np.ndarray:
    """The elements of a block that belong to series ``index``.

    Global event ``i`` belongs to series ``i % n_series``; ``offset`` is
    the block's global start position, so the assignment depends only on
    stream position — never on block boundaries — exactly like the
    round-robin :class:`~repro.streaming.partition.StreamPartitioner`.
    """
    if n_series < 1:
        raise ValueError(f"n_series must be >= 1, got {n_series}")
    first = (index - offset) % n_series
    return values[first::n_series]
