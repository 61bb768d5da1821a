"""Label validation, canonical series keys, and the length-cap contract.

Pins the naming layer's edge cases: every malformed schema or labelset
is rejected up front with an actionable message, reserved characters
survive percent-encoding round-trips, and over-long encodings degrade
deterministically into hashed keys.
"""

import numpy as np
import pytest

from repro.series import (
    MAX_ENCODED_LABELSET,
    canonical_labelset,
    deterministic_labelsets,
    encode_labelset,
    parse_series_key,
    series_key,
    series_slice,
    try_parse_series_key,
    validate_label_schema,
)
from repro.service.spec import MetricSpec


class TestSchemaValidation:
    def test_returns_sorted_name_tuple(self):
        assert validate_label_schema(["host", "region"], "m") == ("host", "region")
        assert validate_label_schema(["region", "host"], "m") == ("host", "region")

    def test_rejects_bare_string_schema(self):
        with pytest.raises(ValueError, match="list of label names"):
            validate_label_schema("region", "m")

    def test_rejects_empty_schema(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_label_schema([], "m")

    def test_rejects_non_string_name(self):
        with pytest.raises(ValueError, match="must be strings.*int"):
            validate_label_schema(["region", 7], "m")

    @pytest.mark.parametrize("bad", ["", "0day", "a b", "k=v", "a,b", "x{y}"])
    def test_rejects_invalid_name_with_the_rule(self, bad):
        with pytest.raises(ValueError, match=r"invalid label name.*A-Za-z_"):
            validate_label_schema(["ok", bad], "m")

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match=r"duplicate label name\(s\) \['a'\]"):
            validate_label_schema(["a", "b", "a"], "m")

    def test_duplicate_names_rejected_through_spec_from_dict(self):
        with pytest.raises(ValueError, match="duplicate label name"):
            MetricSpec.from_dict(
                {
                    "name": "m",
                    "quantiles": [0.5],
                    "window": {"size": 100, "period": 50},
                    "labels": ["region", "region"],
                }
            )

    def test_accepts_dots_dashes_underscores(self):
        assert validate_label_schema(["a.b", "c-d", "_e"], "m") == (
            "_e",
            "a.b",
            "c-d",
        )


class TestLabelsetValidation:
    SCHEMA = ("host", "region")

    def test_canonical_order_is_sorted_by_name(self):
        items = canonical_labelset(
            {"region": "eu", "host": "a"}, self.SCHEMA, "m"
        )
        assert items == (("host", "a"), ("region", "eu"))

    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping, got list"):
            canonical_labelset([("region", "eu")], self.SCHEMA, "m")

    def test_missing_label_names_the_schema(self):
        with pytest.raises(ValueError, match=r"missing label\(s\) \['host'\]"):
            canonical_labelset({"region": "eu"}, self.SCHEMA, "m")

    def test_extra_label_names_the_schema(self):
        with pytest.raises(ValueError, match=r"unknown label\(s\) \['zone'\]"):
            canonical_labelset(
                {"region": "eu", "host": "a", "zone": "z"}, self.SCHEMA, "m"
            )

    def test_rejects_empty_value(self):
        with pytest.raises(ValueError, match="non-empty string, got ''"):
            canonical_labelset({"region": "", "host": "a"}, self.SCHEMA, "m")

    @pytest.mark.parametrize("bad", [7, None, 1.5, b"eu"])
    def test_rejects_non_string_value(self, bad):
        with pytest.raises(ValueError, match="non-empty string"):
            canonical_labelset({"region": bad, "host": "a"}, self.SCHEMA, "m")


class TestSeriesKeyEncoding:
    def test_reserved_characters_round_trip(self):
        labels = {"path": "a=b,c{d}e%f", "q": "x\ny"}
        items = canonical_labelset(labels, ("path", "q"), "m")
        key = series_key("m", items)
        parsed = parse_series_key(key)
        assert parsed.metric == "m"
        assert parsed.labels == labels
        assert not parsed.hashed

    def test_encoding_is_injective_across_structures(self):
        # Without percent-encoding these two would collide on "a=x,b=y".
        one = series_key("m", canonical_labelset({"a": "x,b=y"}, ("a",), "m"))
        two = series_key(
            "m", canonical_labelset({"a": "x", "b": "y"}, ("a", "b"), "m")
        )
        assert one != two

    def test_key_shape_and_determinism(self):
        items = canonical_labelset({"region": "eu"}, ("region",), "m")
        assert series_key("m", items) == "m{region=eu}"
        assert series_key("m", items) == series_key("m", items)

    def test_over_long_encoding_hashes_deterministically(self):
        labels = {"blob": "x" * (MAX_ENCODED_LABELSET + 1)}
        items = canonical_labelset(labels, ("blob",), "m")
        key = series_key("m", items)
        assert key.startswith("m{#") and key.endswith("}")
        assert len(key) == len("m{#}") + 32  # sha256 prefix, bounded
        assert key == series_key("m", items)
        other = canonical_labelset(
            {"blob": "y" * (MAX_ENCODED_LABELSET + 1)}, ("blob",), "m"
        )
        assert series_key("m", other) != key

    def test_hashed_key_bytes_are_pinned(self):
        # Hashed keys name on-disk series logs: the digest must never drift.
        items = canonical_labelset(
            {"host": "h-" + "é,=}" * 80, "region": "eu"}, ("host", "region"), "lat"
        )
        assert series_key("lat", items) == "lat{#c04aeea4e1764689a6b0f9854a977d66}"

    def test_hashed_key_parses_as_hashed_without_labels(self):
        labels = {"blob": "x" * 400}
        key = series_key("m", canonical_labelset(labels, ("blob",), "m"))
        parsed = parse_series_key(key)
        assert parsed.hashed and parsed.labels is None and parsed.metric == "m"

    def test_at_cap_encoding_stays_verbatim(self):
        # Exactly at the cap: stored verbatim, still decodable.
        value = "x" * (MAX_ENCODED_LABELSET - len("blob="))
        items = canonical_labelset({"blob": value}, ("blob",), "m")
        assert len(encode_labelset(items)) == MAX_ENCODED_LABELSET
        assert parse_series_key(series_key("m", items)).labels == {"blob": value}

    def test_parse_rejects_plain_metric_names(self):
        with pytest.raises(ValueError, match="not a series key"):
            parse_series_key("rtt")

    def test_parse_rejects_malformed_component(self):
        with pytest.raises(ValueError, match="malformed label component"):
            parse_series_key("m{noequals}")

    def test_try_parse_skips_non_series_keys(self):
        assert try_parse_series_key("rtt") is None
        assert try_parse_series_key("m{noequals}") is None
        parsed = try_parse_series_key("m{region=eu}")
        assert parsed is not None and parsed.labels == {"region": "eu"}


class TestDeterministicLabelsets:
    def test_pure_function_of_arguments(self):
        assert deterministic_labelsets(["region", "host"], 10, 3) == (
            deterministic_labelsets(["host", "region"], 10, 3)
        )

    def test_all_labelsets_distinct(self):
        sets = deterministic_labelsets(["region", "host"], 12, 3)
        assert len({tuple(sorted(ls.items())) for ls in sets}) == 12

    def test_first_sorted_label_cycles_fanout_values(self):
        sets = deterministic_labelsets(["region", "host"], 8, 3)
        hosts = {ls["host"] for ls in sets}
        assert hosts == {"host-000", "host-001", "host-002"}
        assert sets[0]["host"] == sets[3]["host"] == "host-000"

    def test_single_label_schema_fans_out_only(self):
        sets = deterministic_labelsets(["region"], 4, 2)
        assert [ls["region"] for ls in sets] == [
            "region-000", "region-001", "region-000", "region-001",
        ]

    @pytest.mark.parametrize("n_series,fanout", [(0, 1), (1, 0), (-3, 2)])
    def test_rejects_non_positive_arguments(self, n_series, fanout):
        with pytest.raises(ValueError, match=">= 1"):
            deterministic_labelsets(["region"], n_series, fanout)


class TestSeriesSlice:
    def test_slices_partition_the_block(self):
        values = np.arange(23, dtype=np.float64)
        slices = [series_slice(values, 0, 5, j) for j in range(5)]
        recombined = np.full(23, -1.0)
        for j, sub in enumerate(slices):
            recombined[j::5] = sub
        assert np.array_equal(recombined, values)

    def test_assignment_independent_of_block_boundaries(self):
        values = np.arange(40, dtype=np.float64)
        for j in range(3):
            whole = series_slice(values, 0, 3, j)
            split = np.concatenate(
                [series_slice(values[:17], 0, 3, j),
                 series_slice(values[17:], 17, 3, j)]
            )
            assert np.array_equal(whole, split)

    def test_offset_shifts_ownership(self):
        values = np.arange(6, dtype=np.float64)
        # Global positions 4..9: series 1 owns 4 and 7.
        assert series_slice(values, 4, 3, 1).tolist() == [0.0, 3.0]

    def test_rejects_non_positive_series_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            series_slice(np.arange(3, dtype=np.float64), 0, 0, 0)
