"""Smoke test of the served benchmark plus its arithmetic on synthetic data.

The smoke half runs ``bench/run.py --quick`` (about a second per
workload) on every workload untraced, and traced on the two workloads
that between them enter every layer, and checks the output against
``BENCHMARK.json``.  Only the correctness checks can fail it: in
``--quick`` mode the validity gates (generator lateness, threads per
CPU) print warnings, since they judge the host rather than the program.
The unit half pins the percentile, self-time, span pairing and A/B
comparison arithmetic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from bench import trace as tracing
from bench.compare import compare_metric
from bench.run import catalog, load_benchmark
from bench.stats import percentile, quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bulk-binary", "small-frames-json", "history-checkpoint", "labeled-churn")
#: Only history-checkpoint appends to the store and only labeled-churn
#: routes series; both enter every other layer too.
TRACED = ("history-checkpoint", "labeled-churn")
#: Span-name layers the traced run must record across the workloads.
SPAN_LAYERS = ("client", "wire", "queue", "monitor", "series", "sketch", "serde", "store")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--quick", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _printed(stdout: str) -> dict:
    """``(workload, metric) -> unit`` of every metric line."""
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS:
            float(parts[2])
            printed[(parts[0], parts[1])] = parts[3]
    return printed


@pytest.fixture(scope="module")
def untraced():
    return _run()


@pytest.fixture(scope="module")
def traced():
    return _run("--trace", "1", *(arg for name in TRACED for arg in ("--workload", name)))


def test_quick_run_prints_every_end_to_end_metric_and_passes_checks(untraced):
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    assert "FAILED" not in untraced.stdout
    benchmark = load_benchmark()
    entries = catalog(benchmark)
    printed = _printed(untraced.stdout)
    for workload in WORKLOADS:
        for entry in benchmark["end_to_end"]:
            assert printed.get((workload, entry["name"])) == entry["unit"], (workload, entry["name"])
        assert printed[(workload, "failed_frac")] == "fraction"
    for (workload, name), unit in printed.items():
        assert entries[name]["unit"] == unit, (workload, name)
    result = json.loads(untraced.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {
        f"{w}/{e['name']}" for w in WORKLOADS for e in benchmark["end_to_end"]
    }


def test_traced_run_prints_every_per_layer_metric_and_spans_every_layer(traced):
    assert traced.returncode == 0, traced.stdout + traced.stderr
    printed = _printed(traced.stdout)
    for workload in TRACED:
        for entry in load_benchmark()["per_layer"]:
            assert printed.get((workload, entry["name"])) == entry["unit"], (workload, entry["name"])
    layers = set()
    for workload in TRACED:
        for kind in ("spans", "client-spans"):
            path = os.path.join(ROOT, "bench", ".work", f"{workload}.{kind}.jsonl")
            layers.update(span["name"].split(".")[0] for span in tracing.load(path))
    assert layers >= set(SPAN_LAYERS)


# ----------------------------------------------------------------------
# Arithmetic on synthetic data
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.0
    assert percentile([], 0.9) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 0.0)


def test_quartiles_follow_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert quartiles(values) == (11.75, 14.5, 17.25)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def _span(ident, name, start, end, parent=0, thread="t", trace=None, req=0, **attrs):
    return {"id": ident, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "trace": trace, "req": req, **attrs}


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(1, "monitor.observe_batch", 0, 100),
        _span(2, "sketch.accumulate", 10, 30, parent=1),
        _span(3, "serde.to_state", 12, 20, parent=2),
        _span(4, "store.append", 40, 50, parent=1),
    ]
    assert tracing.self_times(spans) == {1: 70, 2: 12, 3: 8, 4: 10}


def test_unattributed_fraction_counts_gaps_between_top_level_spans():
    spans = [
        _span(1, "queue.get", 0, 10, thread="consumer"),
        _span(2, "monitor.observe_batch", 20, 30, thread="consumer"),
        _span(3, "sketch.accumulate", 21, 29, parent=2, thread="consumer"),
        _span(4, "wire.recv", 0, 100, thread="other"),
    ]
    assert tracing.unattributed_fraction(spans, ["consumer"]) == pytest.approx(10 / 30)


def test_queue_waits_pair_puts_and_gets_on_trace_id():
    puts = [_span(1, "queue.put", 0, 10, trace=["lat", 0]), _span(2, "queue.put", 5, 20, trace=["lat", 1])]
    gets = [_span(3, "queue.get", 0, 15, trace=["lat", 0]), _span(4, "queue.get", 16, 18, trace=["lat", 1])]
    assert tracing.queue_waits(puts, gets) == [5, 0]


def test_parked_max_counts_blocks_dequeued_but_not_applied():
    # Seq 1 and 2 arrive before seq 0: both park until seq 0 is applied.
    gets = [
        _span(1, "queue.get", 0, 10, trace=["lat", 1]),
        _span(2, "queue.get", 11, 20, trace=["lat", 2]),
        _span(3, "queue.get", 21, 30, trace=["lat", 0]),
        _span(4, "queue.get", 60, 70, trace=["lat", 3]),
    ]
    applies = [
        _span(5, "monitor.observe_batch", 31, 40, trace=["lat", 0]),
        _span(6, "monitor.observe_batch", 41, 50, trace=["lat", 1]),
        _span(7, "monitor.observe_batch", 51, 59, trace=["lat", 2]),
        _span(8, "monitor.observe_batch", 71, 80, trace=["lat", 3]),
    ]
    assert tracing.parked_max(gets, applies) == 2


def test_request_gaps_measure_handle_and_drain_wait():
    spans = [
        _span(1, "wire.recv", 0, 10, req=1, trace=["q", 1]),
        _span(2, "wire.decode", 10, 14, req=1, trace=["q", 1]),
        _span(3, "monitor.snapshot", 30, 40, req=1, trace=["q", 1]),
        _span(4, "wire.encode", 45, 50, req=1, trace=["q", 1]),
        _span(5, "wire.recv", 60, 70, req=2, trace=["lat", 0]),
        _span(6, "queue.put", 71, 75, req=2, trace=["lat", 0]),
        _span(7, "wire.encode", 76, 80, req=2, trace=["lat", 0]),
    ]
    assert tracing.request_gaps(spans) == ([31, 6], [16])


def test_tracer_records_nesting_and_stays_silent_when_disabled():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("sketch.query", inner)
    outer = tracer.wrap("monitor.snapshot", lambda x: traced_inner(x) * 2)
    assert outer(1) == 4
    records = list(tracer.records())
    assert [r["name"] for r in records] == ["monitor.snapshot", "sketch.query"]
    assert records[1]["parent"] == records[0]["id"] and records[0]["parent"] == 0
    tracer.enabled = False
    assert outer(2) == 6
    assert len(list(tracer.records())) == 2


def test_compare_improved_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]
    change = [v * 1.05 for v in parent]
    row = compare_metric(parent, change, "higher", 0.10)
    assert row["verdict"] == "improved"
    assert (row["change_wins"], row["parent_wins"], row["pairs"]) == (10, 0, 10)
    assert row["ratio"] == pytest.approx(1.05)
    # Eight wins and two ties: ties count for neither side, so not improved.
    tied = change[:8] + parent[8:]
    row = compare_metric(parent, tied, "higher", 0.10)
    assert (row["change_wins"], row["parent_wins"]) == (8, 0)
    assert row["verdict"] == "unchanged"


def test_compare_flags_regressions_and_unresolved_spreads():
    parent = [10.0] * 10
    assert compare_metric(parent, [11.5] * 10, "lower", 0.10)["verdict"] == "regressed"
    assert compare_metric(parent, [10.5] * 10, "lower", 0.10)["verdict"] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare_metric(parent, noisy, "lower", 0.10)["verdict"] == "unresolved"
    assert compare_metric(parent, [10.5] * 10, "lower", None)["verdict"] == "-"
