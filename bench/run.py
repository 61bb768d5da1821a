"""Served end-to-end benchmark: run the real server, drive it, check it.

    python3 bench/run.py [--workload NAME ...] [--seed N]
                         [--seconds S | --quick] [--trace {0,1}] [--out FILE]

For each workload (all four by default) the benchmark spawns
``bench/server.py`` as a child process, drives it from this process with
two threads over two connections, verifies the served answers against an
offline replay of the identical blocks, and prints one line per metric:
``<workload> <metric> <value> <unit>``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Metric units, directions and bounds come from ``BENCHMARK.json``.

A run of ``S`` seconds (10 by default):

1. set-up -- ``setup_s`` is the median of 10 cold server spawns (spawn to
   first answered ``ping``): 5 before the load, the last of which serves
   the run, and 5 after it has shut down.  Then a warm-up of ``0.15 S``
   at the workload's fixed rate, unrecorded.
2. rate phase, ``0.65 S``, open loop (see ``bench/loadgen.py``).
3. max phase, closed loop on both connections: a fixed number of blocks
   (the workload's ``max_events`` scaled by ``S / 10``, about ``0.35 S``
   on a 2-vCPU VM) sent as 7 chunks that each end with a ``flush``;
   throughput and CPU cost per event are chunk medians.  Every phase
   sends a fixed number of blocks, so the served stream and its answers
   depend on the seed alone.
4. verify -- ``stats``, ``snapshot``, ``results`` / ``history`` /
   ``group_by``, shutdown, then the offline replay.

``--trace 1`` is the per-layer run: after the warm-up, 3 untraced max
chunks run, tracing turns on, then 4 traced max chunks (the two sets'
``ingest_ev_s`` ratio is ``trace.overhead_pct``) and the traced rate
phase follow, and the metrics printed are the per-layer ones.

Any failed correctness check or validity gate prints
``FAILED <workload> <check>`` and exits 1.  ``--quick`` is the smoke run:
0.75-second runs, one set-up spawn, and validity gates (generator
lateness, threads) that print ``WARNING <workload> <check>`` instead,
since a sub-second phase on a busy host says nothing about the program.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    # Run as a script: import bench.* as a package from the checkout root
    # (dropping the script directory keeps bench/trace.py from shadowing
    # the stdlib module) and the program from its sources.
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))

SERVER = os.path.join(ROOT, "bench", "server.py")
WORK = os.path.join(ROOT, "bench", ".work")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Run length in seconds: the default, and the one ``max_events`` is
#: sized for; ``--quick`` runs.
RUN_SECONDS, QUICK_SECONDS = 10.0, 0.75
#: Shares of the run length: warm-up and rate phase.
WARMUP_SHARE, RATE_SHARE = 0.15, 0.65
#: The max phase runs as this many flushed chunks; throughput and CPU
#: cost are chunk medians, so a few seconds of host interference move
#: them less than they move a single long measurement.
MAX_CHUNKS = 7
#: Cold spawns timed for ``setup_s``, before the load and after it.  Spawn
#: time follows the shared host's load, which shifts over seconds; timing
#: both ends of the run samples two host states instead of one.
SETUP_SPAWNS = (5, 5)
#: A run is invalid when the generator's p99 lateness exceeds this share
#: of the rate phase.
LATENESS_GATE = 0.10
#: Checks of the run's validity rather than of the served answers.
VALIDITY_GATES = ("lateness", "threads")
#: Evaluations from ``results`` scored for value error.
VALUE_ERROR_EVALUATIONS = 64
#: The one printed metric ``BENCHMARK.json`` does not list: it reads 0 on
#: a healthy run, and the JSON result carries it as ``failed``/``attempted``.
FAILED_FRAC = {"name": "failed_frac", "unit": "fraction", "better": "lower"}


def load_benchmark(path: str = BENCHMARK) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def catalog(benchmark: dict) -> dict:
    """Metric name -> its ``BENCHMARK.json`` entry (unit, better, bound).

    An end-to-end metric that could not be gated is listed per layer as
    ``loadgen.<name>``; untraced runs print it under its bare name, which
    maps to the same entry (and so to no bound).
    """
    entries = {FAILED_FRAC["name"]: FAILED_FRAC}
    for entry in benchmark["per_layer"]:
        entries[entry["name"]] = entry
        if entry["name"].startswith("loadgen."):
            entries[entry["name"][len("loadgen."):]] = entry
    for entry in benchmark["end_to_end"]:
        entries[entry["name"]] = entry
    return entries


class ServerProcess:
    """One ``bench/server.py`` child; ``setup_s`` is spawn to first ping."""

    def __init__(self, workload: str, directory: str, trace: bool) -> None:
        from repro.service import wait_for_server

        command = [sys.executable, SERVER, "--workload", workload, "--dir", directory]
        if trace:
            command.append("--trace")
        # The server makes no BLAS calls, but numpy's OpenBLAS starts a
        # thread pool at import: 60-190 ms per spawn on two vCPUs, and most
        # of the spread of setup_s.  One BLAS thread leaves the served
        # work unchanged.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        started = time.monotonic()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        try:
            self.port = self._read_port(timeout=60.0)
            wait_for_server("127.0.0.1", self.port, timeout=30.0).close()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - started
        self.directory = directory

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("PORT "):
            raise RuntimeError(f"server did not report its port (got {line!r})")
        return int(line.split()[1])

    def stop(self) -> None:
        """Ask for a clean shutdown and wait for the process to exit."""
        from repro.service import TelemetryClient

        with TelemetryClient("127.0.0.1", self.port, timeout=60.0) as client:
            shutdown(client)
        self.wait()

    def wait(self) -> None:
        try:
            self.proc.wait(timeout=120.0)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def cpu_seconds(self) -> float:
        """utime + stime of every server thread so far."""
        with open(f"/proc/{self.proc.pid}/stat", "r") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


def shutdown(client) -> None:
    """Send ``shutdown``; a connection closed before the reply also means
    the server is going away (its main thread may stop the server before
    the connection thread has written the reply)."""
    from repro.service.protocol import ConnectionClosed

    try:
        client.shutdown()
    except ConnectionClosed:
        pass


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _dir_bytes(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(directory, name)) for name in files)
    return total


def value_errors(workload, pool, blocks, results, group) -> dict:
    """Mean relative value error (%) per quantile of the served answers.

    Plain metrics score up to 64 evenly spaced evaluations from
    ``results`` against the exact quantiles of the same window; the
    labeled metric scores each ``group_by(region)`` group against the
    exact quantiles of the values its answer covers.
    """
    import numpy as np

    from bench.workloads import PHIS, stream_window
    from repro.evalkit.metrics import ErrorAccumulator

    accumulator = ErrorAccumulator(PHIS)
    if workload.labeled:
        truth = workload.sealed_groups(pool, blocks)
        for entry in group["groups"]:
            estimates = {float(phi): value for phi, value in entry["quantiles"].items()}
            accumulator.observe(estimates, truth[entry["key"]["region"]])
    else:
        picks = np.linspace(0, len(results) - 1, VALUE_ERROR_EVALUATIONS).round().astype(int)
        for index in sorted(set(picks)):
            result = results[index]
            end = int(result.end)
            accumulator.observe(result.result, stream_window(pool, end - result.window_count, end))
    return {
        f"value_error_q{label}_pct": accumulator.value_error_percent(phi)
        for phi, label in ((0.5, "50"), (0.99, "99"), (0.999, "999"))
    }


@dataclass
class MaxPhase:
    """Closed-loop chunks: per-chunk events/s and server CPU ns/event."""

    start: float
    end: float
    rates: List[float] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    acks: List[float] = field(default_factory=list)


def _max_phase(gen, server: ServerProcess, chunks: int, blocks: int) -> MaxPhase:
    phase = MaxPhase(start=time.monotonic(), end=0.0)
    for _ in range(chunks):
        cpu = server.cpu_seconds()
        chunk = gen.closed_loop(blocks)
        phase.rates.append(chunk.events / (chunk.end - chunk.start))
        phase.costs.append((server.cpu_seconds() - cpu) * 1e9 / chunk.events)
        phase.acks.extend(chunk.acks)
        phase.end = chunk.end
    return phase


def _answers(group: dict) -> list:
    """A group-by result without its ``evicted`` member counts: which
    series sit evicted depends on how the two connections' frames
    interleaved (LRU recency counts arrivals); the answers do not."""
    return [{k: v for k, v in entry.items() if k != "evicted"} for entry in group["groups"]]


def _spawn(workload, work: str, trace: bool, spawn: int) -> ServerProcess:
    directory = os.path.join(work, f"spawn{spawn}")
    os.makedirs(directory)
    return ServerProcess(workload.name, directory, trace)


def _cold_spawns(workload, work: str, trace: bool, first: int, count: int) -> List[float]:
    """Set-up times of ``count`` servers spawned and stopped in turn."""
    times = []
    for spawn in range(first, first + count):
        server = _spawn(workload, work, trace, spawn)
        try:
            times.append(server.setup_s)
            server.stop()
        finally:
            server.kill()
    return times


def run_workload(workload, pool, seconds: float, trace: bool, spawns, work: str) -> dict:
    """One full run; returns metrics, checks and request counts.

    ``spawns`` is the pair of set-up spawn counts timed before the load
    (the last serves the run) and after it.
    """
    from bench import trace as tracing
    from bench.loadgen import LoadGen
    from bench.stats import percentile
    from bench.workloads import METRIC, replay

    warmup, rate_s = WARMUP_SHARE * seconds, RATE_SHARE * seconds
    chunk_events = workload.max_events * seconds / RUN_SECONDS / MAX_CHUNKS
    chunk_blocks = max(1, round(chunk_events / workload.block_values))
    before, after = spawns
    server = gen = client_tracer = None
    try:
        setup = _cold_spawns(workload, work, trace, 0, before - 1)
        server = _spawn(workload, work, trace, before - 1)
        setup.append(server.setup_s)
        gen = LoadGen(workload, pool, "127.0.0.1", server.port)
        if trace:
            # Untraced and traced chunks run back to back, so the host
            # state they compare under is as close as it gets.
            client_tracer = tracing.Tracer(enabled=False)
            tracing.install_client(client_tracer)
            gen.open_loop(warmup, record_after=warmup)
            untraced = _max_phase(gen, server, MAX_CHUNKS // 2, chunk_blocks)
            os.kill(server.proc.pid, signal.SIGUSR1)
            client_tracer.enabled = True
            time.sleep(0.1)  # the server's main thread applies the signal within 50 ms
            peak = _max_phase(gen, server, MAX_CHUNKS - MAX_CHUNKS // 2, chunk_blocks)
            rate = gen.open_loop(rate_s)
            client_tracer.enabled = False
            rss = server.peak_rss_mb()
        else:
            rate = gen.open_loop(warmup + rate_s, record_after=warmup)
            # Read after the fixed-rate work, so it does not vary with throughput.
            rss = server.peak_rss_mb()
            peak = _max_phase(gen, server, MAX_CHUNKS, chunk_blocks)

        client = gen.clients[0]
        stats = client.stats()
        snapshot = client.snapshot()
        periods = gen.events // workload.period
        results = history = group = None
        if workload.labeled:
            group = client.group_by(METRIC, ["region"])
        else:
            results = client.results(METRIC)
        if workload.history:
            history = client.history(METRIC, start=0, end=periods)
        shutdown(client)
        gen.close()
        server.wait()
    finally:
        if client_tracer is not None:
            client_tracer.uninstall()
        if gen is not None:
            gen.close()
        if server is not None:
            server.kill()
    setup += _cold_spawns(workload, work, trace, before, after)

    offline_history = os.path.join(work, "offline-history") if workload.history else None
    offline, offline_s = replay(workload, pool, gen.blocks, offline_history)

    report = stats["metrics"][METRIC]
    failed = sum(gen.failures.values())
    lateness_p99 = percentile(rate.lateness, 0.99)
    cpus = _cpus()
    checks = {
        "seen": report["seen"] == gen.events,
        "failed_requests": failed == 0,
        "lateness": lateness_p99 <= LATENESS_GATE * rate_s * 1e3,
        "threads": gen.max_threads <= cpus and len(gen.clients) <= cpus,
    }
    if workload.labeled:
        checks["group_by"] = _answers(group) == _answers(offline.group_by(METRIC, ["region"]))
    else:
        checks["snapshot"] = snapshot == offline.snapshot()
    if workload.history:
        checks["history_count"] = history["count"] == periods * workload.period

    metrics = {
        "ingest_ev_s": statistics.median(peak.rates),
        "ack_p50_ms": percentile(rate.acks, 0.5),
        "ack_p99_ms": percentile(rate.acks, 0.99),
        "query_p50_ms": percentile(rate.queries, 0.5),
        "query_p90_ms": percentile(rate.queries, 0.9),
        "server_cpu_ns_per_event": statistics.median(peak.costs),
        "server_rss_mb": rss,
        "sketch_space_vars": float(sum(m["peak_space"] for m in stats["metrics"].values())),
        **value_errors(workload, pool, gen.blocks, results, group),
        "failed_frac": failed / max(gen.requests, 1),
        "setup_s": statistics.median(setup),
    }
    samples = {"acks": len(rate.acks), "queries": len(rate.queries), "max_acks": len(peak.acks)}
    if trace:
        series = report.get("series", {})
        evictions = series.get("evictions", 0)
        checkpoint = os.path.join(server.directory, "checkpoint.json")
        extras = {
            "loadgen.lateness_p99_ms": lateness_p99,
            "loadgen.max_ack_p99_ms": percentile(peak.acks, 0.99),
            # Every end-to-end metric as loadgen.<name>: BENCHMARK.json
            # lists per layer the ones it could not gate.  Throughput and
            # CPU cost are the ones measured before tracing was on.
            **{f"loadgen.{name}": value for name, value in metrics.items()},
            "loadgen.ingest_ev_s": statistics.median(untraced.rates),
            "loadgen.server_cpu_ns_per_event": statistics.median(untraced.costs),
            "service.server.duplicate_blocks": float(stats["pipeline"]["duplicate_blocks"]),
            "service.server.shed_blocks": float(stats["ingest"]["shed_blocks"]),
            "service.monitor.checkpoint_mb": (
                os.path.getsize(checkpoint) / 1e6 if os.path.exists(checkpoint) else 0.0
            ),
            "service.monitor.offline_ev_s": gen.events / offline_s,
            "series.created": float(series.get("created", 0)),
            "series.evictions": float(evictions),
            "series.resurrections": float(series.get("resurrections", 0)),
            "series.active_max": float(series.get("active", 0)),
            "series.evicted_state_mb": series.get("evicted_state_bytes", 0) / 1e6,
            "series.wasted_eviction_frac": series.get("resurrections", 0) / evictions if evictions else 0.0,
            "store.bytes_written": float(_dir_bytes(os.path.join(server.directory, "history"))),
            "trace.overhead_pct": 100.0 * (1.0 - metrics["ingest_ev_s"] / statistics.median(untraced.rates)),
        }
        spans_path = os.path.join(server.directory, "spans.jsonl")
        server_spans = tracing.load(spans_path)
        client_spans = list(client_tracer.records())
        window = (int(peak.start * 1e9), int(rate.end * 1e9))
        samples["trace_window_ns"] = window
        metrics.update(tracing.layer_metrics(server_spans, client_spans, *window, extras))
        kept = os.path.join(WORK, f"{workload.name}.spans.jsonl")
        shutil.move(spans_path, kept)
        client_tracer.dump(os.path.join(WORK, f"{workload.name}.client-spans.jsonl"))
    return {
        "workload": workload.name,
        "checks": checks,
        "attempted": gen.requests,
        "failed": failed,
        "samples": samples,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    from bench.workloads import WORKLOADS, make_pool

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"run length (default {RUN_SECONDS:g})")
    length.add_argument("--quick", action="store_true",
                        help=f"smoke run: {QUICK_SECONDS:g} s, one set-up spawn, "
                             "validity gates only warn")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced per-layer run")
    parser.add_argument("--out", help="append this run's records to a JSON list file")
    args = parser.parse_args(argv)

    seconds = QUICK_SECONDS if args.quick else args.seconds
    spawns = (1, 0) if args.quick else SETUP_SPAWNS
    names = args.workload or list(WORKLOADS)
    benchmark = load_benchmark()
    entries = catalog(benchmark)
    # The JSON result carries the metrics BENCHMARK.json lists for the
    # run's kind; an untraced run prints its ungated ones too.
    listed = [e["name"] for e in benchmark["per_layer" if args.trace else "end_to_end"]]
    pool = make_pool(args.seed)
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    records = []
    try:
        for name in names:
            os.makedirs(os.path.join(work, name))
            try:
                records.append(run_workload(WORKLOADS[name], pool, seconds, bool(args.trace), spawns, os.path.join(work, name)))
            except Exception as exc:
                print(f"FAILED {name} run ({type(exc).__name__}: {exc})", flush=True)
                raise
    finally:
        shutil.rmtree(work, ignore_errors=True)

    output = {}
    correct = True
    for record in records:
        name = record["workload"]
        for metric in listed if args.trace else record["metrics"]:
            value = record["metrics"][metric]
            unit = entries[metric]["unit"]
            print(f"{name} {metric} {value:.6g} {unit}")
            if metric in listed:
                key = metric if len(records) == 1 else f"{name}/{metric}"
                output[key] = {"value": value, "unit": unit}
        for check, passed in record["checks"].items():
            if passed:
                continue
            if args.quick and check in VALIDITY_GATES:
                print(f"WARNING {name} {check}")
            else:
                print(f"FAILED {name} {check}")
                correct = False
        record.update(seed=args.seed, seconds=seconds, trace=args.trace)
    if args.out:
        _append_records(args.out, records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": output,
    }))
    return 0 if correct else 1


def _append_records(path: str, records) -> None:
    existing = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(existing + records, handle, indent=1)
        handle.write("\n")
    os.replace(temporary, path)


if __name__ == "__main__":
    sys.exit(main())
