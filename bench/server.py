"""The telemetry server a benchmark run drives, as a child process.

    python3 bench/server.py --workload NAME --dir DIR [--trace]

Builds the workload's ``Monitor``, the optional ``HistoryWriter`` and the
``TelemetryServer`` through public APIs only, prints ``PORT <n>`` once it
listens, and serves until a client sends ``shutdown``.  Everything it
writes (history store, checkpoint, spans) lands under ``DIR``.

With ``--trace`` the layer boundaries are wrapped (see ``bench/trace.py``)
but recording starts disabled; ``SIGUSR1`` turns it on, so one run can
measure an untraced phase before its traced ones.  Spans are written to
``DIR/spans.jsonl`` after the server has stopped.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    # Run as a script: import bench.* as a package from the checkout root
    # (dropping the script directory keeps bench/trace.py from shadowing
    # the stdlib module) and the program from its sources.
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from bench.trace import Tracer, install_server

        tracer = Tracer(enabled=False)
        install_server(tracer)
        signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))

    from bench.workloads import WORKLOADS
    from repro.service import TelemetryServer
    from repro.store.writer import HistoryWriter

    workload = WORKLOADS[args.workload]
    monitor = workload.build_monitor()
    writer = None
    if workload.history:
        writer = HistoryWriter(os.path.join(args.dir, "history"))
        writer.attach(monitor)
    checkpoint = None
    if workload.checkpoint_interval is not None:
        checkpoint = os.path.join(args.dir, "checkpoint.json")
    server = TelemetryServer(
        monitor,
        checkpoint_path=checkpoint,
        checkpoint_interval=workload.checkpoint_interval,
        history_writer=writer,
    )
    server.start()
    print(f"PORT {server.address[1]}", flush=True)
    # Short waits keep the main thread returning to the interpreter, where
    # the SIGUSR1 handler runs.
    while not server.wait_shutdown(timeout=0.05):
        pass
    server.stop()
    if tracer is not None:
        tracer.enabled = False
        tracer.dump(os.path.join(args.dir, "spans.jsonl"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
