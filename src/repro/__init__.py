"""QLOVE: Approximate Quantiles for Datacenter Telemetry Monitoring.

A from-scratch reproduction of Lim et al. (ICDE 2020).  The package
provides:

- :mod:`repro.core` — the QLOVE algorithm (two-level quantile
  approximation, value compression, few-k merging, CLT error bound);
- :mod:`repro.streaming` — a Trill-like incremental streaming engine;
- :mod:`repro.sketches` — Exact and the four compared baselines
  (CMQS, AM, Random, Moment);
- :mod:`repro.workloads` — NetMon/Search-style telemetry generators and
  the synthetic datasets of the evaluation;
- :mod:`repro.evalkit` — metrics, runners and per-table experiment
  definitions regenerating the paper's results.

- :mod:`repro.service` — the operator-facing front door
  (:class:`MetricSpec`, :class:`Monitor`).

Quickstart::

    from repro import MetricSpec, Monitor

    monitor = Monitor()
    monitor.register(MetricSpec(
        name="rtt", quantiles=[0.5, 0.99],
        window={"size": 100_000, "period": 10_000}))
    monitor.observe_batch("rtt", values)
    print(monitor.snapshot()["rtt"])       # {0.5: ..., 0.99: ...}

Under the hood the same pipeline is a ``Qmonitor`` query executed by
:meth:`StreamEngine.execute` with an :class:`ExecutionPlan` choosing the
per-event, batched or sharded path.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.config": ("FewKConfig", "QLOVEConfig"),
    "repro.core.qlove": ("QLOVEPolicy",),
    "repro.service.monitor": ("Monitor",),
    "repro.service.spec": ("MetricSpec", "load_specs"),
    "repro.sketches.am": ("AMPolicy",),
    "repro.sketches.base": ("PolicyOperator",),
    "repro.sketches.cmqs": ("CMQSPolicy",),
    "repro.sketches.exact": ("ExactPolicy",),
    "repro.sketches.moments": ("MomentPolicy",),
    "repro.sketches.random_sketch": ("RandomPolicy",),
    "repro.sketches.registry": ("available_policies", "make_policy", "policy_from_state"),
    "repro.streaming.checkpoint": ("EngineCheckpoint",),
    "repro.streaming.engine": ("StreamEngine",),
    "repro.streaming.event": ("Event",),
    "repro.streaming.plan": ("ExecutionPlan",),
    "repro.streaming.query": ("Query",),
    "repro.streaming.sources": ("Chunk", "chunk_stream", "value_stream"),
    "repro.streaming.windows": ("CountWindow", "TimeWindow"),
})
__all__.append("__version__")
