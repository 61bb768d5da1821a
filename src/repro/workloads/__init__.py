"""Workload generators: the datasets of the paper's evaluation (Section 5).

The two proprietary datasets are replaced by synthetic generators
calibrated to every statistic the paper publishes about them (see
DESIGN.md §3 for the substitution argument):

- :func:`~repro.workloads.netmon.generate_netmon` — datacenter RTTs:
  lognormal body (median ~798 us, >90% below ~1,247 us) with a Pareto tail
  reaching ~74,265 us, values in integer microseconds (high redundancy).
- :func:`~repro.workloads.search.generate_search` — ISN response times
  with the 200 ms SLA truncation that concentrates density in the tail.

Fully synthetic datasets follow the paper's specifications directly:

- :mod:`~repro.workloads.synthetic` — Normal(1e6, 5e4), Uniform(90, 110)
  and the Pareto dataset (Q0.5 = 20, Q0.999 = 10,000).
- :mod:`~repro.workloads.ar1` — AR(1) streams with configurable psi.
- :mod:`~repro.workloads.bursts` — burst injection and the E1–E4 tail
  placement patterns of Figure 3.
- :mod:`~repro.workloads.precision` — low-precision derivation (Section
  5.4 data-redundancy study).
- :mod:`~repro.workloads.datacenter` — a Pingmesh-like probe simulator
  emitting timestamped events with sources and error codes.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.ar1": ("generate_ar1",),
    "repro.workloads.bursts": ("BurstPattern", "inject_bursts", "pattern_window"),
    "repro.workloads.datacenter": ("Datacenter", "DatacenterConfig", "Incident"),
    "repro.workloads.netmon": ("generate_netmon",),
    "repro.workloads.precision": ("reduce_precision",),
    "repro.workloads.registry": (
        "available_datasets",
        "get_dataset",
        "stream_dataset",
        "stream_dataset_sharded",
    ),
    "repro.workloads.search": ("generate_search",),
    "repro.workloads.synthetic": ("generate_normal", "generate_pareto", "generate_uniform"),
})
