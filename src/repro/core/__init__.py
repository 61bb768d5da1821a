"""QLOVE — approximate Quantiles with LOw Value Error (the paper's core).

The two-level hierarchical design of Section 3:

- **Level 1** (:mod:`~repro.core.summary`) runs a tumbling window per
  period, keeping in-flight data as a compressed frequency distribution
  (optionally quantized to three significant digits,
  :mod:`~repro.core.compression`) and sealing it into a tiny summary: the
  exact sub-window quantiles plus the few-k tail values.
- **Level 2** (:mod:`~repro.core.level2`) slides over summaries only,
  averaging each quantile across live sub-windows (CLT-guided).
- **Few-k merging** (:mod:`~repro.core.fewk`) repairs high quantiles under
  statistical inefficiency (top-k) and bursty traffic (sample-k with
  Mann–Whitney burst detection, :mod:`~repro.core.burst`).
- :mod:`~repro.core.error_bound` implements Theorem 1's probabilistic
  error bound.

:class:`~repro.core.qlove.QLOVEPolicy` assembles all of it behind the
shared :class:`~repro.sketches.base.QuantilePolicy` interface.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.burst": ("BurstDetector",),
    "repro.core.compression": ("Quantizer", "quantize_array", "quantize_significant"),
    "repro.core.config": ("FewKConfig", "QLOVEConfig"),
    "repro.core.distributed": (
        "FleetCoordinator",
        "fleet_space_variables",
        "merge_level2",
        "merge_node_estimates",
    ),
    "repro.core.error_bound": ("clt_error_bound", "density_at_quantile", "error_bound_from_data"),
    "repro.core.fewk": ("FewKMerger",),
    "repro.core.level2": ("Level2Aggregator",),
    "repro.core.qlove": ("QLOVEPolicy",),
    "repro.core.summary": ("SubWindowBuilder", "SubWindowSummary"),
})
