"""Sliding-window quantile policies: Exact and the four baselines.

Every algorithm compared in Section 5 implements the same
:class:`~repro.sketches.base.QuantilePolicy` lifecycle, driven by the
streaming engine at sub-window granularity:

- :class:`~repro.sketches.exact.ExactPolicy` — exact quantiles via a
  frequency map with per-element deaccumulation (the paper's "Exact").
- :class:`~repro.sketches.cmqs.CMQSPolicy` — Lin et al. 2004, a GK summary
  per sub-window, combined at query time ("CMQS").
- :class:`~repro.sketches.am.AMPolicy` — Arasu & Manku 2004, dyadic blocks
  of GK summaries ("AM").
- :class:`~repro.sketches.random_sketch.RandomPolicy` — sampling-based
  sketch in the spirit of Luo et al. 2016 (KLL-style compactors,
  "Random").
- :class:`~repro.sketches.moments.MomentPolicy` — mergeable moment-based
  sketch ("Moment").

QLOVE itself lives in :mod:`repro.core` and registers into the same
factory, so experiments can instantiate any policy by name via
:func:`make_policy`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sketches.am": ("AMPolicy",),
    "repro.sketches.base": ("PolicyOperator", "QuantilePolicy"),
    "repro.sketches.cmqs": ("CMQSPolicy",),
    "repro.sketches.exact": ("ExactPolicy",),
    "repro.sketches.gk": ("GKSummary",),
    "repro.sketches.kll": ("KLLSketch",),
    "repro.sketches.moments": ("MomentPolicy", "MomentSolver"),
    "repro.sketches.random_sketch": ("RandomPolicy",),
    "repro.sketches.registry": (
        "available_policies",
        "get_policy_factory",
        "make_policy",
        "policy_from_state",
        "register_policy",
    ),
})
