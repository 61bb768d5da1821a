"""Statistical utilities implemented from scratch.

- :mod:`~repro.stats.normal` — standard-normal CDF/PPF used by the CLT
  error bound (Theorem 1).
- :mod:`~repro.stats.mannwhitney` — the Mann–Whitney U test [22] used by
  QLOVE's burst detector (Section 4.3).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stats.mannwhitney": ("MannWhitneyResult", "mann_whitney_u"),
    "repro.stats.normal": ("normal_cdf", "normal_pdf", "normal_ppf"),
})
