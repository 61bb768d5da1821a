"""Ordered and bounded data structures used by QLOVE and the baselines.

The paper's Level-1 state is a red-black tree keyed by element value with a
frequency attribute per node (Section 3.1).  This subpackage provides:

- :class:`~repro.datastructures.rbtree.RedBlackTree` — a from-scratch
  Guibas–Sedgewick red-black tree augmented with subtree frequency sums so
  order statistics are O(log n).
- :class:`~repro.datastructures.frequency_map.TreeFrequencyMap` and
  :class:`~repro.datastructures.frequency_map.DictFrequencyMap` — the two
  interchangeable ``{value, count}`` summary backends.
- :class:`~repro.datastructures.topk.TopKKeeper` — bounded keeper of the k
  largest values, used by few-k merging (Section 4).
- :mod:`~repro.datastructures.sampling` — interval sampling on ranked values,
  the sample-k primitive.
- :class:`~repro.datastructures.reservoir.ReservoirSampler` — uniform
  reservoir sampling, used by the Random baseline.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.datastructures.frequency_map": (
        "DictFrequencyMap",
        "FrequencyMap",
        "TreeFrequencyMap",
        "frequency_map_from_state",
        "make_frequency_map",
    ),
    "repro.datastructures.rbtree": ("RedBlackTree",),
    "repro.datastructures.reservoir": ("ReservoirSampler",),
    "repro.datastructures.sampling": ("interval_sample", "sample_ranks"),
    "repro.datastructures.topk": ("TopKKeeper",),
})
