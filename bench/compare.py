"""A/B comparison of benchmark result files from a parent and a change.

    python3 bench/compare.py --parent P.json [P2.json ...] --change C.json [...]

The inputs are files written by ``bench/run.py --out``, from runs of the
parent commit and of the change made alternately (parent, change,
parent, ...) with identical settings.  The i-th run of a workload in the
parent files is paired with the i-th run of that workload in the change
files.  For every workload and metric, one row reports each side's
median and quartiles, the change's median as a ratio of the parent's
(with the parent median as its base), the pair wins, and a verdict
following the rules the benchmark is judged by:

- ``improved``: the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile distance;
- ``unresolved``: the run-to-run spread (interquartile distance over the
  median, the larger of the two sides) exceeds the metric's bound, unless
  every change run reads better than every parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound (a share of the parent's median);
- ``unchanged``: otherwise.

Metrics without a bound (the per-layer ones) get ``improved`` or ``-``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    sys.path[0] = ROOT  # run as a script: import bench.* from the checkout root

from bench.run import BENCHMARK, catalog, load_benchmark  # noqa: E402
from bench.stats import quartiles  # noqa: E402

#: Share of pairs the change must win to count as improved.
WIN_SHARE = 0.9


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def compare_metric(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Dict[str, object]:
    """Medians, quartiles, ratio, pair wins and the verdict for one metric."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    change_wins = sum(1 for p, c in pairs if _better(c, p, better))
    parent_wins = sum(1 for p, c in pairs if _better(p, c, better))
    gap = cm - pm
    improved = (
        change_wins >= WIN_SHARE * len(pairs)
        and abs(gap) > (p3 - p1)
        and _better(cm, pm, better)
    )
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(_better(c, p, better) for c in change for p in parent)
    worse_share = (-gap if better == "higher" else gap) / abs(pm) if pm else 0.0
    if improved:
        verdict = "improved"
    elif bound is None:
        verdict = "-"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_share > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "ratio": cm / pm if pm else float("nan"),
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "pairs": len(pairs),
        "spread": spread,
        "verdict": verdict,
    }


def load_runs(paths: Sequence[str]) -> Dict[str, List[Dict[str, float]]]:
    """Workload -> metric dicts of its runs, in file and run order."""
    runs: Dict[str, List[Dict[str, float]]] = defaultdict(list)
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for record in json.load(handle):
                runs[record["workload"]].append(record["metrics"])
    return runs


def compare(parent_paths, change_paths, benchmark: str) -> List[Dict[str, object]]:
    parent, change = load_runs(parent_paths), load_runs(change_paths)
    entries = catalog(load_benchmark(benchmark))
    rows = []
    for workload in sorted(set(parent) & set(change)):
        n = min(len(parent[workload]), len(change[workload]))
        names = set(parent[workload][0]) & set(change[workload][0])
        for name in (m for m in parent[workload][0] if m in names and m in entries):
            entry = entries[name]
            row = compare_metric(
                [run[name] for run in parent[workload][:n]],
                [run[name] for run in change[workload][:n]],
                entry["better"],
                entry.get("bound"),
            )
            row.update(workload=workload, metric=name, unit=entry["unit"])
            rows.append(row)
    return rows


def render(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<20} {'metric':<40} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'change/parent (base: parent median)':<46} "
        f"{'wins c:p':<9} verdict"
    ]
    for row in rows:
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        parent = f"{pm:.4g} [{p1:.4g}, {p3:.4g}]"
        change = f"{cm:.4g} [{c1:.4g}, {c3:.4g}]"
        ratio = f"{row['ratio']:.3f} (base {pm:.4g} {row['unit']})"
        wins = f"{row['change_wins']}:{row['parent_wins']}"
        lines.append(
            f"{row['workload']:<20} {row['metric']:<40} {parent:<34} {change:<34} "
            f"{ratio:<46} {wins:<9} {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    parser.add_argument("--benchmark", default=BENCHMARK,
                        help="the bounds file (default: BENCHMARK.json at the checkout root)")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change, args.benchmark)
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
