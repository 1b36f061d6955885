"""Compare two results files written by ``run.py``: ``compare.py A.json B.json``.

One row per workload and end-to-end metric, with both medians and
quartiles, the ratio B/A (base: A), the metric's bound and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, on either side) is wider than the bound, so the runs cannot say,
  unless every run of B reads better than every run of A.

Exact outputs and exact per-layer counts must be equal.  Exits non-zero
unless every row is ``ok`` and every exact value equal.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Tuple


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values: List[float]) -> float:
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if not med_a:
        # failed_share: a ratio that must stay at zero, compared absolutely
        return "ok" if med_b <= med_a else "regressed"
    worse = sign * (med_b - med_a) / med_a
    spread = max(relative_spread(a), relative_spread(b))
    all_better = (max(b) < min(a) if better == "lower"
                  else min(b) > max(a))
    if spread > bound and not all_better:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def compare(a: dict, b: dict) -> int:
    bad = 0
    print(f"A: {a['provenance']['commit']}  B: {b['provenance']['commit']}"
          f"  (ratios are B/A, base A)")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"\n== {name}")
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"].get(metric)
            if mb is None:
                continue
            outcome = verdict(ma["values"], mb["values"], ma["better"],
                              ma["bound"])
            bad += outcome != "ok"
            (a1, a3), (b1, b3) = (quartiles(ma["values"]),
                                  quartiles(mb["values"]))
            ratio = (f"{mb['median'] / ma['median']:6.3f}" if ma["median"]
                     else "   n/a")
            print(f"  {metric:<20} A {ma['median']:>12.4f} "
                  f"[{a1:.4f}..{a3:.4f}] n={ma['n']}  "
                  f"B {mb['median']:>12.4f} [{b1:.4f}..{b3:.4f}] "
                  f"n={mb['n']}  {ma['unit']:<5} B/A {ratio}  "
                  f"bound {ma['bound']:.0%}  {outcome}")
        if wa["exact"] != wb["exact"]:
            bad += 1
            print("  exact outputs DIFFER")
        for metric, la in wa["layers"].items():
            lb = wb["layers"].get(metric)
            if lb is None or not la["exact"]:
                continue
            if la["value"] != lb["value"]:
                bad += 1
                print(f"  {metric}: exact count DIFFERS "
                      f"(A {la['value']}, B {lb['value']})")
    print("\nall ok" if not bad else f"\n{bad} not ok")
    return 1 if bad else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(sys.argv[1]) as fa, open(sys.argv[2]) as fb:
        return compare(json.load(fa), json.load(fb))


if __name__ == "__main__":
    sys.exit(main())
