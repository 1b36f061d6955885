"""Shared reporting for the reproduction benchmarks.

Every benchmark prints a paper-vs-measured table and appends it to
``benchmarks/results.txt`` so a full ``pytest benchmarks/ --benchmark-only``
run leaves a reviewable artifact regardless of output capturing.
"""

from __future__ import annotations

import os
from typing import Sequence

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
              else len(h) for i, h in enumerate(headers)]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def report(title: str, headers: Sequence[str],
           rows: Sequence[Sequence[object]]) -> str:
    text = format_table(title, headers, rows)
    print("\n" + text)
    with open(RESULTS_PATH, "a") as fh:
        fh.write(text + "\n\n")
    return text


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations; repeating them only
    multiplies wall-clock for identical results.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
