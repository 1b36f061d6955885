"""One workload in one fresh interpreter (started by ``run.py``).

Sets the workload up, repeats its fixed-size body until ``--seconds`` have
been measured, and prints one JSON object: every repetition's raw wall
time, work count and exact outputs, the directly timed per-layer samples,
and — on a traced run — the shim-derived per-layer numbers.  ``run.py``
turns that into named metrics and checks it against the oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

def _rate(rep: dict) -> float:
    return rep["work"] / rep["wall_s"]


def _overhead_pct(plain: list, other: dict) -> float:
    """How much slower ``other`` did a unit of work than the plain
    repetitions' median (work differs slightly between repetitions on the
    already-running worlds, so rates are compared, not wall times)."""
    return 100.0 * (statistics.median(map(_rate, plain)) / _rate(other) - 1)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--sizes", choices=sorted(workloads.SIZES),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="the parent's perf_counter() just before it "
                             "started this interpreter")
    parser.add_argument("--reps", type=int, default=0,
                        help="run exactly this many plain repetitions")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.sizes, args.workdir)
    workload.setup()
    out = {"workload": args.workload, "seed": args.seed,
           "sizes": args.sizes, "aliases": workload.aliases,
           "reps_identical": workload.reps_identical,
           "setup_s": time.perf_counter() - args.t0}
    if args.setup_only:
        print(json.dumps(out))
        return

    reps = []
    stack = None
    kinds = list(workload.traced_kinds) if args.trace else []
    began = time.perf_counter()
    while True:
        kind = kinds.pop(0) if reps and kinds else "plain"
        direct = workload.direct
        if kind == "shimmed":
            stack = spans.SpanStack()
            workload.install(stack)
            body = lambda: stack.span(workload.root_span, workload.rep)
        elif kind == "plain":
            body = workload.rep
        else:
            body = workload.variant(kind)
        if kind != "plain":
            # directly timed samples count only when nothing else is
            # being recorded
            workload.direct = {}
        # every repetition starts from a collected heap, outside the timing
        gc.collect()
        if workload.pause_gc:
            gc.disable()
        start = time.perf_counter()
        try:
            rep = body()
        finally:
            if stack is not None:
                stack.remove()
            workload.direct = direct
        rep["wall_s"] = time.perf_counter() - start
        gc.enable()
        rep["kind"] = kind
        reps.append(rep)
        if kinds:
            continue
        walls = [r["wall_s"] for r in reps if r["kind"] == "plain"]
        if args.reps:
            if len(walls) >= args.reps:
                break
        elif (len(walls) >= workload.max_reps
              or time.perf_counter() - began + statistics.median(walls)
              > args.seconds):
            break

    out["reps"] = reps
    out["direct"] = workload.direct
    if args.trace:
        plain = [r for r in reps if r["kind"] == "plain"]
        by_kind = {r["kind"]: r for r in reps}
        layers = workload.layers(stack, reps)
        layers.update(workloads.micro(args.seed,
                                      workload.sizes["micro_events"]))
        layers["telemetry.shim_overhead_pct"] = _overhead_pct(
            plain, by_kind["shimmed"])
        if "tracer" in by_kind:
            layers["telemetry.tracer_overhead_pct"] = _overhead_pct(
                plain, by_kind["tracer"])
        out["layers"] = layers
        out["layer_self_s"] = stack.layer_self_times()
        out["traced_wall_s"] = by_kind["shimmed"]["wall_s"]
    # the largest forked worker counts too: it is memory the hunt needs
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
