"""Host-time benchmark of the Turret platform.

Two ways in, one measurement underneath:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` makes one
  run of one workload and prints, as its last line, one JSON object
  ``{correct, attempted, failed, metrics}`` — the end-to-end metrics of
  ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
  (``--trace 1``).
* ``run.py [--workload NAME] [--seed N] [--runs K] [--traced] [--smoke]``
  runs the matrix, prints every metric by name with unit, sample count and
  bound, and writes a results file ``compare.py`` can read.

Each run starts the workload in a fresh interpreter (``child.py``) with
``PYTHONHASHSEED=0``, so ``setup_s`` is the cold cost a user pays, and
checks the workload's virtual-time outputs against ``expected.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_ROOT = os.path.join(HERE, ".work")

#: the oracle is pinned for this seed; any other seed gets only the
#: self-consistency checks
DEFAULT_SEED = 1
#: repetitions per workload the oracle pins
PINNED_REPS = 3
#: cold set-ups per run (their median is ``setup_s``)
SETUPS = 3
CHILD_TIMEOUT_S = 170

#: end-to-end metrics that exist on one kind of workload only, so they
#: cannot be in BENCHMARK.json (whose end-to-end metrics must exist, and be
#: non-zero, on every workload); the matrix reports and compares them
NATIVE = {
    "scenarios_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
    "events_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
    "snapshot_save_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "snapshot_restore_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
}
#: per-layer metrics that are counts of deterministic work: two runs of
#: one commit must agree exactly
EXACT_LAYERS = (
    "sim.events_executed", "wire.calls", "netem.packets",
    "systems.messages_handled", "controller.saves", "controller.restores",
    "attacks.intercepts", "search.scenarios_evaluated", "search.findings",
    "search.platform_time_s", "parallel.respawns", "store.journal_records",
    "store.journal_bytes")


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------------ child process

def _child(workload: str, seed: int, seconds: float, trace: int, sizes: str,
           workdir: str, extra: List[str]) -> dict:
    """Run ``child.py`` once and return the object it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--sizes", sizes, "--workdir", workdir,
               "--t0", repr(time.perf_counter())] + extra
    # its own process group, so a hung run's forked workers die with it
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, __ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    if process.returncode != 0:
        raise SystemExit(f"{workload}: child exited {process.returncode}")
    return json.loads(stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            sizes: str, reps: int = 0) -> dict:
    """One run: the measured child plus the extra cold set-ups."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        run = _child(workload, seed, seconds, trace, sizes, workdir,
                     ["--reps", str(reps)])
        setups = [run["setup_s"]]
        # only a full-size untraced run reports setup_s
        for __ in range(SETUPS - 1 if sizes == "full" and not trace else 0):
            setups.append(_child(workload, seed, seconds, trace, sizes,
                                 workdir, ["--setup-only"])["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run["setup_samples"] = setups
    return run


# ------------------------------------------------------------------ metrics

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(run: dict) -> Dict[str, float]:
    plain = [r for r in run["reps"] if r["kind"] == "plain"]
    return {
        "setup_s": _median(run["setup_samples"]),
        "wall_s": _median(r["wall_s"] for r in plain),
        "work_per_s": _median(r["work"] / r["wall_s"] for r in plain),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def native(run: dict) -> Dict[str, float]:
    """The workload's own end-to-end numbers, under the issue's names."""
    attempted, failed = outcome(run, [])
    out = {"failed_share": failed / attempted}
    sources = dict(end_to_end(run), **{
        name: _median(samples) for name, samples in run["direct"].items()})
    for name, source in run["aliases"].items():
        out[name] = sources[source]
    return out


def per_layer(run: dict, names: List[str]) -> Dict[str, float]:
    """Every per-layer metric; 0 where the layer did no work."""
    values = {name: _median(samples)
              for name, samples in run["direct"].items()}
    values.update(run.get("layers", {}))
    return {name: values.get(name, 0) for name in names}


def outcome(run: dict, mismatches: List[str]):
    attempted = sum(r["attempted"] for r in run["reps"])
    failed = sum(r["failed"] for r in run["reps"]) + len(mismatches)
    return max(1, attempted), failed


# ------------------------------------------------------------------- oracle

def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(run: dict, expected: dict) -> List[str]:
    """Mismatches between a run's exact outputs and what they must be."""
    problems = []
    # a repetition with repro's own Tracer on reports telemetry too, so
    # its bytes are not comparable
    reps = [r for r in run["reps"] if r["kind"] != "tracer"]
    if run["reps_identical"]:
        # every engine, every repetition: one report
        for i, rep in enumerate(reps):
            if rep["exact"] != reps[0]["exact"]:
                problems.append(f"repetition {i} ({rep['kind']}) differs "
                                f"from repetition 0")
    if run["seed"] != DEFAULT_SEED:
        return problems
    pinned = expected.get(run["sizes"], {}).get(run["workload"])
    if pinned is None:
        return problems + ["no pinned oracle for this workload and size"]
    for i, (rep, want) in enumerate(zip(reps, pinned)):
        # through JSON, as the pinned side went: tuples become lists
        got = json.loads(json.dumps(rep["exact"]))
        if got != want:
            problems.append(f"repetition {i} ({rep['kind']}) does not "
                            f"match expected.json")
    return problems


def update_expected(workloads: List[str], sizes: str) -> None:
    expected = load_expected() if os.path.exists(EXPECTED_PATH) else {}
    for workload in workloads:
        run = measure(workload, DEFAULT_SEED, 0, 0, sizes, reps=PINNED_REPS)
        problems = check(run, {sizes: {workload: []}})
        if problems:
            raise SystemExit(f"{workload}: {problems}")
        expected.setdefault(sizes, {})[workload] = [
            r["exact"] for r in run["reps"]]
        print(f"pinned {workload} ({sizes}, {PINNED_REPS} repetitions)")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------- one run

def driver_run(args, spec: dict) -> int:
    run = measure(args.workload, args.seed, args.seconds, args.trace,
                  args.sizes)
    problems = check(run, load_expected())
    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    attempted, failed = outcome(run, problems)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(run, list(units))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(run)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 1 if problems else 0


# ------------------------------------------------------------------ matrix

def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def matrix(args, spec: dict) -> int:
    import workloads as definitions

    sizes, names = args.sizes, args.names
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bounds.update(NATIVE)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = load_expected()
    results = {
        "provenance": {
            "commit": _git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed, "sizes": sizes,
            "sizes_detail": definitions.SIZES[sizes],
            "run_seconds": args.seconds, "runs": args.runs,
            "statistic": "each run value is the median over that run's "
                         "repetitions (setup_s: over its cold set-ups); "
                         "the reported value is the median over runs",
        },
        "workloads": {},
    }
    failures = 0
    for name in names:
        # a smoke run is one traced run: its first repetition is untraced
        # and gives the end-to-end numbers, which is enough to see names
        plan = [1] if args.smoke else [0] * args.runs + [1] * args.traced
        seconds = 0 if args.smoke else args.seconds
        runs = [measure(name, args.seed, seconds, trace, sizes)
                for trace in plan]
        untraced = [r for r, t in zip(runs, plan) if not t] or runs
        entry = {"metrics": {}, "layers": {}, "problems": []}
        for run in runs:
            entry["problems"] += check(run, expected)
        per_run = [dict(end_to_end(r), **native(r)) for r in untraced]
        for metric in per_run[0]:
            meta = bounds[metric]
            values = [r[metric] for r in per_run]
            entry["metrics"][metric] = {
                "unit": meta["unit"], "better": meta["better"],
                "bound": meta["bound"], "values": values,
                "median": _median(values), "n": len(values)}
        entry["raw_repetitions"] = [
            [{k: r[k] for k in ("kind", "wall_s", "work")}
             for r in run["reps"]] for run in runs]
        entry["setup_samples"] = [r["setup_samples"] for r in runs]
        entry["exact"] = runs[0]["reps"][0]["exact"]
        traced = [r for r, t in zip(runs, plan) if t]
        if traced:
            for metric, value in per_layer(traced[0],
                                           list(layer_units)).items():
                entry["layers"][metric] = {
                    "unit": layer_units[metric], "value": value,
                    "exact": metric in EXACT_LAYERS
                    or metric.startswith("vm.stored_bytes.")}
            entry["layer_self_s"] = traced[0]["layer_self_s"]
            entry["traced_wall_s"] = traced[0]["traced_wall_s"]
        results["workloads"][name] = entry
        failures += len(entry["problems"])
        if entry["metrics"]["failed_share"]["median"]:
            failures += 1
        _print_workload(name, entry)
    hashes = {entry["exact"]["report_sha256"]
              for entry in results["workloads"].values()
              if "report_sha256" in entry["exact"]}
    if len(hashes) > 1:
        failures += 1
        print("the two hunts' reports differ:", sorted(hashes))
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(f"\nresults written to {args.out}")
    return 1 if failures else 0


def _print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}")
    for metric, m in entry["metrics"].items():
        print(f"  {metric:<34} {m['median']:>16.4f} {m['unit']:<6} "
              f"n={m['n']} bound={m['bound']:.0%}")
    idle = []
    for metric, m in entry["layers"].items():
        if not m["value"]:
            idle.append(metric)
            continue
        print(f"  {metric:<34} {m['value']:>16.4f} {m['unit']:<6} "
              f"n=1{' exact' if m['exact'] else ''}")
    if idle:
        print("  0 on this workload (the layer did no work): "
              + " ".join(idle))
    if "layer_self_s" in entry:
        total = sum(entry["layer_self_s"].values())
        shares = ", ".join(f"{layer} {seconds:.2f}" for layer, seconds
                           in sorted(entry["layer_self_s"].items()))
        print(f"  self time by layer (s): {shares}; sum {total:.2f} of "
              f"traced wall {entry['traced_wall_s']:.2f}")
    for problem in entry["problems"]:
        print(f"  ORACLE MISMATCH: {problem}")


# --------------------------------------------------------------------- main

def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run, result as one JSON line: 0 prints "
                             "the end-to-end metrics, 1 the per-layer ones")
    parser.add_argument("--runs", type=int, default=5,
                        help="matrix: untraced runs per workload")
    parser.add_argument("--traced", action="store_true",
                        help="matrix: add one traced run per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one traced run per workload")
    parser.add_argument("--out",
                        default=os.path.join(HERE, "results.json"))
    parser.add_argument("--update-expected", action="store_true",
                        help="re-pin expected.json; only in a change that "
                             "edits the benchmark itself")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: there is no src/repro to measure", file=sys.stderr)
        return 2
    # the build step: children must not pay for byte-compilation
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=2)
    compileall.compile_dir(HERE, quiet=2)

    args.sizes = "smoke" if args.smoke else "full"
    args.names = ([args.workload] if args.workload
                  else [w["name"] for w in spec["workloads"]])
    if args.update_expected:
        update_expected(args.names, args.sizes)
        return 0
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_run(args, spec)
    return matrix(args, spec)


if __name__ == "__main__":
    sys.exit(main())
