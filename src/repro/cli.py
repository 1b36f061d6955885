"""Command-line interface to the platform.

Mirrors how the paper's users drive Turret: pick a system, describe nothing
but which node is compromised, and let the platform measure baselines,
replay attack scenarios, or search for new ones.

    python -m repro systems
    python -m repro schema pbft
    python -m repro baseline pbft --window 6
    python -m repro traffic pbft --window 4
    python -m repro attack pbft --type PrePrepare --action delay:1.0
    python -m repro attack pbft --type PrePrepare --action lie:big_reqs:min
    python -m repro search pbft --algorithm weighted --types PrePrepare,Status
    python -m repro search pbft --json report.json
    python -m repro hunt pbft --passes 3 --trace trace.json --telemetry
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.attacks.actions import (DelayAction, DivertAction, DropAction,
                                   DuplicateAction, LyingAction,
                                   MaliciousAction)
from repro.attacks.space import ActionSpaceConfig
from repro.attacks.strategies import LyingStrategy
from repro.common.errors import ConfigError, TurretError
from repro.controller.config import HuntConfig
from repro.controller.harness import AttackHarness
from repro.controller.monitor import AttackThreshold
from repro.controller.supervisor import FaultPlan
from repro.systems.registry import get_system, registry, system_names
from repro.telemetry.progress import ProgressLine
from repro.telemetry.tracer import Tracer

#: conventional exit status for SIGINT (128 + 2)
EXIT_INTERRUPTED = 130


def _fault_plan(args) -> Optional[FaultPlan]:
    if args.inject_faults is None:
        return None
    return FaultPlan.from_spec(args.inject_faults, seed=args.seed)


def _fault_schedule(args):
    """Load the environmental fault schedule named by --faults, if any."""
    path = getattr(args, "faults", None)
    if path is None:
        return None
    from repro.faults.schedule import FaultSchedule
    try:
        return FaultSchedule.from_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read fault schedule {path}: {exc}")
    except ValueError as exc:  # includes json.JSONDecodeError
        raise ConfigError(f"malformed fault schedule {path}: {exc}")


def _validate(args, factory, config, findings):
    """Run --validate N robustness scoring over a run's findings."""
    if args.validate <= 0 or not findings:
        return None
    from repro.faults.validation import validate_findings
    print(f"validating {len(findings)} findings under "
          f"{args.validate} perturbed environments...")
    return validate_findings(factory, findings, config,
                             environments=args.validate, seed=args.seed)


def _tracer(args) -> Optional[Tracer]:
    """One platform tracer for the command, on when any consumer wants it."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        # Fail before the run, not after: the trace is written at the end,
        # and a long hunt is too expensive to lose to a typoed path.
        try:
            with open(trace_path, "a"):
                pass
        except OSError as exc:
            raise TurretError(f"cannot write --trace file: {exc}") from exc
    if trace_path or getattr(args, "telemetry", False):
        return Tracer(enabled=True)
    return None


def _progress(args) -> ProgressLine:
    enabled = getattr(args, "progress", False) or sys.stderr.isatty()
    return ProgressLine(enabled=enabled)


def _emit_telemetry(args, tracer: Optional[Tracer],
                    telemetry, log_records) -> None:
    """Write the trace file / log JSONL / summary a run was asked for."""
    if getattr(args, "log_events", None) is not None and log_records:
        from repro.telemetry.export import log_jsonl_records, write_jsonl
        write_jsonl(sys.stdout,
                    log_jsonl_records(log_records, args.log_events))
        from repro.common.logging import count_dropped
        dropped = count_dropped(log_records)
        if dropped:
            print(f"warning: --log-events dropped {dropped} records",
                  file=sys.stderr)
    if getattr(args, "trace", None) and tracer is not None:
        from repro.telemetry.export import write_chrome_trace
        write_chrome_trace(args.trace, tracer)
        print(f"trace written to {args.trace} "
              f"(open with chrome://tracing or ui.perfetto.dev)")
    if getattr(args, "telemetry", False) and telemetry is not None:
        print(telemetry.describe())


def _write_worker_reports(args, breakdown, health) -> None:
    """Write the per-worker attribution and self-healing report JSON a
    parallel run was asked for."""
    import json as json_module
    for path, what, payload in (
            (getattr(args, "worker_ledger", None), "per-worker ledger",
             [w.to_dict() for w in breakdown or ()]),
            (getattr(args, "worker_health", None), "worker-health report",
             health.to_dict() if health is not None else None)):
        if path and payload:
            with open(path, "w") as fh:
                json_module.dump(payload, fh, indent=2)
            print(f"{what} written to {path}")


def _explain(args):
    """What the explanation flags ask of a run (``hunt()``'s ``explain``):
    a ``--forensics`` bundle needs each explanation's chronologies."""
    return ("traces" if getattr(args, "forensics", None)
            else getattr(args, "explain", False))


def _forensics_preflight(args) -> None:
    """Fail before the run, not after (the --trace contract): the bundle
    is written at the end, and a long hunt is too expensive to lose to a
    typoed --forensics path."""
    out_dir = getattr(args, "forensics", None)
    if not out_dir:
        return
    import os
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise TurretError(
            f"cannot write --forensics directory: {exc}") from exc


def _forensics(args, result) -> None:
    """Write the --forensics bundle of a run's (a SearchReport's or a
    HuntResult's) explanations."""
    out_dir = getattr(args, "forensics", None)
    if out_dir and result.explanations:
        from repro.forensics.report import write_forensics
        paths = write_forensics(out_dir, result.explanations)
        print(f"forensics written to {out_dir} ({len(paths)} files)")


def _health_policy(args):
    """Build the pool's :class:`HealthPolicy` from CLI flags.

    Worker flags on a serial run are configuration errors, not no-ops:
    silently ignoring ``--worker-timeout`` on ``--workers 1`` would hide a
    typo'd invocation from the operator who thought hangs were covered.
    """
    used = [flag for flag, value in (
        ("--worker-timeout", getattr(args, "worker_timeout", None)),
        ("--worker-retries", getattr(args, "worker_retries", None)),
        ("--worker-health", getattr(args, "worker_health", None)),
        ("--worker-ledger", getattr(args, "worker_ledger", None)),
    ) if value is not None]
    if getattr(args, "no_degrade", False):
        used.append("--no-degrade")
    if args.workers == 1:
        if used:
            raise ConfigError(
                f"{', '.join(used)} require{'s' if len(used) == 1 else ''} "
                f"--workers > 1 (a serial run has no worker pool)")
        return None
    from repro.parallel.health import HealthPolicy
    policy = HealthPolicy()
    if getattr(args, "worker_timeout", None) is not None:
        policy.task_timeout = args.worker_timeout
    if getattr(args, "worker_retries", None) is not None:
        policy.worker_retries = args.worker_retries
    if getattr(args, "no_degrade", False):
        policy.degrade = False
    return policy


def parse_action(spec: str) -> MaliciousAction:
    """Parse an action spec: drop[:p] | delay:s | dup:n | divert |
    lie:field:strategy[:operand]."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "drop":
            return DropAction(float(parts[1]) if len(parts) > 1 else 1.0)
        if kind == "delay":
            return DelayAction(float(parts[1]))
        if kind in ("dup", "duplicate"):
            return DuplicateAction(int(parts[1]))
        if kind == "divert":
            return DivertAction()
        if kind == "lie":
            field, strategy = parts[1], parts[2]
            operand = float(parts[3]) if len(parts) > 3 else 0.0
            return LyingAction(field, LyingStrategy(strategy, operand))
    except (IndexError, ValueError) as exc:
        raise SystemExit(f"bad action spec {spec!r}: {exc}")
    raise SystemExit(
        f"unknown action kind {kind!r} "
        "(expected drop/delay/dup/divert/lie)")


def _testbed(args, **settings):
    """The testbed factory and the :class:`HuntConfig` that the flags
    every command has, and ``settings``, spell."""
    entry = get_system(args.system)
    role = args.malicious or entry.default_role
    if role not in entry.roles:
        raise SystemExit(f"--malicious must be one of {entry.roles} "
                         f"for {entry.name}")
    return entry.build(role, args.warmup, args.window), HuntConfig(
        seed=args.seed, delta_snapshots=args.delta_snapshots,
        fault_schedule=_fault_schedule(args),
        threshold=AttackThreshold(delta=args.delta), **settings)


def _harness(args) -> AttackHarness:
    factory, config = _testbed(args)
    return config.harness(factory)


def cmd_systems(args) -> int:
    for name in system_names():
        entry = registry()[name]
        print(f"{name:<10} {entry.description}  "
              f"(malicious roles: {', '.join(entry.roles)})")
    return 0


def cmd_schema(args) -> int:
    print(get_system(args.system).schema_text.strip())
    return 0


def cmd_baseline(args) -> int:
    harness = _harness(args)
    harness.start_run(take_warm_snapshot=False)
    sample = harness.measure_window()
    print(f"{args.system} benign: {sample.describe()}")
    print(f"  latency min/avg/max: {sample.latency_min * 1000:.2f}/"
          f"{sample.latency_avg * 1000:.2f}/"
          f"{sample.latency_max * 1000:.2f} ms")
    print(f"  latency p50/p95/p99: {sample.latency_p50 * 1000:.2f}/"
          f"{sample.latency_p95 * 1000:.2f}/"
          f"{sample.latency_p99 * 1000:.2f} ms")
    return 0


def cmd_traffic(args) -> int:
    from repro.analysis.traffic import TrafficTap
    entry = get_system(args.system)
    harness = _harness(args)
    instance = harness.start_run(take_warm_snapshot=False)
    tap = TrafficTap(instance.world.emulator, instance.world.codec)
    harness.measure_window()
    print(tap.render())
    print(f"\nsearch candidates: {', '.join(tap.active_types())}")
    return 0


def cmd_attack(args) -> int:
    action = parse_action(args.action)
    harness = _harness(args)
    harness.start_run(take_warm_snapshot=False)
    baseline = harness.measure_window()

    attacked_harness = _harness(args)
    instance = attacked_harness.start_run(take_warm_snapshot=False)
    instance.proxy.set_policy(args.type, action)
    attacked = attacked_harness.measure_window()

    threshold = AttackThreshold(delta=args.delta)
    damage = threshold.damage(baseline, attacked)
    verdict = ("ATTACK" if threshold.is_attack(baseline, attacked)
               else "no attack")
    print(f"scenario: {action.describe()} {args.type} on {args.system} "
          f"(malicious {args.malicious or get_system(args.system).default_role})")
    print(f"  benign  : {baseline.describe()}")
    print(f"  attacked: {attacked.describe()}")
    print(f"  damage  : {damage:.0%} -> {verdict}")
    return 0


def _campaign(args, **settings):
    """What ``search`` and ``hunt`` run: :func:`_testbed` with the
    platform and action space their flags (and ``settings``) spell, and
    the message types (None: whatever a run exercises)."""
    space = ActionSpaceConfig(
        delays=(1.0,) if args.fast else (0.5, 1.0),
        drop_probabilities=(0.5, 1.0),
        duplicate_counts=(50,) if args.fast else (2, 50),
        include_divert=not args.fast,
        include_lying=not args.no_lying)
    types = ([t.strip() for t in args.types.split(",") if t.strip()]
             if args.types else get_system(args.system).active_types or None)
    return (*_testbed(
        args, max_wait=args.max_wait, shared_pages=not args.no_shared_pages,
        fault_plan=_fault_plan(args), watchdog_limit=args.watchdog,
        max_retries=args.max_retries, space_config=space, **settings), types)


def cmd_search(args) -> int:
    exclude = set()
    if args.exclude_from:
        from repro.analysis.reports import excluded_scenarios, load_report
        exclude = excluded_scenarios(load_report(args.exclude_from))
    factory, config, types = _campaign(args, algorithm=args.algorithm)
    tracer = _tracer(args)
    _forensics_preflight(args)
    progress = _progress(args)
    explain = _explain(args)

    from repro.parallel.executor import ScenarioExecutor
    with ScenarioExecutor(
            factory, config, workers=args.workers, tracer=tracer,
            log_events=args.log_events is not None,
            health=_health_policy(args), progress=progress) as executor:
        try:
            report = executor.run_pass(message_types=types, exclude=exclude)
            if explain and report.findings:
                report.explanations = executor.explain(
                    report.findings, traces=explain == "traces")
        except KeyboardInterrupt:
            # Whatever the walk had replayed or asked for so far is its
            # partial report (none yet if the pool was still prefetching).
            progress.done()
            report = executor.walk.report if executor.walk else None
            print("\ninterrupted — partial report:")
            if report is not None:
                print(report.describe())
            _emit_telemetry(args, tracer,
                            report.telemetry if report is not None else None,
                            executor.take_log_records())
            return EXIT_INTERRUPTED
    progress.done()
    report.validation = _validate(args, factory, config, report.findings)
    _forensics(args, report)
    print(report.describe())
    _emit_telemetry(args, tracer, report.telemetry,
                    executor.take_log_records())
    _write_worker_reports(args, executor.worker_breakdown(),
                          executor.worker_health())
    if args.json:
        from repro.analysis.reports import save_report
        save_report(report, args.json)
        print(f"\nreport written to {args.json}")
    if args.markdown:
        from repro.analysis.reports import render_markdown
        print("\n" + render_markdown(report))
    return 0 if report.findings or args.allow_empty else 1


def cmd_hunt(args) -> int:
    from repro.search.hunt import hunt
    factory, config, types = _campaign(args)
    tracer = _tracer(args)
    _forensics_preflight(args)
    progress = _progress(args)
    result = hunt(factory, config, message_types=types,
                  max_passes=args.passes,
                  injection_cache=args.injection_cache,
                  tracer=tracer, progress=progress,
                  log_events=args.log_events is not None,
                  workers=args.workers, health_policy=_health_policy(args),
                  explain=_explain(args), store_dir=args.store)
    progress.done()
    if not result.interrupted:
        result.validation = _validate(args, factory, config,
                                      result.findings)
    _forensics(args, result)
    print(result.describe())
    for finding in result.findings:
        print("  " + finding.describe())
    _emit_telemetry(args, tracer, result.telemetry, result.event_log)
    _write_worker_reports(args, result.worker_breakdown,
                          result.worker_health)
    if args.json:
        import json as json_module
        from repro.analysis.reports import hunt_result_to_dict
        with open(args.json, "w") as fh:
            json_module.dump(hunt_result_to_dict(result), fh, indent=2)
        print(f"\nresult written to {args.json}")
    if args.markdown:
        from repro.analysis.reports import render_hunt_markdown
        print("\n" + render_hunt_markdown(result))
    if result.interrupted:
        if args.store:
            print(f"run store is durable at {args.store}; "
                  f"resume with: repro hunt {args.system} "
                  f"--store {args.store}")
        return EXIT_INTERRUPTED
    return 0 if result.findings or args.allow_empty else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Turret reproduction: automated performance-attack "
                    "finding in distributed system implementations")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list bundled target systems")

    p = sub.add_parser("schema", help="print a system's wire-format DSL")
    p.add_argument("system", choices=system_names())

    def common(p, with_role=True):
        p.add_argument("system", choices=system_names())
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--warmup", type=float, default=3.0)
        p.add_argument("--window", type=float, default=6.0)
        p.add_argument("--delta", type=float, default=0.25,
                       help="damage fraction that counts as an attack")
        p.add_argument("--delta-snapshots", action="store_true",
                       help="use incremental snapshots at injection points")
        p.add_argument("--faults", default=None, metavar="FILE",
                       help="JSON FaultSchedule perturbing the emulated "
                            "environment (link loss/corruption/jitter, "
                            "flaps, partitions, node crash/restart/slow)")
        if with_role:
            p.add_argument("--malicious", default=None,
                           help="which role the proxy controls")

    p = sub.add_parser("baseline", help="measure benign performance")
    common(p)

    p = sub.add_parser("traffic", help="per-type traffic of a benign run")
    common(p)

    p = sub.add_parser("attack", help="replay one attack scenario")
    common(p)
    p.add_argument("--type", required=True, help="message type to act on")
    p.add_argument("--action", required=True,
                   help="drop[:p] | delay:s | dup:n | divert | "
                        "lie:field:strategy[:operand]")

    def supervision(p):
        p.add_argument("--no-shared-pages", action="store_true",
                       help="disable page-sharing-aware snapshots")
        p.add_argument("--watchdog", type=int, default=None, metavar="N",
                       help="cap events per run window; a tripped branch is "
                            "retried then quarantined instead of hanging")
        p.add_argument("--max-retries", type=nonnegative_int, default=2,
                       help="transient-fault retries before a scenario is "
                            "quarantined as inconclusive")
        p.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="deterministic platform fault plan, e.g. "
                            "'restore=0.1,save=0.05,boot=0.02,max=5' "
                            "(for exercising the supervision layer)")

    def positive_int(value):
        count = int(value)
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"must be a positive integer, got {value}")
        return count

    def nonnegative_int(value):
        count = int(value)
        if count < 0:
            raise argparse.ArgumentTypeError(
                f"must be a non-negative integer, got {value}")
        return count

    def positive_float(value):
        number = float(value)
        if number <= 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive number, got {value}")
        return number

    def parallel_options(p, with_cache=False):
        p.add_argument("--workers", type=positive_int, default=1,
                       metavar="N",
                       help="simulate the pass's steps ahead of it on N "
                            "persistent worker processes, each pulling the "
                            "next step when idle; output stays "
                            "byte-identical to a serial run")
        p.add_argument("--worker-ledger", default=None, metavar="FILE",
                       help="write per-worker time attribution as JSON "
                            "(requires --workers > 1)")
        p.add_argument("--worker-timeout", type=positive_float, default=None,
                       metavar="SECONDS",
                       help="wall-clock deadline per step (one type's "
                            "injection seek, one cluster's walk, one "
                            "scenario); a worker that blows it is killed "
                            "and its step requeued (requires --workers > 1; "
                            "default: no deadline)")
        p.add_argument("--worker-retries", type=nonnegative_int,
                       default=None, metavar="N",
                       help="respawns allowed per worker before it is "
                            "retired and the others pull its steps (requires "
                            "--workers > 1; default 2)")
        p.add_argument("--no-degrade", action="store_true",
                       help="abort the run instead of falling back to "
                            "in-process execution when every worker is "
                            "gone (requires --workers > 1)")
        p.add_argument("--worker-health", default=None, metavar="FILE",
                       help="write the self-healing report (crashes, "
                            "restarts, requeued steps, quarantines) as "
                            "JSON (requires --workers > 1)")
        if with_cache:
            p.add_argument("--injection-cache", action="store_true",
                           help="charge pass 2+ as a platform that kept its "
                                "warm testbed and injection-point snapshots "
                                "would: no boot, warmup, or injection seek")

    def forensics_options(p):
        p.add_argument("--explain", action="store_true",
                       help="re-execute each finding's benign and attacked "
                            "branches from the same snapshot and print a "
                            "causal explanation (first divergent message, "
                            "suppressed phases, perf delta)")
        p.add_argument("--forensics", default=None, metavar="DIR",
                       help="write the full forensic bundle to DIR "
                            "(explanations.json, markdown narratives, and "
                            "a Chrome causal trace per finding; implies "
                            "--explain)")

    def telemetry_options(p):
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace-event JSON of the run "
                            "(open with chrome://tracing)")
        p.add_argument("--telemetry", action="store_true",
                       help="collect and print a telemetry summary "
                            "(span totals, counters, histogram percentiles)")
        p.add_argument("--log-events", nargs="?", const="*", default=None,
                       metavar="FILTER",
                       help="stream the experiment EventLog as JSONL to "
                            "stdout; FILTER is a comma list of component or "
                            "component:event selectors (default: all)")
        p.add_argument("--progress", action="store_true",
                       help="force the live stderr status line on "
                            "(auto-enabled when stderr is a terminal)")

    def campaign(p, with_cache=False):
        """The flags ``search`` and ``hunt`` share: the testbed, the
        platform, the walk, the engine and the output."""
        common(p)
        supervision(p)
        telemetry_options(p)
        forensics_options(p)
        parallel_options(p, with_cache)
        p.add_argument("--types", default=None,
                       help="comma-separated message types (default: the "
                            "types a benign run exercises)")
        p.add_argument("--max-wait", type=float, default=15.0,
                       help="seconds to wait for an injection point per "
                            "type")
        p.add_argument("--fast", action="store_true",
                       help="trim the action space for a quick pass")
        p.add_argument("--no-lying", action="store_true",
                       help="delivery actions only")
        p.add_argument("--json", default=None,
                       help="write the result as JSON")
        p.add_argument("--markdown", action="store_true",
                       help="also print a markdown report")
        p.add_argument("--allow-empty", action="store_true",
                       help="exit 0 even when nothing was found")
        p.add_argument("--validate", type=nonnegative_int, default=0,
                       metavar="N",
                       help="re-measure each finding under N seeded "
                            "perturbed environments and report a "
                            "robustness score")

    p = sub.add_parser("search", help="run an attack-finding algorithm")
    campaign(p)
    p.add_argument("--algorithm", choices=("weighted", "greedy", "brute"),
                   default="weighted")
    p.add_argument("--exclude-from", default=None,
                   help="JSON report whose findings to exclude (hunt passes)")

    p = sub.add_parser("hunt", help="repeat weighted-greedy passes until "
                                    "no new attacks are found")
    campaign(p, with_cache=True)
    p.add_argument("--passes", type=positive_int, default=5)
    p.add_argument("--store", default=None, metavar="DIR",
                   help="durable run store: journal every completed probe "
                        "(CRC32 + fsync) and checkpoint every pass to DIR — "
                        "the same engine, plus the appends; re-running with "
                        "the same DIR resumes a killed hunt mid-pass with a "
                        "byte-identical result (a DIR written under other "
                        "testbed or platform settings is refused)")
    return parser


COMMANDS = {
    "systems": cmd_systems,
    "schema": cmd_schema,
    "baseline": cmd_baseline,
    "traffic": cmd_traffic,
    "attack": cmd_attack,
    "search": cmd_search,
    "hunt": cmd_hunt,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except TurretError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
