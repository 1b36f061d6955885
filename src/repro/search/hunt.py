"""The full hunt: repeat weighted-greedy passes until no attacks remain.

Section III-B: "the user will repeat the attack finding process again after
finding the strongest attack — until the method does not find any more
attacks."  :func:`hunt` automates that loop: each pass excludes every
scenario already found, and the hunt stops when a pass finds nothing new
(or the pass budget runs out).  Every pass runs supervised
(:mod:`repro.controller.supervisor`) on the one engine,
:class:`~repro.parallel.executor.ScenarioExecutor`; a run store
(:mod:`repro.store.runstore`) makes the campaign durable, and a
``KeyboardInterrupt`` mid-pass returns the partial result
(``interrupted=True``) after a final checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Set,
                    Union)

from repro.common.errors import ConfigError
from repro.common.logging import LogRecord
from repro.controller.config import HuntConfig, refuse_another
from repro.controller.costs import CostLedger
from repro.controller.harness import TestbedFactory
from repro.controller.supervisor import QuarantinedScenario, SupervisorStats
from repro.faults.validation import ValidationReport
from repro.search.results import AttackFinding, SearchReport
from repro.search.weighted import ClusterWeights
from repro.telemetry.progress import ProgressLine
from repro.telemetry.summary import TelemetrySummary, summarize
from repro.telemetry.tracer import Tracer, maybe_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.health import HealthPolicy, WorkerHealthReport
    from repro.store.runstore import StoreReport

#: schema of the pass-boundary state the run store checkpoints; a store
#: holding any other version is refused (``RunStore.resume_checkpoint``)
CHECKPOINT_VERSION = 3


@dataclass
class HuntResult:
    """Everything a multi-pass hunt produced."""

    passes: List[SearchReport] = field(default_factory=list)
    findings: List[AttackFinding] = field(default_factory=list)
    total_ledger: CostLedger = field(default_factory=CostLedger)
    #: scenarios set aside as inconclusive across all passes
    quarantined: List[QuarantinedScenario] = field(default_factory=list)
    #: aggregated supervision counters across all passes
    supervisor: SupervisorStats = field(default_factory=SupervisorStats)
    #: True when a KeyboardInterrupt cut the campaign short
    interrupted: bool = False
    #: always 0: resumption is reported through ``store_report`` (a side
    #: channel) so a resumed hunt serializes to the uninterrupted bytes;
    #: the key stays in the hunt JSON for schema stability
    resumed_passes: int = 0
    #: merged telemetry across all executed passes (None: telemetry off)
    telemetry: Optional[TelemetrySummary] = None
    #: EventLog records gathered from each pass's world (``log_events``)
    event_log: List[LogRecord] = field(default_factory=list)
    #: robustness validation of the findings (None unless requested)
    validation: Optional[ValidationReport] = None
    #: per-prober time attribution — one entry per forked worker, or the
    #: parent-side prober's at ``workers=1`` (side channel only — never
    #: serialized; the main result is byte-identical whatever the workers)
    worker_breakdown: Optional[list] = None
    #: what the self-healing layer did across the whole hunt (side channel
    #: too — never serialized into the deterministic result; ``eventful``
    #: when any worker misbehaved)
    worker_health: Optional["WorkerHealthReport"] = None
    #: forensic explanations of the findings (side channel as well:
    #: computed post-merge when ``explain``, never serialized — the
    #: result JSON is byte-identical with forensics on or off)
    explanations: Optional[list] = None
    #: what the durable store did (side channel: an interrupted-and-resumed
    #: hunt differs from an uninterrupted one here, so serializing it would
    #: break the byte-identity contract)
    store_report: Optional["StoreReport"] = None

    def absorb(self, report: SearchReport) -> None:
        """Fold one pass's report in — a pass that just ran, or one
        restored from a checkpoint.  ``total_ledger`` is the caller's: a
        live pass merges into it, a restore loads the checkpointed sum."""
        self.passes.append(report)
        self.findings.extend(report.findings)
        self.quarantined.extend(report.quarantined)
        self.supervisor.merge(report.supervisor)
        if report.telemetry is not None:
            if self.telemetry is None:
                self.telemetry = TelemetrySummary()
            self.telemetry.merge(report.telemetry)

    def crashed_nodes(self) -> List[str]:
        """Union of crashed-node summaries across every pass."""
        seen = {}
        for report in self.passes:
            for line in report.crashed_nodes:
                seen[line.split(" ", 1)[0]] = line
        return sorted(seen.values())

    @property
    def total_time(self) -> float:
        return self.total_ledger.total()

    def attack_names(self) -> List[str]:
        return [f.name for f in self.findings]

    def describe(self) -> str:
        status = " (INTERRUPTED)" if self.interrupted else ""
        lines = [f"hunt: {len(self.findings)} attacks over "
                 f"{len(self.passes)} passes, "
                 f"platform time {self.total_time:.1f}s{status}"]
        for i, report in enumerate(self.passes, start=1):
            names = ", ".join(report.attack_names()) or "(nothing new)"
            lines.append(f"  pass {i}: {names}")
        crashed = self.crashed_nodes()
        if crashed:
            lines.append(f"  crashed nodes: {', '.join(crashed)}")
        if self.supervisor.total_events:
            lines.append("  " + self.supervisor.describe())
        for q in self.quarantined:
            lines.append("  " + q.describe())
        if self.telemetry is not None:
            lines.append("  " + self.telemetry.one_line())
        if self.worker_health is not None and self.worker_health.eventful:
            lines.append("  " + self.worker_health.one_line())
        if self.store_report is not None and self.store_report.eventful:
            lines.append("  " + self.store_report.one_line())
        if self.explanations:
            lines.extend("  " + e.one_line() for e in self.explanations)
        if self.validation is not None:
            lines.extend("  " + line
                         for line in self.validation.describe().splitlines())
        return "\n".join(lines)


# ------------------------------------------------------------- checkpointing

def _checkpoint_dict(config: Dict, excluded: Set[tuple],
                     weights: ClusterWeights, result: HuntResult) -> Dict:
    from repro.analysis.reports import record_to_jsonable, report_to_dict
    return {
        "version": CHECKPOINT_VERSION,
        "config": config,
        "excluded": [record_to_jsonable(r) for r in sorted(excluded)],
        "weights": dict(weights.weights),
        "ledger": dict(result.total_ledger.by_category),
        "passes": [report_to_dict(p) for p in result.passes],
        "written_at_pass": len(result.passes),
        "complete": bool(result.passes) and not result.passes[-1].findings,
    }


def _restore_from_checkpoint(data: Dict, config: Dict, where: str,
                             excluded: Set[tuple], weights: ClusterWeights,
                             result: HuntResult) -> bool:
    """Restore the pass-boundary state ``data`` if it is this hunt's, or
    a prefix of it (a smaller budget); another probe half is a
    :class:`ConfigError`, another walk half is left unrestored (False)."""
    from repro.analysis.reports import record_from_jsonable, report_from_dict
    written = data["config"]
    if written["probe"] != config["probe"]:
        refuse_another(written["probe"], config["probe"], where)
    budget = config["walk"]["max_passes"]
    if (dict(written["walk"], max_passes=budget) != config["walk"]
            or data["written_at_pass"] > budget):
        return False
    excluded.update(tuple(record_from_jsonable(r)) for r in data["excluded"])
    weights.weights = dict(data["weights"])
    result.total_ledger = CostLedger(dict(data["ledger"]))
    for report_data in data["passes"]:
        result.absorb(report_from_dict(report_data))
    return True


# --------------------------------------------------------------------- hunt

def hunt(factory: TestbedFactory, config: Optional[HuntConfig] = None, *,
         message_types: Optional[Sequence[str]] = None,
         exclude: Optional[Set[tuple]] = None,
         max_passes: int = 5,
         injection_cache: bool = False,
         tracer: Optional[Tracer] = None,
         progress: Optional[ProgressLine] = None,
         log_events: bool = False,
         workers: int = 1,
         health_policy: Optional["HealthPolicy"] = None,
         explain: Union[bool, str] = False,
         store_dir: Optional[str] = None,
         **settings) -> HuntResult:
    """Run weighted-greedy passes until a pass finds nothing new.

    ``config`` (a :class:`~repro.controller.config.HuntConfig`, with
    ``settings`` replaced) and the walk's own settings — ``message_types``
    (None: the testbed's), ``exclude``, the pass budget ``max_passes`` and
    ``injection_cache`` (price passes 2+ as if the platform kept its
    snapshots) — are the hunt.  One executor runs every pass, simulating a
    step when the walk first asks for it and replaying it from the probe
    cache ever after, charged as re-simulating it would be; the cluster
    weights persist across passes.

    The other keywords say how the hunt is run and watched, never what it
    reports: ``tracer`` (a ``hunt.pass`` span per pass, merged telemetry
    in ``result.telemetry``), ``progress``, ``log_events`` (the EventLog in
    ``result.event_log``), ``workers`` (a forked pool prefetches each
    pass's steps, self-healing per ``health_policy``), ``explain``
    (forensic explanations in ``result.explanations``, run by the same
    executor; ``"traces"`` also keeps each one's chronologies, which a
    forensics bundle's traces need) and ``store_dir``:
    every probe is journaled before it is used and the pass state
    checkpointed after every pass, so a hunt killed at any instant resumes,
    byte for byte, when rerun on the same directory — under the same probe
    half (:mod:`repro.controller.config`).
    """
    if workers == 1 and health_policy is not None:
        raise ConfigError(
            "worker health options (--worker-timeout/--worker-retries/"
            "--no-degrade) require workers > 1: a serial hunt has no "
            "worker pool to heal")
    config = replace(config or HuntConfig(), **settings, algorithm="weighted")
    result = HuntResult()
    progress = progress or ProgressLine()
    excluded: Set[tuple] = set(exclude or ())
    weights = ClusterWeights()

    store = executor = key = None
    passes = range(max_passes)

    def checkpoint() -> None:
        if store is not None:
            store.save_checkpoint(_checkpoint_dict(
                key, excluded, weights, result))

    try:
        if store_dir is not None:
            from repro.store.runstore import RunStore
            store = RunStore(store_dir)
        from repro.parallel.executor import ScenarioExecutor
        executor = ScenarioExecutor(  # (binds the store, or refuses it)
            factory, config, workers=workers, tracer=tracer,
            log_events=log_events, health=health_policy, store=store,
            progress=progress)
        key = config.key(executor.testbed, message_types=message_types,
                         exclude=frozenset(excluded), max_passes=max_passes,
                         injection_cache=injection_cache)
        data = (store.resume_checkpoint(CHECKPOINT_VERSION)
                if store is not None else None)
        if data is not None and _restore_from_checkpoint(
                data, key, f"store {store_dir}", excluded, weights, result):
            store.registry.count("store.resume.passes_restored",
                                 len(result.passes))
            # A campaign that already converged has nothing to redo (but
            # its restored findings can still be explained on request).
            passes = (range(0) if data["complete"]
                      else range(len(result.passes), max_passes))
        for pass_index in passes:
            progress.prefix = f"pass {pass_index + 1}/{max_passes} · "
            try:
                with maybe_span(tracer, "hunt.pass",
                                index=pass_index + 1) as span:
                    report = executor.run_pass(
                        message_types=message_types, exclude=excluded,
                        weights=weights,
                        kept=injection_cache and pass_index > 0)
                    span.set(findings=len(report.findings))
                    pass_mark = tracer.mark() if tracer is not None else 0
                if report.telemetry is not None and tracer is not None:
                    # the hunt.pass span closes after the pass summary was
                    # computed; fold it in so the merged totals include it
                    report.telemetry.merge(summarize(tracer,
                                                     since=pass_mark))
                result.absorb(report)
                result.total_ledger.merge(report.ledger)
                excluded.update(f.scenario.to_record()
                                for f in report.findings)
            except KeyboardInterrupt:
                result.interrupted = True
                return result
            finally:
                # However the pass ended — done, Ctrl-C, or aborted
                # mid-recovery (a worker fault under --no-degrade, a
                # nondeterministic replay, ...) — salvage what completed:
                # checkpoint the finished passes so a rerun continues the
                # campaign instead of redoing it.
                result.event_log.extend(executor.take_log_records())
                checkpoint()
            if not report.findings:
                break
        if explain and result.findings:
            result.explanations = executor.explain(
                result.findings, traces=explain == "traces")
    finally:
        if executor is not None:
            result.worker_breakdown = executor.worker_breakdown()
            result.worker_health = executor.worker_health()
            executor.close()
        if store is not None:
            from repro.store.runstore import StoreReport
            result.store_report = StoreReport(store.counters())
            store.close()
    return result
