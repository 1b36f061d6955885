"""The full hunt: repeat weighted-greedy passes until no attacks remain.

Section III-B: "the user will repeat the attack finding process again after
finding the strongest attack — until the method does not find any more
attacks."  :func:`hunt` automates that loop: each pass excludes every
scenario already found, and the hunt stops when a pass finds nothing new
(or the pass budget runs out).

Long campaigns are supervised and resumable:

* every pass runs under the search stack's classify-retry-quarantine
  supervision (see :mod:`repro.controller.supervisor`), optionally with a
  deterministic :class:`~repro.controller.supervisor.FaultPlan` injected and
  a kernel watchdog armed;
* with ``store_dir`` set, every completed probe is journaled and the
  excluded scenarios, cluster weights, ledger, and completed passes are
  checkpointed after every pass (see :mod:`repro.store.runstore`); pointing
  a new hunt at the same directory picks an interrupted — or ``SIGKILL``ed —
  campaign back up and reproduces, byte for byte, what an uninterrupted
  hunt would have reported.  The run store is the only resume path;
* a ``KeyboardInterrupt`` mid-pass returns the partial result (with
  ``interrupted=True``) after writing a final checkpoint instead of
  propagating a bare traceback.

One engine: every pass is the weighted-greedy walk
(:mod:`repro.search.weighted`), run by :class:`~repro.parallel.executor.ScenarioExecutor` over its
cached step source — the probe cache, then, on a miss, the prober that
simulates the step on its live harness the moment the walk asks for it
(``workers=1``); with ``workers > 1`` a forked pool prefetched it before
the walk started.  ``store_dir`` merely makes the cache durable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import ConfigError
from repro.common.logging import LogRecord
from repro.controller.costs import CostLedger
from repro.controller.harness import TestbedFactory
from repro.controller.monitor import AttackThreshold
from repro.controller.supervisor import (FaultPlan, QuarantinedScenario,
                                         SupervisorStats)
from repro.faults.schedule import FaultSchedule
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
CHECKPOINT_VERSION = 2


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
    #: computed post-merge with ``explain=True``, never serialized — the
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

def _checkpoint_dict(system: str, seed: int, injection_cache: bool,
                     excluded: Set[tuple], weights: ClusterWeights,
                     result: HuntResult) -> Dict:
    from repro.analysis.reports import record_to_jsonable, report_to_dict
    return {
        "version": CHECKPOINT_VERSION,
        "system": system,
        "seed": seed,
        "injection_cache": injection_cache,
        "excluded": [record_to_jsonable(r) for r in sorted(excluded)],
        "weights": dict(weights.weights),
        "ledger": dict(result.total_ledger.by_category),
        "passes": [report_to_dict(p) for p in result.passes],
        "written_at_pass": len(result.passes),
        "complete": bool(result.passes) and not result.passes[-1].findings,
    }


def _restore_from_checkpoint(data: Dict, seed: int, injection_cache: bool,
                             excluded: Set[tuple],
                             weights: ClusterWeights,
                             result: HuntResult) -> None:
    from repro.analysis.reports import record_from_jsonable, report_from_dict
    if data["seed"] != seed:
        raise ConfigError(
            f"checkpoint was written by a hunt with seed {data['seed']}, "
            f"cannot resume with seed {seed}")
    # (a checkpoint older than the key was written without the policy)
    written = data.get("injection_cache", False)
    if written != injection_cache:
        raise ConfigError(
            f"checkpoint was written by a hunt with injection_cache="
            f"{written}, cannot resume with injection_cache="
            f"{injection_cache}: its passes are priced the other way")
    excluded.update(tuple(record_from_jsonable(r)) for r in data["excluded"])
    weights.weights = dict(data["weights"])
    result.total_ledger = CostLedger(dict(data["ledger"]))
    for report_data in data["passes"]:
        result.absorb(report_from_dict(report_data))


# --------------------------------------------------------------------- hunt

def hunt(factory: TestbedFactory, seed: int = 0,
         message_types: Optional[Sequence[str]] = None,
         threshold: Optional[AttackThreshold] = None,
         space_config: Optional[ActionSpaceConfig] = None,
         max_passes: int = 5,
         max_wait: Optional[float] = None,
         exclude: Optional[Set[tuple]] = None,
         shared_pages: bool = True,
         delta_snapshots: bool = False,
         fault_plan: Optional[FaultPlan] = None,
         fault_schedule: Optional[FaultSchedule] = None,
         watchdog_limit: Optional[int] = None,
         max_retries: int = 2,
         tracer: Optional[Tracer] = None,
         progress: Optional[ProgressLine] = None,
         log_events: bool = False,
         workers: int = 1,
         injection_cache: bool = False,
         health_policy: Optional["HealthPolicy"] = None,
         explain: bool = False,
         store_dir: Optional[str] = None) -> HuntResult:
    """Run weighted-greedy passes until a pass finds nothing new.

    The cluster weights persist across passes, so what pass 1 learned about
    effective action categories speeds up pass 2 — and so do the recorded
    steps: one :class:`~repro.parallel.executor.ScenarioExecutor` runs every
    pass, simulating a step when the walk first asks for it and replaying
    it from the probe cache ever after, so pass 2+ re-simulates neither the
    boot nor anything pass 1 measured, and charges exactly what
    re-simulating would have.

    Observability: ``tracer`` wraps each pass in a ``hunt.pass`` span and
    merges per-pass telemetry summaries into ``result.telemetry``;
    ``progress`` gets a ``pass N/M`` prefix and live updates from the pass;
    ``log_events`` enables the probers' world EventLog, whose records — of
    the steps actually simulated — are collected into ``result.event_log``.

    ``workers > 1`` has a persistent forked pool prefetch each pass's
    steps, pulled one at a time by whichever worker is idle; the result — reports, ledger, checkpoints — is
    byte-identical to a ``workers=1`` hunt's, with the real per-worker
    spend in ``result.worker_breakdown``.  ``health_policy`` tunes the
    pool's self-healing (see :class:`~repro.parallel.health.HealthPolicy`);
    crash recovery replays steps deterministically, so byte identity holds
    even when workers die mid-pass.  A pass that still aborts
    (``SearchError``, e.g. a pool collapse under ``degrade=False``)
    checkpoints the completed passes to the store first, so a rerun
    salvages them.

    ``injection_cache`` is a pricing policy, not a second engine: pass 2+
    is charged as a platform that kept its warm testbed and injection-point
    snapshots would charge it — no boot, warmup, or injection seek (see
    :class:`~repro.parallel.merge.CachedSteps`).  It composes with
    ``workers`` and ``store_dir``; a store refuses to resume under the
    other setting.  Under a ``fault_plan`` (sequence-dependent, so it
    excludes ``workers > 1`` and ``store_dir``) no recorded step outlives
    its ask: each pass simulates its own steps, in order.

    ``store_dir`` makes the campaign **durable**: the same engine with a
    persistent probe cache — every probe committed to a write-ahead journal
    (CRC32 + fsync) before it is used, the pass-level state to
    generation-swapped checkpoints (see :mod:`repro.store.runstore`) — so
    it costs the journal appends and nothing else.  A hunt killed at any
    instant, even ``SIGKILL`` mid-pass, resumes by pointing a new hunt at
    the same directory: journaled probes replay from disk (skipping
    completed scenarios *mid-pass*), everything else re-simulates, and the
    result is byte-identical to the uninterrupted run's.  Resume activity
    is reported through ``result.store_report`` (a side channel) rather
    than ``resumed_passes``, which byte identity pins to 0.

    ``explain=True`` computes a forensic
    :class:`~repro.forensics.explain.AttackExplanation` for every finding
    after the hunt converges (on a dedicated testbed with a private
    ledger), into ``result.explanations`` — a side channel the serialized
    result never includes, so the hunt JSON is byte-identical with
    forensics on or off.
    """
    if store_dir is not None and fault_plan is not None:
        raise ConfigError(
            "--store cannot run under a FaultPlan: the plan's fault stream "
            "is sequence-dependent, so a resumed hunt that skips journaled "
            "work would fault different operations than the original")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers > 1 and fault_plan is not None:
        raise ConfigError(
            "workers > 1 cannot run under a FaultPlan: the plan's fault "
            "stream is sequence-dependent, so splitting a pass across "
            "workers would change which operations fault (FaultSchedule "
            "chaos is supported)")
    if workers == 1 and health_policy is not None:
        raise ConfigError(
            "worker health options (--worker-timeout/--worker-retries/"
            "--no-degrade) require workers > 1: a serial hunt has no "
            "worker pool to heal")
    result = HuntResult()
    progress = progress or ProgressLine()
    excluded: Set[tuple] = set(exclude or ())
    weights = ClusterWeights()
    system = "unknown"

    store = None
    passes = range(max_passes)
    if store_dir is not None:
        from repro.store.runstore import RunStore
        store = RunStore(store_dir, seed=seed)
        data = store.resume_checkpoint(CHECKPOINT_VERSION)
        if data is not None:
            _restore_from_checkpoint(data, seed, injection_cache, excluded,
                                     weights, result)
            system = data["system"]
            # A campaign that already converged has nothing to redo (but
            # its restored findings can still be explained on request).
            passes = (range(0) if data.get("complete")
                      else range(len(result.passes), max_passes))

    def checkpoint() -> None:
        if store is not None:
            store.save_checkpoint(_checkpoint_dict(
                system, seed, injection_cache, excluded, weights, result))

    from repro.parallel.executor import ScenarioExecutor
    executor = ScenarioExecutor(
        factory, seed=seed, algorithm="weighted", workers=workers,
        threshold=threshold, space_config=space_config, max_wait=max_wait,
        shared_pages=shared_pages, delta_snapshots=delta_snapshots,
        fault_schedule=fault_schedule, watchdog_limit=watchdog_limit,
        max_retries=max_retries, tracer=tracer, log_events=log_events,
        health=health_policy, store=store, fault_plan=fault_plan,
        progress=progress)

    try:
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
                system = report.system
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
    finally:
        result.worker_breakdown = executor.worker_breakdown()
        result.worker_health = executor.worker_health()
        executor.close()
        if store is not None:
            from repro.store.runstore import StoreReport
            result.store_report = StoreReport(store.counters())
            store.close()
    if explain and result.findings and not result.interrupted:
        # Post-merge forensics: the finding list is already identical
        # across worker counts, so explaining it on a dedicated serial
        # harness yields worker-invariant explanations.
        from repro.forensics.explain import explain_findings
        result.explanations = explain_findings(
            factory, result.findings, seed=seed, threshold=threshold,
            max_wait=max_wait, fault_schedule=fault_schedule,
            shared_pages=shared_pages, delta_snapshots=delta_snapshots,
            watchdog_limit=watchdog_limit)
    return result
