"""Shared machinery for the attack-finding algorithms.

Every algorithm talks to the platform through the supervised helpers here:
:meth:`SearchAlgorithm._start_run`, :meth:`_acquire_context`, and
:meth:`_measure_action` wrap the harness operations in the
:class:`~repro.controller.supervisor.ScenarioSupervisor`'s
classify-retry-quarantine logic, so a transient platform fault (failed
snapshot, watchdog trip, injected fault) costs a bounded retry — with a
fresh testbed rebuild charged to the ``rebuild`` ledger category — instead
of aborting the whole pass.

Those helpers (plus brute force's ``_measure_baseline``/``_measure_scenario``
and :meth:`_note_crashes`) are also the *step seam*: each algorithm's walk
exists once, in its ``_run_pass``, and runs over either the live harness
(here) or recorded probes (:class:`repro.parallel.merge.ReplaySource`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.attacks.actions import MaliciousAction
from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.common.errors import ProxyError
from repro.controller.costs import REBUILD, CostLedger
from repro.controller.harness import (AttackHarness, InjectionPoint,
                                      TestbedFactory)
from repro.controller.monitor import AttackThreshold, PerfSample
from repro.controller.supervisor import (FaultPlan, QuarantinedScenario,
                                         ScenarioQuarantined,
                                         ScenarioSupervisor)
from repro.search.results import SearchReport
from repro.telemetry.progress import ProgressLine
from repro.telemetry.summary import summarize
from repro.telemetry.tracer import Tracer, maybe_span


def is_attack_sample(threshold: AttackThreshold, baseline: PerfSample,
                     sample: PerfSample) -> bool:
    """The branch-and-measure attack rule shared by weighted greedy and the
    parallel prober: a crash of an additional benign node is always an
    attack, otherwise the damage threshold decides.  Keeping it in one
    place is what lets a worker's early stop mirror the serial walk."""
    return (sample.crashed_nodes > baseline.crashed_nodes
            or threshold.is_attack(baseline, sample))


@dataclass
class TypeContext:
    """Everything needed to branch one message type: injection + baseline.

    ``stale`` flips to True when the testbed was rebuilt underneath us (the
    old snapshot belongs to a dead world); the next supervised measurement
    transparently re-acquires the injection point and baseline.
    """

    message_type: str
    injection: InjectionPoint
    baseline: PerfSample
    stale: bool = False


class SearchAlgorithm:
    """Base class: holds the harness, the action space, and the report."""

    name = "search"

    def __init__(self, factory: TestbedFactory, seed: int = 0,
                 threshold: Optional[AttackThreshold] = None,
                 space_config: Optional[ActionSpaceConfig] = None,
                 max_wait: Optional[float] = None,
                 shared_pages: bool = True,
                 delta_snapshots: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 fault_schedule=None,
                 watchdog_limit: Optional[int] = None,
                 max_retries: int = 2,
                 tracer: Optional[Tracer] = None,
                 progress: Optional[ProgressLine] = None,
                 log_events: bool = False,
                 ledger: Optional[CostLedger] = None) -> None:
        self.factory = factory
        self.seed = seed
        self.threshold = threshold or AttackThreshold()
        self.space_config = space_config
        self.max_wait = max_wait
        self.shared_pages = shared_pages
        self.delta_snapshots = delta_snapshots
        self.fault_plan = fault_plan
        #: environmental FaultSchedule armed on every testbed (chaos layer)
        self.fault_schedule = fault_schedule
        self.watchdog_limit = watchdog_limit
        #: platform-side tracer shared with the harness (None: no tracing)
        self.tracer = tracer
        #: where this run's spans start in a (possibly shared) tracer
        self._span_mark = tracer.mark() if tracer is not None else 0
        self.progress = progress or ProgressLine()
        self.log_events = log_events
        self.ledger = ledger if ledger is not None else CostLedger()
        #: crashed nodes observed during this pass: name -> summary line
        self._crashed_seen: dict = {}
        self.harness = self._fresh_harness()
        self.supervisor = ScenarioSupervisor(self.ledger,
                                             max_retries=max_retries)
        #: the in-progress (or last finished) report — lets a caller print
        #: partial results after a KeyboardInterrupt
        self.report: Optional[SearchReport] = None

    # --------------------------------------------------------------- helpers

    def _fresh_harness(self) -> AttackHarness:
        return AttackHarness(self.factory, self.seed, self.threshold,
                             shared_pages=self.shared_pages,
                             delta_snapshots=self.delta_snapshots,
                             ledger=self.ledger,
                             fault_plan=self.fault_plan,
                             fault_schedule=self.fault_schedule,
                             watchdog_limit=self.watchdog_limit,
                             tracer=self.tracer,
                             log_events=self.log_events)

    def _note_crashes(self) -> None:
        """Record every currently crashed node (with its cause) so the
        report can surface a hunt that silently lost a replica."""
        instance = self.harness.instance
        if instance is None:
            return
        for line in instance.world.crashed_node_summaries():
            name = line.split(" ", 1)[0]
            self._crashed_seen[name] = line

    def _progress_tick(self) -> None:
        """Refresh the live status line (no-op unless progress is enabled)."""
        progress = self.progress
        if not progress.enabled:
            return
        report = self.report
        evaluated = report.scenarios_evaluated if report is not None else 0
        found = len(report.findings) if report is not None else 0
        stats = self.supervisor.stats
        total = self.ledger.total()
        share = self.ledger.snapshot_total() / total if total else 0.0
        text = (f"{evaluated} scenarios · {found} attacks · "
                f"{stats.retries} retries · {stats.quarantines} quarantined"
                f" · snapshots {share:.0%} of platform time")
        progress.update(text)

    def _make_report(self) -> SearchReport:
        instance = self.harness.instance
        system = instance.name if instance is not None else "unknown"
        report = SearchReport(self.name, system, ledger=self.ledger)
        self._crashed_seen = {}
        self.report = report
        return report

    def _finalize_report(self, report: SearchReport) -> SearchReport:
        self._note_crashes()
        report.crashed_nodes = sorted(self._crashed_seen.values())
        report.supervisor.merge(self.supervisor.stats)
        self.supervisor.stats = type(self.supervisor.stats)()
        if self.tracer is not None and self.tracer.enabled:
            world = (self.harness.instance.world
                     if self.harness.instance is not None else None)
            report.telemetry = summarize(
                self.tracer,
                world.instruments if world is not None else None,
                since=self._span_mark)
        return report

    def _space(self) -> ActionSpace:
        return ActionSpace(self.harness.instance.schema, self.space_config)

    def _search_types(self,
                      message_types: Optional[Sequence[str]]) -> List[str]:
        if message_types is not None:
            return list(message_types)
        return self.harness.instance.search_types()

    # ------------------------------------------------------ supervised plane

    def _start_run(self) -> None:
        """Boot (or re-boot) the testbed under supervision."""
        self.supervisor.run("start_run", self.harness.start_run)

    def _rebuild_testbed(self) -> None:
        """Replace the testbed with a fresh build of the same factory+seed.

        All platform time the rebuild consumes (boot, warmup execution,
        warm snapshot) is reattributed to the ledger's ``rebuild`` category
        via a temporary sub-ledger.
        """
        sub = CostLedger()
        self.harness.ledger = sub
        try:
            self.harness.start_run()
        finally:
            self.harness.ledger = self.ledger
            self.ledger.charge(REBUILD, sub.total())

    def _seek_injection(self, message_type: str) -> Optional[InjectionPoint]:
        """Rewind to the warm state and run until the type is intercepted."""
        self.harness.restore(self.harness.warm_snapshot)
        self.harness.proxy.clear_policy()
        return self.harness.run_to_injection(message_type,
                                             max_wait=self.max_wait)

    def _acquire_context(self, message_type: str) -> Optional[TypeContext]:
        """Supervised injection-seek plus baseline branch.

        Returns None when the type never appears within ``max_wait`` (an
        honest no-injection-point outcome, charged as wasted execution).
        Raises :class:`ScenarioQuarantined` when persistent platform faults
        prevented the platform from even finding out.
        """
        def attempt() -> Optional[TypeContext]:
            injection = self._seek_injection(message_type)
            if injection is None:
                return None
            baseline = self.harness.branch_measure(injection, None)
            return TypeContext(message_type, injection, baseline)

        result = self.supervisor.run(f"injection:{message_type}", attempt,
                                     rebuild=self._rebuild_testbed,
                                     scenario=message_type)
        self._note_crashes()
        self._progress_tick()
        return result

    def _refresh_context(self, ctx: TypeContext) -> None:
        """Re-acquire a context after the testbed was rebuilt."""
        injection = self._seek_injection(ctx.message_type)
        if injection is None:
            # Deterministic worlds reproduce their injection points; losing
            # one after a rebuild is itself a (transient) platform anomaly.
            raise ProxyError(
                f"injection point for {ctx.message_type} lost after rebuild")
        ctx.injection = injection
        ctx.baseline = self.harness.branch_measure(injection, None)
        ctx.stale = False

    def _measure_action(self, ctx: TypeContext,
                        action: Optional[MaliciousAction]) -> PerfSample:
        """Supervised branch-measure of one action against ``ctx``.

        Transparently re-acquires the injection point and baseline when a
        retry rebuilt the testbed.  Raises :class:`ScenarioQuarantined`
        after persistent failures.
        """
        def attempt() -> PerfSample:
            if ctx.stale:
                self._refresh_context(ctx)
            return self.harness.branch_measure(ctx.injection, action)

        def rebuild() -> None:
            self._rebuild_testbed()
            ctx.stale = True

        label = (f"{ctx.message_type}"
                 if action is None
                 else f"{action.describe()} {ctx.message_type}")
        with maybe_span(self.tracer, "search.scenario",
                        message_type=ctx.message_type,
                        scenario=label) as span:
            sample = self.supervisor.run(f"branch:{ctx.message_type}",
                                         attempt, rebuild=rebuild,
                                         scenario=label)
            span.set(throughput=sample.throughput,
                     crashed=sample.crashed_nodes)
        self._note_crashes()
        self._progress_tick()
        return sample

    @staticmethod
    def _quarantine_entry(quarantined: ScenarioQuarantined,
                          message_type: str,
                          action: Optional[MaliciousAction]
                          ) -> QuarantinedScenario:
        return QuarantinedScenario(
            message_type,
            None if action is None else action.to_record(),
            reason=str(quarantined.cause),
            attempts=quarantined.attempts)

    # ------------------------------------------------------------------ run

    def _begin_run(self) -> None:
        """Reset per-run state before a pass starts.

        Two leaks this guards against:

        * a pass aborted mid-run (KeyboardInterrupt, quarantine storm)
          would otherwise carry its retry/quarantine counters into the
          next pass's report, double-counting them — ``supervisor.stats``
          used to be reset only in :meth:`_finalize_report`;
        * a search instance that runs several passes needs a fresh ledger
          each run (rebound on the harness and supervisor) and its own span
          mark.
        """
        if self.ledger.by_category:
            self.ledger = CostLedger()
            self.harness.ledger = self.ledger
            self.supervisor.ledger = self.ledger
        self.supervisor.stats = type(self.supervisor.stats)()
        if self.tracer is not None:
            self._span_mark = self.tracer.mark()

    def run(self, message_types: Optional[Sequence[str]] = None,
            exclude: Optional[Set[tuple]] = None,
            **kwargs) -> SearchReport:
        """Template method: one ``search.pass`` span around the algorithm.

        Subclasses implement :meth:`_run_pass`; the wrapper exists so every
        algorithm gets the same span (and its summary args) for free.
        """
        self._begin_run()
        with maybe_span(self.tracer, "search.pass",
                        algorithm=self.name) as span:
            try:
                report = self._run_pass(message_types=message_types,
                                        exclude=exclude or set(), **kwargs)
            except ScenarioQuarantined as q:
                # Only a pass's first step (the warm testbed, brute force's
                # baseline) lets its quarantine escape: report an empty but
                # intact pass rather than killing the hunt.
                report = self._make_report()
                report.quarantined.append(self._quarantine_entry(q, "*", None))
            span.set(findings=len(report.findings),
                     scenarios=report.scenarios_evaluated)
        # Re-summarize now that the pass span itself has closed, so the
        # report's telemetry includes it.
        return self._finalize_report(report)

    def _run_pass(self, message_types: Optional[Sequence[str]] = None,
                  exclude: Optional[Set[tuple]] = None,
                  **kwargs) -> SearchReport:
        raise NotImplementedError
