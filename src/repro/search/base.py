"""Shared machinery for the attack-finding algorithms.

Each algorithm is a *walk*: its ``_run_pass`` decides which step to take
next and asks a **step source** for it.  A source has four questions —
``startup()``, ``context(type)``, ``evaluate(type, action)`` and
``baseline()`` (brute force's one fresh execution) — and answers each with
a probe: a result plus the :class:`~repro.parallel.recording.StepTrace` of
what the step charged, which the walk replays into its own
:class:`CostLedger` and :class:`SupervisorStats`
(:meth:`SearchAlgorithm._ask`).  Brute force asks what greedy asks and
replays each scenario priced as a fresh execution
(:func:`repro.search.brute.price`).  The walk never simulates anything, so
it needs no world: it reads the system's name, schema and search types off
the source (``system``, ``schema``, ``search_types()``) too, and brute
force its ``warmup``, ``window`` and ``max_wait``.

Every run's source is the engine's: the probe cache, then, on a miss, a
prober that simulates the step on its supervised harness
(:class:`repro.parallel.merge.CachedSteps`).  ``run()`` without a source
walks over :meth:`SearchAlgorithm.engine`, the one-prober engine a serial
hunt runs — the library path is that engine, not a second one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Set

from repro.attacks.actions import MaliciousAction
from repro.attacks.space import ActionSpace
from repro.controller.config import HuntConfig
from repro.controller.costs import CostLedger
from repro.controller.harness import TestbedFactory
from repro.controller.monitor import AttackThreshold, PerfSample
from repro.controller.supervisor import (EVENT_QUARANTINE, EVENT_REBUILD,
                                         EVENT_RETRY, EVENT_WATCHDOG,
                                         QuarantinedScenario, SupervisorEvent)
from repro.search.results import SearchReport
from repro.telemetry.progress import ProgressLine
from repro.telemetry.tracer import Tracer, maybe_span

#: the supervision counter each replayed event kind bumps
_COUNTER_FOR_KIND = {
    EVENT_RETRY: "retries",
    EVENT_REBUILD: "rebuilds",
    EVENT_QUARANTINE: "quarantines",
    EVENT_WATCHDOG: "watchdog_trips",
}


def is_attack_sample(threshold: AttackThreshold, baseline: PerfSample,
                     sample: PerfSample) -> bool:
    """The branch-and-measure attack rule shared by weighted greedy and the
    parallel prober: a crash of an additional benign node is always an
    attack, otherwise the damage threshold decides.  Keeping it in one
    place is what lets a worker's early stop mirror the serial walk."""
    return (sample.crashed_nodes > baseline.crashed_nodes
            or threshold.is_attack(baseline, sample))


def supervised(probe) -> bool:
    """A probe the supervisor stepped in on (quarantined, or with events):
    the pricing rules replay it as recorded, never priced."""
    return probe.quarantined is not None or bool(probe.trace.events)


class SearchAlgorithm:
    """Base class: the walk's report, with its ledger and supervision stats.

    ``config`` (a :class:`~repro.controller.config.HuntConfig`, with
    ``settings`` replaced and this walk's algorithm) holds the walk's
    settings; its probe half, with ``factory`` and ``log_events``, only
    builds :meth:`engine`.
    """

    name = "search"
    #: the walk's executor name (a key of :data:`repro.search.ALGORITHMS`)
    key: Optional[str] = None

    def __init__(self, factory: TestbedFactory,
                 config: Optional[HuntConfig] = None, *,
                 tracer: Optional[Tracer] = None,
                 progress: Optional[ProgressLine] = None,
                 log_events: bool = False, **settings) -> None:
        self.config = replace(config or HuntConfig(), **settings,
                              algorithm=self.key)
        self.factory = factory
        self.tracer = tracer
        self.progress = progress or ProgressLine()
        self.log_events = log_events
        #: the current pass's ledger (its report's)
        self.ledger = CostLedger()
        #: the source the current (or last) pass asks
        self.steps = None
        #: the last replayed step's crashed-node summary
        self._crash_lines: List[str] = []
        #: crashed nodes observed during this pass: name -> summary line
        self._crashed_seen: dict = {}
        #: the in-progress (or last finished) report — lets a caller print
        #: partial results after a KeyboardInterrupt
        self.report: Optional[SearchReport] = None
        self._engine = None

    def engine(self):
        """The :class:`~repro.parallel.executor.ScenarioExecutor` a plain
        ``run()`` walks over: one in-process prober, as in a serial hunt,
        built on first use and kept (probe cache and all) for later runs."""
        if self._engine is None:
            from repro.parallel.executor import ScenarioExecutor
            self._engine = ScenarioExecutor(
                self.factory, self.config, workers=1, tracer=self.tracer,
                progress=self.progress, log_events=self.log_events)
        return self._engine

    # --------------------------------------------------------------- helpers

    def _ask(self, probe, message_type: str = "*",
             action: Optional[MaliciousAction] = None,
             note_crashes: bool = True):
        """Replay one answered step into this walk's ledger and stats —
        charge by charge, each event where it fired, so every ``at`` and
        ``found_at`` is the ledger total a live run had.  Returns the
        probe, or None when the step was quarantined: then it is on the
        report as an inconclusive scenario (``"*"``: the whole pass)."""
        trace, stats = probe.trace, self.report.supervisor
        events = list(trace.events)
        for position, charge in enumerate([*trace.charges, None]):
            while events and events[0][0] <= position:
                __, kind, op, scenario, error, attempt = events.pop(0)
                stats.events.append(SupervisorEvent(
                    kind, op, scenario, error, attempt,
                    at=self.ledger.total()))
                counter = _COUNTER_FOR_KIND.get(kind)
                if counter is not None:
                    setattr(stats, counter, getattr(stats, counter) + 1)
            if charge is not None:
                self.ledger.charge(*charge)
        self._crash_lines = trace.crash_lines
        if probe.quarantined is not None:
            reason, attempts = probe.quarantined
            self.report.quarantined.append(QuarantinedScenario(
                message_type, None if action is None else action.to_record(),
                reason=reason, attempts=attempts))
            return None
        if note_crashes:
            self._note_crashes()
        self._progress_tick()
        return probe

    def _note_crashes(self) -> None:
        """Record every node the last step left crashed (with its cause) so
        the report can surface a hunt that silently lost a replica."""
        for line in self._crash_lines:
            self._crashed_seen[line.split(" ", 1)[0]] = line

    def _progress_tick(self) -> None:
        """Refresh the live status line (no-op unless progress is enabled)."""
        progress = self.progress
        if not progress.enabled:
            return
        report = self.report
        stats = report.supervisor
        total = self.ledger.total()
        share = self.ledger.snapshot_total() / total if total else 0.0
        text = (f"{report.scenarios_evaluated} scenarios · "
                f"{len(report.findings)} attacks · "
                f"{stats.retries} retries · {stats.quarantines} quarantined"
                f" · snapshots {share:.0%} of platform time")
        progress.update(text)

    def _make_report(self) -> SearchReport:
        """The pass's report, made before its first step: its ledger and
        supervision stats are what the walk replays into."""
        self.ledger = CostLedger()
        self.report = SearchReport(self.name, self.steps.system,
                                   ledger=self.ledger)
        self._crashed_seen = {}
        return self.report

    def _space(self) -> ActionSpace:
        return ActionSpace(self.steps.schema, self.config.space_config)

    def _search_types(self,
                      message_types: Optional[Sequence[str]]) -> List[str]:
        if message_types is not None:
            return list(message_types)
        return self.steps.search_types()

    # ------------------------------------------------------------------ run

    def run(self, message_types: Optional[Sequence[str]] = None,
            exclude: Optional[Set[tuple]] = None, steps=None,
            **kwargs) -> SearchReport:
        """One pass of the walk over the step source ``steps`` (None: over
        :meth:`engine`), in one ``search.pass`` span.  ``kwargs`` are
        the walk's own (brute force's ``max_scenarios``)."""
        if steps is None:
            return self.engine().run_walk(self, message_types, exclude,
                                          walk_kwargs=kwargs)
        self.steps = steps
        with maybe_span(self.tracer, "search.pass",
                        algorithm=self.name) as span:
            report = self._run_pass(message_types=message_types,
                                    exclude=exclude or set(), **kwargs)
            span.set(findings=len(report.findings),
                     scenarios=report.scenarios_evaluated)
        self._note_crashes()
        report.crashed_nodes = sorted(self._crashed_seen.values())
        return report

    def _run_pass(self, message_types: Optional[Sequence[str]] = None,
                  exclude: Optional[Set[tuple]] = None,
                  **kwargs) -> SearchReport:
        raise NotImplementedError
