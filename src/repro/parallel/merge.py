"""Deterministic merge: run the algorithm's own walk over recorded steps.

There is one walk per algorithm — its ``_run_pass`` — and
:class:`ReplaySource` answers each supervised step it takes (``_start_run``,
``_acquire_context``, ``_measure_action``, brute force's
``_measure_baseline``/``_measure_scenario``, ``_note_crashes``) from the
:class:`~repro.parallel.worker.ProbeCache`, replaying the step's
:class:`~repro.parallel.recording.StepTrace` charge by charge.  A step the
cache lacks is a *question*: the parent-side prober
simulates that one step on the live harness (the algorithm classes' own
step seam, under a ``StepRecorder``), the probe is admitted — a run store
journals it before it is used — and replayed like any other.  Same
iteration order, early stops and quarantine handling as the live algorithm,
because it *is* that code; and replaying individual charges in that order
makes the ledger bitwise identical to a live run's (float accumulation is
order-sensitive), so every ``found_at`` and ``SupervisorEvent.at`` — both
"ledger total when it happened" — lands exactly.

With a healthy fork pool nobody answers questions — the workers prefetched
all the walk can need (:meth:`~repro.parallel.worker.ProbeCache.split`),
and a miss is a "coverage hole" :class:`SearchError`, never a silently
shorter report.  Why the prefetch suffices:

* context acquisitions and greedy evaluations are probed unconditionally;
* weighted greedy walks actions in descending cluster weight and stops at
  the first attack.  Any action it visits is either (a) a non-attack, which
  its cluster's step walked past, or (b) the stopping attack itself, which
  is its cluster's first non-quarantined attack in enumeration order — the
  exact point where the step stopped.  Quarantined evaluations stop
  neither walk, in lockstep.

A poison step (:mod:`repro.parallel.health`) comes back as synthetic probes
whose traces carry no charges, only ``worker-fault`` + ``quarantine``
events (:meth:`StepTrace.quarantine_only`); replay emits them like any
recorded supervision event, so the step surfaces exactly like a scenario
that burned its retry budget.  They are handed to the walk beside the
cache: never admitted (a journaled poison would poison a clean resume),
never asked again.

A *kept* pass (``hunt --injection-cache``, pass 2 on) is priced as a
platform that kept pass 1's snapshots would charge it: the warm testbed
is still up, so the startup replays its crashed-node summary but none of
its charges, and each type's injection snapshot is still there, so a
found, clean context replays only its baseline branch — the charges after
its injection save.  Every other step replays as recorded.  The rule reads
nothing but the recorded trace, so the probes — and a store's journal —
are the same with the policy on or off.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.attacks.actions import MaliciousAction
from repro.common.errors import SearchError
from repro.controller.costs import SNAPSHOT_SAVE, CostLedger
from repro.controller.monitor import PerfSample
from repro.controller.supervisor import (EVENT_QUARANTINE, EVENT_REBUILD,
                                         EVENT_RETRY, EVENT_WATCHDOG,
                                         ScenarioQuarantined, SupervisorEvent,
                                         SupervisorStats)
from repro.parallel.recording import StepTrace
from repro.parallel.worker import ContextProbe, StartupProbe
from repro.search import ALGORITHMS
from repro.search.base import TypeContext

_COUNTER_FOR_KIND = {
    EVENT_RETRY: "retries",
    EVENT_REBUILD: "rebuilds",
    EVENT_QUARANTINE: "quarantines",
    EVENT_WATCHDOG: "watchdog_trips",
}


def replay_trace(ledger: CostLedger, stats: SupervisorStats,
                 trace: StepTrace) -> None:
    """Re-issue one step's charges, emitting its events at the recorded
    positions so each event's ``at`` equals the serial ledger total."""
    events = trace.events
    index = 0
    for position, charge in enumerate(trace.charges):
        while index < len(events) and events[index][0] <= position:
            _emit_event(ledger, stats, events[index])
            index += 1
        ledger.charge(*charge)
    while index < len(events):
        _emit_event(ledger, stats, events[index])
        index += 1


def _emit_event(ledger: CostLedger, stats: SupervisorStats,
                packed: tuple) -> None:
    __, kind, op, scenario, error, attempt = packed
    stats.events.append(SupervisorEvent(kind, op, scenario, error, attempt,
                                        at=ledger.total()))
    counter = _COUNTER_FOR_KIND.get(kind)
    if counter is not None:
        setattr(stats, counter, getattr(stats, counter) + 1)


class ReplaySource:
    """Mixin that answers a search algorithm's supervised steps from
    recorded probes instead of a live harness.

    Mixed in ahead of the algorithm class (see :data:`REPLAYING`), it
    overrides the step seam and nothing else, so the walk that consumes the
    steps is the live ``_run_pass`` itself.  ``cache`` holds the recorded
    probes; ``prober`` (None: nobody — a miss is a coverage hole) simulates
    the step the cache lacks; ``poisoned`` is a second cache, of synthetic
    poison-step quarantines, which outranks both.  ``instance`` is an
    unbooted testbed — the name/schema/search-type oracle the walk reads
    off its harness; the walk itself never boots or simulates anything.
    ``kept`` prices the pass as one whose snapshots the platform kept.
    """

    def __init__(self, instance, cache, prober, poisoned, *args,
                 kept: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.harness.instance = instance
        self._cache = cache
        self._prober = prober
        self._poisoned = poisoned
        self._kept = kept
        #: the last replayed step's crashed-node summary: exactly what a
        #: live ``_note_crashes`` would read off the world at this point
        self._crash_lines: List[str] = []

    def _priced(self, probe) -> StepTrace:
        """What replaying ``probe`` charges: its recorded trace, less what
        a kept pass's platform still holds (see the module docstring)."""
        trace = probe.trace
        if not self._kept:
            return trace
        if isinstance(probe, StartupProbe):
            return StepTrace(crash_lines=trace.crash_lines)
        if (isinstance(probe, ContextProbe) and probe.found
                and probe.quarantined is None and not trace.events):
            categories = [category for category, __ in trace.charges]
            saved = categories.index(SNAPSHOT_SAVE) + 1
            return StepTrace(trace.charges[saved:], [], trace.crash_lines)
        return trace

    def _answer(self, probe, what: str, simulate, admit):
        """Replay one step — ``probe`` as recorded, or on a miss (None) the
        one ``simulate(prober)`` records now, admitted first — and
        re-raise its quarantine, if any."""
        if probe is None:
            if self._prober is None:
                raise SearchError(
                    f"parallel probe coverage hole: no recorded {what}")
            probe = simulate(self._prober)
            admit(probe)
        trace = self._priced(probe)
        replay_trace(self.ledger, self.supervisor.stats, trace)
        self._crash_lines = trace.crash_lines
        if probe.quarantined is not None:
            reason, attempts = probe.quarantined
            raise ScenarioQuarantined("replay", None, Exception(reason),
                                      attempts)
        return probe

    def _note_crashes(self) -> None:
        for line in self._crash_lines:
            self._crashed_seen[line.split(" ", 1)[0]] = line

    def _start_run(self) -> None:
        self._answer(self._cache.startup, "startup",
                     lambda prober: prober._boot(), self._cache.add_startup)

    def _acquire_context(self, message_type: str) -> Optional[TypeContext]:
        probe = self._answer(
            self._poisoned.contexts.get(message_type)
            or self._cache.contexts.get(message_type),
            f"injection context for {message_type}",
            lambda prober: prober._acquire(message_type),
            lambda probe: self._cache.add_context(message_type, probe))
        self._note_crashes()
        self._progress_tick()
        # No live injection point: each replayed evaluation supplies the
        # baseline its sample was measured against.
        return TypeContext(message_type, None, None) if probe.found else None

    def _measure_action(self, ctx: TypeContext,
                        action: MaliciousAction) -> PerfSample:
        message_type, record = ctx.message_type, action.to_record()
        ev = self._answer(
            self._poisoned.evals.get(message_type, {}).get(record)
            or self._cache.evals.get(message_type, {}).get(record),
            f"evaluation of {action.describe()} {message_type}",
            lambda prober: prober._evaluate(message_type, action),
            lambda probe: self._cache.add_eval(message_type, probe))
        ctx.baseline = ev.baseline
        self._note_crashes()
        self._progress_tick()
        return ev.sample

    def _measure_baseline(self) -> PerfSample:
        return self._answer(
            self._poisoned.baseline or self._cache.baseline, "baseline",
            lambda prober: prober._baseline(),
            self._cache.add_baseline).sample

    def _measure_scenario(self, scenario
                          ) -> Tuple[Optional[float], Optional[PerfSample]]:
        record = scenario.to_record()
        probe = self._answer(
            self._poisoned.scenarios.get(record)
            or self._cache.scenarios.get(record),
            f"evaluation of {scenario.action.describe()} "
            f"{scenario.message_type}",
            lambda prober: prober._scenario(record),
            self._cache.add_scenario)
        return probe.injected_at, probe.sample


#: algorithm name -> that algorithm's own walk over a replay source
REPLAYING = {name: type(f"Replaying{cls.__name__}", (ReplaySource, cls), {})
             for name, cls in ALGORITHMS.items()}
