"""Deterministic merge: run the algorithm's own walk over recorded steps.

There is one walk per algorithm — its ``_run_pass`` — and two step sources.
The serial engine answers each supervised step (``_start_run``,
``_acquire_context``, ``_measure_action``, brute force's
``_measure_baseline``/``_measure_scenario``, ``_note_crashes``) by driving
the live harness; :class:`ReplaySource` answers the same steps from the
worker-recorded probes, replaying each step's
:class:`~repro.parallel.recording.StepTrace` charge by charge.  Same
iteration order, same early stops, same quarantine handling — by
construction, because it *is* the serial code.  Replaying individual
charges in the serial order makes the merged ledger bitwise identical to a
serial run's (float accumulation is order-sensitive), which in turn makes
every ``found_at`` and ``SupervisorEvent.at`` timestamp — both defined as
"ledger total when it happened" — land exactly.

Why the walk never needs a step the workers didn't probe:

* context acquisitions and greedy evaluations are probed unconditionally;
* weighted greedy walks actions in descending cluster weight and stops at
  the first attack.  Any action it visits is either (a) a non-attack, which
  its cluster's probe walked past, or (b) the stopping attack itself, which
  is its cluster's first non-quarantined attack in enumeration order — the
  exact point where the probe stopped.  Quarantined evaluations stop
  neither walk, in lockstep.

A step that is missing anyway is a "coverage hole" :class:`SearchError`,
never a silently shorter report.

The self-healing layer (:mod:`repro.parallel.health`) reuses this pipeline
for poison tasks: a shard that kept killing its workers comes back as
synthetic probes whose traces carry no charges, only ``worker-fault`` +
``quarantine`` events (:meth:`StepTrace.quarantine_only`).  Replay emits
them like any recorded supervision event — the quarantine counter
increments, unknown kinds land in the event log — so a quarantined-by-
crash shard surfaces exactly like a scenario that burned its serial retry
budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.attacks.actions import MaliciousAction
from repro.common.errors import SearchError
from repro.controller.costs import CostLedger
from repro.controller.monitor import PerfSample
from repro.controller.supervisor import (EVENT_QUARANTINE, EVENT_REBUILD,
                                         EVENT_RETRY, EVENT_WATCHDOG,
                                         ScenarioQuarantined, SupervisorEvent,
                                         SupervisorStats)
from repro.parallel.recording import StepTrace
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
    steps is the serial ``_run_pass`` itself.  ``first`` is the recorded
    :class:`~repro.parallel.worker.StartupProbe` (brute force: the
    ``BaselineProbe``); ``probes`` maps message type to ``TypeProbe``
    (brute force: scenario record to ``ScenarioProbe``).  ``instance`` is
    an unbooted testbed — the name/schema/search-type oracle the walk reads
    off its harness; nothing is ever booted or simulated.
    """

    def __init__(self, instance, first, probes: dict, *args,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.harness.instance = instance
        self._first = first
        self._probes = probes
        #: message type -> {action record: EvalProbe} of acquired contexts
        self._evals: Dict[str, dict] = {}
        #: the last replayed step's crashed-node summary: exactly what a
        #: live ``_note_crashes`` would read off the world at this point
        self._crash_lines: List[str] = []

    def _replay(self, probe) -> None:
        """Replay one recorded step; re-raise its quarantine, if any."""
        replay_trace(self.ledger, self.supervisor.stats, probe.trace)
        self._crash_lines = probe.trace.crash_lines
        if probe.quarantined is not None:
            reason, attempts = probe.quarantined
            raise ScenarioQuarantined("replay", None, Exception(reason),
                                      attempts)

    def _note_crashes(self) -> None:
        for line in self._crash_lines:
            self._crashed_seen[line.split(" ", 1)[0]] = line

    def _start_run(self) -> None:
        self._replay(self._first)

    def _acquire_context(self, message_type: str) -> Optional[TypeContext]:
        probe = self._probes.get(message_type)
        if probe is None:
            raise SearchError(f"parallel probe coverage hole: no recorded "
                              f"injection context for {message_type}")
        self._replay(probe.context)
        self._note_crashes()
        if not probe.context.found:
            return None
        self._evals[message_type] = {e.record: e for e in probe.evals}
        # No live injection point: each replayed evaluation supplies the
        # baseline its sample was measured against.
        return TypeContext(message_type, None, None)

    def _measure_action(self, ctx: TypeContext,
                        action: MaliciousAction) -> PerfSample:
        ev = self._evals[ctx.message_type].get(action.to_record())
        if ev is None:
            raise _missing(ctx.message_type, action)
        self._replay(ev)
        ctx.baseline = ev.baseline
        self._note_crashes()
        return ev.sample

    def _measure_baseline(self) -> PerfSample:
        self._replay(self._first)
        return self._first.sample

    def _measure_scenario(self, scenario
                          ) -> Tuple[Optional[float], Optional[PerfSample]]:
        probe = self._probes.get(scenario.to_record())
        if probe is None:
            raise _missing(scenario.message_type, scenario.action)
        self._replay(probe)
        return probe.injected_at, probe.sample


def _missing(message_type: str, action: MaliciousAction) -> SearchError:
    return SearchError(
        f"parallel probe coverage hole: no recorded evaluation of "
        f"{action.describe()} {message_type}")


#: algorithm name -> that algorithm's own walk over a replay source
REPLAYING = {name: type(f"Replaying{cls.__name__}", (ReplaySource, cls), {})
             for name, cls in ALGORITHMS.items()}
