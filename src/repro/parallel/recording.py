"""Charge-level recording, the foundation of deterministic replay.

A prober simulates its steps with a :class:`RecordingLedger`, which
remembers every individual ``(category, seconds)`` charge in order, and a
:class:`RecordingSupervisor`, which remembers *where in the charge log* each
supervision event fired.  The walk then replays those charges — in the
order it asks for the steps — into its own ledger, so its totals are bitwise
identical whoever simulated which step (floating-point accumulation is
order-sensitive; replaying per-charge sidesteps that where summing
per-worker deltas would not), and every ``SupervisorEvent.at`` timestamp
lands on exactly the ledger total it had when the event fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.controller.costs import CostLedger
from repro.controller.supervisor import (EVENT_QUARANTINE,
                                         EVENT_WORKER_FAULT,
                                         ScenarioQuarantined,
                                         ScenarioSupervisor)

#: one supervision event pinned to its charge-log position:
#: (position, kind, op, scenario, error, attempt)
PackedEvent = Tuple[int, str, str, Optional[str], str, int]


class RecordingLedger(CostLedger):
    """A CostLedger that additionally logs every charge in issue order."""

    def __init__(self) -> None:
        super().__init__()
        self.log: List[Tuple[str, float]] = []

    def charge(self, category: str, seconds: float) -> None:
        super().charge(category, seconds)
        self.log.append((category, seconds))


class RecordingSupervisor(ScenarioSupervisor):
    """A supervisor that pins each event to the ledger's charge log.

    ``event_positions[i]`` is the number of charges issued before
    ``stats.events[i]`` was recorded; the merge step uses it to re-emit the
    event at the same point of the replayed charge stream.
    """

    def __init__(self, ledger: RecordingLedger, max_retries: int = 2) -> None:
        super().__init__(ledger, max_retries=max_retries)
        self.event_positions: List[int] = []

    def _record(self, kind, op, scenario, error, attempt):
        self.event_positions.append(len(self.ledger.log))
        return super()._record(kind, op, scenario, error, attempt)


@dataclass
class StepTrace:
    """Everything one supervised step did to platform state.

    ``charges`` are the ledger charges the step issued, in order; ``events``
    are the supervision events it recorded, each pinned to its position in
    ``charges``; ``crash_lines`` is the world's crashed-node summary at the
    end of the step (the crashed nodes the walk reports).
    """

    charges: List[Tuple[str, float]] = field(default_factory=list)
    events: List[PackedEvent] = field(default_factory=list)
    crash_lines: List[str] = field(default_factory=list)

    @classmethod
    def quarantine_only(cls, op: str, scenario: Optional[str], reason: str,
                        attempts: int) -> "StepTrace":
        """A synthetic trace for a step that never ran to completion.

        No charges — just the supervision events the merge replays into
        the ledger: a ``worker-fault`` explaining what happened, then the
        ``quarantine`` that increments the quarantine counter, mirroring
        what a serial supervisor records when a scenario burns its retry
        budget.  Used by :mod:`repro.parallel.health` to hand a poison
        step to the supervision ledger.
        """
        events: List[PackedEvent] = [
            (0, EVENT_WORKER_FAULT, op, scenario, reason, attempts),
            (0, EVENT_QUARANTINE, op, scenario, reason, attempts),
        ]
        return cls(charges=[], events=events, crash_lines=[])


class StepRecorder:
    """Context manager capturing one step of a prober as a :class:`StepTrace`.

    Reads the prober's ``ledger`` (a :class:`RecordingLedger`),
    ``supervisor`` (a :class:`RecordingSupervisor`) and ``harness``.  A
    :class:`ScenarioQuarantined` raised inside the block is swallowed and
    surfaced as ``(reason, attempts)`` on :attr:`quarantined`, for the walk
    to re-raise when it replays the step.
    """

    def __init__(self, prober) -> None:
        self._prober = prober
        self.trace: Optional[StepTrace] = None
        self.quarantined: Optional[Tuple[str, int]] = None

    def __enter__(self) -> "StepRecorder":
        self._c0 = len(self._prober.ledger.log)
        self._e0 = len(self._prober.supervisor.stats.events)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ledger: RecordingLedger = self._prober.ledger
        supervisor: RecordingSupervisor = self._prober.supervisor
        charges = list(ledger.log[self._c0:])
        events: List[PackedEvent] = []
        for position, event in zip(supervisor.event_positions[self._e0:],
                                   supervisor.stats.events[self._e0:]):
            events.append((position - self._c0, event.kind, event.op,
                           event.scenario, event.error, event.attempt))
        crash_lines: List[str] = []
        instance = self._prober.harness.instance
        if instance is not None:
            crash_lines = list(instance.world.crashed_node_summaries())
        self.trace = StepTrace(charges, events, crash_lines)
        # The trace owns the step now.  A prober lives as long as its hunt
        # and nothing else reads these logs: drop what was just sliced.
        del ledger.log[self._c0:]
        del supervisor.event_positions[self._e0:]
        del supervisor.stats.events[self._e0:]
        if isinstance(exc, ScenarioQuarantined):
            self.quarantined = (str(exc.cause), exc.attempts)
            return True
        return False
