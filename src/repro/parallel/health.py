"""Self-healing for the parallel worker pool.

The executor's workers are ordinary processes: they can crash (the OOM
killer, a segfault in a native extension, an operator's stray ``kill``) or
hang (a runaway loop, a wedged syscall).  Either fate used to abort the
entire hunt — unacceptable for campaign-length searches.  This module turns
worker fate into a recoverable event:

* **deadlines** — result collection polls with a wall-clock deadline per
  in-flight step instead of blocking on ``recv()`` forever;
* **crash and hang detection** — a dead pipe (``EOFError`` /
  ``BrokenPipeError`` on send *or* recv) or a blown deadline marks the
  worker failed; the process is killed and reaped;
* **deterministic replay** — a worker is a pure function of
  ``(worker_index, factory, seed, params)`` and a step is a pure function
  of the hunt, so the lost step goes back to the head of the queue and
  whoever runs it next records *the same traces* the dead worker would
  have recorded.  The merged report therefore stays byte-identical to the
  serial run, and the startup-trace cross-check extends to respawned
  workers for free;
* **bounded restarts** — each worker slot has a retry budget with capped
  exponential backoff; an exhausted slot is retired, and the survivors
  simply pull what is left.  When no survivors remain the executor
  degrades to its parent-side prober instead of aborting;
* **poison quarantine** — a step that kills ``poison_crashes`` workers is
  handed to the supervision ledger as quarantined, through the same
  ``EVENT_QUARANTINE`` machinery serial passes use, so one pathological
  scenario cannot sink a hunt;
* **telemetry** — restarts, timeouts, requeued steps, and per-worker
  liveness are tracked in an :class:`InstrumentRegistry` and surfaced as a
  :class:`WorkerHealthReport`.

The health report is a **side channel**, like
:class:`~repro.controller.costs.WorkerAttribution`: worker fate depends on
wall-clock scheduling, so it must stay out of the deterministic report —
serializing it into the merged JSON would break the byte-identity contract
the whole parallel layer is built on.  It is rendered in human-facing text
and markdown, and exported as its own JSON artifact via
``--worker-health``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.attacks.actions import AttackScenario, MaliciousAction
from repro.parallel.recording import StepTrace
from repro.parallel.worker import (BaselineProbe, ContextProbe, EvalProbe,
                                   Step, WorkerReturn)
from repro.telemetry.instruments import InstrumentRegistry
from repro.telemetry.tracer import Tracer

#: worker failure kinds
FAIL_CRASH = "crash"          # dead pipe: EOF/BrokenPipe on recv or send
FAIL_TIMEOUT = "timeout"      # per-step deadline expired; process killed


@dataclass
class HealthPolicy:
    """Tunable knobs of the self-healing layer.

    ``task_timeout`` is *per step* (one type's injection seek, one
    cluster's walk or greedy action, brute force's baseline) — the unit a
    worker is sent.  ``None`` disables hang detection (crash detection
    via the pipe is always on).
    """

    #: wall-clock seconds allowed per step; None = no deadline
    task_timeout: Optional[float] = None
    #: respawns allowed per worker slot before it is retired
    worker_retries: int = 2
    #: degrade to the parent-side prober when every worker is gone
    #: (False: raise SearchError instead)
    degrade: bool = True
    #: crashes a single step may cause before it is quarantined as poison
    poison_crashes: int = 3
    #: exponential-backoff base/cap between respawns of the same slot
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: result-collection poll tick
    poll_interval: float = 0.25

    def deadline_for(self, units: int = 1) -> Optional[float]:
        """Wall-clock budget for ``units`` steps (one is in flight)."""
        if self.task_timeout is None:
            return None
        return self.task_timeout * max(1, units)

    def backoff_for(self, restarts: int) -> float:
        """Sleep before the ``restarts``-th respawn of a slot (0-based)."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** restarts))


@dataclass
class WorkerHealth:
    """One worker slot's fate over the executor's lifetime."""

    worker: int
    restarts: int = 0
    crashes: int = 0
    timeouts: int = 0
    #: steps this worker lost and put back on the queue while it could
    #: still be respawned ...
    tasks_replayed: int = 0
    #: ... and once it was retired
    units_reassigned: int = 0
    alive: bool = True
    retired: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker, "restarts": self.restarts,
            "crashes": self.crashes, "timeouts": self.timeouts,
            "tasks_replayed": self.tasks_replayed,
            "units_reassigned": self.units_reassigned,
            "alive": self.alive, "retired": self.retired,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkerHealth":
        return cls(data["worker"], data.get("restarts", 0),
                   data.get("crashes", 0), data.get("timeouts", 0),
                   data.get("tasks_replayed", 0),
                   data.get("units_reassigned", 0),
                   data.get("alive", True), data.get("retired", False))


@dataclass
class WorkerHealthReport:
    """What the self-healing layer did across a pass or a whole hunt."""

    workers: List[WorkerHealth] = field(default_factory=list)
    #: poison steps handed to the quarantine ledger, as human-readable labels
    quarantined_tasks: List[str] = field(default_factory=list)
    #: the pool collapsed and the executor fell back to in-process probing
    degraded: bool = False
    #: recovery decisions in order, as human-readable lines
    events: List[str] = field(default_factory=list)
    #: instrument snapshot (``parallel.worker.*`` counters and gauges)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    @property
    def restarts(self) -> int:
        return sum(w.restarts for w in self.workers)

    @property
    def crashes(self) -> int:
        return sum(w.crashes for w in self.workers)

    @property
    def timeouts(self) -> int:
        return sum(w.timeouts for w in self.workers)

    @property
    def reassignments(self) -> int:
        return sum(1 for w in self.workers if w.units_reassigned)

    @property
    def eventful(self) -> bool:
        """Did any worker ever misbehave?  Clean runs stay silent so a
        parallel run's human output matches a serial run's."""
        return bool(self.crashes or self.timeouts or self.restarts
                    or self.quarantined_tasks or self.degraded)

    def one_line(self) -> str:
        parts = [f"{self.crashes} crashes", f"{self.timeouts} timeouts",
                 f"{self.restarts} restarts",
                 f"{self.reassignments} reassigned workers",
                 f"{len(self.quarantined_tasks)} poison quarantines"]
        line = "worker health: " + ", ".join(parts)
        if self.degraded:
            line += " — pool collapsed, degraded to in-process"
        return line

    def markdown_lines(self) -> List[str]:
        lines = ["", "## Worker health", "",
                 f"* crashes: {self.crashes} (timeouts: {self.timeouts})",
                 f"* restarts: {self.restarts}",
                 f"* poison quarantines: {len(self.quarantined_tasks)}"]
        if self.degraded:
            lines.append("* **pool collapsed — degraded to in-process "
                         "execution**")
        if self.workers:
            lines.append("")
            lines.append("| worker | restarts | crashes | timeouts "
                         "| replayed | status |")
            lines.append("|---|---|---|---|---|---|")
            for w in self.workers:
                status = ("retired" if w.retired
                          else "alive" if w.alive else "down")
                lines.append(f"| {w.worker} | {w.restarts} | {w.crashes} "
                             f"| {w.timeouts} | {w.tasks_replayed} "
                             f"| {status} |")
        for label in self.quarantined_tasks:
            lines.append(f"* quarantined: {label}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "restarts": self.restarts, "crashes": self.crashes,
            "timeouts": self.timeouts,
            "reassignments": self.reassignments,
            "degraded": self.degraded,
            "quarantined_tasks": list(self.quarantined_tasks),
            "workers": [w.to_dict() for w in self.workers],
            "events": list(self.events),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkerHealthReport":
        return cls(
            workers=[WorkerHealth.from_dict(w)
                     for w in data.get("workers", [])],
            quarantined_tasks=list(data.get("quarantined_tasks", [])),
            degraded=data.get("degraded", False),
            events=list(data.get("events", [])),
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})))


class HealthMonitor:
    """Bookkeeping for the executor's recovery decisions.

    The monitor owns its own always-on :class:`InstrumentRegistry` rather
    than the world-side one: worker fate is platform state (never rewound,
    never serialized into the deterministic report), exactly like the
    tracer.  Spans for kill/respawn/replay go to the executor's tracer at
    the call sites; the monitor records the counters and the narrative.
    """

    def __init__(self, policy: HealthPolicy, workers: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.policy = policy
        self.pool_size = workers
        self.tracer = tracer
        self.registry = InstrumentRegistry(enabled=True)
        self._workers: Dict[int, WorkerHealth] = {}
        self._task_crashes: Dict[object, int] = {}
        self._quarantined: List[str] = []
        self._events: List[str] = []
        self._degraded = False

    # ------------------------------------------------------------- recording

    def state(self, worker: int) -> WorkerHealth:
        health = self._workers.get(worker)
        if health is None:
            health = self._workers[worker] = WorkerHealth(worker)
        return health

    def _note(self, line: str) -> None:
        self._events.append(line)

    def record_spawn(self, worker: int) -> None:
        self.state(worker).alive = True
        self.registry.gauge(f"parallel.worker.{worker}.alive", 1)

    def record_failure(self, worker: int, kind: str, detail: str) -> None:
        health = self.state(worker)
        health.alive = False
        if kind == FAIL_TIMEOUT:
            health.timeouts += 1
            self.registry.count("parallel.worker.timeouts")
        health.crashes += 1
        self.registry.count("parallel.worker.crashes")
        self.registry.gauge(f"parallel.worker.{worker}.alive", 0)
        self._note(f"worker {worker} {kind}: {detail}")

    def allow_restart(self, worker: int) -> bool:
        return self.state(worker).restarts < self.policy.worker_retries

    def record_restart(self, worker: int) -> float:
        """Count one respawn of ``worker``; return the backoff to sleep."""
        health = self.state(worker)
        delay = self.policy.backoff_for(health.restarts)
        health.restarts += 1
        self.registry.count("parallel.worker.restarts")
        self._note(f"worker {worker} respawned "
                   f"(restart {health.restarts}/{self.policy.worker_retries},"
                   f" backoff {delay:.2f}s)")
        return delay

    def record_replay(self, worker: int) -> None:
        """Count one step ``worker`` lost and put back on the queue, for
        whoever is idle next: a replay, or a reassignment once the worker
        is retired."""
        health = self.state(worker)
        if health.retired:
            health.units_reassigned += 1
            self.registry.count("parallel.task.reassignments")
        else:
            health.tasks_replayed += 1
            self.registry.count("parallel.task.replays")
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant("executor.task.replay", worker=worker,
                                retired=health.retired)

    def retire(self, worker: int) -> None:
        health = self.state(worker)
        if not health.retired:
            health.retired = True
            self.registry.count("parallel.worker.retirements")
            self._note(f"worker {worker} retired "
                       f"(restart budget {self.policy.worker_retries} spent)")

    def is_retired(self, worker: int) -> bool:
        health = self._workers.get(worker)
        return health is not None and health.retired

    def note_task_crash(self, key: object) -> int:
        """Count one worker killed by this step; return the running total."""
        count = self._task_crashes.get(key, 0) + 1
        self._task_crashes[key] = count
        return count

    def is_poison(self, key: object) -> bool:
        return self._task_crashes.get(key, 0) >= self.policy.poison_crashes

    def record_quarantine(self, label: str, crashes: int) -> None:
        self._quarantined.append(label)
        self.registry.count("parallel.task.quarantines")
        self._note(f"poison step quarantined after killing {crashes} "
                   f"workers: {label}")

    def record_degraded(self) -> None:
        self._degraded = True
        self.registry.count("parallel.pool.collapses")
        self._note("worker pool collapsed; degraded to in-process probing")

    # --------------------------------------------------------------- reading

    @property
    def eventful(self) -> bool:
        return self.report().eventful

    def report(self) -> WorkerHealthReport:
        return WorkerHealthReport(
            workers=[self._workers[w] for w in sorted(self._workers)],
            quarantined_tasks=list(self._quarantined),
            degraded=self._degraded,
            events=list(self._events),
            counters=self.registry.counters(),
            gauges=self.registry.gauges())

    def report_if_eventful(self) -> Optional[WorkerHealthReport]:
        report = self.report()
        return report if report.eventful else None


# -------------------------------------------------------- poison quarantine

def quarantined_return(worker: int, step: Step, reason: str,
                       attempts: int) -> WorkerReturn:
    """Synthesize the :class:`WorkerReturn` of a poison step.

    Every probe the step would have recorded — short of those it was
    shipped as already recorded — collapses to a quarantined one whose
    trace carries no charges: just the ``EVENT_WORKER_FAULT`` +
    ``EVENT_QUARANTINE`` events the merge replays into the supervision
    ledger, exactly where a serial pass would have recorded a scenario
    that burned its retry budget.  (A poison ``startup`` step, a
    cross-check, records nothing.)
    """
    quarantined = (reason, attempts)
    op = f"worker:{worker}"
    ret = WorkerReturn(worker=worker)

    def trace(label: str) -> StepTrace:
        return StepTrace.quarantine_only(op, label, reason, attempts)

    if step.kind == "context":
        ret.context = ContextProbe(found=False,
                                   trace=trace(step.message_type),
                                   quarantined=quarantined)
    elif step.kind == "evals":
        known = {probe.record for probe in step.known}
        for record in step.records:
            if record not in known:
                label = AttackScenario(
                    step.message_type,
                    MaliciousAction.from_record(record)).describe()
                ret.evals.append(EvalProbe(record, None, None, trace(label),
                                           quarantined))
    elif step.kind == "baseline":
        ret.baseline = BaselineProbe(None, trace("baseline"), quarantined)
    return ret


__all__ = [
    "FAIL_CRASH",
    "FAIL_TIMEOUT",
    "HealthMonitor",
    "HealthPolicy",
    "WorkerHealth",
    "WorkerHealthReport",
    "quarantined_return",
]
