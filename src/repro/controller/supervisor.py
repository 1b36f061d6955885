"""The supervision layer: classify-retry-quarantine for long hunts.

Turret's value is long unattended attack-finding campaigns, yet a platform
fault anywhere in a pass — a snapshot that fails to restore, a simulation
inconsistency mid-window, a livelocked event storm tripping the kernel
watchdog — would otherwise abort the whole hunt and throw away every
scenario evaluated so far.  This module makes the harness itself
fault-tolerant:

* :class:`FaultPlan` — a deterministic platform fault-injection plan,
  driven by :mod:`repro.common.rng` and keyed by the probe being
  simulated, that makes snapshot save/restore, boot, and proxy operations
  fail at configured rates (capped per probe).
  It exists so the recovery paths below are *provable* in tests rather
  than exercised only when real hardware misbehaves.
* :class:`ScenarioSupervisor` — wraps every branch-measure and
  injection-seek in classify-retry-quarantine logic.  Transient platform
  errors get bounded retries (with a fresh testbed rebuild between
  attempts, charged to the ledger under the ``retry``/``rebuild``
  categories); persistent failures quarantine the scenario as
  ``inconclusive`` instead of killing the pass.

Error taxonomy (what counts as transient):

=================  ==========================================================
transient          ``SnapshotError``, ``SimulationError`` (including
                   ``WatchdogTimeout``), ``NetworkError``, ``ProxyError`` —
                   platform operations that a rebuilt testbed can redo
fatal              ``ConfigError``, ``SearchError``, ``WireFormatError``,
                   and any non-Turret exception — retrying cannot help
=================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.errors import (NetworkError, ProxyError, SimulationError,
                                 SnapshotError, TurretError, WatchdogTimeout)
from repro.common.rng import RandomStream
from repro.controller.costs import RETRY, CostLedger

# Platform operations a fault plan can target.
OP_BOOT = "boot"
OP_SNAPSHOT_SAVE = "snapshot_save"
OP_SNAPSHOT_RESTORE = "snapshot_restore"
OP_PROXY = "proxy"

FAULT_OPS = (OP_BOOT, OP_SNAPSHOT_SAVE, OP_SNAPSHOT_RESTORE, OP_PROXY)

#: error type an injected fault surfaces as, per operation — real platform
#: error classes, so the supervisor cannot tell injected faults from real
#: ones (which is the point).
_ERROR_FOR_OP = {
    OP_BOOT: SimulationError,
    OP_SNAPSHOT_SAVE: SnapshotError,
    OP_SNAPSHOT_RESTORE: SnapshotError,
    OP_PROXY: ProxyError,
}

#: exception classes the supervisor is allowed to retry
TRANSIENT_ERRORS = (SnapshotError, SimulationError, NetworkError, ProxyError)

# Supervisor event kinds.
EVENT_RETRY = "retry"
EVENT_REBUILD = "rebuild"
EVENT_QUARANTINE = "quarantine"
EVENT_WATCHDOG = "watchdog"
#: a parallel worker process died (crash or blown deadline) — emitted by
#: the health layer (:mod:`repro.parallel.health`) into the supervision
#: event log when a poison task is quarantined, so the ledger shows *why*
#: the scenario was set aside.  No counter: it always precedes an
#: ``EVENT_QUARANTINE`` that increments ``quarantines``.
EVENT_WORKER_FAULT = "worker-fault"


class ScenarioQuarantined(TurretError):
    """A scenario exhausted its retries and was set aside as inconclusive.

    Raised by :meth:`ScenarioSupervisor.run` so search loops can record the
    quarantine and move on; it never escapes a supervised search pass.
    """

    def __init__(self, op: str, scenario: Optional[str], cause: Exception,
                 attempts: int) -> None:
        self.op = op
        self.scenario = scenario
        self.cause = cause
        self.attempts = attempts
        super().__init__(
            f"quarantined {scenario or op} after {attempts} attempts: {cause}")


@dataclass
class FaultPlan:
    """Deterministic plan for injecting platform faults, keyed by probe.

    The prober names each probe before simulating it (:meth:`begin`) by
    the key the probe cache files it under — ``("startup",)``,
    ``("context", type)``, ``("eval", type, action record)`` or
    ``("baseline",)`` — and every check until the next :meth:`begin`
    draws from a private :class:`RandomStream` forked for that key,
    restarted at its first draw.  Which operations fault is therefore a
    pure function of what is simulated, not of the order probes run in or
    of who runs them: a forked worker, a resumed hunt and a second ask of
    a recorded probe all see the faults the first simulation saw.  The
    draws never perturb the experiment's own randomness, so the attack set
    found under a plan is the fault-free one as long as every scenario
    survives quarantine.  ``max_faults`` caps the failures injected into
    one probe, which makes recovery tests terminate provably.
    """

    seed: int = 0
    boot_rate: float = 0.0
    snapshot_save_rate: float = 0.0
    snapshot_restore_rate: float = 0.0
    proxy_rate: float = 0.0
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        self.begin(())

    def begin(self, key: tuple) -> None:
        """Restart the draws for the probe ``key``."""
        self._stream = RandomStream(self.seed, "fault-plan").fork(repr(key))
        self._faults = 0

    def _rate(self, operation: str) -> float:
        return {
            OP_BOOT: self.boot_rate,
            OP_SNAPSHOT_SAVE: self.snapshot_save_rate,
            OP_SNAPSHOT_RESTORE: self.snapshot_restore_rate,
            OP_PROXY: self.proxy_rate,
        }[operation]

    def check(self, operation: str) -> None:
        """Fail ``operation`` (by raising its platform error) per the plan.

        Every check of a targeted operation consumes one draw regardless
        of outcome, so a probe's faults are a pure function of the plan's
        seed, the probe's key and the operations it attempts.
        """
        rate = self._rate(operation)
        if rate <= 0.0:
            return
        draw = self._stream.random()
        if draw >= rate:
            return
        if self.max_faults is not None and self._faults >= self.max_faults:
            return
        self._faults += 1
        raise _ERROR_FOR_OP[operation](
            f"[injected fault #{self._faults}] {operation} failed "
            f"(plan seed {self.seed})")

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"restore=0.1,save=0.05,boot=0.02,proxy=0.01,max=5"``."""
        from repro.common.errors import ConfigError
        keys = {"boot": "boot_rate", "save": "snapshot_save_rate",
                "restore": "snapshot_restore_rate", "proxy": "proxy_rate"}
        kwargs: Dict[str, object] = {"seed": seed}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                key, value = part.split("=", 1)
            except ValueError:
                raise ConfigError(
                    f"bad fault spec element {part!r} "
                    "(expected key=value)") from None
            key = key.strip()
            if key == "max":
                kwargs["max_faults"] = int(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key in keys:
                kwargs[keys[key]] = float(value)
            else:
                raise ConfigError(
                    f"unknown fault spec key {key!r}; expected one of "
                    f"{sorted(keys)} + ['max', 'seed']")
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        rates = ", ".join(f"{op}={self._rate(op):.0%}" for op in FAULT_OPS
                          if self._rate(op) > 0)
        cap = (f", max {self.max_faults} per probe"
               if self.max_faults is not None else "")
        return f"fault plan(seed {self.seed}: {rates or 'no faults'}{cap})"


@dataclass
class SupervisorEvent:
    """One recorded supervision decision (retry, rebuild, quarantine...)."""

    kind: str                     # retry | rebuild | quarantine | watchdog
    op: str                       # the platform operation being attempted
    scenario: Optional[str]       # human-readable scenario, if any
    error: str                    # stringified cause
    attempt: int                  # 1-based attempt number that failed
    at: float                     # ledger total when the event occurred

    def describe(self) -> str:
        what = f" [{self.scenario}]" if self.scenario else ""
        return (f"{self.kind} {self.op}{what} attempt {self.attempt} "
                f"at {self.at:.1f}s: {self.error}")


@dataclass
class QuarantinedScenario:
    """A scenario set aside as inconclusive after persistent faults."""

    message_type: str
    action_record: Optional[tuple]    # None: the injection-seek itself failed
    reason: str
    attempts: int
    verdict: str = "inconclusive"

    def describe(self) -> str:
        target = (f"{self.message_type}" if self.action_record is None
                  else f"{self.message_type} action {self.action_record!r}")
        return (f"[{self.verdict.upper()}] {target}: {self.reason} "
                f"({self.attempts} attempts)")


@dataclass
class SupervisorStats:
    """Aggregate counters plus the full event log of one supervised run."""

    retries: int = 0
    rebuilds: int = 0
    quarantines: int = 0
    watchdog_trips: int = 0
    events: List[SupervisorEvent] = field(default_factory=list)

    def merge(self, other: "SupervisorStats") -> None:
        self.retries += other.retries
        self.rebuilds += other.rebuilds
        self.quarantines += other.quarantines
        self.watchdog_trips += other.watchdog_trips
        self.events.extend(other.events)

    @property
    def total_events(self) -> int:
        return len(self.events)

    def describe(self) -> str:
        return (f"supervision: {self.retries} retries, "
                f"{self.rebuilds} rebuilds, {self.quarantines} quarantines, "
                f"{self.watchdog_trips} watchdog trips")


class ScenarioSupervisor:
    """Classify-retry-quarantine wrapper around platform operations.

    One supervisor lives on each :class:`~repro.parallel.worker.WorkerProber`
    and guards every step it simulates.  Transient failures
    (see module docstring) are retried up to ``max_retries`` times; between
    attempts the optional ``rebuild`` callback replaces the testbed (the
    caller charges that to the ledger's ``rebuild`` category).  When the
    attempts are exhausted, :class:`ScenarioQuarantined` is raised for the
    search loop to record.
    """

    #: modelled seconds for classifying a fault and tearing the attempt down
    DEFAULT_RETRY_OVERHEAD = 0.05

    def __init__(self, ledger: CostLedger, max_retries: int = 2,
                 retry_overhead: Optional[float] = None) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.ledger = ledger
        self.max_retries = max_retries
        self.retry_overhead = (self.DEFAULT_RETRY_OVERHEAD
                               if retry_overhead is None else retry_overhead)
        self.stats = SupervisorStats()

    # -------------------------------------------------------- classification

    @staticmethod
    def is_transient(exc: BaseException) -> bool:
        return isinstance(exc, TRANSIENT_ERRORS)

    # ------------------------------------------------------------- recording

    def _record(self, kind: str, op: str, scenario: Optional[str],
                error: Exception, attempt: int) -> SupervisorEvent:
        event = SupervisorEvent(kind, op, scenario, str(error), attempt,
                                at=self.ledger.total())
        self.stats.events.append(event)
        return event

    # ------------------------------------------------------------ supervise

    def run(self, op: str, fn: Callable[[], object],
            rebuild: Optional[Callable[[], None]] = None,
            scenario: Optional[str] = None):
        """Run ``fn`` under supervision; return its result.

        Raises :class:`ScenarioQuarantined` once ``max_retries`` transient
        failures have been burned, and re-raises fatal errors immediately.
        ``rebuild`` failures (e.g. an injected boot fault) count as
        attempts too, so a fault plan cannot livelock the supervisor.
        """
        attempt = 0
        need_rebuild = False
        while True:
            try:
                if need_rebuild and rebuild is not None:
                    self.stats.rebuilds += 1
                    self._record(EVENT_REBUILD, op, scenario,
                                 Exception("rebuilding testbed"), attempt)
                    rebuild()
                need_rebuild = False
                return fn()
            except ScenarioQuarantined:
                raise
            except Exception as exc:
                if not self.is_transient(exc):
                    raise
                attempt += 1
                if isinstance(exc, WatchdogTimeout):
                    self.stats.watchdog_trips += 1
                    self._record(EVENT_WATCHDOG, op, scenario, exc, attempt)
                self.stats.retries += 1
                self.ledger.charge(RETRY, self.retry_overhead)
                self._record(EVENT_RETRY, op, scenario, exc, attempt)
                if attempt > self.max_retries:
                    self.stats.quarantines += 1
                    self._record(EVENT_QUARANTINE, op, scenario, exc, attempt)
                    raise ScenarioQuarantined(op, scenario, exc,
                                              attempt) from exc
                need_rebuild = True
