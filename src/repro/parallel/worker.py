"""The worker side of parallel search: probe a shard, record everything.

Each worker owns a full testbed built from the same ``(factory, seed)`` as
the serial run.  Because the worlds are deterministic simulations and every
message type's processing starts from a restore of the warm snapshot, the
platform operations a worker performs for its shard — and every ledger
charge they produce — are bitwise identical to what the serial algorithm
would have done for those types.  The worker therefore returns *recorded
traces* (see :mod:`repro.parallel.recording`), not report fragments; the
algorithm's own walk then runs over them in serial order (see
:mod:`repro.parallel.merge`).

Workers are persistent across hunt passes and cache per-``(type, action)``
evaluations: a later pass that re-walks an already-probed action gets the
recorded trace back without re-simulating, which is where the parallel
hunt's wall-clock win comes from on top of sharding.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.attacks.actions import AttackScenario, MaliciousAction
from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import SearchError
from repro.controller.monitor import AttackThreshold, PerfSample
from repro.parallel.recording import (RecordingLedger, RecordingSupervisor,
                                      StepRecorder, StepTrace)
from repro.search.base import SearchAlgorithm, TypeContext, is_attack_sample
from repro.search.brute import BruteForceSearch
from repro.telemetry.tracer import Tracer

#: what a quarantined step collapses to: (reason, attempts)
Quarantine = Optional[Tuple[str, int]]


@dataclass
class ProbeParams:
    """Everything a worker needs to build its search stack (fork-inherited)."""

    algorithm: str = "weighted"        # weighted | greedy | brute
    threshold: Optional[AttackThreshold] = None
    space_config: Optional[ActionSpaceConfig] = None
    max_wait: Optional[float] = None
    shared_pages: bool = True
    delta_snapshots: bool = False
    fault_schedule: Any = None
    watchdog_limit: Optional[int] = None
    max_retries: int = 2
    trace: bool = False
    log_events: bool = False
    #: byte budget bounding each prober's retained per-type contexts
    #: (None = unbounded); see :class:`repro.store.budget.SnapshotBudget`
    snapshot_budget: Optional[int] = None

    @property
    def early_stop(self) -> bool:
        """Weighted greedy stops a cluster at its first attack; greedy
        evaluates everything."""
        return self.algorithm == "weighted"


@dataclass
class StartupProbe:
    trace: StepTrace
    quarantined: Quarantine = None


@dataclass
class ContextProbe:
    """One supervised injection-seek + baseline branch for a type."""

    found: bool
    trace: StepTrace
    quarantined: Quarantine = None


@dataclass
class EvalProbe:
    """One supervised branch-measure of a single action."""

    record: tuple                      # MaliciousAction.to_record()
    baseline: Optional[PerfSample]
    sample: Optional[PerfSample]
    trace: StepTrace
    quarantined: Quarantine = None


@dataclass
class TypeProbe:
    message_type: str
    context: ContextProbe
    evals: List[EvalProbe] = field(default_factory=list)


@dataclass
class BaselineProbe:
    """Brute force's one benign execution."""

    sample: Optional[PerfSample]
    trace: StepTrace
    quarantined: Quarantine = None


@dataclass
class ScenarioProbe:
    """One brute-force scenario: fresh execution, run-to-injection, window."""

    record: tuple                      # AttackScenario.to_record()
    injected_at: Optional[float]
    sample: Optional[PerfSample]
    trace: StepTrace
    quarantined: Quarantine = None


@dataclass
class WorkerReturn:
    """One task's results plus the worker's cumulative accounting."""

    worker: int
    startup: Optional[StartupProbe] = None
    types: List[TypeProbe] = field(default_factory=list)
    baseline: Optional[BaselineProbe] = None
    scenarios: List[ScenarioProbe] = field(default_factory=list)
    #: the worker's own cumulative ledger (side-channel attribution only;
    #: the merged report's ledger is replayed from traces instead)
    by_category: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: worker-side tracer output since the last task (tagged on adoption)
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)
    #: worker-side EventLog records since the last task
    log_records: list = field(default_factory=list)
    #: this worker's cumulative ``snapshot.cache.*`` budget counters
    #: (side-channel, like ``by_category``; empty when unbudgeted)
    budget_counters: Dict[str, float] = field(default_factory=dict)


class WorkerProber:
    """Evaluates shards against one private testbed, recording every step.

    Used in-process (``workers=1`` or no ``fork``) and as the body of a
    forked worker.  All state — the booted world, the warm snapshot, the
    injection-point cache, and the per-action evaluation cache — persists
    across calls, so hunt pass N+1 only simulates actions pass N never
    touched.
    """

    def __init__(self, worker_id: int, factory, seed: int,
                 params: ProbeParams) -> None:
        self.worker_id = worker_id
        self.params = params
        ledger = RecordingLedger()
        self.tracer = Tracer(enabled=True) if params.trace else None
        cls = BruteForceSearch if params.algorithm == "brute" \
            else SearchAlgorithm
        self.search = cls(
            factory, seed=seed, threshold=params.threshold,
            space_config=params.space_config, max_wait=params.max_wait,
            shared_pages=params.shared_pages,
            delta_snapshots=params.delta_snapshots,
            fault_schedule=params.fault_schedule,
            watchdog_limit=params.watchdog_limit,
            max_retries=params.max_retries,
            tracer=self.tracer, log_events=params.log_events,
            ledger=ledger)
        # The recording supervisor must share the recording ledger so event
        # positions index into the same charge log.
        self.search.supervisor = RecordingSupervisor(
            ledger, max_retries=params.max_retries)
        self._startup: Optional[StartupProbe] = None
        self._baseline: Optional[BaselineProbe] = None
        #: message_type -> {"context", "ctx", "evals": {record: EvalProbe}}
        self._types: Dict[str, dict] = {}
        #: duck-typed durable sink (a :class:`repro.store.runstore.RunStore`)
        #: receiving every *fresh* probe; None = no journaling
        self.probe_sink = None
        self.budget = None
        if params.snapshot_budget is not None:
            # Function-level import: repro.store imports this module.
            from repro.store.budget import SnapshotBudget
            self.budget = SnapshotBudget(params.snapshot_budget)
        #: scenario record -> ScenarioProbe (brute)
        self._scenarios: Dict[tuple, ScenarioProbe] = {}
        self._span_mark = 0
        self._event_mark = 0
        self._log_mark = 0

    # ------------------------------------------------------- weighted/greedy

    def _ensure_started(self) -> StartupProbe:
        if self._startup is None:
            with StepRecorder(self.search) as step:
                self.search._start_run()
            self._startup = StartupProbe(step.trace, step.quarantined)
            if self.probe_sink is not None:
                self.probe_sink.journal_startup(self._startup)
        return self._startup

    def probe_types(self, message_types: Sequence[str],
                    exclude: FrozenSet[tuple]
                    ) -> Tuple[StartupProbe, List[TypeProbe]]:
        """Probe every type in the shard: context + the evals the serial
        walk could possibly visit (all of them for greedy; up to each
        cluster's first attack for weighted)."""
        startup = self._ensure_started()
        probes: List[TypeProbe] = []
        if startup.quarantined is not None:
            return startup, probes
        space = self.search._space()
        for message_type in message_types:
            probes.append(self._probe_type(space, message_type, exclude))
        return startup, probes

    def _probe_type(self, space, message_type: str,
                    exclude: FrozenSet[tuple]) -> TypeProbe:
        entry = self._types.get(message_type)
        if entry is None:
            ctx = None
            with StepRecorder(self.search) as step:
                ctx = self.search._acquire_context(message_type)
            context = ContextProbe(found=ctx is not None, trace=step.trace,
                                   quarantined=step.quarantined)
            entry = {"context": context, "ctx": ctx, "evals": {}}
            self._types[message_type] = entry
            if self.probe_sink is not None:
                self.probe_sink.journal_context(message_type, context)
            self._admit_ctx(message_type, entry)
        context = entry["context"]
        evals: List[EvalProbe] = []
        # Gate on the *recorded* outcome, not the live ctx: a journal-seeded
        # or budget-evicted entry has ctx=None but context.found=True, and
        # must still walk (cached evals answer; fresh ones lazily re-acquire).
        if context.quarantined is None and context.found:
            actions = [a for a in space.actions_for(message_type)
                       if AttackScenario(message_type, a).to_record()
                       not in exclude]
            if self.params.early_stop:
                # Group by cluster, preserving enumeration order: the
                # weight-ordered serial walk can never need an action past
                # its cluster's first (non-quarantined) attack, because it
                # would have stopped at that attack first.
                clusters: Dict[str, List[MaliciousAction]] = {}
                for action in actions:
                    clusters.setdefault(action.cluster, []).append(action)
                for group in clusters.values():
                    for action in group:
                        probe = self._eval_action(message_type, entry, action)
                        evals.append(probe)
                        if (probe.quarantined is None
                                and is_attack_sample(self.search.threshold,
                                                     probe.baseline,
                                                     probe.sample)):
                            break
            else:
                for action in actions:
                    evals.append(self._eval_action(message_type, entry,
                                                   action))
        return TypeProbe(message_type, context, evals)

    def _eval_action(self, message_type: str, entry: dict,
                     action: MaliciousAction) -> EvalProbe:
        record = action.to_record()
        probe = entry["evals"].get(record)
        if probe is None:
            if entry["ctx"] is None:
                self._reacquire_context(message_type, entry)
            elif self.budget is not None:
                self.budget.touch(message_type)
            sample = None
            with StepRecorder(self.search) as step:
                sample = self.search._measure_action(entry["ctx"], action)
            # Read the baseline *after* the measurement: a mid-step rebuild
            # refreshes ctx.baseline, and the serial loop compares against
            # the refreshed one.
            baseline = (entry["ctx"].baseline
                        if step.quarantined is None else None)
            probe = EvalProbe(record, baseline,
                              sample if step.quarantined is None else None,
                              step.trace, step.quarantined)
            entry["evals"][record] = probe
            if self.probe_sink is not None:
                self.probe_sink.journal_eval(message_type, probe)
        return probe

    def _reacquire_context(self, message_type: str, entry: dict) -> None:
        """Re-derive a seeded/evicted type's live injection context.

        Runs **off the books**: outside any :class:`StepRecorder`, so none
        of its ledger charges enter recorded traces — the merged report
        stays byte-identical to a run that never lost the context.  The
        deterministic world reproduces the identical injection point from
        the warm state; losing it now means the world diverged, which is a
        hard error rather than a quietly different report.
        """
        search = self.search
        before = search.ledger.total()
        if self.budget is not None:
            self.budget.miss()
        try:
            injection = search._seek_injection(message_type)
            if injection is None:
                raise SearchError(
                    f"injection point for {message_type} disappeared on "
                    f"re-acquisition; deterministic world diverged")
            baseline = search.harness.branch_measure(injection, None)
        finally:
            if self.budget is not None:
                self.budget.note_rebuild(search.ledger.total() - before)
        entry["ctx"] = TypeContext(message_type, injection, baseline)
        self._admit_ctx(message_type, entry)

    def _admit_ctx(self, message_type: str, entry: dict) -> None:
        if self.budget is None or entry["ctx"] is None:
            return
        size = (entry["ctx"].injection.snapshot
                .cluster_snapshot.stored_bytes())
        self.budget.admit(message_type, size, self._evict_ctx)

    def _evict_ctx(self, message_type: str) -> None:
        entry = self._types.get(message_type)
        if entry is not None:
            entry["ctx"] = None

    # ----------------------------------------------------------------- brute

    def probe_brute(self, scenario_records: Sequence[tuple],
                    include_baseline: bool
                    ) -> Tuple[Optional[BaselineProbe], List[ScenarioProbe]]:
        baseline = None
        if include_baseline:
            if self._baseline is None:
                sample = None
                with StepRecorder(self.search) as step:
                    sample = self.search._measure_baseline()
                self._baseline = BaselineProbe(
                    sample if step.quarantined is None else None,
                    step.trace, step.quarantined)
            baseline = self._baseline
        probes: List[ScenarioProbe] = []
        for record in scenario_records:
            probe = self._scenarios.get(record)
            if probe is None:
                scenario = AttackScenario.from_record(record)
                injected_at = sample = None
                with StepRecorder(self.search) as step:
                    injected_at, sample = self.search._measure_scenario(
                        scenario)
                probe = ScenarioProbe(record, injected_at, sample,
                                      step.trace, step.quarantined)
                self._scenarios[record] = probe
            probes.append(probe)
        return baseline, probes

    # ------------------------------------------------------------- packaging

    def _drain_telemetry(self) -> Tuple[list, list, list]:
        spans: list = []
        events: list = []
        log_records: list = []
        if self.tracer is not None:
            spans = self.tracer.spans[self._span_mark:]
            events = self.tracer.events[self._event_mark:]
            self._span_mark = len(self.tracer.spans)
            self._event_mark = len(self.tracer.events)
        if self.params.log_events:
            instance = self.search.harness.instance
            records = (instance.world.log.records
                       if instance is not None else [])
            if self.params.algorithm == "brute":
                # Brute replaces its world per scenario; ship the final
                # world's records, matching what the serial CLI exports.
                log_records = list(records)
            else:
                log_records = records[self._log_mark:]
                self._log_mark = len(records)
        return spans, events, log_records

    def package(self, startup: Optional[StartupProbe] = None,
                types: Sequence[TypeProbe] = (),
                baseline: Optional[BaselineProbe] = None,
                scenarios: Sequence[ScenarioProbe] = ()) -> WorkerReturn:
        spans, events, log_records = self._drain_telemetry()
        return WorkerReturn(
            worker=self.worker_id, startup=startup, types=list(types),
            baseline=baseline, scenarios=list(scenarios),
            by_category=dict(self.search.ledger.by_category),
            spans=spans, events=events, log_records=log_records,
            budget_counters=(dict(self.budget.counters())
                             if self.budget is not None else {}))


def _maybe_inject_chaos(worker_id: int) -> None:
    """Deterministic fault injection for the self-healing layer's tests.

    ``REPRO_WORKER_CHAOS`` is ``kill:<worker>:<flag-file>`` or
    ``hang:<worker>:<flag-file>:<seconds>``; ``<worker>`` may be ``*`` to
    target every worker (the pool-collapse case).  The fault fires in the
    named worker right after it receives a task; the flag file is written
    *before* firing, so the fault disarms itself once — an empty flag path
    means fire every time (the poison-task case).  This lives in the worker
    so the chaos smoke in CI exercises the real crash path (SIGKILL,
    nothing flushed) rather than a simulated one.
    """
    spec = os.environ.get("REPRO_WORKER_CHAOS")
    if not spec:
        return
    parts = spec.split(":")
    if len(parts) < 3 or parts[1] not in (str(worker_id), "*"):
        return
    mode, __, flag = parts[0], parts[1], parts[2]
    if flag:
        if os.path.exists(flag):
            return  # already fired once
        with open(flag, "w") as handle:
            handle.write("fired\n")
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        time.sleep(float(parts[3]) if len(parts) > 3 else 3600.0)


def worker_main(conn, worker_id: int, factory, seed: int,
                params: ProbeParams) -> None:
    """Forked worker loop: build the prober lazily, serve tasks until
    ``stop`` (or the pipe closes)."""
    prober = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message[0] == "stop":
                break
            _maybe_inject_chaos(worker_id)
            started = time.perf_counter()
            try:
                if prober is None:
                    prober = WorkerProber(worker_id, factory, seed, params)
                if message[0] == "probe":
                    __, message_types, exclude = message
                    startup, probes = prober.probe_types(message_types,
                                                         exclude)
                    payload = prober.package(startup=startup, types=probes)
                elif message[0] == "brute":
                    __, records, include_baseline = message
                    baseline, probes = prober.probe_brute(records,
                                                          include_baseline)
                    payload = prober.package(baseline=baseline,
                                             scenarios=probes)
                else:
                    raise ValueError(f"unknown worker command {message[0]!r}")
                payload.wall_seconds = time.perf_counter() - started
                conn.send(("ok", payload))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    except KeyboardInterrupt:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
