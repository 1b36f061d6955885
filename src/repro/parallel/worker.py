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

Workers are persistent across hunt passes and keep every recorded probe in
one :class:`ProbeCache`: a later pass that re-walks an already-probed action
gets the recorded trace back without re-simulating, which is where the
parallel hunt's wall-clock win comes from on top of sharding.  The cache is
also what ``hunt --store`` persists (see :mod:`repro.store.runstore`), and
it owns the one statement of which evaluations a pass can need
(:meth:`ProbeCache.walk`).

What a prober does *not* keep is live testbed state per type: it holds one
:class:`~repro.search.base.TypeContext` — the type it last simulated — the
way the serial engine does.  A fresh evaluation of any other type re-derives
its injection point from the warm snapshot, off the books
(:meth:`WorkerProber._reacquire_context`).
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

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


class ProbeCache:
    """Every probe recorded so far, keyed the way the walks look it up.

    The one home of recorded probes: a :class:`WorkerProber` fills and
    reads it, and a :class:`~repro.store.runstore.RunStore` is its
    persistence — loaded from the journal, with ``commit`` appending each
    new probe to the journal before the cache admits it.  It also owns the
    one statement of which evaluations a pass can need (:meth:`walk`).
    """

    def __init__(self) -> None:
        #: the first startup recorded: the reference every later boot of
        #: the same ``(factory, seed)`` is cross-checked against
        self.startup: Optional[StartupProbe] = None
        self.contexts: Dict[str, ContextProbe] = {}
        #: message type -> {action record: EvalProbe}
        self.evals: Dict[str, Dict[tuple, EvalProbe]] = {}
        #: brute force's benign execution and per-scenario probes
        self.baseline: Optional[BaselineProbe] = None
        self.scenarios: Dict[tuple, ScenarioProbe] = {}
        #: ``commit(kind, message_type, probe)`` runs before a *new*
        #: startup/context/eval probe is admitted (default: memory only)
        self.commit: Callable[[str, Optional[str], Any], None] = (
            lambda kind, message_type, probe: None)

    def add_startup(self, probe: StartupProbe) -> None:
        if self.startup is None:
            self.commit("startup", None, probe)
            self.startup = probe

    def add_context(self, message_type: str, probe: ContextProbe) -> None:
        if message_type not in self.contexts:
            self.commit("context", message_type, probe)
            self.contexts[message_type] = probe

    def add_eval(self, message_type: str, probe: EvalProbe) -> None:
        evals = self.evals.setdefault(message_type, {})
        if probe.record not in evals:
            self.commit("eval", message_type, probe)
            evals[probe.record] = probe

    def add_type(self, probe: TypeProbe) -> None:
        """Admit a whole TypeProbe (a forked worker's return)."""
        self.add_context(probe.message_type, probe.context)
        for ev in probe.evals:
            self.add_eval(probe.message_type, ev)

    def walk(self, message_type: str, actions: Sequence[MaliciousAction],
             threshold: AttackThreshold, early_stop: bool,
             acquire: Optional[Callable[[str], ContextProbe]] = None,
             measure: Optional[Callable[[str, MaliciousAction],
                                        EvalProbe]] = None
             ) -> Optional[TypeProbe]:
        """The probes a pass over ``actions`` can need — the superset rule.

        Context first; then every action for greedy, and for weighted
        (``early_stop``) each cluster in enumeration order up to its first
        non-quarantined attack: the weight-ordered serial walk can never
        need an action past that one, because it would have stopped there
        first — whatever the weights.

        A miss is answered by ``acquire(message_type)`` / ``measure(
        message_type, action)`` and admitted (the prober simulating); with
        neither given the first miss returns None — "the cache alone does
        not cover this type".
        """
        context = self.contexts.get(message_type)
        if context is None:
            if acquire is None:
                return None
            context = acquire(message_type)
            self.add_context(message_type, context)
        evals: List[EvalProbe] = []
        if context.quarantined is not None or not context.found:
            return TypeProbe(message_type, context, evals)
        groups: Dict[str, List[MaliciousAction]] = {}
        for action in actions:
            groups.setdefault(action.cluster if early_stop else "",
                              []).append(action)
        known = self.evals.setdefault(message_type, {})
        for group in groups.values():
            for action in group:
                probe = known.get(action.to_record())
                if probe is None:
                    if measure is None:
                        return None
                    probe = measure(message_type, action)
                    self.add_eval(message_type, probe)
                evals.append(probe)
                if (early_stop and probe.quarantined is None
                        and is_attack_sample(threshold, probe.baseline,
                                             probe.sample)):
                    break
        return TypeProbe(message_type, context, evals)


class WorkerProber:
    """Evaluates shards against one private testbed, recording every step.

    Used in-process (``workers=1`` or no ``fork``) and as the body of a
    forked worker.  The booted world, the warm snapshot, and the
    :class:`ProbeCache` persist across calls, so hunt pass N+1 only
    simulates actions pass N never touched.  ``cache`` hands the prober an
    existing cache — a run store's, so a resumed hunt answers from the
    journal and journals what it simulates.
    """

    def __init__(self, worker_id: int, factory, seed: int,
                 params: ProbeParams,
                 cache: Optional[ProbeCache] = None) -> None:
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
        self.cache = cache if cache is not None else ProbeCache()
        #: this prober's own boot.  Never taken from the cache: simulating
        #: anything needs a live world, and the executor cross-checks every
        #: fresh boot's trace against the cache's reference.
        self._startup: Optional[StartupProbe] = None
        #: the one live injection context: the type last simulated
        self._live: Optional[TypeContext] = None
        self._span_mark = 0
        self._event_mark = 0
        self._log_mark = 0

    # ------------------------------------------------------- weighted/greedy

    def _ensure_started(self) -> StartupProbe:
        if self._startup is None:
            with StepRecorder(self.search) as step:
                self.search._start_run()
            self._startup = StartupProbe(step.trace, step.quarantined)
            self.cache.add_startup(self._startup)
        return self._startup

    def probe_types(self, message_types: Sequence[str],
                    exclude: FrozenSet[tuple]
                    ) -> Tuple[StartupProbe, List[TypeProbe]]:
        """Probe every type in the shard: :meth:`ProbeCache.walk`,
        simulating whatever the cache does not already hold."""
        startup = self._ensure_started()
        probes: List[TypeProbe] = []
        if startup.quarantined is not None:
            return startup, probes
        space = self.search._space()
        for message_type in message_types:
            actions = [a for a in space.actions_for(message_type)
                       if AttackScenario(message_type, a).to_record()
                       not in exclude]
            probes.append(self.cache.walk(
                message_type, actions, self.search.threshold,
                self.params.early_stop, self._acquire, self._evaluate))
        return startup, probes

    def _acquire(self, message_type: str) -> ContextProbe:
        self._live = None  # dropped first: never two contexts resident
        with StepRecorder(self.search) as step:
            self._live = self.search._acquire_context(message_type)
        return ContextProbe(found=self._live is not None, trace=step.trace,
                            quarantined=step.quarantined)

    def _evaluate(self, message_type: str,
                  action: MaliciousAction) -> EvalProbe:
        ctx = self._live
        if ctx is None or ctx.message_type != message_type:
            # Recorded earlier (another pass, another type since, or the
            # journal): cached evals answered so far, a fresh one needs
            # the live injection point back.
            self._live = None
            ctx = self._live = self._reacquire_context(message_type)
        sample = None
        with StepRecorder(self.search) as step:
            sample = self.search._measure_action(ctx, action)
        # Read the baseline *after* the measurement: a mid-step rebuild
        # refreshes ctx.baseline, and the serial loop compares against
        # the refreshed one.
        baseline = ctx.baseline if step.quarantined is None else None
        return EvalProbe(action.to_record(), baseline,
                         sample if step.quarantined is None else None,
                         step.trace, step.quarantined)

    def _reacquire_context(self, message_type: str) -> TypeContext:
        """Re-derive the live injection context of an already-recorded type.

        Runs **off the books**: outside any :class:`StepRecorder`, so none
        of its ledger charges enter recorded traces — the merged report
        stays byte-identical to a run that never lost the context.  The
        deterministic world reproduces the identical injection point from
        the warm state; losing it now means the world diverged, which is a
        hard error rather than a quietly different report.
        """
        search = self.search
        injection = search._seek_injection(message_type)
        if injection is None:
            raise SearchError(
                f"injection point for {message_type} disappeared on "
                f"re-acquisition; deterministic world diverged")
        baseline = search.harness.branch_measure(injection, None)
        return TypeContext(message_type, injection, baseline)

    # ----------------------------------------------------------------- brute

    def probe_brute(self, scenario_records: Sequence[tuple],
                    include_baseline: bool
                    ) -> Tuple[Optional[BaselineProbe], List[ScenarioProbe]]:
        cache = self.cache
        baseline = None
        if include_baseline:
            if cache.baseline is None:
                sample = None
                with StepRecorder(self.search) as step:
                    sample = self.search._measure_baseline()
                cache.baseline = BaselineProbe(
                    sample if step.quarantined is None else None,
                    step.trace, step.quarantined)
            baseline = cache.baseline
        probes: List[ScenarioProbe] = []
        for record in scenario_records:
            probe = cache.scenarios.get(record)
            if probe is None:
                scenario = AttackScenario.from_record(record)
                injected_at = sample = None
                with StepRecorder(self.search) as step:
                    injected_at, sample = self.search._measure_scenario(
                        scenario)
                probe = ScenarioProbe(record, injected_at, sample,
                                      step.trace, step.quarantined)
                cache.scenarios[record] = probe
            probes.append(probe)
        return baseline, probes

    # ------------------------------------------------------------- packaging

    def _drain_telemetry(self, payload: WorkerReturn) -> None:
        """Move tracer output and EventLog records since the last task
        onto ``payload``."""
        if self.tracer is not None:
            payload.spans = self.tracer.spans[self._span_mark:]
            payload.events = self.tracer.events[self._event_mark:]
            self._span_mark = len(self.tracer.spans)
            self._event_mark = len(self.tracer.events)
        if self.params.log_events:
            instance = self.search.harness.instance
            records = (instance.world.log.records
                       if instance is not None else [])
            if self.params.algorithm == "brute":
                # Brute replaces its world per scenario; ship the final
                # world's records, matching what the serial CLI exports.
                payload.log_records = list(records)
            else:
                payload.log_records = records[self._log_mark:]
                self._log_mark = len(records)

    def run_task(self, task: tuple) -> WorkerReturn:
        """Serve one executor task — ``("probe", types, exclude)`` or
        ``("brute", records, include_baseline)`` — in a forked worker or
        in-process alike."""
        started = time.perf_counter()
        payload = WorkerReturn(worker=self.worker_id)
        if task[0] == "probe":
            payload.startup, payload.types = self.probe_types(task[1],
                                                              task[2])
        elif task[0] == "brute":
            payload.baseline, payload.scenarios = self.probe_brute(task[1],
                                                                   task[2])
        else:
            raise ValueError(f"unknown worker command {task[0]!r}")
        payload.by_category = dict(self.search.ledger.by_category)
        self._drain_telemetry(payload)
        payload.wall_seconds = time.perf_counter() - started
        return payload


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
            try:
                if prober is None:
                    prober = WorkerProber(worker_id, factory, seed, params)
                conn.send(("ok", prober.run_task(message)))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    except KeyboardInterrupt:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
