"""Probers: the live step source — simulate one step, record it.

A prober owns a supervised testbed (an
:class:`~repro.controller.harness.AttackHarness` on a
:class:`~repro.parallel.recording.RecordingLedger`, guarded by a
:class:`~repro.parallel.recording.RecordingSupervisor`) built from the
same ``(factory, seed)`` as every other.  The worlds are deterministic and
every type's processing starts from a restore of the warm snapshot, so the
charges a step produces are bitwise identical whoever simulates it, in
whatever order: a prober answers a walk's questions with *recorded*
probes, which the walk replays (:class:`~repro.parallel.merge.CachedSteps`).
The one fresh execution left is brute force's baseline; its scenarios are
priced from these probes (:func:`repro.search.brute.price`).

The parent-side prober answers one step at a time, when the walk misses it
in the :class:`ProbeCache`.  A forked worker simulates ahead of the walk,
one :class:`Step` at a time (:meth:`WorkerProber.run_task`).  Either way a
recorded probe is never simulated again.  A prober holds one live
:class:`TypeContext`, the type it last simulated; any other type's is
re-derived from the warm snapshot, off the books
(:meth:`WorkerProber._reacquire_context`).
"""

from __future__ import annotations

import copy
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.attacks.actions import MaliciousAction
from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import ProxyError, SearchError
from repro.controller.costs import REBUILD, CostLedger
from repro.controller.harness import AttackHarness, InjectionPoint
from repro.controller.monitor import AttackThreshold, PerfSample
from repro.parallel.recording import (RecordingLedger, RecordingSupervisor,
                                      StepRecorder, StepTrace)
from repro.search.base import is_attack_sample
from repro.telemetry.tracer import Tracer, maybe_span

#: what a quarantined step collapses to: (reason, attempts)
Quarantine = Optional[Tuple[str, int]]


@dataclass
class ProbeParams:
    """Everything a prober needs to build its testbed (fork-inherited)."""

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
class BaselineProbe:
    """Brute force's one benign execution."""

    sample: Optional[PerfSample]
    trace: StepTrace
    quarantined: Quarantine = None


class Step(NamedTuple):
    """One independent unit of a pass: what a forked worker is sent.

    ``startup`` boots (or reuses) the testbed and nothing else;
    ``context`` seeks one type's injection point; ``evals`` walks one of
    :meth:`ProbeCache.split`'s groups of that type's actions (``records``),
    with the probes of them already recorded (``known``) so none is
    simulated twice; ``baseline`` is brute force's one fresh execution.  A
    step is a pure function of the hunt, so whoever runs it records the
    same probes.
    """

    kind: str
    message_type: Optional[str] = None
    records: Tuple[tuple, ...] = ()
    known: Tuple[EvalProbe, ...] = ()

    @property
    def key(self) -> tuple:
        """The step's identity — what poison counting is keyed by."""
        return (self.kind, self.message_type, self.records)

    def describe(self) -> str:
        if self.kind == "evals":
            actions = ", ".join(MaliciousAction.from_record(r).describe()
                                for r in self.records)
            return f"evals of {self.message_type} [{actions}]"
        return " ".join(filter(None, (self.kind, self.message_type)))


@dataclass
class WorkerReturn:
    """One step's results plus the worker's cumulative accounting."""

    worker: int
    #: the worker's boot, when the step made it (or asked for it)
    startup: Optional[StartupProbe] = None
    context: Optional[ContextProbe] = None
    evals: List[EvalProbe] = field(default_factory=list)
    baseline: Optional[BaselineProbe] = None
    #: the worker's own cumulative ledger (side-channel attribution only;
    #: the merged report's ledger is replayed from traces instead)
    by_category: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: worker-side tracer output since the last step (tagged on adoption)
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)
    #: worker-side EventLog records since the last step
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
        #: brute force's benign execution
        self.baseline: Optional[BaselineProbe] = None
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

    def add_baseline(self, probe: BaselineProbe) -> None:
        if self.baseline is None:
            self.baseline = probe

    @staticmethod
    def split(actions: Sequence[MaliciousAction], early_stop: bool
              ) -> List[List[MaliciousAction]]:
        """The superset rule: what a pass over a type's ``actions`` can
        need, as independent groups, each walked by :meth:`walk`.

        Past the type's context, greedy needs every action (a group each);
        weighted (``early_stop``) needs each cluster in enumeration order up
        to its first non-quarantined attack: the weight-ordered serial walk
        can never need an action past that one, because it would have
        stopped there first — whatever the weights.
        """
        if not early_stop:
            return [[action] for action in actions]
        groups: Dict[str, List[MaliciousAction]] = {}
        for action in actions:
            groups.setdefault(action.cluster, []).append(action)
        return list(groups.values())

    def walk(self, message_type: str, group: Sequence[MaliciousAction],
             threshold: AttackThreshold, early_stop: bool,
             measure: Optional[Callable[[str, MaliciousAction],
                                        EvalProbe]] = None
             ) -> Optional[List[EvalProbe]]:
        """The probes of one :meth:`split` group, in order, up to its first
        non-quarantined attack under ``early_stop``.  A miss is answered by
        ``measure(message_type, action)`` and admitted (the prober
        simulating); with no ``measure`` the first miss returns None — "the
        cache alone does not cover this group"."""
        known = self.evals.get(message_type, {})
        evals: List[EvalProbe] = []
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
        return evals


class NoProbeCache(ProbeCache):
    """Admits nothing, so every step the walk takes is a miss.  Under a
    ``FaultPlan`` what a step charges depends on what ran before it: a
    recorded probe may not answer a second ask, and each pass — each
    greedy round — simulates its own steps."""

    def _forget(self, *probe) -> None:
        pass

    add_startup = add_context = add_eval = add_baseline = _forget


@dataclass
class TypeContext:
    """Everything needed to branch one message type: injection + baseline.
    ``stale``: the testbed was rebuilt since (the snapshot belongs to a dead
    world), so the next measurement re-acquires both first."""

    message_type: str
    injection: InjectionPoint
    baseline: PerfSample
    stale: bool = False


class WorkerProber:
    """The live step source: each answer simulated on one private,
    supervised testbed and recorded by a :class:`StepRecorder`.

    The body of a forked worker (``run_task``) and the executor's one
    parent-side prober (a probe at a time, when the walk misses).  The
    booted world and the warm snapshot persist across calls.  ``tracer``
    is the parent side's (a forked worker keeps a private one and ships
    its spans home); ``fault_plan`` is the parent side's alone, its fault
    stream meaningful only on the one prober the walk drives in order.  A
    transient platform fault costs a bounded retry under the supervisor —
    a testbed rebuild charged to ``rebuild`` — instead of failing the step.
    """

    def __init__(self, worker_id: int, factory, seed: int,
                 params: ProbeParams, tracer: Optional[Tracer] = None,
                 fault_plan=None) -> None:
        self.worker_id = worker_id
        self.params = params
        self._ships_spans = tracer is None and params.trace
        self.tracer = Tracer(enabled=True) if self._ships_spans else tracer
        self.ledger = RecordingLedger()
        # The recording supervisor shares the recording ledger so event
        # positions index into the same charge log.
        self.supervisor = RecordingSupervisor(
            self.ledger, max_retries=params.max_retries)
        self.harness = AttackHarness(
            factory, seed, params.threshold,
            shared_pages=params.shared_pages,
            delta_snapshots=params.delta_snapshots, ledger=self.ledger,
            fault_plan=fault_plan, fault_schedule=params.fault_schedule,
            watchdog_limit=params.watchdog_limit, tracer=self.tracer,
            log_events=params.log_events)
        #: this prober's own (latest) boot.  Never taken from a cache:
        #: simulating anything needs a live world, and the executor
        #: cross-checks the boot's trace against the startup reference.
        self._startup: Optional[StartupProbe] = None
        #: the one live injection context: the type last simulated
        self._live: Optional[TypeContext] = None
        #: the world whose EventLog ``_log_mark`` counts into
        self._logged = None
        self._log_mark = 0

    # ----------------------------------------------------- supervised plane

    def _rebuild_testbed(self) -> None:
        """Replace the testbed with a fresh build of the same factory+seed,
        all its platform time charged to the ``rebuild`` category."""
        sub = CostLedger()
        self.harness.ledger = sub
        try:
            self.harness.start_run()
        finally:
            self.harness.ledger = self.ledger
            self.ledger.charge(REBUILD, sub.total())

    def _seek_context(self, message_type: str) -> Optional[TypeContext]:
        """Rewind to the warm state, run until the type is intercepted and
        branch its baseline; None when it never appears within
        ``max_wait``."""
        harness = self.harness
        harness.restore(harness.warm_snapshot)
        harness.proxy.clear_policy()
        injection = harness.run_to_injection(message_type,
                                             max_wait=self.params.max_wait)
        if injection is None:
            return None
        return TypeContext(message_type, injection,
                           harness.branch_measure(injection, None))

    def _measure_action(self, ctx: TypeContext,
                        action: MaliciousAction) -> PerfSample:
        """Supervised branch-measure of one action against ``ctx``,
        re-acquiring ``ctx`` first when a retry rebuilt the testbed."""
        def attempt() -> PerfSample:
            if ctx.stale:
                fresh = self._seek_context(ctx.message_type)
                if fresh is None:
                    # Deterministic worlds reproduce their injection points;
                    # losing one after a rebuild is itself a (transient)
                    # platform anomaly.
                    raise ProxyError(f"injection point for "
                                     f"{ctx.message_type} lost after rebuild")
                ctx.injection, ctx.baseline = fresh.injection, fresh.baseline
                ctx.stale = False
            return self.harness.branch_measure(ctx.injection, action)

        def rebuild() -> None:
            self._rebuild_testbed()
            ctx.stale = True

        label = f"{action.describe()} {ctx.message_type}"
        with maybe_span(self.tracer, "search.scenario",
                        message_type=ctx.message_type,
                        scenario=label) as span:
            sample = self.supervisor.run(f"branch:{ctx.message_type}",
                                         attempt, rebuild=rebuild,
                                         scenario=label)
            span.set(throughput=sample.throughput,
                     crashed=sample.crashed_nodes)
        return sample

    # ------------------------------------------------------- weighted/greedy

    def startup(self) -> StartupProbe:
        """Run the supervised startup and record it — again on every ask
        (a fresh testbed per pass)."""
        self._live = None
        with StepRecorder(self) as step:
            self.supervisor.run("start_run", self.harness.start_run)
        self._startup = StartupProbe(step.trace, step.quarantined)
        return self._startup

    def _ensure_started(self) -> StartupProbe:
        return self._startup if self._startup is not None else self.startup()

    def context(self, message_type: str) -> ContextProbe:
        """Supervised injection-seek plus baseline branch.  Not found is an
        honest no-injection-point outcome, charged as wasted execution."""
        self._ensure_started()
        self._live = None  # dropped first: never two contexts resident
        with StepRecorder(self) as step:
            self._live = self.supervisor.run(
                f"injection:{message_type}",
                lambda: self._seek_context(message_type),
                rebuild=self._rebuild_testbed, scenario=message_type)
        return ContextProbe(found=self._live is not None, trace=step.trace,
                            quarantined=step.quarantined)

    def evaluate(self, message_type: str,
                 action: MaliciousAction) -> EvalProbe:
        self._ensure_started()
        if self._live is None or self._live.message_type != message_type:
            # Recorded earlier (another pass, another type since, another
            # worker, or the journal): a fresh evaluation needs the live
            # injection point back.  No local may still hold the
            # previous type's context while the new one is derived.
            self._live = None
            self._live = self._reacquire_context(message_type)
        ctx = self._live
        sample = None
        with StepRecorder(self) as step:
            sample = self._measure_action(ctx, action)
        # Read the baseline *after* the measurement: a mid-step rebuild
        # refreshes ctx.baseline, and the walk compares against the
        # refreshed one.
        baseline = ctx.baseline if step.quarantined is None else None
        return EvalProbe(action.to_record(), baseline,
                         sample if step.quarantined is None else None,
                         step.trace, step.quarantined)

    def _reacquire_context(self, message_type: str) -> TypeContext:
        """Re-derive the live injection context of an already-recorded type,
        **off the books** (outside any :class:`StepRecorder`, so the report
        stays byte-identical to a run that never lost it).  A deterministic
        world reproduces the point; losing it is a hard error."""
        ctx = self._seek_context(message_type)
        if ctx is None:
            raise SearchError(
                f"injection point for {message_type} disappeared on "
                f"re-acquisition; deterministic world diverged")
        return ctx

    # ----------------------------------------------------------------- brute

    def baseline(self) -> BaselineProbe:
        """Brute force's one benign execution: a fresh boot and warmup, no
        warm snapshot, then a window.  It runs on a throwaway copy of the
        testbed, so the warm snapshot later steps branch from stays."""
        kept = self.harness

        def attempt() -> PerfSample:
            self.harness = copy.copy(kept)
            self.harness.start_run(take_warm_snapshot=False)
            return self.harness.measure_window()

        sample = None
        try:
            with StepRecorder(self) as step:
                sample = self.supervisor.run("baseline", attempt)
        finally:
            self.harness = kept
        return BaselineProbe(sample if step.quarantined is None else None,
                             step.trace, step.quarantined)

    # ------------------------------------------------------------- packaging

    def _package(self, payload: WorkerReturn) -> WorkerReturn:
        """Stamp the cumulative ledger, and move tracer output (a private
        tracer's only) and EventLog records since the last call onto
        ``payload``."""
        payload.by_category = dict(self.ledger.by_category)
        if self._ships_spans:
            payload.spans = list(self.tracer.spans)
            payload.events = list(self.tracer.events)
            self.tracer.clear()
        if self.params.log_events:
            instance = self.harness.instance
            records = (instance.world.log.records
                       if instance is not None else [])
            if instance is not self._logged:  # a (re)built world: new log
                self._logged, self._log_mark = instance, 0
            payload.log_records = records[self._log_mark:]
            self._log_mark = len(records)
        return payload

    def drain(self) -> WorkerReturn:
        """The parent-side prober's accounting since the last drain (it
        answers the walk's misses; its wall time is the parent's own)."""
        return self._package(WorkerReturn(worker=self.worker_id,
                                          startup=self._startup))

    def run_task(self, step: Step) -> WorkerReturn:
        """Serve one :class:`Step` in a forked worker.  The boot it needed
        (or, for ``startup``, the boot it kept) comes back with it, so the
        executor can cross-check every worker's."""
        started = time.perf_counter()
        fresh = self._startup is None
        payload = WorkerReturn(worker=self.worker_id)
        kind, message_type = step.kind, step.message_type
        if kind == "startup":
            self._ensure_started()
        elif kind == "context":
            if self._ensure_started().quarantined is None:
                payload.context = self.context(message_type)
        elif kind == "evals":
            cache = ProbeCache()
            for probe in step.known:
                cache.add_eval(message_type, probe)
            payload.evals = cache.walk(
                message_type,
                [MaliciousAction.from_record(r) for r in step.records],
                self.harness.threshold, self.params.early_stop,
                self.evaluate)
        elif kind == "baseline":
            payload.baseline = self.baseline()
        else:
            raise ValueError(f"unknown worker step {kind!r}")
        if kind == "startup" or fresh:
            payload.startup = self._startup
        self._package(payload)
        payload.wall_seconds = time.perf_counter() - started
        return payload


def _maybe_inject_chaos(worker_id: int) -> None:
    """Deterministic fault injection for the self-healing layer's tests.

    ``REPRO_WORKER_CHAOS`` is ``kill:<worker>:<flag-file>`` or
    ``hang:<worker>:<flag-file>:<seconds>``; ``<worker>`` may be ``*`` to
    target every worker (the pool-collapse case).  The fault fires in the
    named worker right after it receives a step; the flag file is written
    *before* firing, so the fault disarms itself once — an empty flag path
    means fire every time.  This lives in the worker
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
    """Forked worker loop: build the prober lazily, serve steps until
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
