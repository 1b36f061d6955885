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
recorded probe is never simulated again.

Contexts are data: a found :class:`ContextProbe` carries its injection
point — a snapshot of the whole system — and its baseline sample, and any
prober of the same ``(factory, seed)`` branches an evaluation from it by
restoring that snapshot into its own world.  The one seek off the books
left is for a context loaded from the journal, which has no point: a
prober seeks it once, the first time it needs it.

An explanation is a probe too, off the books (:meth:`WorkerProber.explain`):
the prober that holds a finding type's found context branches from it with
the causal tap on, and ships home only the explanations.
"""

from __future__ import annotations

import copy
import time
import traceback
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.attacks.actions import MaliciousAction
from repro.common import chaos
from repro.common.errors import SearchError
from repro.controller.config import HuntConfig
from repro.controller.costs import REBUILD, CostLedger
from repro.controller.harness import InjectionPoint
from repro.controller.monitor import AttackThreshold, PerfSample
from repro.parallel.recording import (RecordingLedger, RecordingSupervisor,
                                      StepRecorder, StepTrace)
from repro.search.base import is_attack_sample
from repro.telemetry.tracer import Tracer, maybe_span

#: what a quarantined step collapses to: (reason, attempts)
Quarantine = Optional[Tuple[str, int]]


@dataclass
class StartupProbe:
    trace: StepTrace
    quarantined: Quarantine = None


@dataclass
class ContextProbe:
    """One supervised injection-seek + baseline branch for a type.

    Found as sought, it also carries what an evaluation branches from: the
    injection point (its snapshot restores into any prober's world) and the
    baseline sample.  Neither is part of the trace, the report or the
    journal; a context loaded from the journal has neither.
    """

    found: bool
    trace: StepTrace
    quarantined: Quarantine = None
    injection: Optional[InjectionPoint] = field(default=None, compare=False,
                                                repr=False)
    baseline: Optional[PerfSample] = field(default=None, compare=False,
                                           repr=False)


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
    :meth:`ProbeCache.split`'s groups of that type's actions (``records``)
    from the type's ``context``, with the probes of them already recorded
    (``known``) so none is simulated twice; ``baseline`` is brute force's
    one fresh execution; ``explain`` explains the type's findings
    (``records``) from its ``context``, keeping their chronologies when
    ``traces``.  A step is a pure function of the hunt, so whoever runs it
    records the same probes.
    """

    kind: str
    message_type: Optional[str] = None
    records: Tuple[tuple, ...] = ()
    known: Tuple[EvalProbe, ...] = ()
    context: Optional[ContextProbe] = None
    traces: bool = False

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
    #: an ``explain`` step's explanations
    #: (:class:`~repro.forensics.explain.AttackExplanation`)
    explanations: Optional[list] = None
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


class WorkerProber:
    """The live step source: each answer simulated on one private,
    supervised testbed and recorded by a :class:`StepRecorder`.

    The body of a forked worker (``run_task``) and the executor's one
    parent-side prober (a probe at a time, when the walk misses).  The
    booted world and the warm snapshot persist across calls.  ``tracer``
    is the parent side's (a forked worker keeps a private one and ships
    its spans home).  Each probe is named to the fault plan before it is
    simulated (:meth:`_probe`), so it faults the same in every prober.  A
    transient platform fault costs a bounded retry under the supervisor —
    a testbed rebuild charged to ``rebuild`` — instead of failing the step.
    """

    def __init__(self, worker_id: int, factory, config: HuntConfig, *,
                 trace: bool = False, log_events: bool = False,
                 tracer: Optional[Tracer] = None) -> None:
        self.worker_id = worker_id
        self.config = config
        self.log_events = log_events
        self._ships_spans = tracer is None and trace
        self.tracer = Tracer(enabled=True) if self._ships_spans else tracer
        self.ledger = RecordingLedger()
        # The recording supervisor shares the recording ledger so event
        # positions index into the same charge log.
        self.supervisor = RecordingSupervisor(
            self.ledger, max_retries=config.max_retries)
        self.harness = config.harness(factory, ledger=self.ledger,
                                      tracer=self.tracer,
                                      log_events=log_events)
        #: this prober's own (latest) boot.  Never taken from a cache:
        #: simulating anything needs a live world, and the executor
        #: cross-checks the boot's trace against the startup reference.
        self._startup: Optional[StartupProbe] = None
        #: message type -> the found context this prober holds: one it
        #: sought itself, was shipped, or re-sought for a journaled
        #: context (see :meth:`evaluate`)
        self._sought: Dict[str, ContextProbe] = {}
        #: EventLog records taken from the world, not yet packaged
        self._log_records: list = []

    # ----------------------------------------------------- supervised plane

    def _probe(self, *key) -> None:
        """Name the probe about to be simulated — the key the probe cache
        files it under — so the fault plan's draws restart for it.  No key
        names work off the books, which draws no faults.  The world's
        EventLog then holds one probe's records at most."""
        if self.config.fault_plan is not None:
            self.config.fault_plan.begin(key or None)
        self._take_log()

    def _take_log(self) -> None:
        instance = self.harness.instance
        if self.log_events and instance is not None:
            self._log_records += instance.world.log.take()

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

    def _seek_context(self, message_type: str
                      ) -> Optional[Tuple[InjectionPoint, PerfSample]]:
        """Rewind to the warm state, run until the type is intercepted and
        branch its baseline; None when it never appears within
        ``max_wait``."""
        harness = self.harness
        harness.restore(harness.warm_snapshot)
        harness.proxy.clear_policy()
        injection = harness.run_to_injection(message_type,
                                             max_wait=self.config.max_wait)
        if injection is None:
            return None
        return injection, harness.branch_measure(injection, None)

    def _measure_action(self, injection: InjectionPoint,
                        action: MaliciousAction) -> PerfSample:
        """Supervised branch-measure of one action from ``injection``.  A
        retry after a rebuild restores the same snapshot into the new
        world."""
        message_type = injection.message_type
        label = f"{action.describe()} {message_type}"
        with maybe_span(self.tracer, "search.scenario",
                        message_type=message_type, scenario=label) as span:
            sample = self.supervisor.run(
                f"branch:{message_type}",
                lambda: self.harness.branch_measure(injection, action),
                rebuild=self._rebuild_testbed, scenario=label)
            span.set(throughput=sample.throughput,
                     crashed=sample.crashed_nodes)
        return sample

    # ------------------------------------------------------- weighted/greedy

    def startup(self) -> StartupProbe:
        """Run the supervised startup and record it — again on every ask
        (a fresh testbed per pass)."""
        self._probe("startup")
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
        self._probe("context", message_type)
        found = None
        with StepRecorder(self) as step:
            found = self.supervisor.run(
                f"injection:{message_type}",
                lambda: self._seek_context(message_type),
                rebuild=self._rebuild_testbed, scenario=message_type)
        return ContextProbe(found is not None, step.trace, step.quarantined,
                            *(found or ()))

    def _held(self, message_type: str,
              context: Optional[ContextProbe]) -> ContextProbe:
        """The type's found ``context`` with its point, whoever sought it.
        This prober keeps the first found context it sees per type, so a
        context without its point (shipped stripped to a worker that holds
        it, or loaded from the journal) is filled from there.  Failing
        that, the first ask simulates the context probe again **off the
        books** (its trace is dropped, so the report cannot tell)."""
        self._ensure_started()
        if context is not None and context.injection is not None:
            self._sought.setdefault(message_type, context)
            return context
        if message_type not in self._sought:
            self._sought[message_type] = self.context(message_type)
        context = self._sought[message_type]
        if context.injection is None:  # a deterministic world
            raise SearchError(f"injection point for {message_type} "
                              f"disappeared on re-seek")
        return context

    def evaluate(self, message_type: str, context: ContextProbe,
                 action: MaliciousAction) -> EvalProbe:
        """Supervised branch-measure of ``action`` from the type's found
        ``context`` (:meth:`_held`)."""
        context = self._held(message_type, context)
        injection, baseline = context.injection, context.baseline
        self._probe("eval", message_type, action.to_record())
        sample = None
        with StepRecorder(self) as step:
            sample = self._measure_action(injection, action)
        if step.quarantined is not None:
            baseline = None
        return EvalProbe(action.to_record(), baseline, sample, step.trace,
                         step.quarantined)

    # ----------------------------------------------------------------- brute

    def baseline(self) -> BaselineProbe:
        """Brute force's one benign execution: a fresh boot and warmup, no
        warm snapshot, then a window.  It runs on a throwaway copy of the
        testbed, so the warm snapshot later steps branch from stays."""
        kept = self.harness
        self._probe("baseline")

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

    # ------------------------------------------------------------- forensics

    def explain(self, message_type: str, context: Optional[ContextProbe],
                records: Sequence[tuple], traces: bool = False) -> list:
        """Explain the findings ``records`` of one type, in order, from its
        found ``context`` (:meth:`_held`): one benign branch serves them
        all, then an attacked branch each, with the causal tap on.  Off
        the books: a private ledger and no platform faults.  ``traces``
        keeps each explanation's chronologies (a forensics bundle's)."""
        # (imported here: a hunt that explains nothing never loads them)
        from repro.forensics.explain import explain_branches
        injection = self._held(message_type, context).injection
        window = self.harness.instance.window
        ledger, self.harness.ledger = self.harness.ledger, CostLedger()
        self._probe()
        try:
            benign = self._observe(injection, None)
            return [explain_branches(injection, action, window, benign,
                                     self._observe(injection, action),
                                     self.config.threshold, traces)
                    for action in map(MaliciousAction.from_record, records)]
        finally:
            self.harness.ledger = ledger

    def _observe(self, injection: InjectionPoint,
                 action: Optional[MaliciousAction]):
        """One branch from ``injection`` with the causal tap on
        (:func:`repro.forensics.explain.observe`).  The crash records it
        logs, the crash chain's evidence, go to a list of their own: never
        to the world's log, so never to a ``--log-events`` stream."""
        from repro.forensics.causality import CausalRecorder
        from repro.forensics.explain import CrashRecords, observe
        world = self.harness.world
        recorder = CausalRecorder(world.codec, lambda: world.kernel.now)
        log = world.log
        kept = log.records, log.enabled
        log.records, log.enabled = CrashRecords(), True
        world.emulator.causal_tap = recorder
        try:
            sample = self.harness.branch_measure(injection, action)
        finally:
            world.emulator.causal_tap = None
            records, (log.records, log.enabled) = log.records, kept
        return observe(recorder, sample, records, world.metrics,
                       injection.time, self.harness.instance.window)

    # ------------------------------------------------------------- packaging

    def _package(self, payload: WorkerReturn) -> WorkerReturn:
        """Stamp the cumulative ledger, and move tracer output (a private
        tracer's only) and the world's EventLog records onto ``payload``."""
        payload.by_category = dict(self.ledger.by_category)
        if self._ships_spans:
            payload.spans = list(self.tracer.spans)
            payload.events = list(self.tracer.events)
            self.tracer.clear()
        self._take_log()
        payload.log_records, self._log_records = self._log_records, []
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
                payload.context = context = self.context(message_type)
                if context.injection is not None:
                    self._sought.setdefault(message_type, context)
        elif kind == "evals":
            cache = ProbeCache()
            for probe in step.known:
                cache.add_eval(message_type, probe)
            payload.evals = cache.walk(
                message_type,
                [MaliciousAction.from_record(r) for r in step.records],
                self.config.threshold, self.config.algorithm == "weighted",
                lambda message_type, action: self.evaluate(
                    message_type, step.context, action))
        elif kind == "baseline":
            payload.baseline = self.baseline()
        elif kind == "explain":
            payload.explanations = self.explain(
                message_type, step.context, step.records, step.traces)
        else:
            raise ValueError(f"unknown worker step {kind!r}")
        if kind == "startup" or fresh:
            payload.startup = self._startup
        self._package(payload)
        payload.wall_seconds = time.perf_counter() - started
        return payload


def worker_main(conn, worker_id: int, factory, config: HuntConfig,
                trace: bool, log_events: bool, inherited=()) -> None:
    """Forked worker loop: build the prober lazily, serve steps until
    ``stop`` (or the pipe closes).

    ``inherited`` are the parent's ends of the pool's pipes, this worker's
    own among them, which fork copied in: they are closed first, so that
    the parent's death — even by ``SIGKILL`` — leaves no open writer on
    this worker's pipe and its ``recv`` sees EOF."""
    for end in inherited:
        end.close()
    prober = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message[0] == "stop":
                break
            try:
                fault = chaos.fault("worker.step", worker_id)
                if fault is not None and fault.mode == "kill":
                    chaos.kill_self()
                elif fault is not None:
                    time.sleep(fault.seconds)
                if prober is None:
                    prober = WorkerProber(worker_id, factory, config,
                                          trace=trace, log_events=log_events)
                conn.send(("ok", prober.run_task(message)))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    except (KeyboardInterrupt, OSError):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
