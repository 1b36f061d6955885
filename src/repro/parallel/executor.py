"""ScenarioExecutor: the one hunt engine — walk, step source, probe cache,
prober.

A pass is the algorithm's walk (:mod:`repro.search.base`) over a cached
step source (:class:`~repro.parallel.merge.CachedSteps`) that answers each
step from the executor's :class:`~repro.parallel.worker.ProbeCache`.  The
library's ``WeightedGreedySearch(...).run()`` is this engine at
``workers=1`` too.  All that varies is how a step gets into the cache:

* **A miss is a question.**  In-process (``workers=1``, no ``fork``, a
  collapsed pool) the source asks the one parent-side
  :class:`~repro.parallel.worker.WorkerProber` to simulate the step it
  lacks, admits it and the walk replays it; later passes replay the
  recorded boot and steps instead of re-simulating them.
* **A fork pool is a prefetch.**  With ``workers > 1`` persistent forked
  workers (factories are closures: they cross a process boundary by fork
  inheritance, never by pickling) simulate what the pass *can* need before
  the walk starts, pulling one :class:`~repro.parallel.worker.Step` at a
  time: each type's injection seek, then — once it comes back found — each
  of its :meth:`~repro.parallel.worker.ProbeCache.split` groups the cache
  does not already answer (brute force's are greedy's, plus its
  baseline).  Any worker branches from the context an evals step ships, so
  an idle worker gets the next step; results are admitted in step order as
  far as they have arrived contiguously.  With a healthy pool a miss is a
  "coverage hole" :class:`SearchError`: the superset rule's self-check.
  :meth:`worker_breakdown` reports what the workers really spent.
* **A store is the cache's persistence.**  ``store.cache`` *is* the
  executor's cache: every admission is journaled first, and a resumed hunt
  starts with the journal's probes already answered.

The pool is **self-healing** (see :mod:`repro.parallel.health`): a crashed
or hung worker is killed, reaped and respawned, and its step goes back to
the head of the queue — steps are pure functions of the hunt, so byte
identity survives worker death.  An exhausted worker is retired and the
others pull what is left, a step that keeps killing workers is quarantined
through the supervision ledger, and a collapsed pool degrades to the
parent-side prober: what the pool left unanswered is just a miss.

Platform faults compose with all of it.  A ``FaultPlan`` is keyed by the
probe being simulated (its draws restart for each probe), so a probe
faults the same in whichever prober, pass or resumed hunt simulates it,
and a recorded one answers a second ask as re-simulating it would.
``FaultSchedule`` chaos is armed per world before warmup, identical in
every prober.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from multiprocessing import connection
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.attacks.space import ActionSpace
from repro.common.errors import ConfigError, SearchError
from repro.controller.config import HuntConfig
from repro.controller.costs import CostLedger, WorkerAttribution
from repro.parallel.health import (FAIL_CRASH, FAIL_TIMEOUT, HealthMonitor,
                                   HealthPolicy, WorkerHealthReport,
                                   quarantined_return)
from repro.parallel.merge import CachedSteps
from repro.parallel.worker import (ContextProbe, ProbeCache, StartupProbe,
                                   Step, WorkerProber, WorkerReturn,
                                   worker_main)
from repro.search import ALGORITHMS
from repro.search.results import SearchReport
from repro.search.weighted import ClusterWeights
from repro.telemetry.summary import summarize
from repro.telemetry.tracer import Tracer, maybe_span


@dataclass(eq=False)
class _Slot:
    """One step of a pass and what became of it."""

    step: Step
    #: waiting for an idle worker
    queued: bool = True
    #: a worker died running it: it goes to the head of the queue
    lost: bool = False
    result: Optional[WorkerReturn] = None
    #: the result is synthetic (a quarantined poison step): it goes to
    #: ``poisoned``, never to the executor's cache or the journal —
    #: replaying it would poison a clean resume
    synthetic: bool = False
    #: absolute ``time.monotonic`` deadline while in flight; None = none
    deadline: Optional[float] = None


@dataclass
class _Pool:
    """One pass's dispatch state."""

    #: the steps not admitted yet, in enumeration order: a context's evals
    #: steps are inserted right behind it when it comes back found
    order: List[_Slot]
    #: message type -> the actions its evals steps split
    actions: Dict[str, list]
    #: worker -> its in-flight step
    pending: Dict[int, _Slot] = field(default_factory=dict)
    poisoned: ProbeCache = field(default_factory=ProbeCache)

    def next_slot(self) -> Optional[_Slot]:
        """What an idle worker gets: a lost step first, then the next in
        enumeration order."""
        queued = [slot for slot in self.order if slot.queued]
        return min(queued, default=None, key=lambda slot: not slot.lost)


class ScenarioExecutor:
    """Runs a pass: the algorithm's walk over the probe cache, fed by the
    parent-side prober on demand or by a forked pool ahead of time."""

    def __init__(self, factory, config: Optional[HuntConfig] = None, *,
                 workers: int = 2, tracer: Optional[Tracer] = None,
                 log_events: bool = False,
                 health: Optional[HealthPolicy] = None,
                 store=None, progress=None, rounds: int = 3,
                 confirmations: int = 2, **settings) -> None:
        config = replace(config or HuntConfig(), **settings)
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if config.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {config.algorithm!r}; "
                              f"expected one of {tuple(ALGORITHMS)}")
        self.factory = factory
        #: the hunt's settings (:mod:`repro.controller.config`)
        self.config = config
        self.workers = workers
        self._options = ({"rounds": rounds, "confirmations": confirmations}
                         if config.algorithm == "greedy" else {})
        self.tracer = tracer
        self._tracing = tracer is not None and tracer.enabled
        self.log_events = log_events
        self.policy = health or HealthPolicy()
        self.progress = progress
        #: the current (or last) :meth:`run_pass`'s walk; its ``report`` is
        #: the partial result a caller prints after a KeyboardInterrupt
        #: (not a :meth:`run_walk` caller's walk: no search-engine cycle)
        self.walk = None
        #: an unbooted instance: the name/schema/search-type oracle the
        #: step source hands the walk, and the testbed's identity
        self.testbed = factory(config.seed)
        if store is not None:
            store.bind(config.key(self.testbed)["probe"])
        #: every probe recorded so far — the durable
        #: :class:`~repro.store.runstore.RunStore`'s when there is one
        #: (journaled probes are answered from disk, fresh ones journaled)
        self.cache = store.cache if store is not None else ProbeCache()
        self._space = ActionSpace(self.testbed.schema, config.space_config)
        start_methods = multiprocessing.get_all_start_methods()
        self._use_fork = workers > 1 and "fork" in start_methods
        self._health = HealthMonitor(self.policy, workers, tracer=tracer)
        self._degraded = False
        #: the first startup trace ever seen; every worker — including
        #: respawned replacements in later passes — must replay it bitwise.
        #: A store with a journaled startup seeds the reference, so a
        #: resumed hunt's live boots are checked against the original's.
        self._startup_reference: Optional[StartupProbe] = (
            store.cache.startup if store is not None else None)
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._conns: Dict[int, connection.Connection] = {}
        #: worker -> the types whose found context (snapshot and baseline)
        #: that worker holds since its last spawn: it sought or was sent
        #: it, so later evals steps ship the context without them
        self._holds: Dict[int, Set[str]] = {}
        #: the one in-process prober (see :meth:`_parent`)
        self._prober: Optional[WorkerProber] = None
        self._attribution: Dict[int, WorkerAttribution] = {}
        self._log_records: list = []

    # --------------------------------------------------------------- plumbing

    def _spawn(self, worker: int) -> None:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=worker_main,
            args=(child_conn, worker, self.factory, self.config,
                  self._tracing, self.log_events,
                  [parent_conn, *self._conns.values()]),
            daemon=True)
        process.start()
        child_conn.close()
        self._procs[worker] = process
        self._conns[worker] = parent_conn
        self._holds[worker] = set()
        self._health.record_spawn(worker)

    def _parent(self) -> WorkerProber:
        """The one in-process prober: it answers the walk's misses whenever
        no healthy pool has (``workers=1``, no ``fork``, a collapsed
        pool)."""
        if self._prober is None:
            self._prober = WorkerProber(0, self.factory, self.config,
                                        log_events=self.log_events,
                                        tracer=self.tracer)
        return self._prober

    # ----------------------------------------------------------------- steps

    def _plan(self, types: Sequence[str], excluded: frozenset,
              max_scenarios: Optional[int]) -> _Pool:
        """The pass's steps the cache does not already answer, in
        enumeration order.  A type's evals steps wait for its context.
        Brute force asks what greedy asks, of its first ``max_scenarios``
        scenarios only, and its baseline."""
        scenarios = [s for t in dict.fromkeys(types)
                     for s in self._space.scenarios_for(t, excluded)]
        actions = {t: [s.action for s in scenarios[:max_scenarios]
                       if s.message_type == t] for t in types}
        steps = []
        for message_type, acts in actions.items():
            if not acts:
                continue
            context = self.cache.contexts.get(message_type)
            steps += ([Step("context", message_type)] if context is None
                      else self._eval_steps(message_type, context, acts))
        # Nothing left to simulate: the lead worker still boots (or
        # reuses) its testbed, so its startup is cross-checked.
        steps = steps or [Step("startup")]
        if self.config.algorithm == "brute" and self.cache.baseline is None:
            steps.insert(0, Step("baseline"))
        return _Pool([_Slot(step) for step in steps], actions)

    def _eval_steps(self, message_type: str, context: ContextProbe,
                    actions: list) -> List[Step]:
        """The evals steps a found context opens: each
        :meth:`~repro.parallel.worker.ProbeCache.split` group the cache
        does not cover, shipped with the context and its cached probes."""
        if context.quarantined is not None or not context.found:
            return []
        known = self.cache.evals.get(message_type, {})
        early_stop = self.config.algorithm == "weighted"
        steps = []
        for group in ProbeCache.split(actions, early_stop):
            if self.cache.walk(message_type, group, self.config.threshold,
                               early_stop) is None:
                records = tuple(action.to_record() for action in group)
                steps.append(Step("evals", message_type, records, tuple(
                    known[r] for r in records if r in known), context))
        return steps

    # ------------------------------------------------------------- dispatch

    def _prefetch(self, types: Sequence[str], excluded: frozenset,
                  max_scenarios: Optional[int]) -> ProbeCache:
        """Prefetch the pass's steps; returns the poisoned probes."""
        pool = self._plan(types, excluded, max_scenarios)
        self._run(pool)
        return pool.poisoned

    def _run(self, pool: _Pool) -> None:
        """Pull-based dispatch: an idle worker gets the next step, a result
        frees its worker for another."""
        while not self._degraded:
            self._dispatch(pool)
            self._flush(pool)  # (after dispatch: no worker waits on fsync)
            if not pool.pending:
                break
            self._collect_once(pool)
        # A collapsed pool leaves steps unanswered (misses, to the walk):
        # admit what did come back behind them.
        self._flush(pool, gaps=True)

    def _dispatch(self, pool: _Pool) -> None:
        """Send every idle worker its next step."""
        for worker in range(self.workers):
            # (a send that finds the worker dead respawns it: try again)
            while not (worker in pool.pending or self._degraded
                       or self._health.is_retired(worker)):
                slot = pool.next_slot()
                if slot is None:
                    return
                self._send(worker, slot, pool)

    def _send(self, worker: int, slot: _Slot, pool: _Pool) -> None:
        if worker not in self._procs:
            self._spawn(worker)
        step, holds = slot.step, self._holds[worker]
        if step.context is not None and step.message_type in holds:
            # (the slot keeps the full step: a respawn may need it again)
            step = step._replace(context=replace(
                step.context, injection=None, baseline=None))
        try:
            self._conns[worker].send(step)
        except (BrokenPipeError, OSError):
            # The worker died *between* steps (its last one succeeded, so
            # nothing counts against the poison budget).
            self._fail_worker(worker, FAIL_CRASH, "pipe closed on step send",
                              None, pool)
            return
        if step.kind in ("evals", "explain"):
            holds.add(step.message_type)
        slot.queued = False
        budget = self.policy.deadline_for()
        slot.deadline = (time.monotonic() + budget
                         if budget is not None else None)
        pool.pending[worker] = slot

    def _collect_once(self, pool: _Pool) -> None:
        conns = {self._conns[w]: w for w in pool.pending}
        timeout = self.policy.poll_interval
        now = time.monotonic()
        for slot in pool.pending.values():
            if slot.deadline is not None:
                timeout = min(timeout, slot.deadline - now)
        for conn in connection.wait(list(conns), timeout=max(0.01, timeout)):
            worker = conns[conn]
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                self._fail_worker(worker, FAIL_CRASH, "pipe closed mid-step",
                                  pool.pending.pop(worker), pool)
                continue
            if status != "ok":
                raise SearchError(
                    f"parallel worker {worker} failed:\n{payload}")
            context = payload.context
            if context is not None and context.injection is not None:
                self._holds[worker].add(pool.pending[worker].step.message_type)
            self._record(pool.pending.pop(worker), payload, pool)
        now = time.monotonic()
        for worker, slot in list(pool.pending.items()):
            if slot.deadline is not None and now > slot.deadline:
                self._fail_worker(
                    worker, FAIL_TIMEOUT,
                    f"deadline expired ({self.policy.task_timeout:.1f}s "
                    f"per step)", pool.pending.pop(worker), pool)

    def _record(self, slot: _Slot, payload: WorkerReturn, pool: _Pool,
                synthetic: bool = False) -> None:
        slot.result, slot.synthetic = payload, synthetic
        step = slot.step
        if step.kind == "context" and payload.context is not None:
            at = pool.order.index(slot) + 1
            pool.order[at:at] = [_Slot(s) for s in self._eval_steps(
                step.message_type, payload.context,
                pool.actions[step.message_type])]

    def _flush(self, pool: _Pool, gaps: bool = False) -> None:
        """Admit returned steps' probes to the cache — which journals them
        when it is a store's — in step order, as far as results have
        arrived contiguously (with ``gaps``: every one that has).  Waiting
        for the prefix — instead of admitting on arrival — keeps the
        journal's byte content a pure function of the hunt, whatever order
        the pool finishes in; a kill mid-pass still persists every
        already-flushed step."""
        while pool.order and (gaps or pool.order[0].result is not None):
            slot = pool.order.pop(0)
            ret = slot.result
            if ret is None:
                continue
            cache = pool.poisoned if slot.synthetic else self.cache
            message_type = slot.step.message_type
            if ret.startup is not None:
                self._check_startup(ret.startup)
                cache.add_startup(ret.startup)
            if ret.context is not None:
                cache.add_context(message_type, ret.context)
            for probe in ret.evals:
                cache.add_eval(message_type, probe)
            if ret.baseline is not None:
                cache.add_baseline(ret.baseline)
            self._absorb(ret, message_type)

    # ------------------------------------------------------------- recovery

    def _reap(self, worker: int, kind: str, detail: str) -> None:
        """Kill and reap a failed worker; close its pipe; record its fate."""
        process = self._procs.pop(worker, None)
        conn = self._conns.pop(worker, None)
        with maybe_span(self.tracer, "executor.worker.kill",
                        worker=worker, kind=kind):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
            if process is not None:
                self._end(process, grace=0)
        self._health.record_failure(worker, kind, detail)

    @staticmethod
    def _end(process, grace: float) -> None:
        """Give ``process`` ``grace`` seconds to exit by itself, then
        terminate it, then kill it; reap it either way."""
        process.join(timeout=grace)
        for stop in (process.terminate, process.kill):
            if process.is_alive():
                stop()
                process.join(timeout=5)
        try:
            process.close()
        except ValueError:  # pragma: no cover - defensive
            pass

    def _fail_worker(self, worker: int, kind: str, detail: str,
                     slot: Optional[_Slot], pool: _Pool) -> None:
        """Kill and reap a failed worker; quarantine the step it was running
        as poison, or put it back at the head of the queue for whoever is
        idle next; then respawn the worker — or retire it once its restart
        budget is spent, and degrade when none is left."""
        self._reap(worker, kind, detail)
        if not self._health.allow_restart(worker):
            self._health.retire(worker)
        if slot is not None:
            key = slot.step.key
            crashes = self._health.note_task_crash(key)
            if self._health.is_poison(key):
                self._health.record_quarantine(slot.step.describe(), crashes)
                self._record(slot, quarantined_return(
                    worker, slot.step,
                    f"poison step killed {crashes} workers "
                    f"(last {kind}: {detail})", crashes), pool,
                    synthetic=True)
            else:
                slot.queued = slot.lost = True
                self._health.record_replay(worker)
        if not self._health.is_retired(worker):
            delay = self._health.record_restart(worker)
            if delay > 0:
                time.sleep(delay)
            with maybe_span(self.tracer, "executor.worker.respawn",
                            worker=worker):
                self._spawn(worker)
        elif all(self._health.is_retired(w) for w in range(self.workers)):
            self._collapse()

    def _collapse(self) -> None:
        """Every worker is gone: from here on the walk's misses go to the
        parent-side prober — same factory, same seed, same recorded traces,
        so the report stays serial-identical."""
        if not self.policy.degrade:
            raise SearchError(
                "parallel worker pool collapsed: every worker exhausted its "
                "restart budget; raise --worker-retries, drop --no-degrade "
                "to fall back to in-process execution, or run serially")
        self._health.record_degraded()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant("executor.pool.degrade")
        self._degraded = True
        self._use_fork = False

    # ------------------------------------------------------------ accounting

    def _absorb(self, ret: WorkerReturn,
                message_type: Optional[str] = None) -> None:
        """Fold one return's accounting, spans and log records into the
        parent.  The worker's cumulative ledger only ever grows, so the
        larger snapshot wins (a respawn restarts it)."""
        attribution = self._attribution.setdefault(
            ret.worker, WorkerAttribution(worker=ret.worker))
        ledger = CostLedger(dict(ret.by_category))
        if ledger.total() >= attribution.ledger.total():
            attribution.ledger = ledger
        attribution.wall_seconds += ret.wall_seconds
        if ((ret.context or ret.evals)
                and message_type not in attribution.shards):
            attribution.shards.append(message_type)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.adopt(ret.spans, ret.events, worker=ret.worker)
        self._log_records.extend(ret.log_records)

    def _check_startup(self, startup: StartupProbe) -> None:
        """All probers boot the same deterministic world; their startup
        traces must be identical — anything else means nondeterminism that
        would silently corrupt the merge, so fail loudly.  The first boot
        seen (a resumed hunt's: the journal's) is the reference for every
        later one, a worker respawned mid-hunt's included."""
        reference = self._startup_reference
        if reference is None:
            self._startup_reference = startup
        elif (startup.trace.charges != reference.trace.charges
                or startup.quarantined != reference.quarantined):
            raise SearchError(
                "nondeterministic startup across parallel workers: "
                "identical (factory, seed) produced different charges "
                "(a respawned worker must replay the serial startup "
                "bitwise)")

    # ------------------------------------------------------------------ pass

    def run_pass(self, message_types: Optional[Sequence[str]] = None,
                 exclude: Optional[Set[tuple]] = None,
                 weights: Optional[ClusterWeights] = None,
                 max_scenarios: Optional[int] = None,
                 kept: bool = False) -> SearchReport:
        """Execute one pass of a fresh walk of the config's algorithm.
        ``weights`` is mutated as the weighted walk learns (bump per
        finding, in order)."""
        algorithm = self.config.algorithm
        options = dict(self._options, **(
            {"weights": weights} if algorithm == "weighted" else {}))
        self.walk = ALGORITHMS[algorithm](
            self.factory, self.config, tracer=self.tracer,
            progress=self.progress, **options)
        return self.run_walk(
            self.walk, message_types, exclude, kept=kept, walk_kwargs=(
                {"max_scenarios": max_scenarios}
                if algorithm == "brute" else {}))

    def run_walk(self, walk, message_types: Optional[Sequence[str]] = None,
                 exclude: Optional[Set[tuple]] = None,
                 walk_kwargs: Optional[dict] = None,
                 kept: bool = False) -> SearchReport:
        """Execute one pass of ``walk`` over the cached step source;
        ``walk_kwargs`` go to ``walk.run`` unchanged.  ``kept`` prices the
        pass as one whose snapshots the platform kept
        (:class:`~repro.parallel.merge.CachedSteps`)."""
        walk_kwargs = walk_kwargs or {}
        excluded = frozenset(exclude or ())
        types = (list(message_types) if message_types is not None
                 else self.testbed.search_types())
        pass_mark = self.tracer.mark() if self._tracing else 0
        poisoned = (self._prefetch(types, excluded,
                                   walk_kwargs.get("max_scenarios"))
                    if self._use_fork else None)
        # A healthy pool has probed all the walk can need (a miss is a
        # coverage hole); otherwise a miss is the parent-side prober's.
        prober = None if self._use_fork else self._parent()
        asked = None
        try:
            report = walk.run(
                message_types=types, exclude=excluded,
                steps=CachedSteps(self.testbed, self.cache, prober,
                                  poisoned, kept, self.config.max_wait),
                **walk_kwargs)
        finally:
            if prober is not None:
                asked = prober.drain()
                self._absorb(asked)
        if (asked is not None and asked.startup is not None
                and self._startup_reference is not None):
            # another boot of this world is on record — the journal's, or
            # the workers': the parent-side prober's must match it
            self._check_startup(asked.startup)
        if self._tracing:
            instance = prober.harness.instance if prober is not None else None
            report.telemetry = summarize(
                self.tracer,
                instance.world.instruments if instance is not None else None,
                since=pass_mark)
        # Side channel, like worker_breakdown: never serialized into the
        # deterministic report, only rendered for humans when eventful.
        report.worker_health = self._health.report_if_eventful()
        return report

    # ------------------------------------------------------------- forensics

    def explain(self, findings: Sequence, traces: bool = False) -> list:
        """Explain ``findings``, in order, one ``explain`` step per finding
        type (:meth:`~repro.parallel.worker.WorkerProber.explain`) from the
        type's context in the cache.  A healthy pool runs the steps, each
        context shipped to a worker once; the parent-side prober runs
        whatever the pool did not answer."""
        records: Dict[str, list] = {}
        for finding in findings:
            scenario = finding.scenario
            records.setdefault(scenario.message_type, []).append(
                scenario.action.to_record())
        slots = [_Slot(Step("explain", message_type, tuple(explained),
                            context=self.cache.contexts.get(message_type),
                            traces=traces))
                 for message_type, explained in records.items()]
        if self._use_fork:
            self._run(_Pool(list(slots), {}))
        explained: Dict[str, Iterator] = {}
        for slot in slots:
            step, ret = slot.step, slot.result
            explained[step.message_type] = iter(
                ret.explanations
                if ret is not None and ret.explanations is not None
                else self._parent().explain(step.message_type, step.context,
                                            step.records, traces))
        return [next(explained[f.scenario.message_type]) for f in findings]

    # ------------------------------------------------------------ accounting

    def worker_breakdown(self) -> List[WorkerAttribution]:
        """Per-worker platform time and wall time, in worker order.

        Approximate after a recovery: work a dead worker did before dying
        is unreported, and a replacement restarts its cumulative ledger."""
        return [self._attribution[w] for w in sorted(self._attribution)]

    def worker_health(self) -> WorkerHealthReport:
        """Everything the self-healing layer did, clean or not."""
        return self._health.report()

    def take_log_records(self) -> list:
        """Drain EventLog records gathered from the probers so far."""
        records, self._log_records = self._log_records, []
        return records

    # --------------------------------------------------------------- teardown

    def close(self) -> None:
        """Stop every worker process; idempotent and fd-clean: parent pipe
        ends are closed and the process/conn/prober tables cleared even
        when a worker already died."""
        for conn in self._conns.values():
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for process in self._procs.values():
            self._end(process, grace=10)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._procs.clear()
        self._conns.clear()
        self._prober = None

    def __enter__(self) -> "ScenarioExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
