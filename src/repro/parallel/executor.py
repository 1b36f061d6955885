"""ScenarioExecutor: the one hunt engine — walk, probe cache, prober.

``run_pass`` returns the :class:`~repro.search.results.SearchReport` the
live algorithm class would — same findings, ledger and supervision events —
because it *is* that algorithm: its own ``_run_pass`` runs over a replaying
step source (:mod:`repro.parallel.merge`) that answers each step from the
executor's :class:`~repro.parallel.worker.ProbeCache`.  All that varies is
how a step gets into the cache:

* **A miss is a question.**  In-process (``workers=1``, no ``fork``, a
  collapsed pool) the walk asks the one parent-side
  :class:`~repro.parallel.worker.WorkerProber` to simulate the step it
  lacks, admits it and replays it; later passes replay the recorded boot
  and steps instead of re-simulating them.
* **A fork pool is a prefetch.**  With ``workers > 1`` persistent forked
  workers (factories are closures: they cross a process boundary by fork
  inheritance, never by pickling) probe everything the pass *can* need —
  message types for weighted/greedy, scenarios for brute force, pinned
  round-robin in first-seen order so a type keeps hitting the same worker's
  cache — and their returns are admitted before the walk starts.  With a
  healthy pool a miss is a "coverage hole" :class:`SearchError`: the
  superset rule's self-check.  :meth:`worker_breakdown` reports what the
  workers really spent.
* **A store is the cache's persistence.**  ``store.cache`` *is* the
  executor's cache: every admission is journaled first, and a resumed hunt
  starts with the journal's probes already answered.

The pool is **self-healing** (see :mod:`repro.parallel.health`): a crashed
or hung worker is killed, reaped, and respawned with its task replayed —
workers are pure functions of ``(factory, seed, params)``, so byte identity
survives worker death.  An exhausted slot's shard moves to the survivors, a
task that keeps killing workers is quarantined through the supervision
ledger, and a collapsed pool degrades to the parent-side prober: what the
pool left unanswered is just a miss.

Three values are **parent-only**: a ``FaultPlan`` (its RNG stream is
sequence-dependent, so sharding would change which operations fault), the
harness's injection cache with its snapshot budget (cached passes charge
less), and the progress line.  Forked workers never see them, and under the
first two no probe outlives its ask
(:class:`~repro.parallel.worker.NoProbeCache`): the engine then does, step
for step, what the live algorithm does.  ``FaultSchedule`` chaos is fine
everywhere — armed per world before warmup, identical in every prober.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence, Set

from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.common.errors import ConfigError, SearchError
from repro.controller.costs import CostLedger, WorkerAttribution
from repro.controller.monitor import AttackThreshold
from repro.parallel.health import (FAIL_CRASH, FAIL_TIMEOUT, HealthMonitor,
                                   HealthPolicy, WorkerHealthReport,
                                   describe_task, quarantined_return,
                                   task_key, task_units)
from repro.parallel.merge import REPLAYING
from repro.parallel.worker import (NoProbeCache, ProbeCache, ProbeParams,
                                   StartupProbe, WorkerProber, WorkerReturn,
                                   worker_main)
from repro.search.results import SearchReport
from repro.search.weighted import ClusterWeights
from repro.telemetry.summary import summarize
from repro.telemetry.tracer import Tracer, maybe_span


@dataclass
class _Pending:
    """One in-flight (or queued) task and where its results belong."""

    task: tuple
    #: the worker slot the task was sharded to; results are recorded under
    #: this slot no matter which worker finally executes the task
    slot: int
    key: tuple
    units: int
    #: absolute ``time.monotonic`` deadline; None = no hang detection
    deadline: Optional[float] = None


@dataclass
class _PoolState:
    """Mutable state of one ``_dispatch`` round."""

    #: executing worker -> its current task
    pending: Dict[int, _Pending] = field(default_factory=dict)
    #: executing worker -> tasks waiting for it to free up (reassignments)
    queue: Dict[int, List[_Pending]] = field(default_factory=dict)
    #: original slot -> result
    returns: Dict[int, WorkerReturn] = field(default_factory=dict)
    #: slot order in which results are admitted to the cache (and so
    #: journaled to a run store); a slot flushes only once every earlier
    #: slot has returned, so the journal's record order is deterministic
    #: whatever order workers finish in
    flush_order: List[int] = field(default_factory=list)
    #: slots whose result is synthetic (a quarantined poison task): it
    #: goes to ``poisoned``, never to the executor's cache or the journal —
    #: replaying it would poison a clean resume
    synthetic: set = field(default_factory=set)
    poisoned: ProbeCache = field(default_factory=ProbeCache)


class ScenarioExecutor:
    """Runs a pass: the algorithm's walk over the probe cache, fed by the
    parent-side prober on demand or by a forked pool ahead of time."""

    def __init__(self, factory, seed: int = 0, algorithm: str = "weighted",
                 workers: int = 2,
                 threshold: Optional[AttackThreshold] = None,
                 space_config: Optional[ActionSpaceConfig] = None,
                 max_wait: Optional[float] = None,
                 shared_pages: bool = True,
                 delta_snapshots: bool = False,
                 fault_schedule=None,
                 watchdog_limit: Optional[int] = None,
                 max_retries: int = 2,
                 rounds: int = 3, confirmations: int = 2,
                 tracer: Optional[Tracer] = None,
                 log_events: bool = False,
                 health: Optional[HealthPolicy] = None,
                 store=None, fault_plan=None, injection_cache: bool = False,
                 snapshot_budget=None, progress=None) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if algorithm not in REPLAYING:
            raise ConfigError(f"unknown algorithm {algorithm!r}; "
                              f"expected one of {tuple(REPLAYING)}")
        self.factory = factory
        self.seed = seed
        self.algorithm = algorithm
        self.workers = workers
        self.threshold = threshold or AttackThreshold()
        self._options = ({"rounds": rounds, "confirmations": confirmations}
                         if algorithm == "greedy" else {})
        self.tracer = tracer
        self.policy = health or HealthPolicy()
        #: durable :class:`~repro.store.runstore.RunStore` (duck-typed:
        #: ``cache`` + ``covers``): journaled probes are answered from
        #: disk, fresh ones are journaled; None = no durability
        self.store = store
        #: every probe recorded so far — the store's when there is one;
        #: nothing under the parent-only FaultPlan / injection cache
        self.cache = (store.cache if store is not None
                      else NoProbeCache() if fault_plan is not None
                      or injection_cache else ProbeCache())
        self._parent_only = dict(
            fault_plan=fault_plan, injection_cache=injection_cache,
            snapshot_budget=snapshot_budget)
        self.progress = progress
        #: the current (or last) pass's walk; its ``report`` is the partial
        #: result a caller prints after a KeyboardInterrupt
        self.walk = None
        #: an unbooted instance: the schema/name/search-type oracle the
        #: serial algorithm reads off its own harness
        self._instance = factory(seed)
        self._space = ActionSpace(self._instance.schema, space_config)
        self.params = ProbeParams(
            algorithm=algorithm, threshold=self.threshold,
            space_config=space_config, max_wait=max_wait,
            shared_pages=shared_pages, delta_snapshots=delta_snapshots,
            fault_schedule=fault_schedule, watchdog_limit=watchdog_limit,
            max_retries=max_retries,
            trace=tracer is not None and tracer.enabled,
            log_events=log_events)
        start_methods = multiprocessing.get_all_start_methods()
        self._use_fork = workers > 1 and "fork" in start_methods
        self._health = HealthMonitor(self.policy, workers, tracer=tracer)
        self._degraded = False
        self._reassigned = 0
        #: the first startup trace ever seen; every worker — including
        #: respawned replacements in later passes — must replay it bitwise.
        #: A store with a journaled startup seeds the reference, so a
        #: resumed hunt's live boots are checked against the original's.
        self._startup_reference: Optional[StartupProbe] = (
            store.cache.startup if store is not None else None)
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._conns: Dict[int, connection.Connection] = {}
        #: the one in-process prober (see :meth:`_parent`)
        self._prober: Optional[WorkerProber] = None
        #: work unit -> worker id, assigned round-robin in first-seen order
        #: (stable across passes, so caches stay hot)
        self._pins: Dict[object, int] = {}
        self._attribution: Dict[int, WorkerAttribution] = {}
        self._log_records: list = []

    # --------------------------------------------------------------- plumbing

    def _live_slots(self) -> List[int]:
        """The non-retired worker slots (every one retired idle: start over
        at 0).  The first carries shard-independent work — the startup boot
        of an empty pass, the brute-force baseline."""
        return [w for w in range(self.workers)
                if not self._health.is_retired(w)] or [0]

    def _pin(self, unit) -> int:
        worker = self._pins.get(unit)
        if worker is None or self._health.is_retired(worker):
            slots = self._live_slots()
            worker = self._pins[unit] = slots[len(self._pins) % len(slots)]
        return worker

    def _spawn(self, worker: int) -> None:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=worker_main,
            args=(child_conn, worker, self.factory, self.seed,
                  self.params),
            daemon=True)
        process.start()
        child_conn.close()
        self._procs[worker] = process
        self._conns[worker] = parent_conn
        self._health.record_spawn(worker)

    # ------------------------------------------------------------- dispatch

    def _parent(self) -> WorkerProber:
        """The one in-process prober: it answers the walk's misses whenever
        no healthy pool has (``workers=1``, no ``fork``, a collapsed pool),
        and it alone is built with the parent-only values."""
        if self._prober is None:
            self._prober = WorkerProber(0, self.factory, self.seed,
                                        self.params, tracer=self.tracer,
                                        **self._parent_only)
        return self._prober

    def _prefetch(self, tasks: Dict[int, tuple]) -> _PoolState:
        """Send one task per worker; gather results, healing failures, and
        admit them to the cache as they arrive."""
        state = _PoolState(flush_order=sorted(tasks))
        for worker, task in sorted(tasks.items()):
            self._submit(worker, _Pending(task=task, slot=worker,
                                          key=task_key(task),
                                          units=task_units(task)), state)
        while state.pending:
            self._collect_once(state)
        # A collapsed pool leaves slots unanswered (misses, to the walk):
        # admit what did come back behind them.
        state.flush_order = [slot for slot in state.flush_order
                             if slot in state.returns]
        self._flush_journal(state)
        self._absorb(state.returns)
        return state

    def _submit(self, worker: int, entry: _Pending, state: _PoolState) -> None:
        if self._degraded:
            return  # left for the walk to ask the parent-side prober
        if worker in state.pending:
            state.queue.setdefault(worker, []).append(entry)
            return
        if worker not in self._procs:
            self._spawn(worker)
        budget = self.policy.deadline_for(entry.units)
        entry.deadline = (time.monotonic() + budget
                          if budget is not None else None)
        try:
            self._conns[worker].send(entry.task)
        except (BrokenPipeError, OSError):
            # The worker died *between* tasks (its last task succeeded, so
            # nothing counts against the poison budget): route through the
            # same failure path a mid-task death takes.
            state.queue.setdefault(worker, []).insert(0, entry)
            self._fail_worker(worker, FAIL_CRASH, "pipe closed on task send",
                              None, state)
            return
        state.pending[worker] = entry

    def _poll_timeout(self, state: _PoolState) -> float:
        timeout = self.policy.poll_interval
        now = time.monotonic()
        for entry in state.pending.values():
            if entry.deadline is not None:
                timeout = min(timeout, entry.deadline - now)
        return max(0.01, timeout)

    def _collect_once(self, state: _PoolState) -> None:
        for worker in list(state.pending):
            if worker not in self._conns:  # pragma: no cover - defensive
                self._fail_worker(worker, FAIL_CRASH, "connection lost",
                                  state.pending.pop(worker), state)
                return
        conns = {self._conns[w]: w for w in state.pending}
        ready = (connection.wait(list(conns),
                                 timeout=self._poll_timeout(state))
                 if conns else [])
        for conn in ready:
            worker = conns[conn]
            if worker not in state.pending:
                continue  # a failure path already consumed this worker
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                self._fail_worker(worker, FAIL_CRASH, "pipe closed mid-task",
                                  state.pending.pop(worker), state)
                continue
            if status != "ok":
                raise SearchError(
                    f"parallel worker {worker} failed:\n{payload}")
            entry = state.pending.pop(worker)
            self._record(entry.slot, payload, state)
            queued = state.queue.get(worker)
            if queued:
                self._submit(worker, queued.pop(0), state)
                if not state.queue.get(worker):
                    state.queue.pop(worker, None)
        now = time.monotonic()
        for worker in list(state.pending):
            entry = state.pending[worker]
            if entry.deadline is not None and now > entry.deadline:
                budget = self.policy.deadline_for(entry.units) or 0.0
                self._fail_worker(
                    worker, FAIL_TIMEOUT,
                    f"deadline expired ({budget:.1f}s for "
                    f"{entry.units} units)",
                    state.pending.pop(worker), state)

    def _record(self, slot: int, payload: WorkerReturn, state: _PoolState,
                synthetic: bool = False) -> None:
        if slot in state.returns:  # pragma: no cover - defensive
            raise SearchError(f"duplicate result for worker slot {slot}")
        state.returns[slot] = payload
        if synthetic:
            state.synthetic.add(slot)
        self._flush_journal(state)

    def _flush_journal(self, state: _PoolState) -> None:
        """Admit finished slots' probes to the cache — which journals them
        when it is a store's — in slot order, as far as results have
        arrived contiguously.  Waiting for the prefix — instead of
        admitting on arrival — keeps the journal's byte content a pure
        function of the hunt, whatever order the pool finishes in; a kill
        mid-pass still persists every already-flushed slot."""
        while state.flush_order and state.flush_order[0] in state.returns:
            slot = state.flush_order.pop(0)
            cache = state.poisoned if slot in state.synthetic else self.cache
            ret = state.returns[slot]
            if ret.startup is not None:
                cache.add_startup(ret.startup)
            for probe in ret.types:
                cache.add_type(probe)
            if ret.baseline is not None:
                cache.add_baseline(ret.baseline)
            for probe in ret.scenarios:
                cache.add_scenario(probe)

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
                     entry: Optional[_Pending], state: _PoolState) -> None:
        """Kill and reap a failed worker, then recover its work: quarantine
        a poison task, replay on a respawn, reassign to a survivor, or
        degrade to the parent-side prober."""
        self._reap(worker, kind, detail)
        redo: List[_Pending] = []
        if entry is not None:
            crashes = self._health.note_task_crash(entry.key)
            if self._health.is_poison(entry.key):
                label = describe_task(entry.task)
                self._health.record_quarantine(label, crashes)
                self._record(entry.slot, quarantined_return(
                    worker, entry.task,
                    f"poison task killed {crashes} workers "
                    f"(last {kind}: {detail})", crashes), state,
                    synthetic=True)
            else:
                redo.append(entry)
        redo.extend(state.queue.pop(worker, ()))
        if not redo:
            if not self._health.allow_restart(worker):
                self._health.retire(worker)
            return
        if self._health.allow_restart(worker):
            delay = self._health.record_restart(worker)
            if delay > 0:
                time.sleep(delay)
            with maybe_span(self.tracer, "executor.worker.respawn",
                            worker=worker):
                self._spawn(worker)
            for item in redo:
                self._health.record_replay(worker, item.units)
                self._submit(worker, item, state)
            return
        self._health.retire(worker)
        for item in redo:
            self._reassign(worker, item, state)

    def _reassign(self, worker: int, item: _Pending,
                  state: _PoolState) -> None:
        if self._degraded:
            return
        survivors = [w for w in sorted(self._procs)
                     if not self._health.is_retired(w)]
        if not survivors:
            self._collapse()
            return
        target = survivors[(worker + 1 + self._reassigned) % len(survivors)]
        self._reassigned += 1
        self._health.record_reassignment(worker, target, item.units)
        for unit in item.task[1]:  # later passes shard them there directly
            self._pins[unit] = target
        self._submit(target, item, state)

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

    def _absorb(self, returns: Dict[int, WorkerReturn]) -> None:
        """Fold worker accounting, spans, and log records into the parent.

        Attribution is keyed by the worker that *executed* the task
        (``ret.worker``), which differs from the shard's slot after a
        reassignment; the worker's cumulative ledger only ever grows, so
        the larger snapshot wins when one worker returned twice.
        """
        for __, ret in sorted(returns.items()):
            attribution = self._attribution.setdefault(
                ret.worker, WorkerAttribution(worker=ret.worker))
            ledger = CostLedger(dict(ret.by_category))
            if ledger.total() >= attribution.ledger.total():
                attribution.ledger = ledger
            attribution.wall_seconds += ret.wall_seconds
            for probe in ret.types:
                if probe.message_type not in attribution.shards:
                    attribution.shards.append(probe.message_type)
            if ret.scenarios and "scenarios" not in attribution.shards:
                attribution.shards.append("scenarios")
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.adopt(ret.spans, ret.events, worker=ret.worker)
            self._log_records.extend(ret.log_records)

    def _shared_startup(self, returns: Dict[int, WorkerReturn]
                        ) -> StartupProbe:
        """All workers boot the same deterministic world; their startup
        traces must be identical — anything else means nondeterminism that
        would silently corrupt the merge, so fail loudly.  The reference
        persists across passes, so a worker respawned mid-hunt is checked
        against the original startup too."""
        startups = [ret.startup for __, ret in sorted(returns.items())
                    if ret.startup is not None]
        if not startups:
            raise SearchError("no worker returned a startup trace")
        reference = self._startup_reference
        if reference is None:
            reference = self._startup_reference = startups[0]
        for other in startups:
            if (other.trace.charges != reference.trace.charges
                    or other.quarantined != reference.quarantined):
                raise SearchError(
                    "nondeterministic startup across parallel workers: "
                    "identical (factory, seed) produced different charges "
                    "(a respawned worker must replay the serial startup "
                    "bitwise)")
        return reference

    # ------------------------------------------------------------------ pass

    def run_pass(self, message_types: Optional[Sequence[str]] = None,
                 exclude: Optional[Set[tuple]] = None,
                 weights: Optional[ClusterWeights] = None,
                 max_scenarios: Optional[int] = None) -> SearchReport:
        """Execute one pass; return the report the live algorithm class
        would.  ``weights`` is mutated exactly as the live weighted pass
        would mutate it (bump per finding, in order)."""
        excluded = frozenset(exclude or ())
        types = (list(message_types) if message_types is not None
                 else self._instance.search_types())
        tracing = self.tracer is not None and self.tracer.enabled
        pass_mark = self.tracer.mark() if tracing else 0
        brute = self.algorithm == "brute"
        poisoned = ProbeCache()
        if self._use_fork:
            state = self._prefetch(
                self._brute_tasks(types, excluded, max_scenarios) if brute
                else self._probe_tasks(types, excluded))
            poisoned = state.poisoned
            # (a pool that collapsed before anything booted has nothing
            # to cross-check yet; brute force never takes a warm boot)
            if not brute and (self._use_fork or any(
                    r.startup is not None for r in state.returns.values())):
                self._shared_startup(state.returns)
        # A healthy pool has probed all the walk can need (a miss is a
        # coverage hole); otherwise a miss is the parent-side prober's.
        prober = None if self._use_fork else self._parent()
        options = dict(self._options, **(
            {"weights": weights} if self.algorithm == "weighted" else {}))
        self.walk = REPLAYING[self.algorithm](
            self._instance, self.cache, prober, poisoned, self.factory,
            seed=self.seed, threshold=self.threshold,
            space_config=self.params.space_config, tracer=self.tracer,
            progress=self.progress, **options)
        try:
            report = self.walk.run(
                message_types=types, exclude=excluded,
                **({"max_scenarios": max_scenarios} if brute else {}))
        finally:
            asked = {0: prober.drain()} if prober is not None else {}
            self._absorb(asked)
        if self._startup_reference is not None and any(
                ret.startup is not None for ret in asked.values()):
            # another boot of this world is on record — the journal's, or
            # the late workers': the parent-side prober's must match it
            self._shared_startup(asked)
        if tracing:
            instance = (prober.search.harness.instance
                        if prober is not None else None)
            report.telemetry = summarize(
                self.tracer,
                instance.world.instruments if instance is not None else None,
                since=pass_mark)
        # Side channel, like worker_breakdown: never serialized into the
        # deterministic report, only rendered for humans when eventful.
        report.worker_health = self._health.report_if_eventful()
        return report

    def _probe_tasks(self, types: Sequence[str],
                     excluded: frozenset) -> Dict[int, tuple]:
        """What the pool prefetches for a weighted/greedy pass: every type
        the cache does not already cover, sharded by pin."""
        shards: Dict[int, List[str]] = {}
        for message_type in types:
            actions = self._space.actions_for(message_type, excluded)
            # Types the journal fully covers are answered from disk.  A
            # partially covered type is re-probed whole by its worker
            # (identical traces) and the cache's dedupe absorbs the overlap.
            if not actions or (self.store is not None and self.store.covers(
                    message_type, actions, self.threshold,
                    early_stop=self.params.early_stop) is not None):
                continue
            shards.setdefault(self._pin(message_type), []).append(message_type)
        if not shards:
            # Nothing left to evaluate — the lead worker still boots (or
            # reuses) its testbed, so its startup is cross-checked.
            shards = {self._live_slots()[0]: []}
        return {worker: ("probe", shard, excluded)
                for worker, shard in shards.items()}

    def _brute_tasks(self, types: Sequence[str], excluded: frozenset,
                     max_scenarios: Optional[int]) -> Dict[int, tuple]:
        scenarios = [s for t in types
                     for s in self._space.scenarios_for(t, excluded)]
        if max_scenarios is not None:
            scenarios = scenarios[:max_scenarios]
        lead = self._live_slots()[0]
        shards: Dict[int, List[tuple]] = {lead: []}  # the lead runs baseline
        for scenario in scenarios:
            worker = self._pin(scenario.to_record())
            shards.setdefault(worker, []).append(scenario.to_record())
        return {worker: ("brute", records, worker == lead)
                for worker, records in shards.items()}

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
