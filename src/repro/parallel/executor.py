"""ScenarioExecutor: shard a pass across workers, merge deterministically.

The executor owns a pool of persistent workers (forked processes when the
platform supports ``fork`` and more than one worker was requested; in-process
probers otherwise — testbed factories are closures, so they can only cross a
process boundary by fork inheritance, never by pickling).  Work units are
message types for weighted/greedy and scenarios for brute force, pinned to
workers round-robin in first-seen order so a type keeps hitting the same
worker's caches across hunt passes.

``run_pass`` returns a :class:`~repro.search.results.SearchReport` that is
byte-identical to what the serial algorithm would produce — same findings,
same ledger, same supervision events — because it *is* the serial
algorithm: the executor gathers the workers' recorded probes and runs the
algorithm's own ``_run_pass`` over them through a replaying step source
(see :mod:`repro.parallel.merge`).  There is no second copy of any walk
here.  What the workers actually spent is reported separately through
:meth:`worker_breakdown`.

The pool is **self-healing** (see :mod:`repro.parallel.health`): result
collection polls with per-task deadlines instead of blocking, a crashed or
hung worker is killed, reaped, and respawned with its task replayed — and
because workers are pure functions of ``(factory, seed, params)``, the
replayed task records the same traces the dead worker would have, so the
byte-identity contract survives worker death.  Worker slots have a bounded
restart budget; an exhausted slot's shard moves to the survivors, a task
that keeps killing workers is quarantined through the supervision ledger,
and a fully collapsed pool degrades to the in-process prober rather than
aborting the hunt.

Deterministic platform fault injection (``FaultPlan``) is deliberately not
supported: its private RNG stream is sequence-dependent, so sharding would
change which operations fault.  Environmental ``FaultSchedule`` chaos is
fine — it is armed per-world before warmup and each worker's world perturbs
identically to the serial one.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence, Set

from repro.attacks.actions import AttackScenario
from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.common.errors import ConfigError, SearchError
from repro.controller.costs import CostLedger, WorkerAttribution
from repro.controller.monitor import AttackThreshold
from repro.parallel.health import (FAIL_CRASH, FAIL_TIMEOUT, HealthMonitor,
                                   HealthPolicy, WorkerHealthReport,
                                   describe_task, quarantined_return,
                                   task_key, task_units)
from repro.parallel.merge import REPLAYING
from repro.parallel.worker import (ProbeParams, ScenarioProbe, StartupProbe,
                                   TypeProbe, WorkerProber, WorkerReturn,
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
    #: tasks to run in-process after the pool collapsed
    backlog: List[_Pending] = field(default_factory=list)
    #: slot order in which results are journaled to the run store; a slot
    #: flushes only once every earlier slot has returned, so the journal's
    #: record order is deterministic whatever order workers finish in
    flush_order: List[int] = field(default_factory=list)
    #: slots whose result is synthetic (a quarantined poison task), never
    #: journaled — replaying it would poison a clean resume
    synthetic: set = field(default_factory=set)


class ScenarioExecutor:
    """Shards a pass's work units across a persistent worker pool."""

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
                 store=None) -> None:
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
        self.rounds = rounds
        self.confirmations = confirmations
        self.tracer = tracer
        self.policy = health or HealthPolicy()
        #: durable :class:`~repro.store.runstore.RunStore` (duck-typed:
        #: ``cache`` + ``covers``): journal-covered types are answered from
        #: disk, fresh probes are journaled; None = no durability
        self.store = store
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
        self._inline: Dict[int, WorkerProber] = {}
        #: work unit -> worker id, assigned round-robin in first-seen order
        #: (stable across passes, so caches stay hot)
        self._pins: Dict[object, int] = {}
        self._attribution: Dict[int, WorkerAttribution] = {}
        self._log_records: list = []

    # --------------------------------------------------------------- plumbing

    def _pin(self, unit) -> int:
        worker = self._pins.get(unit)
        if worker is not None and not self._health.is_retired(worker):
            return worker
        candidates = [w for w in range(self.workers)
                      if not self._health.is_retired(w)]
        if not candidates:
            candidates = [0]  # collapsed pool: everything runs in-process
        worker = candidates[len(self._pins) % len(candidates)]
        self._pins[unit] = worker
        return worker

    def _repin(self, task: tuple, target: int) -> None:
        """Pin a reassigned task's units to their new worker so later
        passes shard them there directly."""
        for unit in task[1]:
            self._pins[unit] = target

    def _lead_slot(self) -> int:
        """The slot that carries shard-independent work (startup boot for
        empty passes, the brute-force baseline): the lowest non-retired
        worker."""
        for worker in range(self.workers):
            if not self._health.is_retired(worker):
                return worker
        return 0

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

    def _dispatch(self, tasks: Dict[int, tuple]) -> Dict[int, WorkerReturn]:
        """Send one task per worker; gather results, healing failures."""
        if self._use_fork:
            returns = self._dispatch_fork(tasks)
        else:
            returns = {}
            for worker in sorted(tasks):
                returns[worker] = self._run_inline(worker, tasks[worker])
        self._absorb(returns)
        return returns

    def _run_inline(self, worker: int, task: tuple) -> WorkerReturn:
        if worker not in self._inline:
            # In-process probers work directly on the store's cache: each
            # fresh probe is journaled as it is recorded (the finest
            # durability granularity) and a partially-journaled type
            # resumes mid-walk.  Forked workers do neither: they re-probe
            # their shard fresh — identical traces, by determinism — and
            # the parent journals their returns (see _flush_journal),
            # because two processes appending to one journal would
            # interleave records.
            self._inline[worker] = WorkerProber(
                worker, self.factory, self.seed, self.params,
                cache=self.store.cache if self.store is not None else None)
        return self._inline[worker].run_task(task)

    def _dispatch_fork(self, tasks: Dict[int, tuple]
                       ) -> Dict[int, WorkerReturn]:
        state = _PoolState()
        state.flush_order = sorted(tasks)
        for worker in sorted(tasks):
            task = tasks[worker]
            self._submit(worker, _Pending(task=task, slot=worker,
                                          key=task_key(task),
                                          units=task_units(task)), state)
        while state.pending:
            self._collect_once(state)
        for items in state.queue.values():  # pragma: no cover - defensive
            state.backlog.extend(items)
        state.queue.clear()
        # A collapsed pool finishes the pass in-process: same factory, same
        # seed, same recorded traces — the report stays serial-identical.
        for item in sorted(state.backlog, key=lambda entry: entry.slot):
            self._record(item.slot, self._run_inline(item.slot, item.task),
                         state)
        return state.returns

    def _submit(self, worker: int, entry: _Pending, state: _PoolState) -> None:
        if self._degraded:
            state.backlog.append(entry)
            return
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
        """Journal finished slots' probes in slot order, as far as results
        have arrived contiguously.  Waiting for the prefix — instead of
        journaling on arrival — keeps the journal's byte content a pure
        function of the hunt, whatever order the pool finishes in; a kill
        mid-pass still persists every already-flushed slot."""
        if self.store is None:
            return
        while state.flush_order and state.flush_order[0] in state.returns:
            slot = state.flush_order.pop(0)
            if slot in state.synthetic:
                continue
            ret = state.returns[slot]
            if ret.startup is not None:
                self.store.cache.add_startup(ret.startup)
            for probe in ret.types:
                self.store.cache.add_type(probe)

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
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
                    if process.is_alive():  # pragma: no cover - defensive
                        process.kill()
                        process.join(timeout=5)
                else:
                    process.join(timeout=5)
                try:
                    process.close()
                except ValueError:  # pragma: no cover - defensive
                    pass
        self._health.record_failure(worker, kind, detail)

    def _fail_worker(self, worker: int, kind: str, detail: str,
                     entry: Optional[_Pending], state: _PoolState) -> None:
        """Kill and reap a failed worker, then recover its work: quarantine
        a poison task, replay on a respawn, reassign to a survivor, or
        degrade to in-process execution."""
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
            state.backlog.append(item)
            return
        survivors = [w for w in sorted(self._procs)
                     if not self._health.is_retired(w)]
        if not survivors:
            self._collapse([item], state)
            return
        target = survivors[(worker + 1 + self._reassigned) % len(survivors)]
        self._reassigned += 1
        self._health.record_reassignment(worker, target, item.units)
        self._repin(item.task, target)
        self._submit(target, item, state)

    def _collapse(self, items: List[_Pending], state: _PoolState) -> None:
        if not self.policy.degrade:
            raise SearchError(
                "parallel worker pool collapsed: every worker exhausted its "
                "restart budget; raise --worker-retries, drop --no-degrade "
                "to fall back to in-process execution, or run serially")
        if not self._degraded:
            self._health.record_degraded()
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.instant("executor.pool.degrade")
            self._degraded = True
            self._use_fork = False
        state.backlog.extend(items)

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
        """Execute one pass across the pool; return the serial-identical
        merged report.  ``weights`` is mutated exactly as the serial
        weighted pass would mutate it (bump per finding, in order)."""
        excluded = frozenset(exclude or ())
        types = (list(message_types) if message_types is not None
                 else self._instance.search_types())
        pass_mark = (self.tracer.mark()
                     if self.tracer is not None and self.tracer.enabled
                     else 0)
        if self.algorithm == "brute":
            report = self._run_brute(types, excluded, max_scenarios)
        else:
            report = self._run_branching(types, excluded, weights)
        if self.tracer is not None and self.tracer.enabled:
            report.telemetry = summarize(self.tracer, None, since=pass_mark)
        # Side channel, like worker_breakdown: never serialized into the
        # deterministic report, only rendered for humans when eventful.
        report.worker_health = self._health.report_if_eventful()
        return report

    def _run_branching(self, types: Sequence[str], excluded: frozenset,
                       weights: Optional[ClusterWeights]) -> SearchReport:
        actions_by_type = {
            t: [a for a in self._space.actions_for(t)
                if AttackScenario(t, a).to_record() not in excluded]
            for t in types}
        probes: Dict[str, TypeProbe] = {}
        todo = list(types)
        if self.store is not None:
            # Types the journal fully covers are answered from disk; their
            # recorded traces replay through the merge exactly as a live
            # worker's would.  Partially covered types stay in the shards —
            # an in-process prober resumes mid-walk on the store's cache, a
            # forked worker re-probes (identical traces) and the cache's
            # dedupe absorbs the overlap.
            for message_type in todo:
                probe = self.store.covers(
                    message_type, actions_by_type[message_type],
                    self.threshold, early_stop=self.params.early_stop)
                if probe is not None:
                    probes[message_type] = probe
            todo = [t for t in todo if t not in probes]
        shards: Dict[int, List[str]] = {}
        for message_type in todo:
            if not actions_by_type[message_type]:
                continue
            shards.setdefault(self._pin(message_type), []).append(message_type)
        if not shards:
            # Nothing left to evaluate — the lead worker still boots (or
            # reuses) its testbed so the report carries the serial startup
            # charges.
            shards = {self._lead_slot(): []}
        tasks = {worker: ("probe", shard, excluded)
                 for worker, shard in shards.items()}
        returns = self._dispatch(tasks)
        startup = self._shared_startup(returns)
        for __, ret in sorted(returns.items()):
            for probe in ret.types:
                probes[probe.message_type] = probe
        options = ({"weights": weights} if self.algorithm == "weighted"
                   else {"rounds": self.rounds,
                         "confirmations": self.confirmations})
        return self._walk(startup, probes, options).run(
            message_types=types, exclude=excluded)

    def _walk(self, first, probes: dict, options: dict):
        """The algorithm's serial walk, bound to recorded probes."""
        return REPLAYING[self.algorithm](
            self._instance, first, probes, self.factory, seed=self.seed,
            threshold=self.threshold, space_config=self.params.space_config,
            **options)

    def _run_brute(self, types: Sequence[str], excluded: frozenset,
                   max_scenarios: Optional[int]) -> SearchReport:
        scenarios = [s for t in types for s in self._space.scenarios_for(t)
                     if s.to_record() not in excluded]
        if max_scenarios is not None:
            scenarios = scenarios[:max_scenarios]
        lead = self._lead_slot()
        shards: Dict[int, List[tuple]] = {lead: []}  # the lead runs baseline
        for scenario in scenarios:
            worker = self._pin(scenario.to_record())
            shards.setdefault(worker, []).append(scenario.to_record())
        tasks = {worker: ("brute", records, worker == lead)
                 for worker, records in shards.items()}
        returns = self._dispatch(tasks)
        baseline = returns[lead].baseline
        if baseline is None:
            raise SearchError(f"brute worker {lead} returned no baseline")
        probes: Dict[tuple, ScenarioProbe] = {}
        for __, ret in sorted(returns.items()):
            for probe in ret.scenarios:
                probes[probe.record] = probe
        return self._walk(baseline, probes, {}).run(
            message_types=types, exclude=excluded,
            max_scenarios=max_scenarios)

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
        """Drain EventLog records gathered from the workers so far."""
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
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=10)
            try:
                process.close()
            except ValueError:  # pragma: no cover - defensive
                pass
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._procs.clear()
        self._conns.clear()
        self._inline.clear()

    def __enter__(self) -> "ScenarioExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
