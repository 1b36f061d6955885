"""Tests for parallel hunt execution and the injection-point cache.

The parallel executor's contract is strict: a pass split across workers
must produce a report *byte-identical* (same JSON serialization) to the
serial algorithm's — same findings, same float-exact ledger, same
supervision events.  These tests assert that for all three algorithms, for
full hunts with a checkpointing store, and under an environmental fault
schedule.
"""

import gc
import hashlib
import json
import time
import weakref
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.reports import hunt_result_to_dict, report_to_dict
from repro.attacks.actions import (CLUSTER_DROP, AttackScenario,
                                   MaliciousAction)
from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.common.errors import ConfigError, ProxyError, SearchError
from repro.controller.harness import AttackHarness
from repro.controller.supervisor import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.parallel import ProbeParams, ScenarioExecutor, WorkerProber
from repro.parallel.worker import ProbeCache, Step
from repro.parallel.merge import CachedSteps
from repro.search import ALGORITHMS
from repro.search.hunt import hunt
from repro.search.weighted import (DEFAULT_WEIGHTS, ClusterWeights,
                                   WeightedGreedySearch)
from repro.store.runstore import RunStore
from repro.systems.paxos.testbed import paxos_testbed

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)
FACTORY = paxos_testbed(malicious_index=0, warmup=1.0, window=2.0)
TYPES = ["Accept", "Prepare", "Heartbeat"]


#: the smallest testbed and space that still tell the algorithms apart,
#: for the generative serial-vs-replay property (two runs per example)
SMALL_SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                                duplicate_counts=(), include_divert=False,
                                include_lying=False)
SMALL_FACTORY = paxos_testbed(malicious_index=0, warmup=0.5, window=1.0)
SMALL_SCENARIOS = [s.to_record() for s in ActionSpace(
    SMALL_FACTORY(3).schema, SMALL_SPACE).scenarios_for("Accept")]


def report_json(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def hunt_json(result) -> str:
    return json.dumps(hunt_result_to_dict(result), sort_keys=True)


#: report sha256 of each pass below, as the live algorithm classes reported
#: it while they still simulated through a plane of their own (commit
#: ``e62344e``): the external reference every engine is held to
PASS_PINS = {
    "weighted":
        "fdc115da695568ed455625371c2b51db4b154acce00706f52ec4e0ae8b07dba7",
    "greedy":
        "66a8036850289d4b2a84fa202bbd3ce88bfc812a618d81f8928cbe3c6665c64a",
    "brute":
        "b4b70739737f9ea0fcc46621c619b2c60b844b8b21141f827ce6b23174351a07",
}


def report_sha(report) -> str:
    return hashlib.sha256(report_json(report).encode()).hexdigest()


class TestParallelPassIdentity:
    def test_weighted_matches_serial(self):
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            parallel = executor.run_pass(message_types=TYPES)
        assert report_sha(parallel) == PASS_PINS["weighted"]
        assert parallel.findings  # the pass actually found something

    def test_greedy_matches_serial(self):
        with ScenarioExecutor(FACTORY, seed=3, algorithm="greedy",
                              workers=2, space_config=SPACE, max_wait=5.0,
                              rounds=2, confirmations=2) as executor:
            parallel = executor.run_pass(message_types=["Accept"])
        assert report_sha(parallel) == PASS_PINS["greedy"]

    def test_brute_matches_serial(self):
        with ScenarioExecutor(FACTORY, seed=3, algorithm="brute",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            parallel = executor.run_pass(message_types=["Accept"],
                                         max_scenarios=3)
        assert report_sha(parallel) == PASS_PINS["brute"]

    def test_worker_breakdown_covers_the_shards(self):
        """Each worker lists the types it simulated steps of, once each; a
        type split across both is under both, and together they cover the
        pass."""
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            executor.run_pass(message_types=TYPES)
            breakdown = executor.worker_breakdown()
        assert [w.worker for w in breakdown] == [0, 1]
        for attribution in breakdown:
            assert len(set(attribution.shards)) == len(attribution.shards)
            assert set(attribution.shards) <= set(TYPES)
        assert set().union(*(w.shards for w in breakdown)) == set(TYPES)
        assert all(w.ledger.total() > 0 for w in breakdown)


def _probe_type(prober, message_type, exclude=frozenset()):
    """Run every step a pass over ``message_type`` can need on ``prober``,
    as a forked worker would be sent them: its context, then each
    :meth:`ProbeCache.split` group.  Returns ``(returns, context, evals)``.
    """
    returns = [prober.run_task(Step("context", message_type))]
    actions = ActionSpace(prober.harness.instance.schema,
                          prober.params.space_config).actions_for(
                              message_type, exclude)
    for group in ProbeCache.split(actions, prober.params.early_stop):
        returns.append(prober.run_task(Step(
            "evals", message_type, tuple(a.to_record() for a in group))))
    return (returns, returns[0].context,
            [probe for ret in returns[1:] for probe in ret.evals])


def _superset(algorithm, excluded):
    """Everything a pass over ``Accept`` can need, as a forked worker
    would prefetch it: ``(cache, steps)`` where ``steps`` maps each
    recorded step — named the way a walk names a miss — to the call that
    admits it to another cache.  Brute force needs greedy's, and its
    baseline."""
    prober = WorkerProber(0, SMALL_FACTORY, 3, ProbeParams(
        algorithm=algorithm, space_config=SMALL_SPACE, max_wait=5.0))
    full = ProbeCache()
    returns, context, evals = _probe_type(prober, "Accept",
                                          frozenset(excluded))
    startup = returns[0].startup
    full.add_startup(startup)
    full.add_context("Accept", context)
    for probe in evals:
        full.add_eval("Accept", probe)
    steps = {"startup": lambda c: c.add_startup(startup)}
    for message_type, context in full.contexts.items():
        steps[f"injection context for {message_type}"] = (
            lambda c, t=message_type, probe=context: c.add_context(t, probe))
        for record, probe in full.evals.get(message_type, {}).items():
            action = MaliciousAction.from_record(record)
            steps[f"evaluation of {action.describe()} {message_type}"] = (
                lambda c, t=message_type, probe=probe: c.add_eval(t, probe))
    if algorithm == "brute":
        full.add_baseline(prober.run_task(Step("baseline")).baseline)
        steps["baseline"] = lambda c: c.add_baseline(full.baseline)
    return full, steps


def _pace_steps(monkeypatch, delay):
    """Have every forked step sleep ``delay(step)`` seconds first.  Patched
    before the pool forks, so its workers inherit it."""
    run_task = WorkerProber.run_task

    def paced(prober, step):
        time.sleep(delay(step))
        return run_task(prober, step)

    monkeypatch.setattr(WorkerProber, "run_task", paced)


def _spy_on_asks(monkeypatch):
    """Log every step a walk misses and has the prober simulate."""
    asked = []
    original = CachedSteps._answer

    def logged(source, probe, what, simulate, admit):
        if probe is None:
            asked.append(what)
        return original(source, probe, what, simulate, admit)

    monkeypatch.setattr(CachedSteps, "_answer", logged)
    return asked


class TestReplaySource:
    """Each algorithm's walk runs over recorded probes.  A step nobody
    recorded is a question for the prober — and, with no prober to ask, an
    error."""

    @staticmethod
    def _run(algorithm, cache, prober=None, **options):
        walk = ALGORITHMS[algorithm](SMALL_FACTORY, seed=3,
                                     space_config=SMALL_SPACE, **options)
        return walk.run(message_types=["Accept"], steps=CachedSteps(
            SMALL_FACTORY(3), cache, prober))

    def test_missing_eval_is_a_coverage_hole(self):
        cache, __ = _superset("greedy", ())
        gone = MaliciousAction.from_record(
            cache.evals["Accept"].popitem()[0])
        with pytest.raises(SearchError) as err:
            self._run("greedy", cache, rounds=1, confirmations=1)
        assert "coverage hole" in str(err.value)
        assert f"{gone.describe()} Accept" in str(err.value)

    def test_missing_scenario_is_a_coverage_hole(self):
        """A brute-force scenario is priced from its evaluation."""
        cache, __ = _superset("brute", ())
        gone = AttackScenario.from_record(SMALL_SCENARIOS[1])
        del cache.evals["Accept"][gone.action.to_record()]
        with pytest.raises(SearchError) as err:
            self._run("brute", cache)
        assert "coverage hole" in str(err.value)
        assert f"{gone.action.describe()} Accept" in str(err.value)

    def test_a_miss_with_a_prober_is_simulated_and_journaled_once(
            self, tmp_path, monkeypatch):
        simulated = _spy_on_asks(monkeypatch)
        store = RunStore(str(tmp_path), seed=3)
        prober = WorkerProber(0, SMALL_FACTORY, 3, ProbeParams(
            space_config=SMALL_SPACE, max_wait=5.0))
        first = self._run("weighted", store.cache, prober)
        asked = list(simulated)
        assert {"startup", "injection context for Accept"} <= set(asked)
        assert len(asked) == len(set(asked))
        journaled = store.counters()["store.journal.records_appended"]
        assert journaled == len(asked)  # each before it was replayed
        again = self._run("weighted", store.cache, prober)
        store.close()
        assert simulated == asked  # the second walk asked for nothing
        assert report_json(again) == report_json(first)
        reopened = RunStore(str(tmp_path), seed=3)
        assert reopened.counters()["store.journal.records_loaded"] == \
            journaled + 1  # + the meta record
        reopened.close()

    _supersets = {}

    @settings(max_examples=3, deadline=None, derandomize=True,
              database=None)
    @given(algorithm=st.sampled_from(sorted(ALGORITHMS)),
           excluded=st.sets(st.sampled_from(SMALL_SCENARIOS)),
           weights=st.dictionaries(
               st.sampled_from(sorted(DEFAULT_WEIGHTS)),
               st.sampled_from([0.05, 0.6, 2.0])),
           recorded=st.lists(st.booleans(), min_size=8, max_size=8))
    @example(algorithm="greedy", excluded={SMALL_SCENARIOS[0]}, weights={},
             recorded=[False] * 8)
    @example(algorithm="weighted", excluded=set(),
             weights={CLUSTER_DROP: 2.0},
             recorded=[True, False, True, False] * 2)
    def test_executor_pass_equals_serial_pass(self, algorithm, excluded,
                                              weights, recorded):
        """One walk, however its steps got recorded: whatever the pass and
        whichever of its steps the cache already holds (none … all), the
        executor reports (and learns) what it reports over an empty cache
        and one prober, and simulates each missing step exactly once."""
        serial_weights = ClusterWeights(dict(weights))
        replay_weights = ClusterWeights(dict(weights))
        common = dict(seed=3, space_config=SMALL_SPACE, max_wait=5.0)
        with ScenarioExecutor(SMALL_FACTORY, algorithm=algorithm, workers=1,
                              rounds=1, confirmations=1,
                              **common) as executor:
            expected = executor.run_pass(message_types=["Accept"],
                                         exclude=excluded,
                                         weights=serial_weights)
        memo = (algorithm, frozenset(excluded))
        if memo not in self._supersets:
            self._supersets[memo] = _superset(algorithm, excluded)[1]
        steps = self._supersets[memo]
        held = [what for what, keep in zip(steps, recorded) if keep]

        def run(cache, weights):
            with pytest.MonkeyPatch.context() as monkeypatch:
                asked = _spy_on_asks(monkeypatch)
                with ScenarioExecutor(SMALL_FACTORY, algorithm=algorithm,
                                      workers=1, rounds=1, confirmations=1,
                                      **common) as executor:
                    executor.cache = cache
                    report = executor.run_pass(message_types=["Accept"],
                                               exclude=excluded,
                                               weights=weights)
            return report, asked

        cache = ProbeCache()
        for what in held:
            steps[what](cache)
        replayed, asked = run(cache, replay_weights)
        assert report_json(replayed) == report_json(expected)
        assert replay_weights.weights == serial_weights.weights
        assert len(asked) == len(set(asked))  # each miss simulated once
        assert not set(asked) & set(held)
        assert set(asked) <= set(steps)  # never past the superset
        if len(held) == len(steps):
            assert asked == []
        # ...and admitted: a second pass over the same cache asks nothing
        rerun, asked = run(cache, ClusterWeights(dict(weights)))
        assert asked == []
        assert report_json(rerun) == report_json(expected)


class TestParallelHuntIdentity:
    def test_hunt_workers_byte_identical(self, tmp_path):
        serial = hunt(FACTORY, seed=3, message_types=TYPES,
                      space_config=SPACE, max_passes=3, max_wait=5.0)
        parallel = hunt(FACTORY, seed=3, message_types=TYPES,
                        space_config=SPACE, max_passes=3, max_wait=5.0,
                        store_dir=str(tmp_path), workers=4)
        assert hunt_json(parallel) == hunt_json(serial)
        # the state the parallel hunt checkpointed is the serial hunt's
        store = RunStore(str(tmp_path), seed=3)
        state = store.load_checkpoint()
        store.close()
        serial_state = hunt_result_to_dict(serial)
        assert json.dumps(state["passes"]) == \
            json.dumps(serial_state["passes"])
        assert state["ledger"] == serial_state["ledger"]
        assert state["written_at_pass"] == len(serial.passes)
        assert parallel.worker_breakdown  # side channel, not serialized
        assert "worker_breakdown" not in hunt_json(parallel)

    def test_hunt_identical_under_fault_schedule(self):
        schedule = FaultSchedule(seed=11)
        schedule.add("slow", 1.5, node="replica2", factor=2.0, duration=1.0)
        schedule.add("loss", 0.5, path="*", p_enter_bad=0.02,
                     p_exit_bad=0.5)
        serial = hunt(FACTORY, seed=3, message_types=["Accept", "Prepare"],
                      space_config=SPACE, max_passes=2, max_wait=5.0,
                      fault_schedule=schedule)
        parallel = hunt(FACTORY, seed=3,
                        message_types=["Accept", "Prepare"],
                        space_config=SPACE, max_passes=2, max_wait=5.0,
                        fault_schedule=schedule, workers=2)
        assert hunt_json(parallel) == hunt_json(serial)

    def test_workers_reject_fault_plan(self):
        with pytest.raises(ConfigError):
            hunt(FACTORY, seed=3, workers=2,
                 fault_plan=FaultPlan.from_spec("restore=0.5", seed=1))

    def test_workers_price_kept_passes_like_serial(self):
        common = dict(seed=3, message_types=["Accept"], space_config=SPACE,
                      max_passes=2, max_wait=5.0, injection_cache=True)
        serial = hunt(FACTORY, **common)
        assert len(serial.passes) == 2
        assert hunt_json(hunt(FACTORY, workers=2, **common)) == \
            hunt_json(serial)


class TestCompletionOrder:
    """Whatever order the pool's workers finish in, the hunt is the same:
    serial's report, one journal byte for byte, no probe simulated twice
    in a pass, and a pass the cache already answers sends one step — the
    startup cross-check."""

    #: three step-keyed delays in 0–30 ms, each a different finish order
    PATTERNS = (
        lambda crc: crc % 31,
        lambda crc: 30 - crc % 31,
        lambda crc: (crc * 7 + 13) % 31,
    )

    def _instrument(self, monkeypatch, log, pattern):
        """Before the fork: pace every step by ``pattern``, and log each
        step sent, each probe simulated and each pass begun to ``log``."""
        def write(line):
            with open(log, "a") as fh:
                fh.write(line + "\n")

        _pace_steps(monkeypatch, lambda step: pattern(
            zlib.crc32(repr(step.key).encode())) / 1000)
        run_task = WorkerProber.run_task
        acquire = WorkerProber.context
        evaluate = WorkerProber.evaluate
        run_pass = ScenarioExecutor.run_pass

        def sent(prober, step):
            write(f"step {step.kind}")
            return run_task(prober, step)

        def acquired(prober, message_type):
            write(f"probe context {message_type}")
            return acquire(prober, message_type)

        def evaluated(prober, message_type, action):
            write(f"probe eval {message_type} {action.describe()}")
            return evaluate(prober, message_type, action)

        def begun(executor, *args, **kwargs):
            write("pass")
            return run_pass(executor, *args, **kwargs)

        monkeypatch.setattr(WorkerProber, "run_task", sent)
        monkeypatch.setattr(WorkerProber, "context", acquired)
        monkeypatch.setattr(WorkerProber, "evaluate", evaluated)
        monkeypatch.setattr(ScenarioExecutor, "run_pass", begun)

    def test_result_is_independent_of_completion_order(self, tmp_path):
        common = dict(seed=3, message_types=TYPES, space_config=SPACE,
                      max_passes=2, max_wait=5.0)
        serial = hunt_json(hunt(SMALL_FACTORY, **common))
        assert len(json.loads(serial)["passes"]) == 2
        journals = set()
        for index, pattern in enumerate(self.PATTERNS):
            for workers in (2, 3):
                for stored in (False, True):
                    run = tmp_path / f"{index}-{workers}-{stored}"
                    run.mkdir()
                    log = run / "log"
                    with pytest.MonkeyPatch.context() as monkeypatch:
                        self._instrument(monkeypatch, log, pattern)
                        result = hunt(SMALL_FACTORY, workers=workers,
                                      store_dir=(str(run / "store")
                                                 if stored else None),
                                      **common)
                    assert hunt_json(result) == serial, run.name
                    if stored:
                        journals.add((run / "store" /
                                      "journal.jsonl").read_bytes())
                    passes = log.read_text().split("pass\n")[1:]
                    assert len(passes) == 2, run.name
                    for lines in passes:
                        probes = [line for line in lines.splitlines()
                                  if line.startswith("probe")]
                        assert len(probes) == len(set(probes)), run.name
                    assert "probe eval" in passes[0], run.name
                    assert passes[1] == "step startup\n", run.name
        assert len(journals) == 1


class TestOneLiveContext:
    """Probers hold one live injection context — the type last simulated —
    and re-derive any other off the books, invisibly to the report."""

    #: two delays: pass 1 finds ``Delay 0.5s Accept``, so pass 2 must
    #: evaluate ``Delay 1s Accept`` fresh — after Heartbeat and Learn were
    #: probed
    SPACE = ActionSpaceConfig(delays=(0.5, 1.0), drop_probabilities=(1.0,),
                              duplicate_counts=(), include_divert=False,
                              include_lying=False)
    TYPES = ["Accept", "Heartbeat", "Learn"]

    def test_reacquire_is_exercised_and_invisible(self, tmp_path,
                                                  monkeypatch):
        reacquired = tmp_path / "reacquired"  # a file: forked workers too
        original = WorkerProber._reacquire_context

        def logged(prober, message_type):
            with open(reacquired, "a") as fh:
                fh.write(message_type + "\n")
            return original(prober, message_type)

        monkeypatch.setattr(WorkerProber, "_reacquire_context", logged)
        # A slow Heartbeat seek in the pool: by the time it comes back the
        # other worker has run everything else and sits idle holding
        # another type, so it pulls one of Heartbeat's evals steps.
        _pace_steps(monkeypatch, lambda step: 1.0 if step.key == (
            "context", "Heartbeat", ()) else 0.0)
        common = dict(seed=3, message_types=self.TYPES,
                      space_config=self.SPACE, max_passes=2, max_wait=5.0)
        serial = hunt(SMALL_FACTORY, **common)
        assert len(serial.passes) == 2 and serial.passes[1].findings
        for engine, expected in (
                (dict(store_dir=str(tmp_path / "store")), "Accept"),
                (dict(workers=2), "Heartbeat")):
            reacquired.write_text("")
            result = hunt(SMALL_FACTORY, **common, **engine)
            assert expected in reacquired.read_text().split(), engine
            assert hunt_json(result) == hunt_json(serial), engine

    def test_previous_types_snapshot_is_released(self, monkeypatch):
        """After A's steps and then B's, nothing keeps A's injection-point
        ``WorldSnapshot`` alive: retained contexts were the prober's whole
        memory overhead over the live algorithm."""
        snapshots = {}
        original = WorkerProber._seek_context

        def watched(prober, message_type):
            ctx = original(prober, message_type)
            snapshots[message_type] = weakref.ref(ctx.injection.snapshot)
            return ctx

        monkeypatch.setattr(WorkerProber, "_seek_context", watched)
        prober = WorkerProber(0, SMALL_FACTORY, 3, ProbeParams(
            space_config=SMALL_SPACE, max_wait=5.0))
        for message_type in ("Accept", "Heartbeat"):
            __, __, evals = _probe_type(prober, message_type)
            assert evals
        gc.collect()
        assert snapshots["Accept"]() is None
        assert snapshots["Heartbeat"]() is not None  # the one live context

    def test_reacquisition_starts_with_no_context_resident(self,
                                                           monkeypatch):
        """...nor while the next one is re-derived: by the time
        ``_reacquire_context`` runs, the previous type's snapshot is
        already garbage — no local of ``_evaluate`` still holds it."""
        snapshots = {}
        original = WorkerProber._seek_context

        def watched(prober, message_type):
            ctx = original(prober, message_type)
            snapshots[message_type] = weakref.ref(ctx.injection.snapshot)
            return ctx

        monkeypatch.setattr(WorkerProber, "_seek_context", watched)
        prober = WorkerProber(0, SMALL_FACTORY, 3, ProbeParams(
            space_config=SMALL_SPACE, max_wait=5.0))
        __, __, accept = _probe_type(prober, "Accept")
        _probe_type(prober, "Heartbeat")
        resident = []
        reacquire = WorkerProber._reacquire_context

        def checked(prober, message_type):
            gc.collect()
            resident.append(snapshots["Heartbeat"]() is not None)
            return reacquire(prober, message_type)

        monkeypatch.setattr(WorkerProber, "_reacquire_context", checked)
        again = prober.evaluate("Accept", MaliciousAction.from_record(
            accept[0].record))
        assert resident == [False]
        assert again.trace.charges == accept[0].trace.charges


class TestStepRecorder:
    def test_recorded_steps_do_not_accumulate(self):
        """A prober lives as long as its hunt: each recorded step hands
        its charges and events to the StepTrace and drops them from the
        ledger log, the event positions and the supervisor's event list."""
        from types import SimpleNamespace
        from repro.parallel import (RecordingLedger, RecordingSupervisor,
                                    StepRecorder)
        ledger = RecordingLedger()
        supervisor = RecordingSupervisor(ledger)
        search = SimpleNamespace(ledger=ledger, supervisor=supervisor,
                                 harness=SimpleNamespace(instance=None))
        for step_index in range(50):
            ledger.charge("execution", 0.25)  # off the books: not recorded
            with StepRecorder(search) as step:
                ledger.charge("boot", 1.0 + step_index)
                supervisor._record("retry", "op", "scenario",
                                   Exception("boom"), 1)
                ledger.charge("execution", 0.5)
            assert step.trace.charges == [("boot", 1.0 + step_index),
                                          ("execution", 0.5)]
            assert step.trace.events == [
                (1, "retry", "op", "scenario", "boom", 1)]
        assert ledger.log == [("execution", 0.25)] * 50
        assert supervisor.event_positions == []
        assert supervisor.stats.events == []
        assert ledger.get("execution") == 50 * 0.75  # totals untouched


class TestLiveOnlyHuntsPinned:
    """The hunts the old live-harness arm alone could run — a FaultPlan,
    the injection cache — plus a chaos hunt, pinned to the hunt-JSON
    sha256 that arm produced at commit ``80b16b7``."""

    SPACE = TestOneLiveContext.SPACE
    PINNED = {
        "fault_plan":
            "79d64cb98945232bc446e42ad1ebca1d1494fee9ffc0aff099101eaeda91843e",
        "injection_cache":
            "7de092e25b018907ab912796d8d9e9efed6484bdd528edfe6b0a82128577a488",
        "chaos":
            "a261a8828d8f830101b739eff4d0a325c027defaa1f412fae82e69dd425e35f4",
    }

    def _hunt(self, max_passes=2, **options):
        result = hunt(SMALL_FACTORY, seed=3,
                      message_types=["Accept", "Heartbeat"],
                      space_config=self.SPACE, max_passes=max_passes,
                      max_wait=5.0, **options)
        assert len(result.passes) == max_passes and result.passes[-1].findings
        return result, hashlib.sha256(hunt_json(result).encode()).hexdigest()

    def test_fault_plan_hunt(self):
        result, digest = self._hunt(fault_plan=FaultPlan.from_spec(
            "restore=0.15,max=3", seed=1))
        assert result.supervisor.total_events == 6
        assert digest == self.PINNED["fault_plan"]

    @pytest.mark.parametrize("workers,stored,resumed", [
        pytest.param(1, False, False, id="serial"),
        pytest.param(2, False, False, id="workers2"),
        pytest.param(3, False, False, id="workers3"),
        pytest.param(1, True, False, id="store"),
        pytest.param(2, True, False, id="workers2-store"),
        pytest.param(1, True, True, id="store-resumed"),
    ])
    def test_injection_cache_hunt(self, tmp_path, workers, stored, resumed):
        """Every engine configuration prices pass 2 as a platform that kept
        its snapshots would — no boot — and yields the live arm's bytes,
        a store hunt resumed after pass 1 included."""
        options = dict(injection_cache=True, workers=workers,
                       store_dir=str(tmp_path) if stored else None)
        if resumed:
            self._hunt(max_passes=1, **options)
        result, digest = self._hunt(**options)
        if resumed:
            counters = result.store_report.counters
            assert counters["store.resume.passes_restored"] == 1
        assert result.passes[1].ledger.get("boot") == 0.0
        assert result.passes[0].ledger.get("boot") > 0.0
        assert digest == self.PINNED["injection_cache"]

    def test_chaos_hunt(self):
        schedule = FaultSchedule(seed=11)
        schedule.add("slow", 0.8, node="replica2", factor=2.0, duration=0.5)
        schedule.add("loss", 0.2, path="*", p_enter_bad=0.002,
                     p_exit_bad=0.5)
        result, digest = self._hunt(fault_schedule=schedule)
        assert len(result.findings) == 4
        assert digest == self.PINNED["chaos"]


class TestInjectionCache:
    def test_second_pass_charges_less_execution(self):
        result = hunt(FACTORY, seed=3, message_types=TYPES,
                      space_config=SPACE, max_passes=3, max_wait=5.0,
                      injection_cache=True)
        assert len(result.passes) >= 2
        first, second = result.passes[0], result.passes[1]
        assert second.ledger.get("execution") < first.ledger.get("execution")
        assert second.ledger.get("boot") == 0.0  # testbed reused
        assert first.ledger.get("boot") > 0.0

    def test_cached_hunt_finds_the_same_attacks(self):
        plain = hunt(FACTORY, seed=3, message_types=TYPES,
                     space_config=SPACE, max_passes=3, max_wait=5.0)
        cached = hunt(FACTORY, seed=3, message_types=TYPES,
                      space_config=SPACE, max_passes=3, max_wait=5.0,
                      injection_cache=True)
        assert cached.attack_names() == plain.attack_names()
        assert len(cached.passes) == len(plain.passes)


class TestSupervisorStatsReset:
    def test_interrupted_pass_does_not_double_count(self, monkeypatch):
        """A Ctrl-C out of a step whose retry was already recorded (here:
        out of the testbed rebuild that retry asks for) leaves none of the
        step's events in the prober's long-lived supervisor: running the
        search again reports what a fresh search does."""
        def search():
            return WeightedGreedySearch(FACTORY, seed=3, space_config=SPACE,
                                        max_wait=5.0)

        fresh = report_json(search().run(message_types=["Accept"]))
        branch = AttackHarness.branch_measure
        aborted = []

        def flaky(harness, injection, action):
            if action is not None:
                monkeypatch.setattr(AttackHarness, "branch_measure", branch)
                raise ProxyError("transient fault mid-step")
            return branch(harness, injection, action)

        def interrupted(prober):
            aborted.extend(e.kind for e in prober.supervisor.stats.events)
            raise KeyboardInterrupt

        monkeypatch.setattr(AttackHarness, "branch_measure", flaky)
        monkeypatch.setattr(WorkerProber, "_rebuild_testbed", interrupted)
        interrupted_search = search()
        with pytest.raises(KeyboardInterrupt):
            interrupted_search.run(message_types=["Accept"])
        monkeypatch.undo()
        assert aborted == ["retry", "rebuild"]
        prober = interrupted_search.engine()._parent()
        assert prober.supervisor.stats.events == []
        report = interrupted_search.run(message_types=["Accept"])
        assert report.supervisor.events == []
        assert report.supervisor.retries == 0
        assert report_json(report) == fresh


class TestLibraryRun:
    """``SearchAlgorithm.run()`` over its one-prober engine."""

    def test_unknown_keywords_fail(self):
        """Only the walk's own keywords reach it: ``kept`` is hunt()'s
        pricing rule, and ``max_scenarios`` is brute force's alone."""
        search = WeightedGreedySearch(FACTORY, seed=3, space_config=SPACE)
        for keyword in ("kept", "max_scenarios", "walk_kwargs"):
            with pytest.raises(TypeError, match=keyword):
                search.run(message_types=["Accept"], **{keyword: True})

    def test_a_walk_without_an_executor_name_is_rejected(self):
        class Custom(WeightedGreedySearch):
            key = None

        with pytest.raises(ConfigError, match="unknown algorithm None"):
            Custom(FACTORY, seed=3).run(message_types=["Accept"])

    def test_search_and_engine_are_freed_without_the_cycle_collector(self):
        """The engine does not point back at the search: dropping the search
        frees its engine and the prober's harness (warm snapshot, probe
        cache) by reference counting alone."""
        search = WeightedGreedySearch(FACTORY, seed=3, space_config=SPACE,
                                      max_wait=5.0)
        search.run(message_types=["Accept"])
        engine = weakref.ref(search.engine())
        harness = weakref.ref(search.engine()._parent().harness)
        gc.collect()
        gc.disable()
        try:
            del search
            assert engine() is None
            assert harness() is None
        finally:
            gc.enable()
