"""Tests for parallel hunt execution and the injection-point cache.

The parallel executor's contract is strict: a pass sharded across workers
must produce a report *byte-identical* (same JSON serialization) to the
serial algorithm's — same findings, same float-exact ledger, same
supervision events.  These tests assert that for all three algorithms, for
full hunts with a checkpointing store, and under an environmental fault
schedule.
"""

import gc
import json
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.reports import hunt_result_to_dict, report_to_dict
from repro.attacks.actions import (CLUSTER_DROP, AttackScenario,
                                   MaliciousAction)
from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.common.errors import ConfigError, SearchError
from repro.controller.harness import AttackHarness
from repro.controller.supervisor import FaultPlan, SupervisorEvent
from repro.faults.schedule import FaultSchedule
from repro.parallel import ProbeParams, ScenarioExecutor, WorkerProber
from repro.parallel.merge import REPLAYING
from repro.search import ALGORITHMS
from repro.search.base import SearchAlgorithm
from repro.search.brute import BruteForceSearch
from repro.search.greedy import GreedySearch
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


class TestParallelPassIdentity:
    def test_weighted_matches_serial(self):
        serial = WeightedGreedySearch(
            FACTORY, seed=3, space_config=SPACE,
            max_wait=5.0).run(message_types=TYPES)
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            parallel = executor.run_pass(message_types=TYPES)
        assert report_json(parallel) == report_json(serial)
        assert parallel.findings  # the pass actually found something

    def test_greedy_matches_serial(self):
        serial = GreedySearch(
            FACTORY, seed=3, space_config=SPACE, max_wait=5.0,
            rounds=2, confirmations=2).run(message_types=["Accept"])
        with ScenarioExecutor(FACTORY, seed=3, algorithm="greedy",
                              workers=2, space_config=SPACE, max_wait=5.0,
                              rounds=2, confirmations=2) as executor:
            parallel = executor.run_pass(message_types=["Accept"])
        assert report_json(parallel) == report_json(serial)

    def test_brute_matches_serial(self):
        serial = BruteForceSearch(
            FACTORY, seed=3, space_config=SPACE,
            max_wait=5.0).run(message_types=["Accept"], max_scenarios=3)
        with ScenarioExecutor(FACTORY, seed=3, algorithm="brute",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            parallel = executor.run_pass(message_types=["Accept"],
                                         max_scenarios=3)
        assert report_json(parallel) == report_json(serial)

    def test_worker_breakdown_covers_the_shards(self):
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            executor.run_pass(message_types=TYPES)
            breakdown = executor.worker_breakdown()
        assert [w.worker for w in breakdown] == [0, 1]
        shards = [t for w in breakdown for t in w.shards]
        assert sorted(shards) == sorted(TYPES)
        assert all(w.ledger.total() > 0 for w in breakdown)


class TestReplaySource:
    """The executor runs each algorithm's own ``_run_pass`` over recorded
    probes; a probe the walk needs but nobody recorded must be an error."""

    def test_missing_eval_is_a_coverage_hole(self):
        prober = WorkerProber(0, SMALL_FACTORY, 3, ProbeParams(
            algorithm="greedy", space_config=SMALL_SPACE, max_wait=5.0))
        startup, (probe,) = prober.probe_types(["Accept"], frozenset())
        gone = MaliciousAction.from_record(probe.evals.pop().record)
        walk = REPLAYING["greedy"](
            SMALL_FACTORY(3), startup, {"Accept": probe}, SMALL_FACTORY,
            seed=3, space_config=SMALL_SPACE, rounds=1, confirmations=1)
        with pytest.raises(SearchError) as err:
            walk.run(message_types=["Accept"])
        assert "coverage hole" in str(err.value)
        assert f"{gone.describe()} Accept" in str(err.value)

    def test_missing_scenario_is_a_coverage_hole(self):
        prober = WorkerProber(0, SMALL_FACTORY, 3, ProbeParams(
            algorithm="brute", space_config=SMALL_SPACE, max_wait=5.0))
        kept, gone = map(AttackScenario.from_record, SMALL_SCENARIOS)
        baseline, (probe,) = prober.probe_brute([kept.to_record()], True)
        walk = REPLAYING["brute"](
            SMALL_FACTORY(3), baseline, {probe.record: probe},
            SMALL_FACTORY, seed=3, space_config=SMALL_SPACE)
        with pytest.raises(SearchError) as err:
            walk.run(message_types=["Accept"])
        assert "coverage hole" in str(err.value)
        assert f"{gone.action.describe()} Accept" in str(err.value)

    @settings(max_examples=3, deadline=None, derandomize=True,
              database=None)
    @given(algorithm=st.sampled_from(sorted(ALGORITHMS)),
           excluded=st.sets(st.sampled_from(SMALL_SCENARIOS)),
           weights=st.dictionaries(
               st.sampled_from(sorted(DEFAULT_WEIGHTS)),
               st.sampled_from([0.05, 0.6, 2.0])))
    @example(algorithm="greedy", excluded={SMALL_SCENARIOS[0]}, weights={})
    @example(algorithm="weighted", excluded=set(),
             weights={CLUSTER_DROP: 2.0})
    def test_executor_pass_equals_serial_pass(self, algorithm, excluded,
                                              weights):
        """One walk, two step sources: whatever the pass, running it over
        recorded probes reports (and learns) what running it live does."""
        serial_weights = ClusterWeights(dict(weights))
        replay_weights = ClusterWeights(dict(weights))
        common = dict(seed=3, space_config=SMALL_SPACE, max_wait=5.0)
        options = {"weighted": {"weights": serial_weights},
                   "greedy": {"rounds": 1, "confirmations": 1},
                   "brute": {}}[algorithm]
        expected = ALGORITHMS[algorithm](
            SMALL_FACTORY, **common, **options).run(
                message_types=["Accept"], exclude=excluded)
        with ScenarioExecutor(SMALL_FACTORY, algorithm=algorithm, workers=1,
                              rounds=1, confirmations=1,
                              **common) as executor:
            replayed = executor.run_pass(message_types=["Accept"],
                                         exclude=excluded,
                                         weights=replay_weights)
        assert report_json(replayed) == report_json(expected)
        assert replay_weights.weights == serial_weights.weights


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

    def test_workers_reject_injection_cache(self):
        with pytest.raises(ConfigError):
            hunt(FACTORY, seed=3, workers=2, injection_cache=True)


class TestOneLiveContext:
    """Probers hold one live injection context — the type last simulated —
    and re-derive any other off the books, invisibly to the report."""

    #: two delays: pass 1 finds ``Delay 0.5s Accept``, so pass 2 must
    #: evaluate ``Delay 1s Accept`` fresh — after Heartbeat and Learn were
    #: probed (Accept and Learn share worker 0 of 2)
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
        common = dict(seed=3, message_types=self.TYPES,
                      space_config=self.SPACE, max_passes=2, max_wait=5.0)
        serial = hunt(SMALL_FACTORY, **common)
        assert len(serial.passes) == 2 and serial.passes[1].findings
        for engine in (dict(store_dir=str(tmp_path / "store")),  # inline
                       dict(workers=2)):
            reacquired.write_text("")
            result = hunt(SMALL_FACTORY, **common, **engine)
            assert "Accept" in reacquired.read_text().split(), engine
            assert hunt_json(result) == hunt_json(serial), engine

    def test_previous_types_snapshot_is_released(self, monkeypatch):
        """After ``probe_types([A, B])`` nothing keeps A's injection-point
        ``WorldSnapshot`` alive: retained contexts were the prober's whole
        memory overhead over the serial engine."""
        snapshots = {}
        original = SearchAlgorithm._acquire_context

        def watched(search, message_type):
            ctx = original(search, message_type)
            snapshots[message_type] = weakref.ref(ctx.injection.snapshot)
            return ctx

        monkeypatch.setattr(SearchAlgorithm, "_acquire_context", watched)
        prober = WorkerProber(0, SMALL_FACTORY, 3, ProbeParams(
            space_config=SMALL_SPACE, max_wait=5.0))
        __, probes = prober.probe_types(["Accept", "Heartbeat"], frozenset())
        assert all(probe.evals for probe in probes)
        gc.collect()
        assert snapshots["Accept"]() is None
        assert snapshots["Heartbeat"]() is not None  # the one live context


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

    def test_cache_hit_returns_same_point(self):
        harness = AttackHarness(FACTORY, seed=3, injection_cache=True)
        harness.start_run()
        assert harness.cached_injection("Accept") is None
        point = harness.run_to_injection("Accept", max_wait=5.0)
        assert point is not None
        assert harness.cached_injection("Accept") is point

    def test_cache_invalidated_by_rebuild(self):
        harness = AttackHarness(FACTORY, seed=3, injection_cache=True)
        harness.start_run()
        assert harness.run_to_injection("Accept", max_wait=5.0) is not None
        assert harness.cached_injection("Accept") is not None
        harness.start_run()  # rebuild: a new world, a new warm epoch
        assert harness.cached_injection("Accept") is None

    def test_cache_off_by_default(self):
        harness = AttackHarness(FACTORY, seed=3)
        harness.start_run()
        assert harness.run_to_injection("Accept", max_wait=5.0) is not None
        assert harness.cached_injection("Accept") is None


class TestSupervisorStatsReset:
    def test_interrupted_pass_does_not_double_count(self):
        """Events left over from an aborted pass (stats were only reset at
        finalize) must not leak into the next pass's report."""
        search = WeightedGreedySearch(FACTORY, seed=3, space_config=SPACE,
                                      max_wait=5.0)
        stale = SupervisorEvent("retry", "injection:Accept", "Accept",
                                "interrupted mid-pass", 1, at=1.0)
        search.supervisor.stats.events.append(stale)
        search.supervisor.stats.retries = 1
        report = search.run(message_types=["Accept"])
        assert stale not in report.supervisor.events
        assert report.supervisor.retries == 0
