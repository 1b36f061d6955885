"""Tests for the supervision layer: fault plans, classify-retry-quarantine,
the kernel watchdog, and hunt resume through the run store.

The acceptance bar (ISSUE): a PBFT hunt running under a fault plan that
fails >= 10% of snapshot restores, with the watchdog armed, must find the
same attacks as a fault-free hunt; and a hunt interrupted mid-campaign and
resumed from its store must produce identical findings and a merged
ledger.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import (ConfigError, ProxyError, SimulationError,
                                 SnapshotError, WatchdogTimeout)
from repro.controller.config import HuntConfig
from repro.controller.costs import REBUILD, RETRY, CostLedger
from repro.controller.harness import AttackHarness
from repro.controller.supervisor import (FAULT_OPS, OP_PROXY,
                                         OP_SNAPSHOT_RESTORE,
                                         OP_SNAPSHOT_SAVE, FaultPlan,
                                         ScenarioQuarantined,
                                         ScenarioSupervisor, SupervisorStats)
from repro.parallel.executor import ScenarioExecutor
from repro.parallel.worker import WorkerProber
from repro.search.hunt import hunt
from repro.search.weighted import WeightedGreedySearch
from repro.store.runstore import RunStore
from repro.systems.pbft.testbed import pbft_testbed

TINY_SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(0.5,),
                               duplicate_counts=(50,), include_divert=False,
                               include_lying=False)
FACTORY = pbft_testbed(malicious="primary", warmup=1.0, window=2.0)


# ---------------------------------------------------------------- FaultPlan

class TestFaultPlan:
    def test_deterministic_across_instances(self):
        def trace(plan):
            outcomes = []
            for _ in range(200):
                for op in FAULT_OPS:
                    try:
                        plan.check(op)
                        outcomes.append(None)
                    except Exception as exc:
                        outcomes.append((op, type(exc).__name__))
            return outcomes

        kwargs = dict(seed=7, boot_rate=0.05, snapshot_save_rate=0.1,
                      snapshot_restore_rate=0.2, proxy_rate=0.02)
        assert trace(FaultPlan(**kwargs)) == trace(FaultPlan(**kwargs))

    def test_zero_rate_consumes_no_draws(self):
        # Ops with rate 0 must not advance the stream, so adding an
        # un-faulted op to the schedule cannot shift later fault draws.
        a = FaultPlan(seed=1, snapshot_restore_rate=0.5)
        b = FaultPlan(seed=1, snapshot_restore_rate=0.5)
        outcomes_a, outcomes_b = [], []
        for _ in range(100):
            b.check(OP_PROXY)  # rate 0: a no-op draw-wise
            for plan, out in ((a, outcomes_a), (b, outcomes_b)):
                try:
                    plan.check(OP_SNAPSHOT_RESTORE)
                    out.append(False)
                except SnapshotError:
                    out.append(True)
        assert outcomes_a == outcomes_b

    def test_max_faults_caps_total(self):
        """``max_faults`` caps each probe's faults; the next probe's draws
        start over."""
        plan = FaultPlan(seed=3, snapshot_restore_rate=1.0, max_faults=2)

        def hits(key):
            plan.begin(key)
            count = 0
            for _ in range(10):
                try:
                    plan.check(OP_SNAPSHOT_RESTORE)
                except SnapshotError:
                    count += 1
            return count

        assert [hits(("context", "A")), hits(("context", "B")),
                hits(("context", "A"))] == [2, 2, 2]

    def test_a_probe_faults_the_same_in_any_order(self):
        """The faulted ``(key, op)`` of a probe depend on its key alone: the
        same probes simulated in two orders fault the same operations."""
        keys = [("startup",)] + [
            (kind, "T", *extra) for kind, extra in
            [("context", ())] + [("eval", (("delay", n),)) for n in range(8)]]

        def faulted(order):
            plan = FaultPlan(seed=4, boot_rate=0.2, snapshot_save_rate=0.2,
                             snapshot_restore_rate=0.3, proxy_rate=0.1,
                             max_faults=2)
            seen = set()
            for key in order:
                plan.begin(key)
                for attempt, op in enumerate(FAULT_OPS * 3):
                    try:
                        plan.check(op)
                    except Exception:
                        seen.add((key, attempt, op))
            return seen

        forward = faulted(keys)
        assert forward  # the plan does fault something
        assert faulted(reversed(keys)) == forward
        assert faulted(keys[::2] + keys[1::2]) == forward

    def test_raises_real_platform_errors(self):
        plan = FaultPlan(seed=0, snapshot_save_rate=1.0, boot_rate=1.0)
        with pytest.raises(SnapshotError):
            plan.check(OP_SNAPSHOT_SAVE)
        with pytest.raises(SimulationError):
            plan.check("boot")
        with pytest.raises(ProxyError):
            FaultPlan(seed=0, proxy_rate=1.0).check(OP_PROXY)

    def test_from_spec(self):
        plan = FaultPlan.from_spec(
            "restore=0.1,save=0.05,boot=0.02,proxy=0.01,max=5", seed=9)
        assert plan.snapshot_restore_rate == 0.1
        assert plan.snapshot_save_rate == 0.05
        assert plan.boot_rate == 0.02
        assert plan.proxy_rate == 0.01
        assert plan.max_faults == 5
        assert plan.seed == 9

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("restore")
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("bogus=0.5")

    def test_describe_mentions_rates(self):
        text = FaultPlan(seed=2, snapshot_restore_rate=0.25,
                         max_faults=3).describe()
        assert "snapshot_restore=25%" in text
        assert "max 3" in text

    @given(seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.sampled_from(FAULT_OPS), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_property_same_seed_same_faults(self, seed, ops):
        def run(plan):
            seq = []
            for op in ops:
                try:
                    plan.check(op)
                    seq.append(None)
                except Exception as exc:
                    seq.append(str(exc))
            return seq

        make = lambda: FaultPlan(seed=seed, boot_rate=0.3,  # noqa: E731
                                 snapshot_save_rate=0.3,
                                 snapshot_restore_rate=0.3, proxy_rate=0.3)
        assert run(make()) == run(make())


# ------------------------------------------------------- ScenarioSupervisor

class FlakyOp:
    """Callable failing ``failures`` times with ``error`` before succeeding."""

    def __init__(self, failures, error=SnapshotError("flaky")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


class TestScenarioSupervisor:
    def test_transient_failure_retried_with_rebuild(self):
        ledger = CostLedger()
        sup = ScenarioSupervisor(ledger, max_retries=2)
        rebuilds = []
        op = FlakyOp(failures=1)
        result = sup.run("branch:X", op, rebuild=lambda: rebuilds.append(1),
                         scenario="Delay 1s X")
        assert result == "ok"
        assert op.calls == 2
        assert len(rebuilds) == 1
        assert sup.stats.retries == 1
        assert sup.stats.rebuilds == 1
        assert sup.stats.quarantines == 0
        assert ledger.get(RETRY) == pytest.approx(sup.retry_overhead)

    def test_quarantine_after_exhausted_retries(self):
        sup = ScenarioSupervisor(CostLedger(), max_retries=2)
        op = FlakyOp(failures=10)
        with pytest.raises(ScenarioQuarantined) as err:
            sup.run("branch:X", op, rebuild=lambda: None, scenario="X")
        assert err.value.attempts == 3  # initial try + 2 retries
        assert op.calls == 3
        assert sup.stats.quarantines == 1
        kinds = [e.kind for e in sup.stats.events]
        assert kinds.count("retry") == 3
        assert kinds[-1] == "quarantine"

    def test_fatal_errors_pass_through_immediately(self):
        sup = ScenarioSupervisor(CostLedger(), max_retries=5)
        calls = []

        def fatal():
            calls.append(1)
            raise ConfigError("bad config")

        with pytest.raises(ConfigError):
            sup.run("start_run", fatal)
        assert len(calls) == 1
        assert sup.stats.retries == 0

        def alien():
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            sup.run("start_run", alien)

    def test_rebuild_failures_count_as_attempts(self):
        # An injected boot fault during the rebuild itself must not let the
        # supervisor loop forever.
        sup = ScenarioSupervisor(CostLedger(), max_retries=2)

        def always_fail():
            raise SnapshotError("restore failed")

        def failing_rebuild():
            raise SimulationError("boot failed")

        with pytest.raises(ScenarioQuarantined):
            sup.run("branch:X", always_fail, rebuild=failing_rebuild)
        assert sup.stats.retries == 3

    def test_watchdog_trip_counted(self):
        sup = ScenarioSupervisor(CostLedger(), max_retries=0)
        with pytest.raises(ScenarioQuarantined):
            sup.run("branch:X",
                    FlakyOp(1, WatchdogTimeout("storm", events=9, limit=8)))
        assert sup.stats.watchdog_trips == 1
        assert any(e.kind == "watchdog" for e in sup.stats.events)

    def test_stats_merge_and_describe(self):
        a = SupervisorStats(retries=1, rebuilds=2, quarantines=0,
                            watchdog_trips=1)
        b = SupervisorStats(retries=2, rebuilds=0, quarantines=1,
                            watchdog_trips=0)
        a.merge(b)
        assert (a.retries, a.rebuilds, a.quarantines,
                a.watchdog_trips) == (3, 2, 1, 1)
        assert "3 retries" in a.describe()

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSupervisor(CostLedger(), max_retries=-1)


# ------------------------------------------------------------ the watchdog

class TestWatchdog:
    def test_kernel_trips_on_event_storm(self):
        from repro.sim.kernel import SimKernel
        kernel = SimKernel()
        kernel.watchdog_limit = 50

        def storm():
            kernel.schedule(0.001, storm)

        kernel.schedule_at(0.0, storm)
        with pytest.raises(WatchdogTimeout) as err:
            kernel.run_until(10.0)
        assert err.value.limit == 50
        assert kernel.watchdog_trips == 1

    def test_limit_resets_per_window(self):
        from repro.sim.kernel import SimKernel
        kernel = SimKernel()
        kernel.watchdog_limit = 50
        for i in range(40):
            kernel.schedule_at(i * 0.01, lambda: None)
        kernel.run_until(1.0)   # 40 events: under the limit
        for i in range(40):
            kernel.schedule(i * 0.01 + 0.01, lambda: None)
        kernel.run_until(2.0)   # fresh window, fresh budget
        assert kernel.watchdog_trips == 0

    def test_harness_arms_world_watchdog(self):
        harness = AttackHarness(FACTORY, seed=1, watchdog_limit=5_000_000)
        harness.start_run()
        assert harness.world.kernel.watchdog_limit == 5_000_000
        assert harness.world.watchdog_trips == 0


# --------------------------------------------------- harness exception safety

class TestHarnessExceptionSafety:
    def test_failed_branch_leaves_proxy_clean(self):
        # Every restore fails: branch_measure must raise, but the proxy
        # ends disarmed with no policy and no stranded held message.
        harness = AttackHarness(
            FACTORY, seed=1,
            fault_plan=FaultPlan(seed=0, snapshot_restore_rate=1.0))
        instance = harness.start_run()
        injection = harness.run_to_injection("PrePrepare", max_wait=5.0)
        assert injection is not None
        from repro.attacks.actions import DelayAction
        with pytest.raises(SnapshotError):
            harness.branch_measure(injection, DelayAction(1.0))
        assert instance.proxy.armed_type is None
        assert not instance.proxy.policy
        assert not instance.proxy.has_held()

    def test_failed_seek_leaves_proxy_disarmed(self):
        harness = AttackHarness(FACTORY, seed=1)
        instance = harness.start_run()
        # Inject after the boot so the warm snapshot succeeds but the
        # injection-point snapshot inside the seek fails.
        plan = FaultPlan(seed=0, snapshot_save_rate=1.0)
        harness.fault_plan = plan
        harness.snapshotter.fault_plan = plan
        with pytest.raises(SnapshotError):
            harness.run_to_injection("PrePrepare", max_wait=5.0)
        assert instance.proxy.armed_type is None
        assert not instance.proxy.has_held()


# ----------------------------------------------- supervised search and hunt

class TestSupervisedSearch:
    def test_fault_injected_search_finds_same_attacks(self):
        clean = WeightedGreedySearch(FACTORY, seed=1, space_config=TINY_SPACE)
        clean_report = clean.run(message_types=["PrePrepare"])

        # (a seed whose plan faults this pass's few restores; max_faults
        # per probe <= max_retries, so nothing is quarantined)
        plan = FaultPlan(seed=8, snapshot_restore_rate=0.15, max_faults=3)
        faulty = WeightedGreedySearch(FACTORY, seed=1,
                                      space_config=TINY_SPACE,
                                      fault_plan=plan, max_retries=3)
        faulty_report = faulty.run(message_types=["PrePrepare"])
        assert faulty_report.attack_names() == clean_report.attack_names()
        assert faulty_report.quarantined == []
        assert faulty_report.supervisor.retries > 0
        assert faulty_report.ledger.get(RETRY) > 0

    def test_persistent_faults_quarantine_not_crash(self):
        # Every restore fails and retries are exhausted immediately: the
        # pass must complete with quarantined scenarios, not an exception.
        plan = FaultPlan(seed=0, snapshot_restore_rate=1.0)
        search = WeightedGreedySearch(FACTORY, seed=1,
                                      space_config=TINY_SPACE,
                                      fault_plan=plan, max_retries=1)
        report = search.run(message_types=["PrePrepare"])
        assert report.findings == []
        assert report.quarantined
        assert all(q.verdict == "inconclusive" for q in report.quarantined)
        assert report.supervisor.quarantines == len(report.quarantined)

    def test_rebuild_cost_charged(self):
        plan = FaultPlan(seed=5, snapshot_restore_rate=0.15, max_faults=3)
        search = WeightedGreedySearch(FACTORY, seed=1,
                                      space_config=TINY_SPACE,
                                      fault_plan=plan, max_retries=3)
        report = search.run(message_types=["PrePrepare"])
        if report.supervisor.rebuilds:
            assert report.ledger.get(REBUILD) > 0

    def test_snapshot_options_plumbed_to_harness(self):
        """...through the search's engine to the harness its prober
        simulates on."""
        def harness(search):
            return search.engine()._parent().harness

        search = WeightedGreedySearch(FACTORY, seed=1,
                                      space_config=TINY_SPACE,
                                      shared_pages=False,
                                      delta_snapshots=True)
        assert harness(search).shared_pages is False
        assert harness(search).delta_snapshots is True
        default = WeightedGreedySearch(FACTORY, seed=1)
        assert harness(default).shared_pages is True
        assert harness(default).delta_snapshots is False


class TestSupervisedHunt:
    def test_acceptance_faulty_hunt_matches_fault_free(self):
        # ISSUE acceptance: PBFT hunt, >=10% snapshot-restore failures,
        # watchdog armed -> identical attack names to the fault-free hunt.
        clean = hunt(FACTORY, seed=1, message_types=["PrePrepare"],
                     space_config=TINY_SPACE, max_passes=2, max_wait=5.0)
        plan = FaultPlan(seed=12, snapshot_restore_rate=0.10, max_faults=3)
        faulty = hunt(FACTORY, seed=1, message_types=["PrePrepare"],
                      space_config=TINY_SPACE, max_passes=2, max_wait=5.0,
                      fault_plan=plan, watchdog_limit=2_000_000,
                      max_retries=3)
        assert faulty.attack_names() == clean.attack_names()
        assert faulty.quarantined == []
        assert faulty.supervisor.retries > 0
        assert "supervision" in faulty.describe()


def _newest_checkpoint(store_dir: str) -> bytes:
    names = sorted(n for n in os.listdir(store_dir)
                   if n.startswith("checkpoint-"))
    with open(os.path.join(store_dir, names[-1]), "rb") as fh:
        return fh.read()


class TestCheckpointResume:
    """Resume goes through the run store — the only resume path."""

    def test_resume_reproduces_uninterrupted_hunt(self, tmp_path):
        full_store = str(tmp_path / "full")
        resumed_store = str(tmp_path / "resumed")
        kwargs = dict(seed=1, message_types=["PrePrepare"],
                      space_config=TINY_SPACE, max_wait=5.0)

        full = hunt(FACTORY, max_passes=2, store_dir=full_store, **kwargs)

        # Simulate an interruption after pass 1, then resume the campaign.
        hunt(FACTORY, max_passes=1, store_dir=resumed_store, **kwargs)
        resumed = hunt(FACTORY, max_passes=2, store_dir=resumed_store,
                       **kwargs)

        assert resumed.attack_names() == full.attack_names()
        counters = resumed.store_report.counters
        assert counters["store.resume.passes_restored"] == 1
        assert len(resumed.passes) == len(full.passes)
        assert dict(resumed.total_ledger.by_category) == \
            dict(full.total_ledger.by_category)
        # byte-for-byte: the resumed campaign's checkpoint is identical to
        # the uninterrupted one's.
        assert _newest_checkpoint(resumed_store) == \
            _newest_checkpoint(full_store)

    def test_complete_checkpoint_short_circuits(self, tmp_path):
        store = str(tmp_path / "store")
        space = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(),
                                  duplicate_counts=(), include_divert=False,
                                  include_lying=False)
        kwargs = dict(seed=1, message_types=["PrePrepare"],
                      space_config=space, max_passes=3, max_wait=5.0,
                      store_dir=store)
        first = hunt(FACTORY, **kwargs)
        assert not first.passes[-1].findings  # converged
        again = hunt(FACTORY, **kwargs)
        counters = again.store_report.counters
        assert counters["store.resume.passes_restored"] == len(again.passes)
        assert again.attack_names() == first.attack_names()
        # no new pass was executed: nothing probed, nothing journaled,
        # restored platform time unchanged
        assert counters.get("store.journal.records_appended", 0) == 0
        assert again.total_time == pytest.approx(first.total_time)

    def test_seed_mismatch_rejected(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.bind(HuntConfig(seed=1, max_wait=5.0).key(FACTORY(1))["probe"])
        store.close()
        with pytest.raises(ConfigError, match="seed=1"):
            hunt(FACTORY, seed=2, message_types=["PrePrepare"],
                 space_config=TINY_SPACE, max_passes=1, max_wait=5.0,
                 store_dir=str(tmp_path))

    def test_version_mismatch_rejected(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.save_checkpoint({"version": 99, "seed": 1, "passes": []})
        store.close()
        with pytest.raises(ConfigError, match="version 99"):
            hunt(FACTORY, seed=1, store_dir=str(tmp_path))

    def test_interrupt_mid_pass_checkpoints_and_returns(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(ScenarioExecutor, "run_pass",
                            _raise_keyboard_interrupt)
        result = hunt(FACTORY, seed=1, message_types=["PrePrepare"],
                      space_config=TINY_SPACE, max_passes=2, max_wait=5.0,
                      store_dir=str(tmp_path))
        assert result.interrupted
        assert result.passes == []
        store = RunStore(str(tmp_path))
        data = store.load_checkpoint()
        store.close()
        assert data["passes"] == []
        assert not data["complete"]


def _raise_keyboard_interrupt(self, message_types=None, exclude=None,
                              **kwargs):
    raise KeyboardInterrupt


def _interrupt_live_measurement(monkeypatch, when):
    """Raise KeyboardInterrupt from the prober's live ``_measure_action``
    once ``when(calls so far)`` holds."""
    measure = WorkerProber._measure_action
    calls = []

    def interrupted(prober, ctx, action):
        calls.append(action)
        if when(len(calls)):
            raise KeyboardInterrupt
        return measure(prober, ctx, action)

    monkeypatch.setattr(WorkerProber, "_measure_action", interrupted)


# --------------------------------------------------------------------- CLI

def _cli(command, flag, value):
    def call():
        from repro.cli import main
        return main([command, "pbft", flag, value])
    return call


class TestCliSupervision:
    def test_flags_parsed(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["hunt", "pbft", "--inject-faults", "restore=0.1,max=2",
             "--watchdog", "500000", "--max-retries", "4",
             "--no-shared-pages", "--store", "/tmp/x"])
        assert args.inject_faults == "restore=0.1,max=2"
        assert args.watchdog == 500000
        assert args.max_retries == 4
        assert args.no_shared_pages
        assert args.store == "/tmp/x"

    def test_retired_checkpoint_flags_rejected(self, capsys):
        from repro.cli import main
        for flags in (["--resume"], ["--checkpoint", "/tmp/x.json"],
                      ["--snapshot-budget", "64k"]):
            with pytest.raises(SystemExit):
                main(["hunt", "pbft"] + flags)
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("call, error", [
        pytest.param(_cli(command, flag, value), SystemExit,
                     id=f"{command} {flag} {value}")
        for command, flag, value in (("hunt", "--passes", "0"),
                                     ("hunt", "--max-retries", "-1"),
                                     ("hunt", "--validate", "-1"),
                                     ("search", "--max-retries", "-1"),
                                     ("search", "--validate", "-1"))
    ] + [pytest.param(lambda: hunt(FACTORY, seed=1, workers=0), ConfigError,
                      id="hunt(workers=0)")])
    def test_counts_validated_before_anything_runs(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("command", ["search", "hunt"])
    def test_workers_with_fault_plan_match_serial(self, command, tmp_path,
                                                  capsys):
        """``--inject-faults`` runs at any ``--workers``, to the serial
        run's bytes, on both subcommands."""
        from repro.cli import main
        reports = []
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.json"
            code = main([command, "pbft", "--types", "PrePrepare", "--fast",
                         "--no-lying", "--warmup", "1", "--window", "2",
                         "--max-wait", "5", "--allow-empty",
                         "--inject-faults", "restore=0.3,max=2",
                         "--workers", workers, "--json", str(path)])
            assert code == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["supervisor"]["retries"] > 0

    def test_search_interrupt_prints_partial_report(self, capsys,
                                                    monkeypatch):
        from repro.cli import EXIT_INTERRUPTED, main
        monkeypatch.setattr(WeightedGreedySearch, "run",
                            _raise_keyboard_interrupt)
        code = main(["search", "pbft", "--types", "PrePrepare", "--fast",
                     "--no-lying", "--warmup", "1", "--window", "2"])
        assert code == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().out

    def test_parallel_search_interrupt_exits_130(self, capsys, monkeypatch):
        from repro.cli import EXIT_INTERRUPTED, main
        monkeypatch.setattr(ScenarioExecutor, "run_pass",
                            _raise_keyboard_interrupt)
        code = main(["search", "pbft", "--types", "PrePrepare", "--fast",
                     "--no-lying", "--warmup", "1", "--window", "2",
                     "--workers", "2"])
        assert code == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().out

    def test_search_interrupt_mid_walk_prints_what_was_evaluated(
            self, capsys, monkeypatch):
        """Ctrl-C out of the third live measurement (Accept: one, an
        attack; Heartbeat: its second): the walk's report so far."""
        from repro.cli import EXIT_INTERRUPTED, main
        _interrupt_live_measurement(monkeypatch, lambda calls: calls == 3)
        code = main(["search", "paxos", "--types", "Accept,Heartbeat",
                     "--fast", "--no-lying", "--warmup", "0.5", "--window",
                     "1.5", "--max-wait", "5"])
        assert code == EXIT_INTERRUPTED
        out = capsys.readouterr().out
        assert "interrupted — partial report:" in out
        assert "1 attacks, 2 scenarios evaluated" in out
        assert "Delay 1s Accept" in out

    def test_hunt_interrupt_mid_pass_keeps_completed_passes(
            self, monkeypatch, tmp_path):
        """Ctrl-C out of pass 2's first live measurement: pass 1 is in the
        result and in the store's checkpoint."""
        from repro.systems.paxos.testbed import paxos_testbed
        _interrupt_live_measurement(monkeypatch, lambda calls: any(
            name.startswith("checkpoint-") for name in os.listdir(tmp_path)))
        space = ActionSpaceConfig(delays=(0.5, 1.0), drop_probabilities=(),
                                  duplicate_counts=(), include_divert=False,
                                  include_lying=False)
        result = hunt(paxos_testbed(malicious_index=0, warmup=0.5,
                                    window=1.0),
                      seed=3, message_types=["Accept"], space_config=space,
                      max_passes=3, max_wait=5.0, store_dir=str(tmp_path))
        assert result.interrupted
        assert len(result.passes) == 1 and result.passes[0].findings
        store = RunStore(str(tmp_path))
        data = store.load_checkpoint()
        store.close()
        assert data["written_at_pass"] == 1 and not data["complete"]

    def test_hunt_interrupt_prints_resume_hint(self, capsys, monkeypatch,
                                               tmp_path):
        from repro.cli import EXIT_INTERRUPTED, main
        monkeypatch.setattr(ScenarioExecutor, "run_pass",
                            _raise_keyboard_interrupt)
        code = main(["hunt", "pbft", "--types", "PrePrepare", "--fast",
                     "--no-lying", "--warmup", "1", "--window", "2",
                     "--store", str(tmp_path)])
        assert code == EXIT_INTERRUPTED
        out = capsys.readouterr().out
        assert "INTERRUPTED" in out
        assert f"--store {tmp_path}" in out

    def test_hunt_cli_fault_plan_roundtrip(self, capsys):
        from repro.cli import main
        code = main(["hunt", "pbft", "--types", "PrePrepare", "--fast",
                     "--no-lying", "--warmup", "1", "--window", "2",
                     "--max-wait", "5", "--passes", "1",
                     "--inject-faults", "restore=0.15,max=2",
                     "--watchdog", "2000000"])
        assert code == 0
        assert "hunt:" in capsys.readouterr().out
