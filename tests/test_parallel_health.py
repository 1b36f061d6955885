"""Tests for the parallel executor's self-healing layer.

The contract under test: worker death is a recoverable event, and recovery
preserves byte identity.  A worker SIGKILLed (or hung) mid-pass is detected,
reaped and respawned, and its step goes back to the head of the queue —
and because steps are pure functions of the hunt, the merged report's JSON
stays identical to the serial run's.  Escalation is bounded: restart
budgets, retirement (the survivors pull what is left), poison-step
quarantine, and a degrade-to-in-process fallback when the whole pool
collapses.

Faults are injected with the ``REPRO_WORKER_CHAOS`` hook inside
``worker_main`` (the real crash path — SIGKILL, nothing flushed), armed via
``monkeypatch.setenv`` so it never leaks into other tests — or, to target
one step, by monkeypatching ``WorkerProber.run_task`` before the fork.
"""

import json
import os
import signal
import time

import pytest

from repro.analysis.reports import (hunt_result_to_dict, render_hunt_markdown,
                                    render_markdown, report_to_dict)
from repro.attacks.actions import MaliciousAction
from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import ConfigError, SearchError
from repro.controller.supervisor import EVENT_QUARANTINE, EVENT_WORKER_FAULT
from repro.parallel import ScenarioExecutor
from repro.parallel.health import (HealthPolicy, WorkerHealth,
                                   WorkerHealthReport, quarantined_return)
from repro.parallel.recording import StepTrace
from repro.parallel.worker import EvalProbe, Step, WorkerProber
from repro.search.hunt import hunt
from repro.store.runstore import RunStore
from repro.systems.paxos.testbed import paxos_testbed

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)
FACTORY = paxos_testbed(malicious_index=0, warmup=1.0, window=2.0)
TYPES = ["Accept", "Prepare", "Heartbeat"]


def report_json(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def hunt_json(result) -> str:
    return json.dumps(hunt_result_to_dict(result), sort_keys=True)


def serial_report(seed=3, types=TYPES, exclude=None):
    """The pass over an empty probe cache and one in-process prober."""
    with ScenarioExecutor(FACTORY, seed=seed, algorithm="weighted",
                          workers=1, space_config=SPACE,
                          max_wait=5.0) as executor:
        return executor.run_pass(message_types=types, exclude=exclude)


# ------------------------------------------------------------- policy units

class TestHealthPolicy:
    def test_deadline_scales_with_units(self):
        policy = HealthPolicy(task_timeout=2.0)
        assert policy.deadline_for(1) == 2.0
        assert policy.deadline_for(5) == 10.0
        assert policy.deadline_for(0) == 2.0  # startup-only tasks get one unit

    def test_no_timeout_means_no_deadline(self):
        assert HealthPolicy().deadline_for(10) is None

    def test_backoff_is_capped_exponential(self):
        policy = HealthPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert policy.backoff_for(0) == pytest.approx(0.1)
        assert policy.backoff_for(1) == pytest.approx(0.2)
        assert policy.backoff_for(10) == pytest.approx(0.5)

    DELAY = MaliciousAction.from_record(("delay", 1.0))
    DROP = MaliciousAction.from_record(("drop", 1.0))

    def test_step_key_and_label(self):
        known = EvalProbe(self.DELAY.to_record(), None, None, StepTrace())
        evals = Step("evals", "Accept",
                     (self.DELAY.to_record(), self.DROP.to_record()),
                     known=(known,))
        # what the step carries along is not what it is
        assert evals.key == ("evals", "Accept", evals.records)
        assert evals.key == evals._replace(known=()).key
        assert self.DROP.describe() in evals.describe()
        assert "Accept" in evals.describe()
        assert Step("context", "Accept").describe() == "context Accept"
        assert Step("baseline").describe() == "baseline"

    def test_quarantined_return_covers_the_step(self):
        ret = quarantined_return(1, Step("context", "Accept"), "boom", 3)
        assert ret.context.quarantined == ("boom", 3)
        kinds = [e[1] for e in ret.context.trace.events]
        assert kinds == [EVENT_WORKER_FAULT, EVENT_QUARANTINE]
        assert ret.context.trace.charges == []
        # an evals step quarantines what it would have simulated, not the
        # probes it was shipped as already recorded
        known = EvalProbe(self.DELAY.to_record(), None, None, StepTrace())
        ret = quarantined_return(1, Step(
            "evals", "Accept",
            (self.DELAY.to_record(), self.DROP.to_record()), (known,)),
            "boom", 3)
        assert [p.record for p in ret.evals] == [self.DROP.to_record()]
        assert ret.evals[0].quarantined == ("boom", 3)
        assert ret.evals[0].sample is None


class TestHealthReport:
    def test_clean_report_is_not_eventful(self):
        assert not WorkerHealthReport().eventful

    def test_eventful_rendering(self):
        report = WorkerHealthReport()
        report.workers.append(WorkerHealth(worker=1, restarts=2, crashes=2))
        assert report.eventful
        assert "2 restarts" in report.one_line()
        lines = "\n".join(report.markdown_lines())
        assert "## Worker health" in lines
        data = report.to_dict()
        assert data["restarts"] == 2
        assert WorkerHealthReport.from_dict(data).restarts == 2


# -------------------------------------------------------- crash and recovery

class TestCrashRecovery:
    def test_sigkill_mid_pass_byte_identical(self, tmp_path, monkeypatch):
        """Acceptance: --workers 4 with one worker SIGKILLed mid-pass
        completes and the merged report JSON is byte-identical to serial."""
        flag = tmp_path / "fired"
        monkeypatch.setenv("REPRO_WORKER_CHAOS", f"kill:1:{flag}")
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=4, space_config=SPACE,
                              max_wait=5.0) as executor:
            parallel = executor.run_pass(message_types=TYPES)
            health = executor.worker_health()
        assert flag.exists()  # the fault actually fired
        assert health.eventful
        assert health.crashes >= 1
        assert health.restarts >= 1
        assert report_json(parallel) == report_json(serial_report())
        # the health side channel never leaks into the deterministic JSON
        assert "worker_health" not in report_to_dict(parallel)
        # ... but is rendered for humans
        assert parallel.worker_health is not None
        assert "Worker health" in render_markdown(parallel)
        assert "worker health:" in parallel.describe()

    def test_hung_worker_detected_within_deadline(self, tmp_path,
                                                  monkeypatch):
        """A worker sleeping past the deadline is killed and its task
        replayed; the hunt needs no manual intervention."""
        flag = tmp_path / "fired"
        monkeypatch.setenv("REPRO_WORKER_CHAOS", f"hang:1:{flag}:120")
        policy = HealthPolicy(task_timeout=5.0)
        started = time.monotonic()
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0, health=policy) as executor:
            parallel = executor.run_pass(message_types=TYPES)
            health = executor.worker_health()
        assert time.monotonic() - started < 60  # nowhere near the 120s sleep
        assert health.timeouts >= 1
        assert health.restarts >= 1
        assert report_json(parallel) == report_json(serial_report())

    def test_dead_worker_detected_on_send(self):
        """A worker that dies *between* steps hits the send() path; the
        BrokenPipeError is routed through the same recovery.  (Pass 1
        recorded every step pass 2 needs, so pass 2 sends one: the startup
        cross-check, to the first idle worker.)"""
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            first = executor.run_pass(message_types=TYPES)
            victim = executor._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            exclude = {f.scenario.to_record() for f in first.findings}
            second = executor.run_pass(message_types=TYPES, exclude=exclude)
            health = executor.worker_health()
        assert health.crashes >= 1
        assert health.restarts >= 1
        assert report_json(second) == report_json(
            serial_report(exclude=exclude))

    def test_retired_worker_step_requeued(self, monkeypatch):
        """With no restart budget, a crashed worker is retired and its step
        goes back on the queue for the survivors to pull."""
        monkeypatch.setenv("REPRO_WORKER_CHAOS", "kill:1:")
        policy = HealthPolicy(worker_retries=0)
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0, health=policy) as executor:
            parallel = executor.run_pass(message_types=TYPES)
            health = executor.worker_health()
        state = {w.worker: w for w in health.workers}
        assert state[1].retired
        assert state[1].units_reassigned >= 1
        assert not health.degraded  # worker 0 survived and absorbed it
        assert report_json(parallel) == report_json(serial_report())

    def test_pool_collapse_degrades_to_inline(self, monkeypatch):
        """When every worker is gone, the pass finishes in-process —
        same factory, same seed, same bytes."""
        monkeypatch.setenv("REPRO_WORKER_CHAOS", "kill:*:")
        policy = HealthPolicy(worker_retries=0)
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0, health=policy) as executor:
            parallel = executor.run_pass(message_types=TYPES)
            health = executor.worker_health()
        assert health.degraded
        assert all(w.retired for w in health.workers)
        assert report_json(parallel) == report_json(serial_report())

    def test_no_degrade_raises_search_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_CHAOS", "kill:*:")
        policy = HealthPolicy(worker_retries=0, degrade=False)
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0, health=policy) as executor:
            with pytest.raises(SearchError, match="collapsed"):
                executor.run_pass(message_types=TYPES)

    def test_poison_task_quarantined(self, monkeypatch):
        """A step that kills whichever worker runs it is quarantined
        through the supervision ledger instead of sinking the pass."""
        run_task = WorkerProber.run_task

        def deadly(prober, step):
            if step.key == ("context", "Accept", ()):
                os.kill(os.getpid(), signal.SIGKILL)
            return run_task(prober, step)

        monkeypatch.setattr(WorkerProber, "run_task", deadly)  # pre-fork
        policy = HealthPolicy(worker_retries=5, poison_crashes=3)
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0, health=policy) as executor:
            parallel = executor.run_pass(message_types=TYPES)
            health = executor.worker_health()
        assert health.quarantined_tasks == ["context Accept"]
        assert health.crashes == 3
        # surfaced like any quarantined scenario
        assert [q.message_type for q in parallel.quarantined] == ["Accept"]
        assert parallel.supervisor.quarantines == 1
        kinds = {e.kind for e in parallel.supervisor.events}
        assert EVENT_WORKER_FAULT in kinds
        assert EVENT_QUARANTINE in kinds
        # the other steps were unaffected: what they found is a subset of
        # the serial findings (the poisoned step's type is set aside)
        serial = serial_report()
        assert {f.name for f in parallel.findings} <= {
            f.name for f in serial.findings}
        assert not any("Accept" in f.name for f in parallel.findings)


# ------------------------------------------------------------------- hygiene

class TestCloseHygiene:
    def test_close_is_idempotent_and_clears_state(self):
        executor = ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                                    workers=2, space_config=SPACE,
                                    max_wait=5.0)
        executor.run_pass(message_types=["Accept"])
        assert executor._procs
        executor.close()
        assert not executor._procs and not executor._conns
        executor.close()  # second close is a no-op, not an error
        assert not executor._procs and not executor._conns

    def test_close_after_worker_death(self):
        executor = ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                                    workers=2, space_config=SPACE,
                                    max_wait=5.0)
        executor.run_pass(message_types=TYPES)
        victim = executor._procs[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        executor.close()  # dead worker: close still reaps and clears
        assert not executor._procs and not executor._conns


# ----------------------------------------------------------------- CLI guard

class TestCliGuards:
    def test_worker_flags_require_workers(self, capsys):
        from repro.cli import main
        for flag in (["--worker-timeout", "5"], ["--worker-retries", "1"],
                     ["--no-degrade"], ["--worker-health", "h.json"]):
            code = main(["search", "paxos", "--fast"] + flag)
            assert code == 2
            assert "--workers > 1" in capsys.readouterr().err

    def test_positive_float_validator(self):
        from repro.cli import build_parser
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["search", "paxos", "--workers", "2",
                               "--worker-timeout", "0"])
        with pytest.raises(SystemExit):
            parser.parse_args(["search", "paxos", "--workers", "2",
                               "--worker-retries", "-1"])
        args = parser.parse_args(["search", "paxos", "--workers", "2",
                                  "--worker-timeout", "2.5",
                                  "--worker-retries", "0"])
        assert args.worker_timeout == 2.5
        assert args.worker_retries == 0

    def test_hunt_rejects_policy_when_serial(self):
        with pytest.raises(ConfigError, match="workers > 1"):
            hunt(FACTORY, seed=3, space_config=SPACE, max_wait=5.0,
                 workers=1, health_policy=HealthPolicy())


# --------------------------------------------------------- hunts and salvage

class TestHuntRecovery:
    def test_hunt_with_kill_matches_serial(self, tmp_path, monkeypatch):
        serial = hunt(FACTORY, seed=3, message_types=TYPES,
                      space_config=SPACE, max_wait=5.0, max_passes=2)
        flag = tmp_path / "fired"
        monkeypatch.setenv("REPRO_WORKER_CHAOS", f"kill:1:{flag}")
        parallel = hunt(FACTORY, seed=3, message_types=TYPES,
                        space_config=SPACE, max_wait=5.0, max_passes=2,
                        workers=2, health_policy=HealthPolicy())
        assert flag.exists()
        assert hunt_json(parallel) == hunt_json(serial)
        assert parallel.worker_health is not None
        assert parallel.worker_health.eventful
        assert "worker health:" in parallel.describe()
        assert "Worker health" in render_hunt_markdown(parallel)

    def test_aborted_pass_salvages_checkpoint(self, tmp_path, monkeypatch):
        """A hunt that aborts mid-recovery checkpoints its completed
        passes, so a rerun on the store continues instead of starting
        over."""
        store_dir = str(tmp_path)
        clean = hunt(FACTORY, seed=3, message_types=TYPES,
                     space_config=SPACE, max_wait=5.0, max_passes=1,
                     store_dir=store_dir)
        monkeypatch.setenv("REPRO_WORKER_CHAOS", "kill:*:")
        with pytest.raises(SearchError):
            hunt(FACTORY, seed=3, message_types=TYPES,
                 space_config=SPACE, max_wait=5.0, max_passes=3,
                 store_dir=store_dir, workers=2,
                 health_policy=HealthPolicy(worker_retries=0,
                                            degrade=False))
        # pass 1's findings survived the abort
        store = RunStore(store_dir, seed=3)
        data = store.load_checkpoint()
        store.close()
        assert len(data["passes"]) == len(clean.passes)
        monkeypatch.delenv("REPRO_WORKER_CHAOS")
        resumed = hunt(FACTORY, seed=3, message_types=TYPES,
                       space_config=SPACE, max_wait=5.0, max_passes=3,
                       store_dir=store_dir)
        counters = resumed.store_report.counters
        assert counters["store.resume.passes_restored"] == len(clean.passes)
        full = hunt(FACTORY, seed=3, message_types=TYPES,
                    space_config=SPACE, max_wait=5.0, max_passes=3)
        assert resumed.attack_names() == full.attack_names()
