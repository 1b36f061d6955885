"""Tests for the attack-forensics layer (causal tracing + explanations)."""

import json

import pytest

from repro.attacks.actions import (AttackScenario, DelayAction, DropAction,
                                   DuplicateAction)
from repro.attacks.space import ActionSpaceConfig
from repro.common.ids import replica
from repro.controller.config import HuntConfig
from repro.controller.monitor import PerfSample
from repro.forensics.causality import (DELIVER, EGRESS, SEND, CausalEvent,
                                       CausalRecorder)
from repro.forensics.differential import (diff_branches, first_divergence,
                                          perf_timeline)
from repro.forensics.report import (explanation_chrome_trace,
                                    render_explanations_markdown,
                                    write_forensics)
from repro.netem.packets import MessageEnvelope
from repro.parallel.executor import ScenarioExecutor
from repro.search.results import AttackFinding
from repro.systems.pbft.testbed import pbft_testbed

FACTORY = pbft_testbed(malicious="primary", warmup=1.0, window=2.0)
SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)


def make_finding(action, mtype="PrePrepare"):
    benign = PerfSample(0.0, 2.0, 100.0, 0.01, 0.01, 0.01, 0)
    attacked = PerfSample(0.0, 2.0, 10.0, 0.01, 0.01, 0.01, 0)
    return AttackFinding(AttackScenario(mtype, action), benign, attacked,
                         damage=0.9, crashes=0, found_at=1.0)


def explain(findings, seed=1, traces=False):
    """Explain ``findings`` on a fresh one-prober executor, which seeks
    each type's context off the books first."""
    with ScenarioExecutor(FACTORY, HuntConfig(seed=seed, max_wait=5.0),
                          workers=1) as executor:
        return executor.explain(findings, traces=traces)


def ev(kind, t, seq, mtype="Msg", src="a", dst="b", digest="d0"):
    return CausalEvent(kind, t, seq, src, dst, mtype, digest)


def recorder_with(events):
    recorder = CausalRecorder(codec=None, clock=lambda: 0.0)
    recorder.events = list(events)
    return recorder


class TestAlignment:
    def test_identical_chronologies_diverge_nowhere(self):
        events = [ev(SEND, 1.0, 1), ev(EGRESS, 1.0, 1), ev(DELIVER, 1.1, 1)]
        d = first_divergence(recorder_with(events), recorder_with(events))
        assert not d.found
        assert d.kind == "none"

    def test_absent_event_is_first_divergence(self):
        benign = [ev(SEND, 1.0, 1), ev(EGRESS, 1.0, 1), ev(DELIVER, 1.1, 1)]
        attack = [ev(SEND, 1.0, 1)]  # proxy dropped it after the send intent
        d = first_divergence(recorder_with(benign), recorder_with(attack))
        assert d.kind == "absent"
        assert d.event_kind == EGRESS
        assert d.msg_seq == 1
        assert d.benign_time == 1.0 and d.attack_time is None

    def test_mutated_payload_detected(self):
        benign = [ev(SEND, 1.0, 1, digest="aa")]
        attack = [ev(SEND, 1.0, 1, digest="bb")]
        d = first_divergence(recorder_with(benign), recorder_with(attack))
        assert d.kind == "mutated"

    def test_delayed_event_detected(self):
        benign = [ev(SEND, 1.0, 1), ev(DELIVER, 1.1, 1)]
        attack = [ev(SEND, 1.0, 1), ev(DELIVER, 2.1, 1)]
        d = first_divergence(recorder_with(benign), recorder_with(attack))
        assert d.kind == "delayed"
        assert d.benign_time == 1.1 and d.attack_time == 2.1

    def test_extra_attack_event_detected(self):
        benign = [ev(SEND, 1.0, 1)]
        attack = [ev(SEND, 1.0, 1), ev(SEND, 1.0, 1)]  # duplicated copy
        d = first_divergence(recorder_with(benign), recorder_with(attack))
        assert d.kind == "extra"

    def test_earliest_divergence_wins(self):
        benign = [ev(SEND, 1.0, 1), ev(SEND, 2.0, 2)]
        attack = [ev(SEND, 2.0, 2)]  # seq 1 missing, earlier than any other
        d = first_divergence(recorder_with(benign), recorder_with(attack))
        assert d.msg_seq == 1

    def test_diff_reports_delivery_deltas_and_suppression(self):
        benign = [ev(DELIVER, 1.0, 1, mtype="A", dst="n1"),
                  ev(DELIVER, 1.1, 2, mtype="B", dst="n1"),
                  ev(DELIVER, 1.2, 3, mtype="B", dst="n2")]
        attack = [ev(DELIVER, 1.0, 1, mtype="A", dst="n1")]
        result = diff_branches(recorder_with(benign), recorder_with(attack))
        assert result.suppressed_types == ["B"]
        deltas = {(d.node, d.message_type): d.delta
                  for d in result.delivery_deltas}
        assert deltas[("n1", "B")] == -1
        assert deltas[("n2", "B")] == -1


class FakeSpec:
    name = "Msg"


class FakeCodec:
    def peek_type(self, payload):
        return FakeSpec()


class TestCausalRecorder:
    def test_hooks_accumulate_events_edges_and_notes(self):
        clock = [0.0]
        recorder = CausalRecorder(FakeCodec(), lambda: clock[0])
        env1 = MessageEnvelope(1, replica(0), replica(1), "udp", b"x")
        env2 = MessageEnvelope(2, replica(1), replica(2), "udp", b"y")
        recorder.on_send(env1, None, "pass")
        recorder.on_egress(env1, 0.5, True)   # effective egress at +0.5
        clock[0] = 1.0
        recorder.on_deliver(env1)
        recorder.on_handle(1, replica(1), "Msg")
        recorder.on_send(env2, 1, "pass")     # induced by handling seq 1
        recorder.on_proxy(2, "Drop 100%")
        recorder.on_release(env2, None)

        kinds = [e.kind for e in recorder.events]
        assert kinds == ["send", "egress", "deliver", "handle", "send"]
        assert recorder.events[1].time == 0.5
        assert recorder.verdicts == {1: "pass", 2: "pass"}
        assert recorder.proxy_notes[2] == ["Drop 100%", "released:pass"]
        graph = recorder.graph()
        assert graph.children[1] == [2]
        assert graph.descendants(1) == [2]
        assert graph.edges[0].node == "replica1"


class TestPerfTimeline:
    def test_buckets_and_per_node_series(self):
        from repro.metrics.collector import MetricsCollector
        metrics = MetricsCollector()
        for i in range(10):
            metrics.record(i * 0.1, replica(0), "update_done", 0.01)
        timeline = perf_timeline(metrics, 0.0, 1.0, buckets=2)
        assert len(timeline.overall) == 2
        assert sum(p.completed for p in timeline.overall) >= 10
        assert "replica0" in timeline.per_node
        assert timeline.to_dict()["bucket"] == 0.5

    def test_degenerate_window_is_empty(self):
        from repro.metrics.collector import MetricsCollector
        timeline = perf_timeline(MetricsCollector(), 1.0, 1.0)
        assert timeline.overall == [] and timeline.per_node == {}


class TestDropForensics:
    """First-divergence correctness on a scripted PBFT drop attack."""

    def explain_drop(self, seed=1):
        return explain([make_finding(DropAction(1.0))], seed)[0]

    def test_first_divergence_names_the_dropped_message(self):
        exp = self.explain_drop()
        assert not exp.to_dict()["unreproduced"]
        assert exp.divergence.kind == "absent"
        assert exp.divergence.message_type == "PrePrepare"
        assert exp.divergence.event_kind in ("egress", "deliver")
        assert exp.damage > 0.25
        assert exp.delivery_deltas
        assert any(d.message_type == "PrePrepare" and d.delta < 0
                   for d in exp.delivery_deltas)
        assert "First divergence" in exp.narrative()
        json.dumps(exp.to_dict())  # JSON-serializable

    def test_explanations_are_deterministic(self):
        first = self.explain_drop().to_dict()
        second = self.explain_drop().to_dict()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_delay_diverges_as_delayed(self):
        exp = explain([make_finding(DelayAction(1.0))])[0]
        assert exp.divergence.kind == "delayed"
        assert exp.divergence.attack_time > exp.divergence.benign_time

    def test_duplicate_diverges_as_extra(self):
        exp = explain([make_finding(DuplicateAction(50))])[0]
        assert exp.divergence.kind == "extra"

    def test_one_runner_explains_many_findings(self):
        explanations = explain([make_finding(DropAction(1.0)),
                                make_finding(DelayAction(1.0))])
        assert [e.divergence.kind for e in explanations] == \
            ["absent", "delayed"]

    def test_one_seek_per_type_same_explanations(self, monkeypatch):
        """An executor seeks a type's injection point once and reuses it:
        two findings of one type cost one ``run_to_injection``, and explain
        exactly as a fresh executor per finding would."""
        from repro.controller.harness import AttackHarness
        findings = [make_finding(DropAction(1.0)),
                    make_finding(DelayAction(1.0))]
        fresh = [json.dumps(explain([f])[0].to_dict(), sort_keys=True)
                 for f in findings]
        seeks = []
        original = AttackHarness.run_to_injection

        def counted(harness, message_type, max_wait=None):
            seeks.append(message_type)
            return original(harness, message_type, max_wait)

        monkeypatch.setattr(AttackHarness, "run_to_injection", counted)
        shared = [json.dumps(e.to_dict(), sort_keys=True)
                  for e in explain(findings)]
        assert seeks == ["PrePrepare"]
        assert shared == fresh


class TestCrashChain:
    def test_crash_chain_survives_a_long_explanation_run(self, monkeypatch):
        """The crash chain comes from the attacked branch's own EventLog
        records, whatever the branches before it logged: a lie that crashes
        every backup explains the same after other findings as first.  (A
        smaller log capacity, about three branches' records, stands in for
        the long run that once filled the log and lost the chain.)"""
        import functools
        from repro.attacks.actions import LyingAction
        from repro.attacks.strategies import LyingStrategy
        from repro.common.logging import EventLog
        monkeypatch.setattr(EventLog, "__init__", functools.partialmethod(
            EventLog.__init__, capacity=60_000))
        lie = make_finding(LyingAction("big_reqs", LyingStrategy("min", 0.0)))
        explanations = explain([lie, make_finding(DropAction(1.0)),
                                make_finding(DelayAction(1.0)), lie])
        chain = ["replica1[fault]@1.005", "replica2[fault]@1.005",
                 "replica3[fault]@1.005"]
        assert explanations[0].crash_chain == chain
        assert explanations[-1].attack_sample.crashed_nodes == 3
        assert explanations[-1].crash_chain == chain


class TestReportRendering:
    def test_markdown_and_chrome_trace(self, tmp_path):
        exp = explain([make_finding(DropAction(1.0))], traces=True)[0]
        text = render_explanations_markdown([exp])
        assert "Attack forensics" in text and "Drop 100% PrePrepare" in text
        trace = explanation_chrome_trace(exp)
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"M", "i", "s", "f"} <= phases
        paths = write_forensics(str(tmp_path / "out"), [exp])
        assert any(p.endswith("explanations.json") for p in paths)
        assert any("trace_001" in p for p in paths)
        with open(paths[0]) as fh:
            data = json.load(fh)
        assert data["explanations"][0]["divergence"]["kind"] == "absent"


class TestHuntForensics:
    def run_hunt(self, workers=1, explain=True):
        from repro.search.hunt import hunt
        return hunt(FACTORY, seed=3, message_types=["PrePrepare"],
                    space_config=SPACE, max_passes=1, max_wait=5.0,
                    workers=workers, explain=explain)

    def test_parallel_explanations_identical_to_serial(self):
        serial = self.run_hunt(workers=1)
        parallel = self.run_hunt(workers=2)
        assert serial.findings and serial.explanations
        serial_json = json.dumps(
            [e.to_dict() for e in serial.explanations], sort_keys=True)
        parallel_json = json.dumps(
            [e.to_dict() for e in parallel.explanations], sort_keys=True)
        assert serial_json == parallel_json

    def test_serial_explain_adds_no_boot_or_seek(self, monkeypatch):
        """A serial hunt explains on the prober that found its findings:
        from the contexts it holds, with no boot and no seek of its own,
        and keeps no chronology unless asked for traces."""
        from repro.controller.harness import AttackHarness
        calls = []
        for name in ("start_run", "run_to_injection"):
            def counted(harness, *args, _name=name,
                        _original=getattr(AttackHarness, name), **kwargs):
                calls.append(_name)
                return _original(harness, *args, **kwargs)
            monkeypatch.setattr(AttackHarness, name, counted)
        plain = self.run_hunt(explain=False)
        plain_calls, calls[:] = list(calls), []
        explained = self.run_hunt(explain=True)
        assert calls == plain_calls and "start_run" in calls
        assert explained.explanations
        assert all(e.attack_chronology is None
                   for e in explained.explanations)
        traced = self.run_hunt(explain="traces")
        assert [e.to_dict() for e in traced.explanations] == \
            [e.to_dict() for e in explained.explanations]
        assert all(e.attack_chronology.events and e.benign_chronology.events
                   for e in traced.explanations)

    def test_result_json_identical_with_forensics_on_or_off(self):
        from repro.analysis.reports import hunt_result_to_dict
        explained = self.run_hunt(explain=True)
        plain = self.run_hunt(explain=False)
        assert explained.explanations and plain.explanations is None
        assert json.dumps(hunt_result_to_dict(explained), sort_keys=True) \
            == json.dumps(hunt_result_to_dict(plain), sort_keys=True)
        assert "why " in explained.describe()


class TestForensicsCli:
    def test_unwritable_forensics_dir_fails_fast(self, capsys):
        from repro.cli import main
        code = main(["search", "pbft", "--types", "PrePrepare", "--fast",
                     "--no-lying", "--forensics", "/proc/nope/x"])
        assert code == 2
        assert "cannot write --forensics" in capsys.readouterr().err

    def test_search_explain_writes_bundle(self, capsys, tmp_path):
        from repro.cli import main
        out_dir = str(tmp_path / "forensics")
        code = main(["search", "paxos", "--types", "Accept", "--fast",
                     "--no-lying", "--warmup", "0.5", "--window", "1.5",
                     "--max-wait", "5", "--forensics", out_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "why " in out and "forensics written" in out
        with open(f"{out_dir}/explanations.json") as fh:
            data = json.load(fh)
        exp = data["explanations"][0]
        assert exp["divergence"]["message_type"]
        assert exp["damage"] > 0


def sha256_file(path):
    import hashlib
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(argv, capsys):
    from repro.cli import main
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


#: TestHuntForensics' PBFT hunt, spelled for the CLI, run to three passes
#: (three findings of one type)
PBFT_HUNT = ["hunt", "pbft", "--malicious", "primary", "--seed", "3",
             "--warmup", "1", "--window", "2", "--types", "PrePrepare",
             "--fast", "--no-lying", "--max-wait", "5", "--passes", "3"]
PAXOS_SEARCH = ["search", "paxos", "--types", "Accept", "--fast",
                "--no-lying", "--warmup", "0.5", "--window", "1.5",
                "--max-wait", "5"]


class TestForensicsPinned:
    """The ``--forensics`` bundle, byte for byte: every file's sha256 as
    the bundle was written at commit ``0f6cd31``, when explanations were
    replayed on a testbed of their own after the hunt."""

    PBFT_BUNDLE = {
            "explanations.json":
                "aef2f7ae01f2d6530a322517ca44089ba0b943f3876e0b60cb1fec23f6a02922",
            "explanations.md":
                "02f6712aa64c000995c658f00054b0474dae242b42aff060efd8eea98baa731f",
            "trace_001_delay-1s-preprepare.json":
                "de3a9db2d2342a095b702670c07dce972796b41c21641794757ed818ae6cd9b8",
            "trace_002_drop-50-preprepare.json":
                "f086587e2d2d0d84412f0cc20edc4d05c32d72888154295c0d58cdb96e1696ab",
            "trace_003_drop-100-preprepare.json":
                "8c47c11a7677911e9245b7836bb8b08da646912004577b6d08507226720a115b",
        }
    BUNDLES = {
        "pbft-hunt": (PBFT_HUNT, PBFT_BUNDLE),
        "paxos-search": (PAXOS_SEARCH, {
            "explanations.json":
                "9c18c8dbe6334007720a82f9a3b27c2ab6453ef3db21db8abe669d2b17078fa9",
            "explanations.md":
                "3e28596a660a5872ea778b5750cee1772d337bcfaa9c2251630dcf70291626f7",
            "trace_001_delay-1s-accept.json":
                "42dabc340614e4d42903417a18bea92f8f64a3edba2fc3dee4b887c19e9db8af",
        }),
        # explanations draw no platform faults: the same bundle
        "pbft-hunt-faults": (
            PBFT_HUNT + ["--inject-faults", "restore=0.15,max=3"],
            PBFT_BUNDLE),
    }

    @pytest.mark.parametrize("case", sorted(BUNDLES))
    def test_bundle_is_pinned(self, case, capsys, tmp_path):
        argv, pinned = self.BUNDLES[case]
        out_dir = tmp_path / "bundle"
        run_cli(argv + ["--forensics", str(out_dir)], capsys)
        written = {path.name: sha256_file(path)
                   for path in sorted(out_dir.iterdir())}
        assert written == pinned

    #: sha256 of the JSONL ``--log-events`` writes for the PBFT hunt
    LOG_EVENTS = (
        "56b9c67fc42b6c53ae6b136b92c931d3c60edd19d36d15141ec85f3a12c41e97")

    @pytest.mark.parametrize("explain", [[], ["--explain"]],
                             ids=["plain", "explain"])
    def test_log_events_unchanged_by_explain(self, explain, capsys):
        """Explanation branches never reach the ``--log-events`` stream."""
        import hashlib
        out = run_cli(PBFT_HUNT + ["--log-events"] + explain, capsys)
        stream = "".join(line + "\n" for line in out.splitlines()
                         if line.startswith("{"))
        assert hashlib.sha256(stream.encode()).hexdigest() == self.LOG_EVENTS
