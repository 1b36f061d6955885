"""Tests for the telemetry layer: instruments, tracer, exporters, wiring.

The load-bearing properties:

* telemetry never perturbs the experiment — a traced run produces the same
  scenario results as an untraced one, and two identical traced runs produce
  identical virtual-time span streams;
* the instrument registry is world state (rewound by snapshot restore)
  while the tracer is platform state (never rewound);
* disabled telemetry records nothing;
* the Chrome trace export is valid JSON with balanced B/E events and
  carries the Table-II-style page breakdown on snapshot spans.
"""

import json

import pytest

from repro.analysis.reports import report_from_dict, report_to_dict
from repro.attacks.space import ActionSpaceConfig
from repro.cli import main
from repro.common.logging import LogRecord
from repro.controller.harness import AttackHarness
from repro.metrics.collector import MetricsCollector
from repro.search.hunt import hunt
from repro.search.weighted import WeightedGreedySearch
from repro.systems.paxos.testbed import paxos_testbed
from repro.telemetry.export import (chrome_trace, log_jsonl_records,
                                    span_jsonl_records, write_chrome_trace,
                                    write_jsonl)
from repro.telemetry.instruments import Histogram, InstrumentRegistry
from repro.telemetry.progress import ProgressLine
from repro.telemetry.summary import TelemetrySummary, summarize
from repro.telemetry.tracer import NULL_SPAN, Tracer, maybe_span

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)
FACTORY = paxos_testbed(malicious_index=0, warmup=1.0, window=2.0)


# ------------------------------------------------------------- instruments

class TestInstrumentRegistry:
    def test_disabled_records_nothing(self):
        reg = InstrumentRegistry(enabled=False)
        reg.count("a")
        reg.gauge("b", 2.0)
        reg.observe("c", 3.0)
        assert reg.counters() == {}
        assert reg.gauges() == {}
        assert reg.histograms() == {}

    def test_counters_and_gauges(self):
        reg = InstrumentRegistry(enabled=True)
        reg.count("events")
        reg.count("events", 4)
        reg.gauge("depth", 7.0)
        assert reg.counter_value("events") == 5
        assert reg.gauges()["depth"] == 7.0

    def test_state_round_trip(self):
        reg = InstrumentRegistry(enabled=True)
        reg.count("x", 3)
        reg.gauge("g", 1.5)
        for v in (0.1, 0.2, 5.0):
            reg.observe("h", v)
        state = reg.save_state()
        other = InstrumentRegistry(enabled=True)
        other.load_state(state)
        assert other.save_state() == state
        assert other.histogram("h").count == 3

    def test_load_none_clears(self):
        reg = InstrumentRegistry(enabled=True)
        reg.count("x")
        reg.load_state(None)
        assert reg.counters() == {}
        # enabled is configuration, not state
        assert reg.enabled

    def test_histogram_percentiles(self):
        hist = Histogram()
        for v in range(1, 101):  # 1..100
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.min == 1.0 and hist.max == 100.0
        # Bucketed estimates: generous bounds, but ordered and in range.
        p50, p95, p99 = (hist.percentile(p) for p in (50, 95, 99))
        assert 1.0 <= p50 <= p95 <= p99 <= 100.0
        assert 25.0 <= p50 <= 75.0
        assert p99 >= 75.0

    def test_histogram_empty_and_single(self):
        hist = Histogram()
        assert hist.percentile(99) == 0.0
        hist.observe(4.2)
        assert hist.percentile(50) == pytest.approx(4.2)
        assert hist.percentile(99) == pytest.approx(4.2)


# ------------------------------------------------------------------ tracer

class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("x", a=1)
        assert span is NULL_SPAN
        with span:
            span.set(b=2)
        tracer.instant("y")
        assert tracer.spans == []
        assert tracer.events == []

    def test_nesting_depths_and_balance(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.instant("tick")
        by_name = {r.name: r for r in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["tick"].depth == 2
        kinds = [k for k, *_ in tracer.events]
        assert kinds == ["B", "B", "I", "E", "E"]

    def test_virtual_records_strip_wall_clock(self):
        clock_value = [0.0]
        tracer = Tracer(enabled=True, clock=lambda: clock_value[0])
        with tracer.span("w", n=1):
            clock_value[0] = 2.5
        (record,) = tracer.virtual_records()
        assert record == ("w", "span", 0, 0.0, 2.5, (("n", 1),))

    def test_maybe_span_null_paths(self):
        assert maybe_span(None, "x") is NULL_SPAN
        assert maybe_span(Tracer(enabled=False), "x") is NULL_SPAN
        tracer = Tracer(enabled=True)
        assert maybe_span(tracer, "x") is not NULL_SPAN


# --------------------------------------------------------------- exporters

class TestExport:
    def _traced(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a", k="v"):
            tracer.instant("i")
        return tracer

    def test_chrome_trace_balanced_and_valid(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, self._traced())
        with open(path) as fh:
            data = json.load(fh)
        events = data["traceEvents"]
        begins = sum(1 for e in events if e["ph"] == "B")
        ends = sum(1 for e in events if e["ph"] == "E")
        assert begins == ends == 1
        assert any(e["ph"] == "i" for e in events)
        assert all("virtual_time" in e["args"]
                   for e in events if e["ph"] != "M")

    def test_chrome_trace_timestamps_monotonic(self):
        data = chrome_trace(self._traced())
        ts = [e["ts"] for e in data["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_span_jsonl(self):
        records = list(span_jsonl_records(self._traced()))
        assert [r["name"] for r in records] == ["i", "a"]  # completion order
        assert records[1]["args"] == {"k": "v"}

    def test_log_jsonl_filtering(self):
        records = [LogRecord(0.1, "netem", "deliver", {"msg": 1}),
                   LogRecord(0.2, "node", "crash", {}),
                   LogRecord(0.3, "node", "start", {})]
        assert len(list(log_jsonl_records(records, None))) == 3
        assert len(list(log_jsonl_records(records, "*"))) == 3
        assert len(list(log_jsonl_records(records, "node"))) == 2
        only = list(log_jsonl_records(records, "node:crash"))
        assert [r["event"] for r in only] == ["crash"]
        both = list(log_jsonl_records(records, "netem,node:crash"))
        assert len(both) == 2

    def test_write_jsonl_lines(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        count = write_jsonl(path, [{"a": 1}, {"b": 2}])
        assert count == 2
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert lines == [{"a": 1}, {"b": 2}]


# ----------------------------------------------------------------- summary

class TestSummary:
    def test_summarize_and_round_trip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        reg = InstrumentRegistry(enabled=True)
        reg.count("c", 3)
        reg.observe("h", 1.0)
        summary = summarize(tracer, reg)
        assert summary.span_kind("a").count == 2
        assert summary.counters["c"] == 3
        again = TelemetrySummary.from_dict(summary.to_dict())
        assert again.to_dict() == summary.to_dict()
        assert "2 spans" in summary.one_line()
        assert "a" in summary.describe()

    def test_merge(self):
        t1, t2 = Tracer(enabled=True), Tracer(enabled=True)
        with t1.span("a"):
            pass
        with t2.span("a"):
            pass
        with t2.span("b"):
            pass
        merged = summarize(t1)
        merged.merge(summarize(t2))
        assert merged.span_kind("a").count == 2
        assert merged.span_kind("b").count == 1

    def test_since_slices_span_stream(self):
        tracer = Tracer(enabled=True)
        with tracer.span("early"):
            pass
        mark = tracer.mark()
        with tracer.span("late"):
            pass
        summary = summarize(tracer, since=mark)
        assert summary.span_kind("early").count == 0
        assert summary.span_kind("late").count == 1


# ---------------------------------------------------------------- progress

class TestProgressLine:
    class _Stream:
        def __init__(self):
            self.written = []

        def write(self, text):
            self.written.append(text)

        def flush(self):
            pass

    def test_disabled_writes_nothing(self):
        stream = self._Stream()
        line = ProgressLine(stream=stream, enabled=False)
        line.update("hello")
        line.done()
        assert stream.written == []

    def test_overwrites_and_erases(self):
        stream = self._Stream()
        line = ProgressLine(stream=stream, enabled=True)
        line.prefix = "pass 1/2 · "
        line.update("working")
        line.update("ok")  # shorter: must pad over the stale tail
        assert stream.written[0].startswith("\rpass 1/2 · working")
        assert len(stream.written[1].lstrip("\r")) >= len(
            "pass 1/2 · working")
        line.done()
        assert stream.written[-1].endswith("\r")


# ------------------------------------------------- harness + world wiring

class TestWorldWiring:
    def _harness(self, tracer=None):
        return AttackHarness(FACTORY, seed=3, tracer=tracer)

    def test_traced_harness_produces_phase_spans(self):
        tracer = Tracer(enabled=True)
        harness = self._harness(tracer)
        harness.start_run()
        injection = harness.run_to_injection("Accept", max_wait=5.0)
        assert injection is not None
        harness.branch_measure(injection, None)
        names = {r.name for r in tracer.spans}
        assert {"harness.boot", "harness.warmup", "harness.seek",
                "harness.branch", "harness.measure", "snapshot.save",
                "snapshot.restore", "kernel.window"} <= names

    def test_snapshot_span_carries_page_breakdown(self):
        tracer = Tracer(enabled=True)
        harness = self._harness(tracer)
        harness.start_run()
        saves = [r for r in tracer.spans if r.name == "snapshot.save"]
        assert saves
        args = saves[0].args
        assert args["mode"] == "shared"
        assert args["pages_total"] == (args["pages_shared"]
                                       + args["pages_private"])
        assert args["pages_shared"] > 0  # KSM merged the OS image
        assert args["stored_bytes"] > 0

    def test_delta_snapshot_span_mode(self):
        tracer = Tracer(enabled=True)
        harness = AttackHarness(FACTORY, seed=3, tracer=tracer,
                                delta_snapshots=True)
        harness.start_run()
        injection = harness.run_to_injection("Accept", max_wait=5.0)
        assert injection is not None
        modes = [r.args["mode"] for r in tracer.spans
                 if r.name == "snapshot.save"]
        assert "shared" in modes  # the warm snapshot
        assert "delta" in modes   # the injection-point snapshot
        delta = next(r for r in tracer.spans
                     if r.name == "snapshot.save"
                     and r.args["mode"] == "delta")
        assert "pages_changed" in delta.args
        assert "pages_removed" in delta.args

    def test_registry_rewinds_with_restore_but_tracer_does_not(self):
        tracer = Tracer(enabled=True)
        harness = self._harness(tracer)
        harness.start_run()
        world = harness.world
        assert world.instruments.enabled
        snapshot = harness.take_snapshot()
        at_save = world.instruments.counter_value("kernel.events")
        spans_at_save = len(tracer.spans)
        harness.measure_window(1.0)
        assert world.instruments.counter_value("kernel.events") > at_save
        harness.restore(snapshot)
        # world-owned telemetry rewound...
        assert world.instruments.counter_value("kernel.events") == at_save
        # ...platform-side tracer kept everything (incl. the restore span)
        assert len(tracer.spans) > spans_at_save

    def test_untraced_world_has_no_telemetry_records(self):
        harness = self._harness(tracer=None)
        harness.start_run()
        world = harness.world
        assert not world.instruments.enabled
        assert world.instruments.counters() == {}
        assert world.kernel.tracer is None

    def test_netem_counters_match_stats(self):
        tracer = Tracer(enabled=True)
        harness = self._harness(tracer)
        harness.start_run()
        world = harness.world
        ins = world.instruments
        assert (ins.counter_value("netem.messages_sent")
                == world.emulator.stats.messages_sent)
        assert (ins.counter_value("netem.messages_delivered")
                == world.emulator.stats.messages_delivered)


# ------------------------------------------------------------ determinism

def _run_search(tracer=None, log_events=False):
    search = WeightedGreedySearch(FACTORY, seed=3, space_config=SPACE,
                                  max_wait=5.0, tracer=tracer,
                                  log_events=log_events)
    return search, search.run(message_types=["Accept"])


class TestDeterminism:
    def test_identical_traced_runs_identical_virtual_telemetry(self):
        t1 = Tracer(enabled=True)
        t2 = Tracer(enabled=True)
        _run_search(t1)
        _run_search(t2)
        assert t1.virtual_records() == t2.virtual_records()
        assert t1.virtual_records()  # non-trivial stream

    def test_traced_equals_untraced_scenario_results(self):
        __, traced = _run_search(Tracer(enabled=True))
        __, untraced = _run_search(None)
        d_traced = report_to_dict(traced)
        d_untraced = report_to_dict(untraced)
        assert d_traced.pop("telemetry") is not None
        assert d_untraced.pop("telemetry") is None
        assert d_traced == d_untraced

    def test_report_telemetry_round_trips_through_json(self):
        __, report = _run_search(Tracer(enabled=True))
        data = json.loads(json.dumps(report_to_dict(report)))
        again = report_from_dict(data)
        assert again.telemetry is not None
        assert again.telemetry.to_dict() == report.telemetry.to_dict()
        assert report.telemetry.span_kind("search.pass").count == 1
        assert report.telemetry.span_kind("search.scenario").count > 0


# ------------------------------------------------------------------- hunt

class TestHuntTelemetry:
    def test_hunt_merges_pass_telemetry_and_collects_logs(self):
        tracer = Tracer(enabled=True)
        result = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_passes=2, max_wait=5.0,
                      tracer=tracer, log_events=True)
        assert result.telemetry is not None
        assert (result.telemetry.span_kind("hunt.pass").count
                == len(result.passes))
        assert result.event_log  # EventLog records were gathered
        assert any(r.component == "netem" for r in result.event_log)
        assert "telemetry:" in result.describe()

    def test_every_layer_reports_with_and_without_a_store(self, tmp_path):
        """One engine, one telemetry surface: the pass span, every harness
        and snapshot span, and the live world's counters — whether or not
        the probe cache is journaled."""
        kinds = {"hunt.pass", "search.pass", "search.scenario",
                 "harness.boot", "harness.warmup", "harness.seek",
                 "harness.branch", "harness.measure", "snapshot.save",
                 "snapshot.restore", "kernel.window", "proxy.action"}
        counters = {"kernel.events", "kernel.windows",
                    "netem.messages_delivered", "netem.messages_sent",
                    "netem.packets_forwarded", "proxy.injections",
                    "proxy.intercepted"}
        for store_dir in (None, str(tmp_path)):
            stream = TestProgressLine._Stream()
            result = hunt(FACTORY, seed=3, message_types=["Accept"],
                          space_config=SPACE, max_passes=1, max_wait=5.0,
                          tracer=Tracer(enabled=True), workers=1,
                          progress=ProgressLine(stream=stream, enabled=True),
                          store_dir=store_dir)
            assert set(result.telemetry.spans) == kinds, store_dir
            assert set(result.telemetry.counters) == counters, store_dir
            assert result.telemetry.span_kind("search.pass").count == 1
            # ...and the status line ticks once per step the walk takes
            ticks = [text for text in stream.written if "scenarios" in text]
            assert len(ticks) > result.passes[0].scenarios_evaluated
            assert all(t.startswith("\rpass 1/1 · ") for t in ticks)

    def test_untraced_hunt_has_no_telemetry(self):
        result = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_passes=1, max_wait=5.0)
        assert result.telemetry is None
        assert result.event_log == []


# ------------------------------------------------------------ percentiles

class TestLatencyPercentiles:
    def test_collector_percentiles_interpolate(self):
        from repro.common.ids import NodeId
        collector = MetricsCollector()
        node = NodeId(0, "n")
        for i, v in enumerate([0.010, 0.020, 0.030, 0.040, 0.100]):
            collector.record(0.1 * i, node, "update_done", v)
        p50, p95, p99 = collector.latency_percentiles(0.0, 1.0)
        assert p50 == pytest.approx(0.030)
        assert p95 == pytest.approx(0.088)
        assert p99 == pytest.approx(0.0976)
        assert collector.latency_percentiles(5.0, 6.0) == (0.0, 0.0, 0.0)

    def test_perf_sample_carries_percentiles(self):
        harness = AttackHarness(FACTORY, seed=3)
        harness.start_run(take_warm_snapshot=False)
        sample = harness.measure_window()
        assert sample.latency_p50 > 0
        assert sample.latency_p50 <= sample.latency_p95 <= sample.latency_p99
        assert sample.latency_p99 <= sample.latency_max
        assert "p95" in sample.describe()


# --------------------------------------------------------------------- CLI

BASE_ARGS = ["search", "paxos", "--types", "Accept", "--fast", "--no-lying",
             "--warmup", "0.5", "--window", "1.5", "--max-wait", "5"]


class TestCli:
    def test_trace_flag_writes_chrome_trace(self, capsys, tmp_path):
        path = str(tmp_path / "trace.json")
        assert main(BASE_ARGS + ["--trace", path]) == 0
        with open(path) as fh:
            data = json.load(fh)
        events = data["traceEvents"]
        begins = sum(1 for e in events if e["ph"] == "B")
        ends = sum(1 for e in events if e["ph"] == "E")
        assert begins == ends > 0
        assert any(e["name"] == "snapshot.save" and e["ph"] == "B"
                   for e in events)
        assert f"trace written to {path}" in capsys.readouterr().out

    def test_telemetry_flag_prints_summary(self, capsys):
        assert main(BASE_ARGS + ["--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary:" in out
        assert "harness.seek" in out
        assert "netem.messages_sent" in out

    def test_log_events_streams_jsonl(self, capsys):
        assert main(BASE_ARGS + ["--log-events", "netem:deliver"]) == 0
        out = capsys.readouterr().out
        log_lines = [json.loads(line) for line in out.splitlines()
                     if line.startswith("{")]
        assert log_lines
        assert all(r["type"] == "log" and r["event"] == "deliver"
                   for r in log_lines)

    def test_log_events_reports_dropped_records_on_stderr(
            self, capsys, monkeypatch):
        """A probe that outgrows the EventLog loses records; the stream
        counts them and the CLI says so on stderr."""
        import functools
        from repro.common.logging import EventLog
        assert main(BASE_ARGS + ["--log-events", "*"]) == 0
        full = capsys.readouterr()
        assert "dropped" not in full.err
        monkeypatch.setattr(EventLog, "__init__", functools.partialmethod(
            EventLog.__init__, capacity=100))
        assert main(BASE_ARGS + ["--log-events", "*"]) == 0
        cut = capsys.readouterr()
        records = [json.loads(line) for line in cut.out.splitlines()
                   if line.startswith("{")]
        drops = [r for r in records if r["component"] == "eventlog"]
        dropped = sum(r["details"]["count"] for r in drops)
        assert dropped > 0
        assert f"--log-events dropped {dropped} records" in cut.err
        assert len(records) - len(drops) + dropped == sum(
            1 for line in full.out.splitlines() if line.startswith("{"))

    def test_brute_log_events_ships_the_branched_worlds(self, capsys):
        """Brute force prices its scenarios from branches, so what it ships
        is the records of the worlds its prober branched, as greedy's."""
        assert main(BASE_ARGS + ["--algorithm", "brute",
                                 "--log-events", "netem:deliver"]) == 0
        log_lines = [json.loads(line)
                     for line in capsys.readouterr().out.splitlines()
                     if line.startswith("{")]
        assert log_lines
        assert all(r["event"] == "deliver" for r in log_lines)

    def test_hunt_trace_flag(self, capsys, tmp_path):
        path = str(tmp_path / "hunt_trace.json")
        code = main(["hunt", "paxos", "--types", "Accept", "--fast",
                     "--no-lying", "--warmup", "0.5", "--window", "1.5",
                     "--max-wait", "5", "--passes", "1", "--allow-empty",
                     "--trace", path, "--telemetry"])
        assert code == 0
        with open(path) as fh:
            data = json.load(fh)
        assert any(e["name"] == "hunt.pass"
                   for e in data["traceEvents"])
        assert "telemetry summary:" in capsys.readouterr().out

    def test_baseline_prints_percentiles(self, capsys):
        assert main(["baseline", "paxos", "--warmup", "0.5",
                     "--window", "1.5"]) == 0
        assert "p50/p95/p99" in capsys.readouterr().out
