"""Tests for the telemetry layer: tracer, summary, exporters, wiring.

The load-bearing properties:

* telemetry never perturbs the experiment — a traced run writes the same
  report bytes as an untraced one (wall-clock telemetry is a side channel,
  in ``HuntResult.telemetry`` and ``--stats``, never in the report or the
  checkpoint), and two identical traced runs produce identical
  virtual-time span streams;
* the tracer is the one recorder and platform state: no snapshot restore
  rewinds it, and a run's counters are read off its spans, so they are
  run totals over every branch and prober;
* disabled telemetry records nothing;
* the Chrome trace export is valid JSON with balanced B/E events and
  carries the Table-II-style page breakdown on snapshot spans.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.analysis.reports import hunt_result_to_dict, report_to_dict
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
from repro.telemetry.progress import ProgressLine
from repro.telemetry.summary import HistogramStats, summarize
from repro.telemetry.tracer import NULL_SPAN, Tracer, maybe_span

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)
FACTORY = paxos_testbed(malicious_index=0, warmup=1.0, window=2.0)


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
        for events, sent in ((3, 2), (5, 0)):
            with tracer.span("kernel.window", deadline=1.0) as span:
                span.set(events=events, **({"netem.messages_sent": sent}
                                           if sent else {}))
        with tracer.span("snapshot.save", mode="shared") as span:
            span.set(save_cost=0.5)
        with tracer.span("snapshot.save", mode="delta"):
            pass  # cut short by a platform fault: no save_cost
        tracer.instant("proxy.action", action="Drop", message_type="Accept")
        summary = summarize(tracer)
        assert summary.span_kind("a").count == 1
        assert summary.counters == {
            "kernel.windows": 2, "kernel.events": 8,
            "netem.messages_sent": 2, "snapshot.saves_shared": 1,
            "proxy.injections": 1}
        assert summary.histograms["kernel.window_events"].max == 5
        assert summary.histograms["snapshot.save_cost"].count == 1
        # JSON-safe: the --stats manifest writes it as it is
        data = summary.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["spans"]["a"]["count"] == 1
        assert (data["histograms"]["kernel.window_events"]["p50"]
                == summary.histograms["kernel.window_events"].p50)
        assert "6 spans" in summary.one_line()

    def test_histogram_percentiles(self):
        """Exact: interpolated between the recorded values, no buckets."""
        hist = HistogramStats.of([float(v) for v in range(100, 0, -1)])
        assert (hist.count, hist.total, hist.min, hist.max) == (
            100, 5050.0, 1.0, 100.0)
        assert hist.p50 == pytest.approx(50.5)
        assert hist.p95 == pytest.approx(95.05)
        assert hist.p99 == pytest.approx(99.01)

    def test_histogram_single_sample(self):
        hist = HistogramStats.of([4.2])
        assert hist.p50 == hist.p99 == hist.min == hist.max == 4.2

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

    def test_untraced_world_has_no_telemetry_records(self):
        harness = self._harness(tracer=None)
        harness.start_run()
        assert harness.proxy.tracer is None
        assert "telemetry" not in harness.world.save_component_states()

    def test_netem_counters_match_stats(self):
        """Before any restore the run's totals are the world's own."""
        tracer = Tracer(enabled=True)
        harness = self._harness(tracer)
        harness.start_run()
        world = harness.world
        stats = world.emulator.stats
        counters = summarize(tracer).counters
        assert counters["netem.messages_sent"] == stats.messages_sent > 0
        assert (counters["netem.messages_delivered"]
                == stats.messages_delivered)
        assert counters["kernel.events"] == world.kernel.events_executed


class TestCountersAreRunTotals:
    """The counters a run reports are run totals derived from its spans:
    every window of every branch and prober, never rewound by a restore."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counters_are_the_span_totals(self, workers):
        tracer = Tracer(enabled=True)
        result = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_passes=1, max_wait=5.0,
                      tracer=tracer, workers=workers)
        counters = result.telemetry.counters
        windows = [r for r in tracer.spans if r.name == "kernel.window"]
        assert counters["kernel.windows"] == len(windows)
        assert counters["kernel.events"] == sum(r.args["events"]
                                                for r in windows)
        saves = Counter(r.args["mode"] for r in tracer.spans
                        if r.name == "snapshot.save")
        assert saves
        assert {mode: counters[f"snapshot.saves_{mode}"]
                for mode in saves} == dict(saves)

    def test_restore_leaves_the_counters_where_they_were(self):
        tracer = Tracer(enabled=True)
        harness = AttackHarness(FACTORY, seed=3, tracer=tracer)
        harness.start_run()
        world = harness.world
        snapshot = harness.take_snapshot()
        sent = world.emulator.stats.messages_sent
        harness.measure_window(1.0)
        counters = summarize(tracer).counters
        assert counters["netem.messages_sent"] > sent
        harness.restore(snapshot)
        # the world rewinds; the run's totals do not
        assert world.emulator.stats.messages_sent == sent
        assert summarize(tracer).counters == counters


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
        assert report_to_dict(traced) == report_to_dict(untraced)


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
        and snapshot span, and the run's counters — whether or not the
        probe cache is journaled."""
        kinds = {"hunt.pass", "search.pass", "search.scenario",
                 "harness.boot", "harness.warmup", "harness.seek",
                 "harness.branch", "harness.measure", "snapshot.save",
                 "snapshot.restore", "kernel.window", "proxy.action"}
        counters = {"kernel.events", "kernel.windows",
                    "netem.messages_delivered", "netem.messages_sent",
                    "netem.packets_forwarded", "proxy.injections",
                    "proxy.intercepted", "snapshot.saves_shared"}
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


def _hunt_bytes(**options) -> str:
    """The bytes ``repro hunt --json`` writes for a two-pass Paxos hunt."""
    result = hunt(FACTORY, seed=3, message_types=["Accept"],
                  space_config=SPACE, max_wait=5.0,
                  **{"max_passes": 2, **options})
    return json.dumps(hunt_result_to_dict(result), indent=2)


@pytest.fixture(scope="module")
def untraced_hunt_bytes():
    return _hunt_bytes()


class TestTelemetryStaysOutOfTheReport:
    """Wall-clock telemetry is a side channel: a traced run, and a run
    resumed from a store a traced run wrote, write the untraced bytes."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_hunt_writes_the_untraced_bytes(self, workers,
                                                   untraced_hunt_bytes):
        assert _hunt_bytes(tracer=Tracer(enabled=True),
                           workers=workers) == untraced_hunt_bytes

    def test_resume_from_a_traced_store_writes_the_untraced_bytes(
            self, tmp_path, untraced_hunt_bytes):
        store_dir = str(tmp_path)
        first = hunt(FACTORY, seed=3, message_types=["Accept"],
                     space_config=SPACE, max_wait=5.0, max_passes=1,
                     tracer=Tracer(enabled=True), store_dir=store_dir)
        assert first.findings  # pass 1 leaves pass 2 to the resume
        assert _hunt_bytes(store_dir=store_dir) == untraced_hunt_bytes

    def test_traced_search_writes_the_untraced_bytes(self, tmp_path):
        paths = [str(tmp_path / "untraced.json"), str(tmp_path / "traced.json")]
        assert main(BASE_ARGS + ["--json", paths[0]]) == 0
        assert main(BASE_ARGS + ["--json", paths[1], "--trace",
                                 str(tmp_path / "trace.json")]) == 0
        with open(paths[0]) as untraced, open(paths[1]) as traced:
            assert traced.read() == untraced.read()


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stats_flag_writes_the_run_manifest(self, workers, tmp_path):
        """One file, every side channel: the telemetry summary (its
        counters at any --workers), one row per prober (the parent-side
        prober's at --workers 1), the pool, the store, the event log, peak
        RSS and the report's sha256."""
        report, stats = str(tmp_path / "r.json"), str(tmp_path / "s.json")
        assert main(BASE_ARGS + ["--workers", str(workers), "--json", report,
                                 "--stats", stats]) == 0
        with open(stats) as fh:
            data = json.load(fh)
        assert set(data) == {"telemetry", "workers", "pool", "store",
                             "event_log", "peak_rss_mb", "report_sha256"}
        assert "harness.seek" in data["telemetry"]["spans"]
        rows = data["workers"]
        assert [row["worker"] for row in rows] == list(range(workers))
        assert sum(row["total"] for row in rows) > 0
        assert all(row["crashes"] == row["restarts"] == 0 for row in rows)
        if workers == 1:  # the parent-side prober's row
            assert rows[0]["shards"] == ["Accept"]
            assert rows[0]["wall_seconds"] > 0
        assert data["telemetry"]["counters"]["netem.messages_sent"] > 0
        assert data["pool"] == {"degraded": False, "quarantined_tasks": [],
                                "events": []}
        assert data["store"] is None
        assert data["event_log"] == {"records": 0, "dropped": 0}
        assert data["peak_rss_mb"] > 0
        with open(report, "rb") as fh:
            assert data["report_sha256"] == hashlib.sha256(
                fh.read()).hexdigest()

    def test_log_events_streams_jsonl(self, capsys):
        assert main(BASE_ARGS + ["--log-events", "netem:deliver"]) == 0
        out = capsys.readouterr().out
        log_lines = [json.loads(line) for line in out.splitlines()
                     if line.startswith("{")]
        assert log_lines
        assert all(r["type"] == "log" and r["event"] == "deliver"
                   for r in log_lines)

    def test_log_events_reports_dropped_records_on_stderr(
            self, capsys, monkeypatch, tmp_path):
        """A probe that outgrows the EventLog loses records; the stream
        counts them and the CLI says so on stderr."""
        import functools
        from repro.common.logging import EventLog
        assert main(BASE_ARGS + ["--log-events", "*"]) == 0
        full = capsys.readouterr()
        assert "dropped" not in full.err
        monkeypatch.setattr(EventLog, "__init__", functools.partialmethod(
            EventLog.__init__, capacity=100))
        stats = str(tmp_path / "stats.json")
        assert main(BASE_ARGS + ["--log-events", "*", "--stats", stats]) == 0
        cut = capsys.readouterr()
        records = [json.loads(line) for line in cut.out.splitlines()
                   if line.startswith("{")]
        drops = [r for r in records if r["component"] == "eventlog"]
        dropped = sum(r["details"]["count"] for r in drops)
        assert dropped > 0
        assert f"--log-events dropped {dropped} records" in cut.err
        assert len(records) - len(drops) + dropped == sum(
            1 for line in full.out.splitlines() if line.startswith("{"))
        with open(stats) as fh:
            assert json.load(fh)["event_log"] == {"records": len(records),
                                                  "dropped": dropped}

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
        stats = str(tmp_path / "stats.json")
        code = main(["hunt", "paxos", "--types", "Accept", "--fast",
                     "--no-lying", "--warmup", "0.5", "--window", "1.5",
                     "--max-wait", "5", "--passes", "1", "--allow-empty",
                     "--trace", path, "--stats", stats,
                     "--store", str(tmp_path / "store")])
        assert code == 0
        with open(path) as fh:
            data = json.load(fh)
        assert any(e["name"] == "hunt.pass"
                   for e in data["traceEvents"])
        assert f"stats written to {stats}" in capsys.readouterr().out
        with open(stats) as fh:
            data = json.load(fh)
        assert data["telemetry"]["spans"]["hunt.pass"]["count"] == 1
        assert data["store"]["store.checkpoint.writes"] == 1

    def test_baseline_prints_percentiles(self, capsys):
        assert main(["baseline", "paxos", "--warmup", "0.5",
                     "--window", "1.5"]) == 0
        assert "p50/p95/p99" in capsys.readouterr().out
