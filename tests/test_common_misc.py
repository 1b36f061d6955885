"""Tests for ids, units, and the event log."""


from repro.common.ids import FlowId, NodeId, client, replica
from repro.common.logging import EventLog
from repro.common.units import (GIB, KIB, MIB, PAGE_SIZE, mbit_per_sec,
                                micros, millis, pages_for)


class TestIds:
    def test_roles(self):
        assert replica(3) == NodeId(3, "replica")
        assert client(0) == NodeId(0, "client")
        assert str(replica(2)) == "replica2"

    def test_ordering_total(self):
        nodes = [replica(1), client(1), replica(0), client(0)]
        ordered = sorted(nodes)
        assert ordered == sorted(ordered)
        assert replica(0) < replica(1)

    def test_hashable(self):
        assert len({replica(1), replica(1), client(1)}) == 2

    def test_flow_id(self):
        flow = FlowId(replica(0), replica(1))
        assert str(flow) == "replica0->replica1"


class TestUnits:
    def test_time_conversions(self):
        assert millis(1) == 0.001
        assert micros(1) == 1e-6

    def test_sizes(self):
        assert KIB == 1024
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB

    def test_bandwidth(self):
        assert mbit_per_sec(8) == 1_000_000

    def test_pages_for(self):
        assert pages_for(0) == 0
        assert pages_for(1) == 1
        assert pages_for(PAGE_SIZE) == 1
        assert pages_for(PAGE_SIZE + 1) == 2


class TestEventLog:
    def test_disabled_by_default(self):
        log = EventLog()
        log.emit("c", "e", x=1)
        assert log.records == []

    def test_records_with_clock(self):
        t = [0.0]
        log = EventLog(clock=lambda: t[0], enabled=True)
        log.emit("netem", "deliver", size=10)
        t[0] = 1.5
        log.emit("node", "crash")
        assert [r.time for r in log.records] == [0.0, 1.5]

    def test_select_filters(self):
        log = EventLog(enabled=True)
        log.emit("a", "x")
        log.emit("a", "y")
        log.emit("b", "x")
        assert len(log.select(component="a")) == 2
        assert len(log.select(event="x")) == 2
        assert len(log.select(component="a", event="x")) == 1

    def test_capacity_bound(self):
        log = EventLog(enabled=True, capacity=3)
        for i in range(5):
            log.emit("c", "e", i=i)
        assert len(log.records) == 3
        assert log.dropped == 2

    def test_take_empties_the_log_and_reports_drops(self):
        log = EventLog(enabled=True, capacity=3)
        for i in range(5):
            log.emit("c", "e", i=i)
        taken = log.take()
        assert [r.details for r in taken] == [
            {"i": 0}, {"i": 1}, {"i": 2}, {"count": 2}]
        assert (taken[-1].component, taken[-1].event) == ("eventlog",
                                                         "dropped")
        assert log.records == [] and log.dropped == 0
        log.emit("c", "e", i=5)
        assert [r.details for r in log.take()] == [{"i": 5}]

    def test_clear(self):
        log = EventLog(enabled=True)
        log.emit("c", "e")
        log.clear()
        assert log.records == [] and log.dropped == 0

    def test_str_rendering(self):
        log = EventLog(enabled=True)
        log.emit("node", "send", dst="replica1")
        assert "node: send dst=replica1" in str(log.records[0])
