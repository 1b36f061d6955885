"""Tests for the node runtime: timers, CPU, crash containment, snapshots."""

import pytest

from repro.common.errors import (CodecError, SegmentationFault,
                                 WireFormatError)
from repro.common.ids import replica
from repro.common.rng import RngRegistry
from repro.netem.emulator import NetworkEmulator
from repro.netem.topology import LanTopology
from repro.runtime.app import Application
from repro.runtime.cpu import CpuCostModel, SerialCpu
from repro.runtime.node import Node
from repro.sim.kernel import SimKernel
from repro.wire.codec import Message, ProtocolCodec
from repro.wire.schema import ProtocolSchema, make_message

SCHEMA = ProtocolSchema("rt", (
    make_message("Ping", 1, [("n", "u32")]),
    make_message("Boom", 2, [("size", "i32")]),
    make_message("Blob", 3, [("data", "varbytes<u8>")]),
))
CODEC = ProtocolCodec(SCHEMA)


class EchoApp(Application):
    def __init__(self):
        super().__init__()
        self.received = []
        self.timer_fires = []
        self.started = False

    def on_start(self):
        self.started = True

    def on_message(self, src, message):
        self.received.append((src, message.type_name, dict(message.fields)))
        if message.type_name == "Boom" and message["size"] < 0:
            raise SegmentationFault("negative allocation")

    def on_timer(self, name):
        self.timer_fires.append((name, self.now()))

    def snapshot_state(self):
        return {"received": list(self.received),
                "timer_fires": list(self.timer_fires),
                "started": self.started}

    def restore_state(self, state):
        self.received = list(state["received"])
        self.timer_fires = list(state["timer_fires"])
        self.started = state["started"]


def build(n=2, cost_model=None):
    kernel = SimKernel()
    emulator = NetworkEmulator(kernel, LanTopology())
    rng = RngRegistry(0)
    nodes, apps = [], []
    for i in range(n):
        node_id = replica(i)
        emulator.register_host(node_id)
        node = Node(node_id, kernel, emulator, CODEC,
                    rng.stream(f"node{i}"), cost_model=cost_model)
        app = EchoApp()
        node.attach(app)
        nodes.append(node)
        apps.append(app)
    for node in nodes:
        node.peers = [n.node_id for n in nodes]
    return kernel, nodes, apps


class TestMessaging:
    def test_send_and_dispatch(self):
        kernel, nodes, apps = build()
        nodes[0].send(replica(1), Message("Ping", {"n": 7}))
        kernel.run_until(0.1)
        assert apps[1].received == [(replica(0), "Ping", {"n": 7})]

    def test_broadcast_excludes_self(self):
        kernel, nodes, apps = build(3)
        nodes[0].broadcast(Message("Ping", {"n": 1}))
        kernel.run_until(0.1)
        assert apps[0].received == []
        assert len(apps[1].received) == 1
        assert len(apps[2].received) == 1

    def test_cpu_cost_delays_dispatch(self):
        slow = CpuCostModel(base_cost=0.050)
        kernel, nodes, apps = build(cost_model=slow)
        nodes[0].send(replica(1), Message("Ping", {"n": 1}))
        kernel.run_until(0.02)
        assert apps[1].received == []   # still being processed
        kernel.run_until(0.2)
        assert len(apps[1].received) == 1

    def test_messages_processed_serially(self):
        slow = CpuCostModel(base_cost=0.010)
        kernel, nodes, apps = build(cost_model=slow)
        for i in range(3):
            nodes[0].send(replica(1), Message("Ping", {"n": i}))
        kernel.run_until(1.0)
        assert nodes[1].cpu.messages_processed == 3
        assert [m[2]["n"] for m in apps[1].received] == [0, 1, 2]

    def test_type_costs_charged(self):
        kernel, nodes, apps = build()
        nodes[1].type_costs["Ping"] = 0.5
        nodes[0].send(replica(1), Message("Ping", {"n": 1}))
        kernel.run_until(0.3)
        assert apps[1].received == []
        kernel.run_until(1.0)
        assert len(apps[1].received) == 1

    def test_computed_overflow_is_sent_wrapped(self):
        # What the target computed past a field's range is what the
        # original's fixed-width field would hold, not a platform abort.
        kernel, nodes, apps = build()
        nodes[0].send(replica(1), Message("Ping", {"n": 2**32 + 5}))
        nodes[0].send(replica(1), Message("Boom", {"size": -2**31 - 1}))
        kernel.run_until(0.1)
        assert [m[2] for m in apps[1].received] == [
            {"n": 5}, {"size": 2**31 - 1}]

    def test_unencodable_message_is_a_platform_error(self):
        __, nodes, __ = build()
        with pytest.raises(CodecError, match=r"^rt: Ping: missing field"):
            nodes[0].send(replica(1), Message("Ping", {}))
        with pytest.raises(CodecError, match=r"^rt: Blob\.data: expected at"):
            nodes[0].send(replica(1), Message("Blob", {"data": b"x" * 256}))
        with pytest.raises(WireFormatError):   # a direct encode stays strict
            CODEC.encode(Message("Ping", {"n": 2**32}))

    def test_malformed_payload_dropped(self):
        kernel, nodes, apps = build()
        nodes[0].transport.send(replica(1), b"\x01\x00garbage")
        kernel.run_until(0.1)
        assert apps[1].received == []
        assert nodes[1].malformed_dropped == 1

    def test_ingress_dedup(self):
        kernel, nodes, apps = build()
        nodes[1].ingress_dedup = True
        for __ in range(5):
            nodes[0].send(replica(1), Message("Ping", {"n": 42}))
        kernel.run_until(0.1)
        assert len(apps[1].received) == 1
        assert nodes[1].duplicates_dropped == 4


class TestTimers:
    def test_one_shot_timer(self):
        kernel, nodes, apps = build()
        nodes[0].start()
        nodes[0].set_timer("once", 0.5)
        kernel.run_until(1.0)
        assert [f[0] for f in apps[0].timer_fires] == ["once"]
        assert not nodes[0].timer_pending("once")

    def test_periodic_timer(self):
        kernel, nodes, apps = build()
        nodes[0].set_timer("tick", 0.2, periodic=True)
        kernel.run_until(1.0)
        assert len(apps[0].timer_fires) == 5

    def test_cancel_timer(self):
        kernel, nodes, apps = build()
        nodes[0].set_timer("x", 0.5)
        nodes[0].cancel_timer("x")
        kernel.run_until(1.0)
        assert apps[0].timer_fires == []

    def test_reset_timer_replaces(self):
        kernel, nodes, apps = build()
        nodes[0].set_timer("x", 0.5)
        nodes[0].set_timer("x", 0.9)
        kernel.run_until(1.0)
        assert len(apps[0].timer_fires) == 1
        assert apps[0].timer_fires[0][1] == pytest.approx(0.9)


class TestCrash:
    def test_fault_marks_crashed(self):
        kernel, nodes, apps = build()
        nodes[0].send(replica(1), Message("Boom", {"size": -1}))
        kernel.run_until(0.1)
        assert nodes[1].crashed
        assert "SegmentationFault" in nodes[1].crash_reason

    def test_crashed_node_ignores_everything(self):
        kernel, nodes, apps = build()
        nodes[1].set_timer("tick", 0.2, periodic=True)
        nodes[0].send(replica(1), Message("Boom", {"size": -1}))
        kernel.run_until(0.1)
        count = len(apps[1].timer_fires)
        nodes[0].send(replica(1), Message("Ping", {"n": 1}))
        kernel.run_until(1.0)
        assert len(apps[1].timer_fires) == count
        assert all(m[1] != "Ping" for m in apps[1].received)

    def test_crashed_node_does_not_send(self):
        kernel, nodes, apps = build()
        nodes[0].send(replica(1), Message("Boom", {"size": -1}))
        kernel.run_until(0.1)
        nodes[1].send(replica(0), Message("Ping", {"n": 1}))
        kernel.run_until(0.5)
        assert apps[0].received == []


class TestSnapshot:
    def test_roundtrip_preserves_app_and_timers(self):
        kernel, nodes, apps = build()
        nodes[0].set_timer("tick", 0.3, periodic=True)
        nodes[0].send(replica(1), Message("Ping", {"n": 5}))
        kernel.run_until(0.5)
        state = nodes[0].snapshot_state()
        fires_at_snap = list(apps[0].timer_fires)
        kernel.run_until(1.4)
        nodes[0].restore_state(state)
        assert apps[0].timer_fires == fires_at_snap
        kernel.run_until(2.0)
        # periodic timer resumed after restore
        assert len(apps[0].timer_fires) > len(fires_at_snap)

    def test_pending_cpu_work_restored(self):
        slow = CpuCostModel(base_cost=0.2)
        kernel, nodes, apps = build(cost_model=slow)
        nodes[0].send(replica(1), Message("Ping", {"n": 9}))
        kernel.run_until(0.05)  # in flight: delivered but not processed
        state = nodes[1].snapshot_state()
        kernel.run_until(1.0)
        assert len(apps[1].received) == 1
        apps[1].received.clear()
        nodes[1].restore_state(state)
        kernel.run_until(2.0)
        assert len(apps[1].received) == 1

    def test_crashed_state_survives_snapshot(self):
        kernel, nodes, apps = build()
        nodes[0].send(replica(1), Message("Boom", {"size": -1}))
        kernel.run_until(0.1)
        state = nodes[1].snapshot_state()
        nodes[1].restore_state(state)
        assert nodes[1].crashed


class TestSerialCpu:
    def test_costs_accumulate(self):
        cpu = SerialCpu(CpuCostModel(base_cost=0.01, per_byte_cost=0.0))
        first = cpu.enqueue(0.0, 100)
        second = cpu.enqueue(0.0, 100)
        assert first == pytest.approx(0.01)
        assert second == pytest.approx(0.02)

    def test_idle_gap_not_charged(self):
        cpu = SerialCpu(CpuCostModel(base_cost=0.01, per_byte_cost=0.0))
        cpu.enqueue(0.0, 10)
        done = cpu.enqueue(5.0, 10)
        assert done == pytest.approx(5.01)

    def test_verify_cost(self):
        with_sig = CpuCostModel(verify_signatures=True)
        without = CpuCostModel(verify_signatures=False)
        assert with_sig.cost_of(100) > without.cost_of(100)

    def test_charge_without_dispatch(self):
        cpu = SerialCpu(CpuCostModel(base_cost=0.01))
        cpu.charge(0.0, 0.5)
        assert cpu.busy_until == pytest.approx(0.5)
        assert cpu.messages_processed == 0

    def test_save_load(self):
        cpu = SerialCpu(CpuCostModel(base_cost=0.02))
        cpu.enqueue(0.0, 10)
        state = cpu.save_state()
        other = SerialCpu()
        other.load_state(state)
        assert other.busy_until == cpu.busy_until
        assert other.cost_model.base_cost == 0.02

    def test_utilization(self):
        cpu = SerialCpu(CpuCostModel(base_cost=0.5, per_byte_cost=0.0))
        cpu.enqueue(0.0, 1)
        assert cpu.utilization(1.0) == pytest.approx(0.5)
        assert cpu.utilization(0.0) == 0.0
