"""Tests for World assembly and the cost ledger."""

import pytest

from repro.common.errors import ConfigError
from repro.common.ids import client, replica
from repro.controller.costs import (BOOT, EXECUTION, SNAPSHOT_RESTORE,
                                    SNAPSHOT_SAVE, CostLedger)
from repro.runtime.app import Application
from repro.runtime.world import World
from repro.wire.codec import ProtocolCodec
from repro.wire.schema import ProtocolSchema, make_message

SCHEMA = ProtocolSchema("w", (make_message("Ping", 1, [("n", "u32")]),))
CODEC = ProtocolCodec(SCHEMA)


class NullApp(Application):
    def snapshot_state(self):
        return {}

    def restore_state(self, state):
        pass


class TestWorld:
    def test_boot_creates_vms(self):
        world = World(CODEC)
        world.add_node(replica(0), NullApp())
        world.add_node(client(0), NullApp())
        boot_time = world.boot()
        assert boot_time > 0
        assert world.booted
        assert len(world.cluster) == 2
        assert world.cluster.vm("replica0").running

    def test_duplicate_node_rejected(self):
        world = World(CODEC)
        world.add_node(replica(0), NullApp())
        with pytest.raises(ConfigError):
            world.add_node(replica(0), NullApp())

    def test_no_nodes_after_boot(self):
        world = World(CODEC)
        world.add_node(replica(0), NullApp())
        world.boot()
        with pytest.raises(ConfigError):
            world.add_node(replica(1), NullApp())
        with pytest.raises(ConfigError):
            world.boot()

    def test_peer_groups(self):
        world = World(CODEC)
        ids = [replica(i) for i in range(3)]
        for node_id in ids:
            world.add_node(node_id, NullApp())
        world.set_peer_groups(ids)
        assert world.node(replica(1)).peers == (replica(0), replica(2))

    def test_apps_started_on_boot(self):
        started = []

        class StartApp(NullApp):
            def on_start(self):
                started.append(self.node_id)

        world = World(CODEC)
        world.add_node(replica(0), StartApp())
        world.add_node(replica(1), StartApp())
        world.boot()
        assert started == [replica(0), replica(1)]

    def test_crashed_nodes_listing(self):
        from repro.common.errors import SegmentationFault

        class CrashyApp(NullApp):
            def on_start(self):
                if self.node_id.index == 1:
                    raise SegmentationFault("boom")

        world = World(CODEC)
        world.add_node(replica(0), CrashyApp())
        world.add_node(replica(1), CrashyApp())
        world.boot()
        assert world.crashed_nodes() == [replica(1)]

    def test_component_state_roundtrip(self):
        world = World(CODEC)
        world.add_node(replica(0), NullApp())
        world.boot()
        world.run_for(1.0)
        state = world.save_component_states()
        world.run_for(2.0)
        world.load_component_states(state)
        assert world.kernel.now == 1.0


class TestCostLedger:
    def test_accumulates(self):
        ledger = CostLedger()
        ledger.charge(BOOT, 8.0)
        ledger.charge(EXECUTION, 2.0)
        ledger.charge(EXECUTION, 3.0)
        assert ledger.get(EXECUTION) == 5.0
        assert ledger.total() == 13.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge(BOOT, -1.0)

    def test_snapshot_total(self):
        ledger = CostLedger()
        ledger.charge(SNAPSHOT_SAVE, 4.0)
        ledger.charge(SNAPSHOT_RESTORE, 1.0)
        assert ledger.snapshot_total() == 5.0

    def test_merge(self):
        a, b = CostLedger(), CostLedger()
        a.charge(BOOT, 1.0)
        b.charge(BOOT, 2.0)
        b.charge(EXECUTION, 1.0)
        a.merge(b)
        assert a.get(BOOT) == 3.0
        assert a.get(EXECUTION) == 1.0

    def test_describe(self):
        ledger = CostLedger()
        ledger.charge(BOOT, 1.25)
        text = ledger.describe()
        assert "boot=1.2s" in text or "boot=1.3s" in text
