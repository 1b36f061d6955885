"""Tests for packets, fragmentation/reassembly, and net devices."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.ids import replica
from repro.netem.devices import BundledDevice, CsmaDevice, make_device
from repro.netem.packets import (HEADER_BYTES, MTU, MessageEnvelope,
                                 ReassemblyBuffer, envelope_from_record,
                                 envelope_to_record, fragment,
                                 packet_from_record, packet_to_record)

A, B = replica(0), replica(1)


def envelope(payload, seq=1):
    return MessageEnvelope(seq, A, B, "udp", payload)


class TestFragmentation:
    def test_small_message_single_packet(self):
        packets = fragment(envelope(b"hi"))
        assert len(packets) == 1
        assert packets[0].frag_count == 1
        assert packets[0].wire_size == 2 + HEADER_BYTES

    def test_large_message_fragments(self):
        packets = fragment(envelope(b"x" * (MTU * 2 + 10)))
        assert len(packets) == 3
        assert [p.frag_index for p in packets] == [0, 1, 2]
        assert sum(len(p.payload) for p in packets) == MTU * 2 + 10

    def test_empty_payload_still_one_packet(self):
        assert len(fragment(envelope(b""))) == 1

    def test_exact_mtu_boundary(self):
        assert len(fragment(envelope(b"x" * MTU))) == 1
        assert len(fragment(envelope(b"x" * (MTU + 1)))) == 2


class TestReassembly:
    def test_roundtrip_in_order(self):
        buf = ReassemblyBuffer()
        packets = fragment(envelope(b"y" * (MTU * 3)))
        results = [buf.add(p) for p in packets]
        assert results[:-1] == [None, None]
        assert results[-1].payload == b"y" * (MTU * 3)

    def test_roundtrip_out_of_order(self):
        buf = ReassemblyBuffer()
        packets = fragment(envelope(b"z" * (MTU * 2 + 5)))
        assert buf.add(packets[2]) is None
        assert buf.add(packets[0]) is None
        done = buf.add(packets[1])
        assert done.payload == b"z" * (MTU * 2 + 5)

    def test_duplicate_fragment_starts_another_copy(self):
        buf = ReassemblyBuffer()
        packets = fragment(envelope(b"w" * (MTU * 2)))
        buf.add(packets[0])
        assert buf.add(packets[0]) is None
        assert buf.pending_messages() == 2
        assert buf.add(packets[1]).payload == b"w" * (MTU * 2)
        assert buf.add(packets[1]).payload == b"w" * (MTU * 2)
        assert buf.pending_messages() == 0

    def test_interleaved_messages(self):
        buf = ReassemblyBuffer()
        m1 = fragment(envelope(b"1" * (MTU * 2), seq=1))
        m2 = fragment(envelope(b"2" * (MTU * 2), seq=2))
        assert buf.add(m1[0]) is None
        assert buf.add(m2[0]) is None
        assert buf.add(m2[1]).payload == b"2" * (MTU * 2)
        assert buf.add(m1[1]).payload == b"1" * (MTU * 2)

    def test_save_load_mid_reassembly(self):
        buf = ReassemblyBuffer()
        packets = fragment(envelope(b"s" * (MTU * 2)))
        buf.add(packets[0])
        state = buf.save_state()
        other = ReassemblyBuffer()
        other.load_state(state)
        assert other.pending_messages() == 1
        assert other.add(packets[1]).payload == b"s" * (MTU * 2)

    @settings(max_examples=50)
    @given(st.binary(min_size=0, max_size=4 * MTU))
    def test_roundtrip_property(self, payload):
        buf = ReassemblyBuffer()
        done = None
        for p in fragment(envelope(payload)):
            done = buf.add(p)
        assert done is not None
        assert done.payload == payload


class TestRecords:
    def test_packet_record_roundtrip(self):
        packet = fragment(envelope(b"data"))[0]
        assert packet_from_record(packet_to_record(packet)) == packet

    def test_envelope_record_roundtrip(self):
        env = envelope(b"data", seq=9)
        assert envelope_from_record(envelope_to_record(env)) == env


class TestDevices:
    def test_kinds(self):
        assert make_device("CsmaDevice").kind == "CsmaDevice"
        assert make_device("BundledDevice").kind == "BundledDevice"
        with pytest.raises(ValueError):
            make_device("WarpDevice")

    def test_throughput_ceilings(self):
        assert CsmaDevice().max_throughput_pps() == pytest.approx(1000)
        assert BundledDevice().max_throughput_pps() == pytest.approx(2500)

    def test_light_load_low_latency(self):
        dev = BundledDevice()
        packet = fragment(envelope(b"p"))[0]
        finish = dev.admit(10.0, packet)
        assert finish == pytest.approx(10.0 + dev.tx_latency)

    def test_backlog_builds_under_overload(self):
        dev = BundledDevice()
        packet = fragment(envelope(b"p"))[0]
        finishes = [dev.admit(0.0, packet) for _ in range(100)]
        assert finishes[-1] > finishes[0]
        # sustained rate equals the service rate
        assert finishes[-1] == pytest.approx(
            99 * dev.process_delay + dev.tx_latency)

    def test_overflow_drops(self):
        dev = BundledDevice()
        dev.queue_capacity = 10
        packet = fragment(envelope(b"p"))[0]
        results = [dev.admit(0.0, packet) for _ in range(20)]
        assert None in results
        assert dev.stats.dropped_overflow > 0

    def test_save_load(self):
        dev = CsmaDevice()
        packet = fragment(envelope(b"p"))[0]
        dev.admit(1.0, packet)
        state = dev.save_state()
        other = CsmaDevice()
        other.load_state(state)
        assert other.stats.processed == 1
        assert other.backlog(1.0) == dev.backlog(1.0)

    def test_constructor_overrides_shadow_class_defaults(self):
        dev = BundledDevice(process_delay=0.001, tx_latency=0.0002,
                            queue_capacity=5)
        assert dev.max_throughput_pps() == pytest.approx(1000)
        assert dev.tx_latency == 0.0002
        assert dev.queue_capacity == 5
        # the class (and fresh instances) keep their defaults
        assert BundledDevice().queue_capacity == 4096
        assert BundledDevice().max_throughput_pps() == pytest.approx(2500)

    def test_constructor_overrides_validated(self):
        with pytest.raises(ValueError):
            BundledDevice(process_delay=0.0)
        with pytest.raises(ValueError):
            BundledDevice(tx_latency=-0.1)
        with pytest.raises(ValueError):
            BundledDevice(queue_capacity=0)

    def test_make_device_overrides(self):
        dev = make_device("CsmaDevice", queue_capacity=2)
        assert dev.kind == "CsmaDevice"
        assert dev.queue_capacity == 2
        packet = fragment(envelope(b"p"))[0]
        results = [dev.admit(0.0, packet) for _ in range(5)]
        assert None in results

    def test_world_device_config_plumbed_to_hosts(self):
        from repro.common.ids import replica
        from repro.runtime.world import World
        from repro.runtime.app import Application
        from repro.wire.codec import ProtocolCodec
        from repro.wire.schema import ProtocolSchema, make_message

        class NullApp(Application):
            def snapshot_state(self):
                return {}

            def restore_state(self, state):
                pass

        schema = ProtocolSchema("d", (make_message("Ping", 1, []),))
        world = World(ProtocolCodec(schema),
                      device_config={"queue_capacity": 7})
        world.add_node(replica(0), NullApp())
        device = world.emulator.port_stats(replica(0)).device
        assert device.queue_capacity == 7
        assert device.kind == "BundledDevice"
