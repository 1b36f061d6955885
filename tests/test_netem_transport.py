"""Tests for the UDP/TCP host transports."""

import pytest

from repro.common.errors import TransportError
from repro.common.ids import replica
from repro.netem.emulator import NetworkEmulator
from repro.netem.topology import LanTopology
from repro.netem.transport import TCP, UDP, HostTransport
from repro.sim.kernel import SimKernel

A, B = replica(0), replica(1)


def build():
    kernel = SimKernel()
    emulator = NetworkEmulator(kernel, LanTopology())
    emulator.register_host(A)
    emulator.register_host(B)
    ta = HostTransport(emulator, A)
    tb = HostTransport(emulator, B)
    return kernel, emulator, ta, tb


def bind(emulator, host, handler):
    """Deliveries to ``host`` go to ``handler(src, data)``: one receiver
    per host serves both transports."""
    emulator.set_receiver(host, lambda env: handler(env.src, env.payload))


class TestUdp:
    def test_udp_delivery(self):
        kernel, emulator, ta, tb = build()
        got = []
        bind(emulator, B, lambda src, data: got.append((src, data)))
        ta.send(B, b"dgram")
        kernel.run_until(0.1)
        assert got == [(A, b"dgram")]

    def test_unbound_service_discards(self):
        kernel, emulator, ta, tb = build()
        ta.send(B, b"lost")  # B never bound UDP
        kernel.run_until(0.1)
        assert emulator.stats.messages_delivered == 1  # delivered, discarded

    def test_unknown_transport_rejected(self):
        __, emulator, ta, __ = build()
        with pytest.raises(TransportError):
            ta.send(B, b"x", transport="sctp")
        assert emulator.stats.messages_sent == 0


class TestTcp:
    def test_tcp_delivery(self):
        kernel, emulator, ta, tb = build()
        got = []
        bind(emulator, B, lambda src, data: got.append(data))
        ta.send(B, b"stream", transport=TCP)
        kernel.run_until(0.1)
        assert got == [b"stream"]

    def test_first_message_pays_handshake(self):
        kernel, emulator, ta, tb = build()
        times = []
        bind(emulator, B, lambda src, data: times.append(kernel.now))
        ta.send(B, b"first", transport=TCP)
        kernel.run_until(0.1)
        first_latency = times[0]

        # a second message on the warm connection is faster
        ta.send(B, b"second", transport=TCP)
        kernel.run_until(0.2)
        second_latency = times[1] - 0.1
        assert second_latency < first_latency

    def test_handshake_per_destination(self):
        kernel, emulator, ta, __ = build()
        C = replica(2)
        emulator.register_host(C)
        tc = HostTransport(emulator, C)
        got = []
        bind(emulator, C, lambda src, data: got.append(data))
        ta.send(C, b"x", transport=TCP)
        kernel.run_until(0.1)
        assert got == [b"x"]

    def test_flow_state_save_load(self):
        kernel, emulator, ta, tb = build()
        bind(emulator, B, lambda src, data: None)
        ta.send(B, b"x", transport=TCP)
        state = ta.save_state()
        other_state = dict(state)
        ta.load_state(other_state)
        assert ta.save_state() == state

    def test_tcp_retransmits_on_device_overflow(self):
        kernel = SimKernel()
        emulator = NetworkEmulator(kernel, LanTopology())
        emulator.register_host(A)
        emulator.register_host(B)
        port = emulator.port_stats(A)
        port.device.queue_capacity = 2
        ta = HostTransport(emulator, A)
        tb = HostTransport(emulator, B)
        got = []
        bind(emulator, B, lambda src, data: got.append(data))
        for i in range(10):
            ta.send(B, bytes([i]), transport=TCP)
        kernel.run_until(5.0)
        assert sorted(got) == [bytes([i]) for i in range(10)]
        assert emulator.stats.packets_dropped_overflow > 0

    def test_udp_overflow_loses_messages(self):
        kernel = SimKernel()
        emulator = NetworkEmulator(kernel, LanTopology())
        emulator.register_host(A)
        emulator.register_host(B)
        emulator.port_stats(A).device.queue_capacity = 2
        ta = HostTransport(emulator, A)
        tb = HostTransport(emulator, B)
        got = []
        bind(emulator, B, lambda src, data: got.append(data))
        for i in range(10):
            ta.send(B, bytes([i]))
        kernel.run_until(5.0)
        assert len(got) < 10
