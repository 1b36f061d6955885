"""The network emulator.

This is the reproduction of the paper's modified NS3: it carries every
message of the distributed system as packets over emulated devices and
links, exposes the ingress interception hook the malicious proxy plugs into,
and supports the four operations the paper had to add for execution
branching — **save**, **load**, **freeze**, and **resume**.

Mechanics of a transmission (``transmit``), one straight path whose rare
cases (verdicts, taps, frozen, delays, fragments, faults) are tests in it:

1. The sending node hands the emulator a payload and its type spec, which
   rides on the envelope and packets so no later hop parses the tag.
2. If an interceptor is installed and claims the message, its verdict is
   applied: pass, drop, rewrite into a set of (possibly delayed, diverted,
   duplicated, or mutated) deliveries, or *hold* — park the message and
   interrupt the kernel so the controller can branch at this injection point.
3. A message fitting one MTU is one packet (else fragments); a packet passes
   the source host's net device (serial per-packet processing — the Fig. 4
   bottleneck), the path's propagation delay and bandwidth and any fault.
4. At the destination a one-fragment packet is the message (else it is
   reassembled), handed straight to the host's receiver callback.

Every in-flight item (pending egress, packet on the wire, partial
reassembly, held or frozen messages) is tracked — as the immutable
``Packet``/``MessageEnvelope`` itself; ``save_state`` is where it becomes
plain data — so the whole emulator state can be saved and reloaded, and
freezing stops any further delivery to hosts while still accepting new
transmissions — the same behaviour the paper implements inside NS3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.common.errors import NetworkError
from repro.common.ids import NodeId
from repro.common.logging import EventLog
from repro.common.rng import RandomStream
from repro.faults.models import LinkFaultBank
from repro.sim.events import PRIORITY_NETWORK
from repro.sim.kernel import SimKernel
from repro.netem.devices import BundledDevice, NetDevice, make_device
from repro.netem.packets import (HEADER_BYTES, MTU, MessageEnvelope,
                                 Packet, ReassemblyBuffer,
                                 envelope_from_record, envelope_to_record,
                                 fragment, packet_from_record,
                                 packet_to_record)
from repro.netem.topology import LanTopology, Topology

Receiver = Callable[[MessageEnvelope], None]


@dataclass
class Delivery:
    """One outgoing copy of an intercepted message."""

    dst: NodeId
    payload: bytes
    extra_delay: float = 0.0


class Verdict(NamedTuple):
    """Interceptor decision for one message."""

    kind: str
    deliveries: Sequence[Delivery] = ()
    hold_tag: Optional[str] = None

    PASS = "pass"
    DROP = "drop"
    REWRITE = "rewrite"
    HOLD = "hold"

    @classmethod
    def passthrough(cls) -> "Verdict":
        return _PASSTHROUGH

    @classmethod
    def drop(cls) -> "Verdict":
        return cls(cls.DROP)

    @classmethod
    def rewrite(cls, deliveries: List[Delivery]) -> "Verdict":
        return cls(cls.REWRITE, deliveries=deliveries)

    @classmethod
    def hold(cls, tag: str) -> "Verdict":
        return cls(cls.HOLD, hold_tag=tag)


#: the one pass verdict: immutable, so every message can share it
_PASSTHROUGH = Verdict(Verdict.PASS)

Interceptor = Callable[[MessageEnvelope], Verdict]


@dataclass
class HostPort:
    """Emulator-side state of one attached host."""

    node_id: NodeId
    device: NetDevice
    receiver: Optional[Receiver] = None
    reassembly: ReassemblyBuffer = field(default_factory=ReassemblyBuffer)
    messages_in: int = 0
    messages_out: int = 0
    packets_in: int = 0


@dataclass
class EmulatorStats:
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_by_proxy: int = 0
    messages_blackholed: int = 0
    packets_forwarded: int = 0
    packets_dropped_overflow: int = 0
    # Environmental (chaos-layer) drops, each counted distinctly from
    # device overflow so reports can attribute loss to its cause.
    packets_dropped_loss: int = 0
    packets_dropped_corrupt: int = 0
    packets_dropped_down: int = 0
    packets_dropped_partition: int = 0

    def as_tuple(self) -> tuple:
        """The counters in field order (an instance holds only them)."""
        return tuple(vars(self).values())

    def load_tuple(self, values: tuple) -> None:
        vars(self).update(zip(vars(self), values))


class NetworkEmulator:
    """Message- and packet-level network emulation on the sim kernel."""

    def __init__(self, kernel: SimKernel, topology: Optional[Topology] = None,
                 device_kind: str = "BundledDevice",
                 log: Optional[EventLog] = None) -> None:
        self.kernel = kernel
        self.topology = topology or LanTopology()
        self.device_kind = device_kind
        self.log = log or EventLog(lambda: kernel.now)
        # Ports by host name, as saved state names them (a str hashes in C)
        self._hosts: Dict[str, HostPort] = {}
        self._host_ids: List[NodeId] = []
        self._interceptor: Optional[Interceptor] = None
        self._msg_seq = 0
        self._event_seq = 0
        self._frozen = False
        # In-flight bookkeeping: eid -> (kind, due_time, item, kernel
        # handle).  Kind "egress" is a message awaiting device admission
        # (delayed by a transport or a proxy action), its item an
        # ``(envelope, via_device)`` pair; for "deliver", "corrupt" (a
        # packet crossing the wire) and "retry" (a lost TCP packet awaiting
        # its RTO) the item is the packet.
        self._in_flight: Dict[int, Tuple[str, float, object, object]] = {}
        # Messages parked by a HOLD verdict: tag -> envelope.
        self._held: Dict[str, MessageEnvelope] = {}
        # Deliveries that arrived while frozen.
        self._frozen_packets: List[Packet] = []
        # Transmissions accepted while frozen: (envelope, delay,
        # via_device) triples.
        self._frozen_egress: List[Tuple[MessageEnvelope, float, bool]] = []
        # Controller-side observers: fn(event, envelope) on "sent" and
        # "delivered".  Not part of emulator state (never serialized).
        self._observers: List[Callable[[str, MessageEnvelope], None]] = []
        #: forensic causal tap (see :mod:`repro.forensics.causality`):
        #: like observers it is controller-side and never serialized; None
        #: (the default) makes every hook a single attribute test.
        self.causal_tap = None
        #: msg_seq of the envelope currently being handed to a receiver
        #: callback — read by nodes to tag queued CPU work with its cause
        self.current_delivery_seq: Optional[int] = None
        #: msg_seq of the message whose handler is currently running on
        #: some node (set by Node._dispatch); sends made inside the handler
        #: inherit it as their causal parent
        self.handler_cause: Optional[int] = None
        self.stats = EmulatorStats()
        # Chaos layer: per-path fault processes and the RNG stream they
        # draw from.  A world-owned emulator gets a registry stream (so
        # the registry snapshot covers it); a standalone emulator lazily
        # creates a local stream that save_state serializes itself.
        self.faults = LinkFaultBank()
        self.fault_rng: Optional[RandomStream] = None
        self._local_fault_rng = False

    # ----------------------------------------------------------------- hosts

    def register_host(self, node_id: NodeId,
                      device: Optional[NetDevice] = None) -> HostPort:
        if node_id.name in self._hosts:
            raise NetworkError(f"host {node_id} already registered")
        port = HostPort(node_id, device or make_device(self.device_kind))
        self._hosts[node_id.name] = port
        self._host_ids = sorted(p.node_id for p in self._hosts.values())
        return port

    def set_receiver(self, node_id: NodeId, receiver: Receiver) -> None:
        self.port_stats(node_id).receiver = receiver

    def port_stats(self, node_id: NodeId) -> HostPort:
        try:
            return self._hosts[node_id.name]
        except KeyError:
            raise NetworkError(f"host {node_id} is not registered") from None

    def hosts(self) -> List[NodeId]:
        return list(self._host_ids)

    # ------------------------------------------------------------ intercept

    def set_interceptor(self, interceptor: Optional[Interceptor]) -> None:
        self._interceptor = interceptor

    # ------------------------------------------------------------ observers

    def add_observer(self,
                     observer: Callable[[str, MessageEnvelope], None]) -> None:
        """Subscribe to "sent"/"delivered" message events (read-only)."""
        self._observers.append(observer)

    # ------------------------------------------------------------- transmit

    def transmit(self, src: NodeId, dst: NodeId, transport: str,
                 payload: bytes, delay: float = 0.0, spec=None) -> int:
        """Send one application message from ``src`` to ``dst``.

        ``delay`` postpones egress (used by transports to model connection
        setup); the interceptor still sees the message at send time, as the
        proxy sits where traffic leaves the sending VM.  ``spec`` is the
        payload's message type, if the sender knows it.
        """
        port = self.port_stats(src)  # the sender must be attached
        if dst.name not in self._hosts:
            # An address nothing listens on (e.g. a lying attack rewrote a
            # node-id field): the network blackholes it, as a real LAN would.
            self.stats.messages_blackholed += 1
            return -1
        self._msg_seq = msg_seq = self._msg_seq + 1
        envelope = MessageEnvelope(msg_seq, src, dst, transport, payload, spec)
        port.messages_out += 1
        self.stats.messages_sent += 1
        for observer in self._observers:
            observer("sent", envelope)

        verdict = _PASSTHROUGH
        if self._interceptor is not None:
            verdict = self._interceptor(envelope)
        if self.causal_tap is not None:
            self.causal_tap.on_send(envelope, self.handler_cause,
                                    verdict.kind)

        if verdict.kind == Verdict.PASS:
            self._egress(envelope, delay, True, port)
        elif verdict.kind == Verdict.DROP:
            self.stats.messages_dropped_by_proxy += 1
            self.log.emit("netem", "proxy_drop", msg=msg_seq)
        elif verdict.kind == Verdict.HOLD:
            self._held[verdict.hold_tag] = envelope
            self.log.emit("netem", "proxy_hold", msg=msg_seq,
                          tag=verdict.hold_tag)
        else:
            # Proxy-produced deliveries are injected inside the emulator,
            # past the sending host's net device (the proxy lives at the
            # NS3 node's application layer, not in the guest).
            self._egress_copies(envelope, verdict.deliveries, delay)
        return msg_seq

    def _egress_copies(self, envelope: MessageEnvelope,
                       deliveries: Sequence[Delivery], delay: float) -> None:
        """Inject copies; one keeps the spec only with the original bytes."""
        msg_seq, src, __, transport, payload, spec = envelope
        for delivery in deliveries:
            self._egress(
                MessageEnvelope(msg_seq, src, delivery.dst, transport,
                                delivery.payload,
                                spec if delivery.payload is payload else None),
                delay + delivery.extra_delay, False)

    # ---------------------------------------------------------- held messages

    def held_tags(self) -> List[str]:
        return sorted(self._held.keys())

    def peek_held(self, tag: str) -> MessageEnvelope:
        try:
            return self._held[tag]
        except KeyError:
            raise NetworkError(f"no held message tagged {tag!r}") from None

    def discard_held(self, tag: str) -> None:
        """Drop a parked message without delivering it (error cleanup)."""
        self._held.pop(tag, None)

    def release_held(self, tag: str,
                     deliveries: Optional[List[Delivery]] = None) -> None:
        """Release a parked message, optionally rewritten by the controller."""
        envelope = self.peek_held(tag)
        del self._held[tag]
        if self.causal_tap is not None:
            self.causal_tap.on_release(envelope, deliveries)
        if deliveries is None:
            self._egress(envelope, 0.0, False)
        elif not deliveries:
            self.stats.messages_dropped_by_proxy += 1
        else:
            self._egress_copies(envelope, deliveries, 0.0)

    def drop_held(self, tag: str) -> None:
        self.peek_held(tag)
        del self._held[tag]
        self.stats.messages_dropped_by_proxy += 1

    # ------------------------------------------------------------- internals

    def _arm(self, kind: str, due: float, item,
             eid: Optional[int] = None) -> None:
        """Track one in-flight item (``eid`` given: a restored one) and arm
        its kernel event."""
        if eid is None:
            self._event_seq = eid = self._event_seq + 1
        kernel = self.kernel
        self._in_flight[eid] = (kind, due, item, kernel.schedule_at(
            max(due, kernel.now), self._due, eid, priority=PRIORITY_NETWORK))

    def _due(self, eid: int) -> None:
        """An in-flight item's time has come: act on it by kind."""
        entry = self._in_flight.pop(eid, None)
        if entry is None:
            return
        kind, __, item, __handle = entry
        if kind == "deliver":
            if self._frozen:
                # The emulator keeps creating packet objects while frozen
                # but sends nothing to the VMs (Section III-C / IV-C).
                self._frozen_packets.append(item)
            else:
                self._ingress(item)
        elif kind == "egress":
            envelope, via_device = item
            port = self.port_stats(envelope.src)
            for packet in fragment(envelope):
                self._admit(packet, port, via_device)
        elif kind == "retry":
            self._admit(item, self.port_stats(item.src), True)
        else:
            self._corrupt_drop(item)

    def _egress(self, envelope: MessageEnvelope, delay: float,
                via_device: bool = True,
                port: Optional[HostPort] = None) -> None:
        """Put a message on the wire — or park it (frozen), or postpone it."""
        if self.causal_tap is not None:
            self.causal_tap.on_egress(envelope, delay, via_device)
        if self._frozen:
            self._frozen_egress.append((envelope, delay, via_device))
            return
        if delay > 0:
            self._arm("egress", self.kernel.now + delay,
                      (envelope, via_device))
            return
        msg_seq, src, dst, transport, payload, spec = envelope
        if port is None:
            port = self.port_stats(src)
        if len(payload) <= MTU:
            self._admit(Packet(msg_seq, 0, 1, src, dst, transport, payload,
                               spec), port, via_device)
        else:
            for packet in fragment(envelope):
                self._admit(packet, port, via_device)

    #: retransmission timeout for TCP packets lost to device overflow
    TCP_RTO = 0.2

    def _ensure_fault_rng(self) -> RandomStream:
        if self.fault_rng is None:
            self.fault_rng = RandomStream(0, "netem.faults.local")
            self._local_fault_rng = True
        return self.fault_rng

    def _schedule_tcp_retry(self, packet: Packet) -> None:
        """Arm an RTO retransmission for a lost TCP packet.  Every non-proxy
        loss path routes here, so a TCP flow survives transient faults: one
        pending retry per lost packet, no event growth while blocked."""
        if packet.transport == "tcp":
            self._arm("retry", self.kernel.now + self.TCP_RTO, packet)

    def _admit(self, packet: Packet, port: HostPort, via_device: bool) -> None:
        src, dst = packet.src, packet.dst
        topology = self.topology
        path = topology.path(src, dst)
        stats = self.stats
        # The overlay is consulted only while some link is down or a
        # partition is in force.  The link carries nothing then; TCP keeps
        # retrying, so traffic resumes when connectivity heals.
        blocked = (topology.blocked(src.name, dst.name)
                   if topology.faulted else None)
        if blocked is not None:
            if blocked == "down":
                stats.packets_dropped_down += 1
            else:
                stats.packets_dropped_partition += 1
            self._schedule_tcp_retry(packet)
            return
        kernel = self.kernel
        now = kernel.now
        if via_device:
            finish = port.device.admit(now, packet)
            if finish is None:
                stats.packets_dropped_overflow += 1
                self._schedule_tcp_retry(packet)
                return
        else:
            # Proxy-produced deliveries are injected past the source
            # device but still cross the (possibly faulty) link.
            finish = now
        arrival = (finish + path.delay
                   + (len(packet.payload) + HEADER_BYTES) / path.bandwidth)
        kind = "deliver"
        if self.faults.active and src.name != dst.name:
            lost, corrupted, extra = self.faults.evaluate(
                src.name, dst.name, self._ensure_fault_rng())
            if lost:
                stats.packets_dropped_loss += 1
                self._schedule_tcp_retry(packet)
                return
            arrival += extra
            if corrupted:
                # The payload is damaged in flight: the packet still
                # occupies the wire and arrives, but the receive-side
                # checksum rejects it there (see _corrupt_drop).
                kind = "corrupt"
        self._event_seq = eid = self._event_seq + 1
        self._in_flight[eid] = (kind, arrival, packet, kernel.schedule_at(
            arrival if arrival > now else now, self._due, eid,
            priority=PRIORITY_NETWORK))
        stats.packets_forwarded += 1

    def _corrupt_drop(self, packet: Packet) -> None:
        """A corrupted packet reaches the destination and fails its checksum.

        Counted distinctly from overflow (``packets_dropped_corrupt``); the
        drop is a network-side event, so it fires even while frozen — the
        packet never reaches the host either way.
        """
        self.stats.packets_dropped_corrupt += 1
        self.log.emit("netem", "corrupt_drop", src=packet.src.name,
                      dst=packet.dst.name)
        self._schedule_tcp_retry(packet)

    def _ingress(self, packet: Packet) -> None:
        port = self._hosts[packet.dst.name]
        port.packets_in += 1
        if packet.frag_count == 1:
            msg_seq, __, __count, src, dst, transport, payload, spec = packet
            envelope = MessageEnvelope(msg_seq, src, dst, transport, payload,
                                       spec)
        else:
            envelope = port.reassembly.add(packet)
            if envelope is None:
                return
        port.messages_in += 1
        self.stats.messages_delivered += 1
        if self.log.enabled:
            self.log.emit("netem", "deliver", msg=envelope.msg_seq,
                          dst=envelope.dst.name, size=envelope.size)
        if self.causal_tap is not None:
            self.causal_tap.on_deliver(envelope)
        for observer in self._observers:
            observer("delivered", envelope)
        receiver = port.receiver
        if receiver is not None:
            # Receivers run synchronously; while one does, queued CPU work
            # can read which message caused it (forensic lineage tagging).
            self.current_delivery_seq = envelope.msg_seq
            try:
                receiver(envelope)
            finally:
                self.current_delivery_seq = None

    # -------------------------------------------------------- freeze/resume

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Stop delivering to hosts; keep accepting and parking new traffic."""
        self._frozen = True

    def resume_emulation(self) -> None:
        """Leave frozen mode and flush everything parked while frozen."""
        self._frozen = False
        packets, self._frozen_packets = self._frozen_packets, []
        for packet in packets:
            self._ingress(packet)
        egress, self._frozen_egress = self._frozen_egress, []
        for envelope, delay, via_device in egress:
            self._egress(envelope, delay, via_device)

    # --------------------------------------------------------- save/load

    def save_state(self) -> dict:
        """Serialize all in-flight network state to plain data.

        This is the one place packets and envelopes turn into records
        (tuples of ints, strings and bytes); :meth:`load_state` is the one
        place they turn back.
        """
        return {
            "msg_seq": self._msg_seq,
            "event_seq": self._event_seq,
            "frozen": self._frozen,
            "in_flight": [
                (eid, kind, due,
                 (envelope_to_record(item[0]), item[1]) if kind == "egress"
                 else packet_to_record(item))
                for eid, (kind, due, item, __) in sorted(self._in_flight.items())
            ],
            "held": {tag: envelope_to_record(envelope)
                     for tag, envelope in self._held.items()},
            "frozen_packets": [packet_to_record(packet)
                               for packet in self._frozen_packets],
            "frozen_egress": [(envelope_to_record(envelope), delay, via_device)
                              for envelope, delay, via_device
                              in self._frozen_egress],
            "devices": {n: p.device.save_state()
                        for n, p in self._hosts.items()},
            "reassembly": {n: p.reassembly.save_state()
                           for n, p in self._hosts.items()},
            "counters": {n: (p.messages_in, p.messages_out, p.packets_in)
                         for n, p in self._hosts.items()},
            "stats": self.stats.as_tuple(),
            # Chaos layer: fault processes, connectivity overlay, and (for
            # standalone emulators only) the local fault RNG.  A registry
            # stream is covered by the world's RNG snapshot instead.
            "faults": self.faults.save_state(),
            "link_state": self.topology.save_link_state(),
            "fault_rng": (self.fault_rng.save_state()
                          if self._local_fault_rng and self.fault_rng
                          else None),
        }

    def load_state(self, state: dict) -> None:
        """Restore in-flight state and re-schedule deliveries on the kernel."""
        for __, __due, __item, handle in self._in_flight.values():
            handle.cancel()
        self._in_flight.clear()

        self._msg_seq = state["msg_seq"]
        self._event_seq = state["event_seq"]
        self._frozen = state["frozen"]
        self._held = {tag: envelope_from_record(record)
                      for tag, record in state["held"].items()}
        self._frozen_packets = [packet_from_record(record)
                                for record in state["frozen_packets"]]
        self._frozen_egress = [(envelope_from_record(r), d, v)
                               for r, d, v in state["frozen_egress"]]

        ports = self._hosts
        for name, dev_state in state["devices"].items():
            ports[name].device.load_state(dev_state)
        for name, reasm_state in state["reassembly"].items():
            ports[name].reassembly.load_state(reasm_state)
        for name, (m_in, m_out, p_in) in state["counters"].items():
            port = ports[name]
            port.messages_in, port.messages_out, port.packets_in = m_in, m_out, p_in
        self.stats.load_tuple(state["stats"])

        self.faults.load_state(state["faults"])
        self.topology.load_link_state(state["link_state"])
        rng_state = state.get("fault_rng")
        if rng_state is not None:
            self._ensure_fault_rng().load_state(rng_state)

        for eid, kind, due, record in state["in_flight"]:
            if kind == "egress":
                item = (envelope_from_record(record[0]), record[1])
            else:
                item = packet_from_record(record)
            self._arm(kind, due, item, eid)
