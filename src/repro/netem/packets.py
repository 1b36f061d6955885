"""Packets, fragmentation, and reassembly.

The paper distinguishes *messages* (application-level units, what malicious
actions apply to) from *packets* (what the network moves): "we consider a
network event as an event to deliver a message ... if a message is contained
in several packets."  Transports hand the emulator messages; the emulator
fragments them into MTU-sized packets, moves packets through devices and
links, and reassembles the message at the destination host.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.common.errors import NetworkError
from repro.common.ids import NodeId

MTU = 1500                # bytes of payload a packet can carry
HEADER_BYTES = 28         # IP + UDP header overhead per packet


class MessageEnvelope(NamedTuple):
    """An application message travelling through the emulator.

    ``transport`` tags which transport layer ("udp"/"tcp") should receive it
    at the destination; ``msg_seq`` is unique per emulator and orders
    messages deterministically.  Immutable, so in-flight tables hold the
    object itself; the plain-data form exists only inside ``save_state``
    (:func:`envelope_to_record`).
    """

    msg_seq: int
    src: NodeId
    dst: NodeId
    transport: str
    payload: bytes

    @property
    def size(self) -> int:
        return len(self.payload)


class Packet(NamedTuple):
    """One fragment of a message on the wire (immutable, like the envelope)."""

    msg_seq: int
    frag_index: int
    frag_count: int
    src: NodeId
    dst: NodeId
    transport: str
    payload: bytes

    @property
    def wire_size(self) -> int:
        return len(self.payload) + HEADER_BYTES


def fragment(envelope: MessageEnvelope) -> List[Packet]:
    """Split a message into MTU-sized packets."""
    msg_seq, src, dst, transport, payload = envelope
    if len(payload) <= MTU:
        return [Packet(msg_seq, 0, 1, src, dst, transport, payload)]
    count = (len(payload) + MTU - 1) // MTU
    return [
        Packet(msg_seq, i, count, src, dst, transport,
               payload[i * MTU:(i + 1) * MTU])
        for i in range(count)
    ]


class ReassemblyBuffer:
    """Per-host reassembly of fragments back into messages."""

    def __init__(self) -> None:
        self._partial: Dict[int, Dict[int, Packet]] = {}

    def add(self, packet: Packet) -> Optional[MessageEnvelope]:
        """Add a fragment; return the completed message if it is the last."""
        if packet.frag_count == 1:
            msg_seq, __, __count, src, dst, transport, payload = packet
            return MessageEnvelope(msg_seq, src, dst, transport, payload)
        frags = self._partial.setdefault(packet.msg_seq, {})
        if packet.frag_index in frags:
            raise NetworkError(
                f"duplicate fragment {packet.frag_index} of msg {packet.msg_seq}")
        frags[packet.frag_index] = packet
        if len(frags) < packet.frag_count:
            return None
        del self._partial[packet.msg_seq]
        payload = b"".join(frags[i].payload for i in range(packet.frag_count))
        return MessageEnvelope(packet.msg_seq, packet.src, packet.dst,
                               packet.transport, payload)

    def pending_messages(self) -> int:
        return len(self._partial)

    # ------------------------------------------------------------- snapshot

    def save_state(self) -> list:
        return [
            (seq, [packet_to_record(p) for p in frags.values()])
            for seq, frags in sorted(self._partial.items())
        ]

    def load_state(self, state: list) -> None:
        self._partial = {}
        for seq, packet_records in state:
            frags = {}
            for record in packet_records:
                packet = packet_from_record(record)
                frags[packet.frag_index] = packet
            self._partial[seq] = frags


def packet_to_record(packet: Packet) -> tuple:
    """Serialize a packet to a plain tuple (for emulator save/load)."""
    return (packet.msg_seq, packet.frag_index, packet.frag_count,
            (packet.src.index, packet.src.role),
            (packet.dst.index, packet.dst.role),
            packet.transport, packet.payload)


def packet_from_record(record: tuple) -> Packet:
    (msg_seq, frag_index, frag_count, src_t, dst_t, transport, payload) = record
    return Packet(msg_seq, frag_index, frag_count,
                  NodeId(src_t[0], src_t[1]), NodeId(dst_t[0], dst_t[1]),
                  transport, payload)


def envelope_to_record(envelope: MessageEnvelope) -> tuple:
    return (envelope.msg_seq,
            (envelope.src.index, envelope.src.role),
            (envelope.dst.index, envelope.dst.role),
            envelope.transport, envelope.payload)


def envelope_from_record(record: tuple) -> MessageEnvelope:
    msg_seq, src_t, dst_t, transport, payload = record
    return MessageEnvelope(msg_seq, NodeId(src_t[0], src_t[1]),
                           NodeId(dst_t[0], dst_t[1]), transport, payload)
