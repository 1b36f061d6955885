"""Packets, fragmentation, and reassembly.

The paper distinguishes *messages* (application-level units, what malicious
actions apply to) from *packets* (what the network moves): "we consider a
network event as an event to deliver a message ... if a message is contained
in several packets."  Transports hand the emulator messages; the emulator
fragments them into MTU-sized packets, moves packets through devices and
links, and reassembles the message at the destination host.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from repro.common.ids import NodeId, node_id

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
    #: the sender's ``MessageSpec`` of ``payload``; derived, never saved, and
    #: None where bytes were re-created (readers then use ``peek_type``)
    spec: Any = None

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
    spec: Any = None          # as on the envelope: derived, never saved

    @property
    def wire_size(self) -> int:
        return len(self.payload) + HEADER_BYTES


def fragment(envelope: MessageEnvelope) -> List[Packet]:
    """Split a message into MTU-sized packets."""
    msg_seq, src, dst, transport, payload, spec = envelope
    count = max(1, -(-len(payload) // MTU))   # an empty message is a packet
    return [
        Packet(msg_seq, i, count, src, dst, transport,
               payload[i * MTU:(i + 1) * MTU], spec)
        for i in range(count)
    ]


class ReassemblyBuffer:
    """Per-host reassembly of fragments back into messages.  Copies a
    rewrite duplicates share their ``msg_seq``: a fragment whose index a
    partial of that seq holds starts (or joins) another partial copy."""

    def __init__(self) -> None:
        self._partial: Dict[int, List[Dict[int, Packet]]] = {}

    def add(self, packet: Packet) -> Optional[MessageEnvelope]:
        """Add a fragment; return the completed message if it is the last."""
        msg_seq, index, count, src, dst, transport, payload, spec = packet
        copies = self._partial.setdefault(msg_seq, [])
        for frags in copies:
            if index not in frags:
                break
        else:
            frags = {}
            copies.append(frags)
        frags[index] = packet
        if len(frags) < count:
            return None
        copies.remove(frags)
        if not copies:
            del self._partial[msg_seq]
        return MessageEnvelope(msg_seq, src, dst, transport,
                               b"".join(frags[i].payload for i in range(count)),
                               spec)

    def pending_messages(self) -> int:
        return sum(len(copies) for copies in self._partial.values())

    # ------------------------------------------------------------- snapshot

    def save_state(self) -> list:
        """One ``(msg_seq, packet records)`` entry per partial copy."""
        return [
            (seq, [packet_to_record(p) for p in frags.values()])
            for seq, copies in sorted(self._partial.items())
            for frags in copies
        ]

    def load_state(self, state: list) -> None:
        self._partial = {}
        for seq, packet_records in state:
            frags = {}
            for record in packet_records:
                packet = packet_from_record(record)
                frags[packet.frag_index] = packet
            self._partial.setdefault(seq, []).append(frags)


def packet_to_record(packet: Packet) -> tuple:
    """Serialize a packet to a plain tuple (for emulator save/load)."""
    return (packet.msg_seq, packet.frag_index, packet.frag_count,
            (packet.src.index, packet.src.role),
            (packet.dst.index, packet.dst.role),
            packet.transport, packet.payload)


def packet_from_record(record: tuple) -> Packet:
    (msg_seq, frag_index, frag_count, src_t, dst_t, transport, payload) = record
    return Packet(msg_seq, frag_index, frag_count, node_id(*src_t),
                  node_id(*dst_t), transport, payload)


def envelope_to_record(envelope: MessageEnvelope) -> tuple:
    return (envelope.msg_seq,
            (envelope.src.index, envelope.src.role),
            (envelope.dst.index, envelope.dst.role),
            envelope.transport, envelope.payload)


def envelope_from_record(record: tuple) -> MessageEnvelope:
    msg_seq, src_t, dst_t, transport, payload = record
    return MessageEnvelope(msg_seq, node_id(*src_t), node_id(*dst_t),
                           transport, payload)
