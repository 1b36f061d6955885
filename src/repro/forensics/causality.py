"""Causal message tracing: the emulator tap and the happens-before graph.

The network emulator and each node expose a handful of lineage hooks (see
``NetworkEmulator.causal_tap``): every send records which message's handler
induced it, every egress/delivery/handler invocation is timestamped with
virtual time, and the malicious proxy annotates the actions it applied.
:class:`CausalRecorder` implements that tap interface and accumulates one
execution's chronology; :class:`CausalGraph` turns it into a cross-node
happens-before graph (message → messages its handler induced).

The tap is pure bookkeeping: it draws no randomness, schedules nothing,
and is never serialized with world state — attaching it cannot perturb
the deterministic execution it observes, and when it is absent (the
default) every hook site is a single attribute test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.netem.packets import MessageEnvelope

#: chronology event kinds, in the order one message moves through them
SEND = "send"         # transmit() saw the message (pre-proxy intent)
EGRESS = "egress"     # the message was submitted to leave its host
DELIVER = "deliver"   # the reassembled message reached its destination
HANDLE = "handle"     # a node's application handler ran for the message


def payload_digest(payload: bytes) -> str:
    """Short stable content digest used to detect mutated messages."""
    return blake2b(payload, digest_size=8).hexdigest()


class CausalEvent(NamedTuple):
    """One step of one message's life, with its virtual timestamp (a
    tuple: a chronology holds tens of thousands)."""

    kind: str
    time: float
    msg_seq: int
    src: str
    dst: str
    message_type: str
    digest: str

    def identity(self) -> tuple:
        """Full alignment key: everything but the timestamp."""
        return (self.kind, self.msg_seq, self.src, self.dst,
                self.message_type, self.digest)

    def loose_identity(self) -> tuple:
        """Alignment key ignoring content — matches mutated payloads."""
        return (self.kind, self.msg_seq, self.src, self.dst,
                self.message_type)

    def describe(self) -> str:
        where = self.src if self.kind in (SEND, EGRESS) else self.dst
        return (f"{self.message_type} (seq {self.msg_seq}) "
                f"{self.kind} at {where} t={self.time:.4f}")


class CausalEdge(NamedTuple):
    """Happens-before: ``parent_seq``'s handler induced ``child_seq``."""

    parent_seq: int
    child_seq: int
    node: str          # where the inducing handler ran


class CausalRecorder:
    """Implements the emulator's causal-tap interface for one execution.

    Attach with ``emulator.causal_tap = recorder`` and detach by setting
    it back to None; the recorder needs the world codec (to name message
    types) and a virtual-clock callable.
    """

    def __init__(self, codec, clock: Callable[[], float]) -> None:
        self.codec = codec
        self.clock = clock
        self.events: List[CausalEvent] = []
        self.edges: List[CausalEdge] = []
        #: proxy action annotations: msg_seq -> descriptions, in order
        self.proxy_notes: Dict[int, List[str]] = {}
        #: interceptor verdict observed at send time: msg_seq -> kind
        self.verdicts: Dict[int, str] = {}
        #: node whose handler is currently running (edge attribution)
        self._handling_node: str = "?"

    def __getstate__(self) -> dict:
        """A recorder pickles as its chronology: the codec and the clock it
        was attached with stay behind."""
        return dict(self.__dict__, codec=None, clock=None)

    # ------------------------------------------------------------- tap hooks

    def _type_name(self, payload: bytes) -> str:
        spec = self.codec.peek_type(payload)
        return spec.name if spec is not None else "?"

    def _record(self, kind: str, envelope: MessageEnvelope,
                time: Optional[float] = None) -> None:
        self.events.append(CausalEvent(
            kind, self.clock() if time is None else time, envelope.msg_seq,
            str(envelope.src), str(envelope.dst),
            self._type_name(envelope.payload),
            payload_digest(envelope.payload)))

    def on_send(self, envelope: MessageEnvelope, cause: Optional[int],
                verdict_kind: str) -> None:
        self._record(SEND, envelope)
        self.verdicts[envelope.msg_seq] = verdict_kind
        if cause is not None:
            self.edges.append(CausalEdge(cause, envelope.msg_seq,
                                         self._handling_node))

    def on_egress(self, envelope: MessageEnvelope, delay: float,
                  via_device: bool) -> None:
        # Timestamp with the *effective* egress time: a proxy delay action
        # shifts this, which is exactly the divergence it introduces.
        self._record(EGRESS, envelope, time=self.clock() + delay)

    def on_deliver(self, envelope: MessageEnvelope) -> None:
        self._record(DELIVER, envelope)

    def on_handle(self, cause: Optional[int], node_id, type_name: str) -> None:
        self._handling_node = str(node_id)
        if cause is None:
            return
        self.events.append(CausalEvent(
            HANDLE, self.clock(), cause, "", str(node_id), type_name, ""))

    def on_release(self, envelope: MessageEnvelope, deliveries) -> None:
        copies = "pass" if deliveries is None else str(len(deliveries))
        self.proxy_notes.setdefault(envelope.msg_seq, []).append(
            f"released:{copies}")

    def on_proxy(self, msg_seq: int, description: str) -> None:
        self.proxy_notes.setdefault(msg_seq, []).append(description)

    # --------------------------------------------------------------- queries

    def graph(self) -> "CausalGraph":
        return CausalGraph.from_recorder(self)


@dataclass
class CausalGraph:
    """Cross-node happens-before graph over one execution's messages."""

    #: msg_seq -> sequences its handler induced, in send order
    children: Dict[int, List[int]] = field(default_factory=dict)
    edges: List[CausalEdge] = field(default_factory=list)

    @classmethod
    def from_recorder(cls, recorder: CausalRecorder) -> "CausalGraph":
        graph = cls(edges=list(recorder.edges))
        for edge in recorder.edges:
            graph.children.setdefault(edge.parent_seq, []).append(
                edge.child_seq)
        return graph

    def descendants(self, msg_seq: int) -> List[int]:
        """Every message transitively induced by ``msg_seq``, in BFS order."""
        seen = set()
        order: List[int] = []
        frontier = list(self.children.get(msg_seq, ()))
        while frontier:
            seq = frontier.pop(0)
            if seq in seen:
                continue
            seen.add(seq)
            order.append(seq)
            frontier.extend(self.children.get(seq, ()))
        return order
