"""Total Order Multicast via a fixed sequencer (classroom target).

Every member publishes a message every ``publish_interval`` (broadcast to
the group, including the sequencer).  The sequencer — member 0 — assigns
each publication the next global sequence number and broadcasts a Sequence
record.  A member *delivers* a message once it holds both the publication
and its sequence record and every earlier global sequence number has been
delivered.  Deliveries are the performance metric.

Student-grade robustness, on purpose: a gap in the global sequence (a lost
or lied Sequence record) blocks delivery forever — there is no
negative-acknowledgement recovery — so the platform finds delay, drop, and
lying attacks against the sequencer immediately.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.common.ids import NodeId, replica
from repro.metrics.collector import UPDATE_DONE
from repro.systems.common.replica import Replica
from repro.wire.codec import Message

PUBLISH_TIMER = "publish"


class TomConfig:
    def __init__(self, n: int = 4, publish_interval: float = 0.02) -> None:
        self.n = n
        self.publish_interval = publish_interval


class TomMember(Replica):
    """One group member; member 0 doubles as the sequencer."""

    STATE = Replica.STATE + ("local_seq", "next_global", "delivered_upto",
                             "published", "order", "delivered")

    def __init__(self, index: int, config: TomConfig) -> None:
        super().__init__(index, config)
        self.local_seq = 0
        self.next_global = 0            # sequencer: last assigned
        self.delivered_upto = 0         # member: contiguous deliveries
        # (sender, local_seq) -> {"sent_at": float} publications seen
        self.published: Dict[Tuple[int, int], Dict[str, Any]] = {}
        # global_seq -> (sender, local_seq)
        self.order: Dict[int, Tuple[int, int]] = {}
        self.delivered = 0

    @property
    def is_sequencer(self) -> bool:
        return self.index == 0

    # ---------------------------------------------------------------- driver

    def on_start(self) -> None:
        self.set_timer(PUBLISH_TIMER, self.config.publish_interval,
                       periodic=True)

    def on_timer(self, name: str) -> None:
        if name != PUBLISH_TIMER:
            return
        self.local_seq += 1
        message = Message("Publish", {
            "sender": self.index, "local_seq": self.local_seq,
            "sent_at": int(self.now() * 1_000_000),
            "payload": f"m:{self.index}:{self.local_seq}".encode()})
        self._accept_publish(message)
        self.broadcast(message)

    # -------------------------------------------------------------- messages

    def _on_publish(self, src: NodeId, message: Message) -> None:
        self._accept_publish(message)

    def _on_sequence(self, src: NodeId, message: Message) -> None:
        if src != replica(0):
            return
        self.order[message["global_seq"]] = (message["sender"],
                                             message["local_seq"])
        self._try_deliver()

    def _accept_publish(self, message: Message) -> None:
        key = (message["sender"], message["local_seq"])
        if key in self.published:
            return
        self.published[key] = {"sent_at": message["sent_at"] / 1_000_000}
        if self.is_sequencer:
            self.next_global += 1
            record = Message("Sequence", {
                "global_seq": self.next_global, "sender": key[0],
                "local_seq": key[1]})
            self.order[self.next_global] = key
            self.broadcast(record)
        self._try_deliver()

    def _try_deliver(self) -> None:
        while True:
            key = self.order.get(self.delivered_upto + 1)
            if key is None or key not in self.published:
                return
            self.delivered_upto += 1
            self.delivered += 1
            sent_at = self.published[key]["sent_at"]
            self.node.emit_metric(UPDATE_DONE,
                                  max(0.0, self.now() - sent_at))
            if self.delivered_upto % 512 == 0:
                self._garbage_collect()

    def _garbage_collect(self) -> None:
        horizon = self.delivered_upto - 512
        for gseq in [g for g in self.order if g <= horizon]:
            self.published.pop(self.order[gseq], None)
            del self.order[gseq]

    # ------------------------------------------------------------- snapshot

    def snapshot_state(self) -> Dict[str, Any]:
        # (sender, local_seq) keys are saved as "s:l", order's as lists
        state = super().snapshot_state()
        state["published"] = {f"{s}:{l}": entry for (s, l), entry
                              in state["published"].items()}
        state["order"] = {g: list(key) for g, key in state["order"].items()}
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        super().restore_state(state)
        self.published = {tuple(map(int, key.split(":"))): entry
                          for key, entry in self.published.items()}
        self.order = {g: tuple(key) for g, key in self.order.items()}
