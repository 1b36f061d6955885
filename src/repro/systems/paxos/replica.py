"""Multi-Paxos replica (crash-fault model; the classroom target).

A stable leader (initially node 0, ballot = leader index) drives Phase 2
directly: Accept → majority Accepted → Learn → ClientReply.  Phase 1
(Prepare/Promise) runs when a node believes the leader failed — leader
liveness is tracked with heartbeats.  The implementation is deliberately
"student grade": correct under crash faults, with no defenses against the
delivery attacks Turret injects (a delayed or dropped Accept simply stalls
the slot until the heartbeat timeout elects a new leader).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

from repro.common.ids import NodeId, client, replica
from repro.metrics.collector import UPDATE_DONE
from repro.runtime.app import Application
from repro.systems.common.replica import Replica, add_vote
from repro.wire.codec import Message

HEARTBEAT_TIMER = "heartbeat"
LEADER_CHECK_TIMER = "leader-check"


class PaxosConfig:
    """Sizing/timing for the Paxos deployment."""

    def __init__(self, n: int = 3, clients: int = 1,
                 heartbeat_interval: float = 0.5,
                 leader_timeout: float = 2.0,
                 client_retry: float = 0.4) -> None:
        self.n = n
        self.clients = clients
        self.heartbeat_interval = heartbeat_interval
        self.leader_timeout = leader_timeout
        self.client_retry = client_retry

    @property
    def majority(self) -> int:
        return self.n // 2 + 1

    @property
    def reply_quorum(self) -> int:
        return 1  # crash model: any single reply is authoritative


class PaxosReplica(Replica):
    """One Multi-Paxos acceptor/learner, leader-capable."""

    STATE = Replica.STATE + (
        "ballot", "next_slot", "slots", "last_applied", "reply_cache",
        "promises", "last_heartbeat", "executed_count")

    def __init__(self, index: int, config: PaxosConfig) -> None:
        super().__init__(index, config)
        self.ballot = 0          # current ballot; leader = ballot % n
        self.next_slot = 0       # leader: next slot to assign
        # slot -> {"value","client","timestamp","acks",
        #          "accepted_ballot","chosen"}
        self.slots: Dict[int, Dict[str, Any]] = {}
        self.last_applied = 0
        self.reply_cache: Dict[int, int] = {}
        self.promises: Dict[int, List[int]] = {}
        self.last_heartbeat = 0.0
        self.executed_count = 0

    @property
    def leader_index(self) -> int:
        return self.ballot % self.config.n

    @property
    def is_leader(self) -> bool:
        return self.leader_index == self.index

    def peers(self) -> List[NodeId]:
        return [replica(i) for i in range(self.config.n) if i != self.index]

    # ---------------------------------------------------------------- start

    def on_start(self) -> None:
        self.set_timer(LEADER_CHECK_TIMER, self.config.leader_timeout,
                       periodic=True)
        if self.is_leader:
            self.set_timer(HEARTBEAT_TIMER, self.config.heartbeat_interval,
                           periodic=True)
        self.last_heartbeat = self.now()

    def on_timer(self, name: str) -> None:
        if name == HEARTBEAT_TIMER:
            if self.is_leader:
                for peer in self.peers():
                    self.send(peer, Message("Heartbeat", {
                        "ballot": self.ballot, "node": self.index}))
        elif name == LEADER_CHECK_TIMER:
            if (not self.is_leader
                    and self.now() - self.last_heartbeat
                    > self.config.leader_timeout):
                self._campaign()

    def _campaign(self) -> None:
        # choose the smallest ballot above the current one that maps to us
        b = self.ballot + 1
        while b % self.config.n != self.index:
            b += 1
        self.ballot = b
        self.promises[b] = [self.index]
        for peer in self.peers():
            self.send(peer, Message("Prepare", {
                "ballot": b, "slot": self.last_applied + 1,
                "node": self.index}))

    # ------------------------------------------------------------- messages

    def _on_heartbeat(self, src: NodeId, msg: Message) -> None:
        if msg["ballot"] >= self.ballot:
            self.ballot = msg["ballot"]
            self.last_heartbeat = self.now()

    def _on_clientrequest(self, src: NodeId, msg: Message) -> None:
        cli, ts = msg["client"], msg["timestamp"]
        if self.reply_cache.get(cli, 0) >= ts:
            self._reply(cli, ts, msg["payload"])
            return
        if not self.is_leader:
            self.send(replica(self.leader_index),
                      Message("ClientRequest", dict(msg.fields)))
            return
        for entry in self.slots.values():
            if entry["client"] == cli and entry["timestamp"] == ts:
                return  # already proposed
        self.next_slot = max(self.next_slot, self.last_applied) + 1
        slot = self.next_slot
        self.slots[slot] = {
            "value": msg["payload"], "client": cli, "timestamp": ts,
            "acks": [self.index], "accepted_ballot": self.ballot,
            "chosen": False}
        for peer in self.peers():
            self.send(peer, Message("Accept", {
                "ballot": self.ballot, "slot": slot, "node": self.index,
                "timestamp": ts, "client": cli, "value": msg["payload"]}))

    def _on_prepare(self, src: NodeId, msg: Message) -> None:
        if msg["ballot"] < self.ballot:
            return
        self.ballot = msg["ballot"]
        self.last_heartbeat = self.now()
        entry = self.slots.get(msg["slot"])
        self.send(src, Message("Promise", {
            "ballot": msg["ballot"], "slot": msg["slot"], "node": self.index,
            "accepted_ballot": entry["accepted_ballot"] if entry else 0,
            "accepted": entry["value"] if entry else b"",
        }))

    def _on_promise(self, src: NodeId, msg: Message) -> None:
        if msg["ballot"] != self.ballot or not self.is_leader:
            return
        votes = self.promises.setdefault(msg["ballot"], [self.index])
        if add_vote(votes, msg["node"]) >= self.config.majority:
            # Leadership established; client retries will re-drive pending
            # values under the new ballot.
            self.set_timer(HEARTBEAT_TIMER, self.config.heartbeat_interval,
                           periodic=True)

    def _on_accept(self, src: NodeId, msg: Message) -> None:
        if msg["ballot"] < self.ballot:
            return
        self.ballot = msg["ballot"]
        self.last_heartbeat = self.now()
        self.slots[msg["slot"]] = {
            "value": msg["value"], "client": msg["client"],
            "timestamp": msg["timestamp"], "acks": [],
            "accepted_ballot": msg["ballot"], "chosen": False}
        self.send(src, Message("Accepted", {
            "ballot": msg["ballot"], "slot": msg["slot"], "node": self.index}))

    def _on_accepted(self, src: NodeId, msg: Message) -> None:
        if msg["ballot"] != self.ballot or not self.is_leader:
            return
        entry = self.slots.get(msg["slot"])
        if entry is None or entry["chosen"]:
            return
        if add_vote(entry["acks"], msg["node"]) >= self.config.majority:
            entry["chosen"] = True
            self._apply(msg["slot"], entry)
            for peer in self.peers():
                self.send(peer, Message("Learn", {
                    "slot": msg["slot"], "timestamp": entry["timestamp"],
                    "client": entry["client"], "value": entry["value"]}))

    def _on_learn(self, src: NodeId, msg: Message) -> None:
        entry = self.slots.setdefault(msg["slot"], {
            "value": msg["value"], "client": msg["client"],
            "timestamp": msg["timestamp"], "acks": [],
            "accepted_ballot": self.ballot, "chosen": False})
        entry["chosen"] = True
        self._apply(msg["slot"], entry)

    def _apply(self, slot: int, entry: Dict[str, Any]) -> None:
        self.last_applied = max(self.last_applied, slot)
        cli, ts = entry["client"], entry["timestamp"]
        if self.reply_cache.get(cli, 0) >= ts:
            return
        self.reply_cache[cli] = ts
        self.executed_count += 1
        self._reply(cli, ts, entry["value"])

    def _reply(self, cli: int, ts: int, value: bytes) -> None:
        result = hashlib.blake2b(value, digest_size=8).digest()
        self.send(client(cli), Message("ClientReply", {
            "timestamp": ts, "client": cli, "node": self.index,
            "result": result}))


class PaxosClient(Application):
    """Closed-loop Paxos client (crash model: one reply suffices)."""

    STATE = ("index", "timestamp", "sent_at", "completed")

    def __init__(self, index: int, config: PaxosConfig) -> None:
        super().__init__()
        self.index = index
        self.config = config
        self.timestamp = 0
        self.sent_at = 0.0
        self.completed = 0

    def on_start(self) -> None:
        self._issue()

    def _issue(self) -> None:
        self.timestamp += 1
        self.sent_at = self.now()
        self.send(replica(0), self._request())
        self.set_timer("retry", self.config.client_retry)

    def _request(self) -> Message:
        payload = f"cmd:{self.index}:{self.timestamp}".encode()
        return Message("ClientRequest", {
            "client": self.index, "timestamp": self.timestamp,
            "payload": payload})

    def on_timer(self, name: str) -> None:
        if name != "retry":
            return
        for i in range(self.config.n):
            self.send(replica(i), self._request())
        self.set_timer("retry", self.config.client_retry)

    def on_message(self, src: NodeId, message: Message) -> None:
        if message.type_name != "ClientReply":
            return
        if message["client"] != self.index:
            return
        if message["timestamp"] != self.timestamp:
            return
        self.cancel_timer("retry")
        self.completed += 1
        self.node.emit_metric(UPDATE_DONE, self.now() - self.sent_at)
        self._issue()
