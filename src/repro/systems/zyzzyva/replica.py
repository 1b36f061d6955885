"""Zyzzyva replica — speculative BFT (Kotla et al., SOSP 2007).

Normal case: the primary orders a request (OrderRequest) and every replica
executes it *speculatively*, sending a SpecResponse straight to the client.
The client commits on 3f+1 matching speculative responses (fast path); with
only 2f+1 it sends a Commit certificate back to the replicas and completes
on 2f+1 LocalCommits (slow path).  Dropping one replica's SpecResponse
therefore removes the benefit of speculation — the attack the paper reports
as increasing latency from 3.95 ms to 5.32 ms on average.

Intentional implementation flaws (what Turret found): ``OrderRequest.
msg_size``, ``Commit.cc_size``, ``ViewChange.nccs``, and ``NewView.size``
are trusted allocation sizes.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Tuple

from repro.common.ids import NodeId, client
from repro.systems.common.auth import Authenticator
from repro.systems.common.config import BftConfig
from repro.systems.common.replica import BaseReplica, add_vote, digest_of
from repro.wire.codec import Message

PROGRESS_TIMER = "progress"


class ZyzzyvaReplica(BaseReplica):
    """One Zyzzyva replica."""

    STATE = BaseReplica.STATE + (
        "next_seq", "last_spec", "history", "ordered", "max_committed",
        "pending", "reply_cache", "ihtp_votes", "vc_votes")

    def __init__(self, index: int, config: BftConfig,
                 auth: Optional[Authenticator] = None) -> None:
        super().__init__(index, config, auth)
        self.next_seq = 0              # primary: last ordered seq
        self.last_spec = 0             # highest speculatively executed seq
        self.history = b"\x00" * 32    # rolling history digest
        # seq -> order-request fields (for the max-cc / commit bookkeeping)
        self.ordered: Dict[int, Dict[str, Any]] = {}
        self.max_committed = 0
        # (client, timestamp) -> payload for requests awaiting ordering
        self.pending: Dict[Tuple[int, int], bytes] = {}
        self.reply_cache: Dict[int, int] = {}      # client -> last timestamp
        self.ihtp_votes: Dict[int, list] = {}      # view -> voter list
        self.vc_votes: Dict[int, list] = {}

    # Request --------------------------------------------------------------

    def _on_request(self, src: NodeId, msg: Message) -> None:
        cli, ts = msg["client"], msg["timestamp"]
        if self.reply_cache.get(cli, 0) >= ts:
            return
        if self.is_primary:
            key = (cli, ts)
            if key in self.pending:
                return  # already ordered, spec responses are in flight
            self.pending[key] = msg["payload"]
            self._order(cli, ts, msg["payload"])
        else:
            self.pending[(cli, ts)] = msg["payload"]
            if not self.node.timer_pending(PROGRESS_TIMER):
                self.set_timer(PROGRESS_TIMER, self.config.recovery_timeout)

    def _order(self, cli: int, ts: int, payload: bytes) -> None:
        self.next_seq += 1
        digest = digest_of(payload)
        fields = {
            "view": self.view, "seq": self.next_seq, "hist": self.history,
            "digest": digest, "msg_size": len(payload), "timestamp": ts,
            "client": cli, "payload": payload,
            "sig": self.auth.sign(self.view, self.next_seq, digest),
        }
        self.broadcast(Message("OrderRequest", fields))
        self._speculate(Message("OrderRequest", fields))

    # OrderRequest ----------------------------------------------------------

    def _on_orderrequest(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: embedded request size trusted from the wire --
        self.unchecked_alloc(msg["msg_size"], "request buffer")
        if msg["view"] != self.view or src != self.primary_of(msg["view"]):
            return
        if not self.check_auth(msg["sig"], msg["view"], msg["seq"],
                               msg["digest"]):
            return
        self._speculate(msg)

    def _speculate(self, msg: Message) -> None:
        seq = msg["seq"]
        if seq != self.last_spec + 1:
            return  # hole: real Zyzzyva sends FillHole; we wait for ordering
        self.last_spec = seq
        self.history = hashlib.blake2b(
            self.history + msg["digest"], digest_size=32).digest()
        self.ordered[seq] = dict(msg)
        self.pending.pop((msg["client"], msg["timestamp"]), None)
        if not self.pending:
            self.cancel_timer(PROGRESS_TIMER)
        self.reply_cache[msg["client"]] = msg["timestamp"]
        result = digest_of(msg["payload"])[:8]
        self.send(client(msg["client"]), Message("SpecResponse", {
            "view": self.view, "seq": seq, "hist": self.history,
            "digest": msg["digest"], "client": msg["client"],
            "timestamp": msg["timestamp"], "replica": self.index,
            "result": result,
            "sig": self.auth.sign(seq, msg["timestamp"], self.index),
        }))

    # Commit (client -> replicas, slow path) ---------------------------------

    def _on_commit(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: commit-certificate size trusted --
        self.unchecked_alloc(msg["cc_size"], "commit certificate entries")
        if msg["seq"] > self.last_spec:
            return
        self.max_committed = max(self.max_committed, msg["seq"])
        self.send(client(msg["client"]), Message("LocalCommit", {
            "view": self.view, "seq": msg["seq"], "replica": self.index,
            "client": msg["client"],
            "sig": self.auth.sign(msg["seq"], self.index),
        }))

    # View change (minimal) ---------------------------------------------------

    def on_timer(self, name: str) -> None:
        if name == PROGRESS_TIMER and self.pending:
            self.broadcast(Message("IHateThePrimary", {
                "view": self.view, "replica": self.index,
                "sig": self.auth.sign(self.view, self.index),
            }))
            self.set_timer(PROGRESS_TIMER, self.config.recovery_timeout)

    def _on_ihatetheprimary(self, src: NodeId, msg: Message) -> None:
        if msg["view"] != self.view:
            return
        votes = self.ihtp_votes.setdefault(msg["view"], [])
        if add_vote(votes, msg["replica"]) >= self.config.f + 1:
            self.broadcast(Message("ViewChange", {
                "new_view": self.view + 1, "nccs": 1, "replica": self.index,
                "sig": self.auth.sign(self.view + 1, self.index),
            }))

    def _on_viewchange(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: certificate count trusted --
        self.unchecked_alloc(msg["nccs"], "commit certificates")
        nv = msg["new_view"]
        if nv <= self.view:
            return
        votes = self.vc_votes.setdefault(nv, [])
        if (add_vote(votes, msg["replica"]) >= self.config.quorum
                and self.primary_of(nv) == self.node_id):
            self.broadcast(Message("NewView", {
                "view": nv, "size": len(votes), "primary": self.index,
                "sig": self.auth.sign(nv, self.index),
            }))
            self.view = nv

    def _on_newview(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: the new-view proof size is trusted --
        self.unchecked_alloc(msg["size"], "new-view certificate")
        if msg["view"] <= self.view:
            return
        if src != self.primary_of(msg["view"]):
            return
        self.view = msg["view"]
        self.cancel_timer(PROGRESS_TIMER)
