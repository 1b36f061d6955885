"""Steward replica — hierarchical BFT for wide-area networks (Amir et al.).

Two-level protocol, as deployed here with one leader site and one or more
remote sites, each a 3f+1 BFT group:

* **Intra-site (leader site)** — the global leader pre-prepares client
  requests inside its site; 2f Prepares let it threshold-sign a Proposal.
* **Wide area** — the Proposal crosses the WAN to each remote site's
  representative, which fans it out locally; site members return CCSUnion
  threshold shares; the representative combines 2f+1 shares into a
  threshold-signed Accept and returns it.  A majority of remote-site
  Accepts globally orders the update, which the leader site executes and
  answers to the client.

Fault masking (the behaviour that surprised the paper's authors on the
Drop-Accept attack): the leader retransmits an unanswered Proposal every
``proposal_retry`` seconds, and a remote-site member that sees the *same*
Proposal again concludes its representative may be faulty and sends the
Accept itself.  Progress therefore continues at the retransmission rate
(~0.4 upd/s) instead of triggering a view change.

Threshold cryptography is expensive: every GlobalViewChange and CCSUnion a
replica receives pays an RSA-threshold verification, which is what makes
duplicating those messages devastating (0.27 upd/s in the paper).

Intentional implementation flaws: ``Status.nmsgs`` and ``CCSUnion.nshares``
are trusted allocation sizes; a ``GlobalViewChange`` whose view number jumps
far ahead makes the receiver allocate the whole pending-view range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.ids import NodeId, client, replica
from repro.systems.common.auth import Authenticator
from repro.systems.common.replica import BaseReplica, add_vote, digest_of
from repro.wire.codec import Message

PROPOSAL_RETRY_TIMER = "proposal-retry"
GVC_HEARTBEAT_TIMER = "gvc-heartbeat"
STATUS_TIMER = "status"


@dataclass(frozen=True)
class StewardConfig:
    """Sizing/timing of a Steward deployment (duck-compatible with BftConfig
    where the shared client machinery needs it)."""

    sites: int = 2
    site_f: int = 1
    clients: int = 1
    verify_signatures: bool = False
    client_retry: float = 0.4
    proposal_retry: float = 2.0
    status_interval: float = 2.0
    gvc_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.sites < 2:
            raise ConfigError("Steward needs at least two sites")

    @property
    def site_n(self) -> int:
        return 3 * self.site_f + 1

    @property
    def n(self) -> int:
        return self.sites * self.site_n

    @property
    def site_quorum(self) -> int:
        return 2 * self.site_f + 1

    @property
    def prepare_quorum(self) -> int:
        return 2 * self.site_f

    @property
    def reply_quorum(self) -> int:
        return self.site_f + 1

    @property
    def accept_majority(self) -> int:
        """Remote-site accepts needed to globally order."""
        return (self.sites - 1) // 2 + 1

    def site_of(self, index: int) -> int:
        return index // self.site_n

    def rep_of_site(self, site: int) -> int:
        return site * self.site_n

    def site_members(self, site: int) -> List[int]:
        base = site * self.site_n
        return list(range(base, base + self.site_n))


class StewardReplica(BaseReplica):
    """One Steward replica (leader-site or remote-site)."""

    STATE = BaseReplica.STATE + (
        "global_view", "next_seq", "last_exec", "log", "assigned",
        "reply_cache", "remote", "executed_count")

    def __init__(self, index: int, config: StewardConfig,
                 auth: Optional[Authenticator] = None) -> None:
        super().__init__(index, config, auth)
        self.global_view = 0
        self.next_seq = 0
        self.last_exec = 0
        # leader-site ordering state: seq -> entry
        self.log: Dict[int, Dict[str, Any]] = {}
        self.assigned: Dict[Tuple[int, int], int] = {}
        self.reply_cache: Dict[int, int] = {}
        # remote-site state: seq -> {"proposal": fields, "shares": [idx],
        #                            "accept_sent": bool, "seen": int}
        self.remote: Dict[int, Dict[str, Any]] = {}
        self.executed_count = 0

    # ----------------------------------------------------------- site roles

    @property
    def site(self) -> int:
        return self.config.site_of(self.index)

    @property
    def is_leader_site(self) -> bool:
        return self.site == 0

    @property
    def is_global_leader(self) -> bool:
        return self.index == 0

    @property
    def is_representative(self) -> bool:
        return self.index == self.config.rep_of_site(self.site)

    def site_peer_ids(self) -> List[NodeId]:
        return [replica(i) for i in self.config.site_members(self.site)
                if i != self.index]

    # ---------------------------------------------------------------- start

    def on_start(self) -> None:
        self.set_timer(STATUS_TIMER, self.config.status_interval,
                       periodic=True)
        if self.is_representative:
            self.set_timer(GVC_HEARTBEAT_TIMER, self.config.gvc_interval,
                           periodic=True)

    def on_timer(self, name: str) -> None:
        if name == STATUS_TIMER:
            self._send_status()
        elif name == GVC_HEARTBEAT_TIMER:
            self._send_gvc()
        elif name == PROPOSAL_RETRY_TIMER:
            self._retry_proposals()

    # Request (leader site) --------------------------------------------------

    def _on_request(self, src: NodeId, msg: Message) -> None:
        if not self.is_leader_site:
            return
        cli, ts = msg["client"], msg["timestamp"]
        if self.reply_cache.get(cli, 0) >= ts:
            return
        if not self.is_global_leader:
            # leader-site backup: relay to the leader
            self.send(replica(0), Message("Request", msg))
            return
        key = (cli, ts)
        seq = self.assigned.get(key)
        if seq is not None:
            entry = self.log.get(seq)
            if entry is not None and not entry["ordered"]:
                self._send_preprepare(entry, seq)
            return
        self.next_seq += 1
        seq = self.next_seq
        self.assigned[key] = seq
        entry = {
            "digest": digest_of(msg["payload"]), "payload": msg["payload"],
            "timestamp": ts, "client": cli, "prepares": [self.index],
            "proposal_sent": False, "accepts": [], "ordered": False,
        }
        self.log[seq] = entry
        self._send_preprepare(entry, seq)
        if not self.node.timer_pending(PROPOSAL_RETRY_TIMER):
            self.set_timer(PROPOSAL_RETRY_TIMER, self.config.proposal_retry)

    def _send_preprepare(self, entry: Dict[str, Any], seq: int) -> None:
        fields = {
            "view": self.view, "seq": seq, "digest": entry["digest"],
            "timestamp": entry["timestamp"], "client": entry["client"],
            "payload": entry["payload"],
            "sig": self.auth.sign(self.view, seq, entry["digest"]),
        }
        for peer in self.site_peer_ids():
            self.send(peer, Message("PrePrepare", fields))

    def _on_preprepare(self, src: NodeId, msg: Message) -> None:
        if not self.is_leader_site or self.is_global_leader:
            return
        if src != replica(0):
            return
        if not self.check_auth(msg["sig"], msg["view"], msg["seq"],
                               msg["digest"]):
            return
        self.send(replica(0), Message("Prepare", {
            "view": msg["view"], "seq": msg["seq"], "digest": msg["digest"],
            "replica": self.index,
            "sig": self.auth.sign(msg["view"], msg["seq"], self.index),
        }))

    def _on_prepare(self, src: NodeId, msg: Message) -> None:
        if not self.is_global_leader:
            return
        entry = self.log.get(msg["seq"])
        if entry is None or entry["digest"] != msg["digest"]:
            return
        if (add_vote(entry["prepares"], msg["replica"])
                > self.config.prepare_quorum
                and not entry["proposal_sent"]):
            entry["proposal_sent"] = True
            self._send_proposal(msg["seq"], entry)

    def _send_proposal(self, seq: int, entry: Dict[str, Any],
                       to_all_members: bool = False) -> None:
        fields = {
            "global_view": self.global_view, "seq": seq,
            "digest": entry["digest"], "timestamp": entry["timestamp"],
            "client": entry["client"], "payload": entry["payload"],
            "site": self.site,
            "sig": self.auth.sign(self.global_view, seq, entry["digest"]),
        }
        for site in range(self.config.sites):
            if site == self.site:
                continue
            if to_all_members:
                for member in self.config.site_members(site):
                    self.send(replica(member), Message("Proposal", fields))
            else:
                self.send(replica(self.config.rep_of_site(site)),
                          Message("Proposal", fields))

    def _retry_proposals(self) -> None:
        outstanding = [
            (seq, entry) for seq, entry in sorted(self.log.items())
            if entry["proposal_sent"] and not entry["ordered"]]
        for seq, entry in outstanding:
            # Retransmissions go to every member of the remote sites, not
            # just the representative — the fault-masking path that keeps
            # Drop-Accept from triggering a view change.
            self._send_proposal(seq, entry, to_all_members=True)
        if outstanding:
            self.set_timer(PROPOSAL_RETRY_TIMER, self.config.proposal_retry)

    # Remote site -------------------------------------------------------------

    def _on_proposal(self, src: NodeId, msg: Message) -> None:
        if self.is_leader_site:
            return
        if not self.check_auth(msg["sig"], msg["global_view"], msg["seq"],
                               msg["digest"]):
            return
        seq = msg["seq"]
        entry = self.remote.setdefault(seq, {
            "proposal": None, "shares": [], "accept_sent": False, "seen": 0})
        entry["proposal"] = dict(msg)
        entry["seen"] += 1
        if self.is_representative:
            if entry["seen"] == 1:
                # fan out to the site and contribute our own share
                for peer in self.site_peer_ids():
                    self.send(peer, Message("Proposal", msg))
                self._send_share(seq, msg["digest"])
            else:
                # leader retransmission reached us again: re-accept directly
                self._send_accept(seq, msg["digest"])
        else:
            if entry["seen"] == 1:
                self._send_share(seq, msg["digest"])
            else:
                # Fault masking: a retransmitted proposal means the
                # representative's Accept may have been lost or withheld —
                # answer the leader site ourselves.
                self._send_accept(seq, msg["digest"])

    def _send_share(self, seq: int, digest: bytes) -> None:
        rep = replica(self.config.rep_of_site(self.site))
        share = digest_of(digest + bytes([self.index]))
        message = Message("CCSUnion", {
            "global_view": self.global_view, "seq": seq,
            "share_idx": self.index, "nshares": 1, "share": share,
            "sig": self.auth.sign(self.global_view, seq, self.index),
        })
        if rep == self.node_id:
            self._record_share(seq, self.index)
        else:
            self.send(rep, message)

    def _on_ccsunion(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: share count trusted from the wire --
        self.unchecked_alloc(msg["nshares"], "threshold shares")
        if not self.check_auth(msg["sig"], msg["global_view"], msg["seq"],
                               msg["share_idx"]):
            return
        if not self.is_representative:
            return
        self._record_share(msg["seq"], msg["share_idx"])

    def _record_share(self, seq: int, share_idx: int) -> None:
        entry = self.remote.get(seq)
        if entry is None or entry["proposal"] is None:
            return
        if (add_vote(entry["shares"], share_idx) >= self.config.site_quorum
                and not entry["accept_sent"]):
            entry["accept_sent"] = True
            self._send_accept(seq, entry["proposal"]["digest"])

    def _send_accept(self, seq: int, digest: bytes) -> None:
        self.send(replica(0), Message("Accept", {
            "global_view": self.global_view, "seq": seq, "digest": digest,
            "site": self.site,
            "sig": self.auth.sign(self.global_view, seq, self.site),
        }))

    # Global ordering (leader) -------------------------------------------------

    def _on_accept(self, src: NodeId, msg: Message) -> None:
        if not self.is_global_leader:
            return
        entry = self.log.get(msg["seq"])
        if entry is None or entry["ordered"]:
            return
        if entry["digest"] != msg["digest"]:
            return
        accepting_site = self.config.site_of(src.index)
        if (add_vote(entry["accepts"], accepting_site)
                >= self.config.accept_majority):
            entry["ordered"] = True
            fields = {
                "global_view": self.global_view, "seq": msg["seq"],
                "digest": entry["digest"], "timestamp": entry["timestamp"],
                "client": entry["client"], "payload": entry["payload"],
                "sig": self.auth.sign(self.global_view, msg["seq"]),
            }
            for peer in self.site_peer_ids():
                self.send(peer, Message("GlobalOrder", fields))
            self._execute(Message("GlobalOrder", fields))

    def _on_globalorder(self, src: NodeId, msg: Message) -> None:
        if not self.is_leader_site or src != replica(0):
            return
        self._execute(msg)

    def _execute(self, msg: Message) -> None:
        cli, ts = msg["client"], msg["timestamp"]
        if self.reply_cache.get(cli, 0) >= ts:
            return
        self.reply_cache[cli] = ts
        self.last_exec = max(self.last_exec, msg["seq"])
        self.executed_count += 1
        result = digest_of(msg["payload"])[:8]
        self.send(client(cli), Message("Reply", {
            "timestamp": ts, "client": cli, "replica": self.index,
            "result": result,
            "sig": self.auth.sign(ts, cli, self.index, result),
        }))

    # Keepalives ---------------------------------------------------------------

    def _send_status(self) -> None:
        msg = Message("Status", {
            "replica": self.index, "view": self.view,
            "last_exec": self.last_exec, "nmsgs": 0,
            "sig": self.auth.sign(self.index, self.last_exec),
        })
        for peer in self.site_peer_ids():
            self.send(peer, msg)

    def _on_status(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: piggybacked count trusted --
        self.unchecked_alloc(msg["nmsgs"], "piggybacked messages")

    def _send_gvc(self) -> None:
        msg = Message("GlobalViewChange", {
            "global_view": self.global_view, "site": self.site, "nproofs": 0,
            "sig": self.auth.sign(self.global_view, self.site),
        })
        for site in range(self.config.sites):
            rep = self.config.rep_of_site(site)
            if rep != self.index:
                self.send(replica(rep), msg)

    def _on_globalviewchange(self, src: NodeId, msg: Message) -> None:
        self.unchecked_alloc(msg["nproofs"], "view-change proofs")
        if msg["global_view"] > self.global_view:
            # -- intentional flaw: allocate the whole pending-view range --
            self.unchecked_alloc(msg["global_view"] - self.global_view,
                                 "pending global views")
            self.global_view = msg["global_view"]
