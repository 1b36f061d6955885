"""PBFT replica (Castro & Liskov) — normal case, checkpoints, status
protocol, and view changes, at the fidelity the paper's attacks exercise.

Protocols implemented (Section V-B of the Turret paper):

* **Normal case** — Request → Pre-Prepare → Prepare (2f) → Commit (2f+1) →
  execute → Reply.  The primary's pre-prepare counts as its prepare.
* **Checkpoints** — every ``checkpoint_interval`` executions a Checkpoint is
  broadcast; 2f+1 matching checkpoints advance the stable sequence number
  and garbage-collect the log.
* **Status protocol** — periodic Status broadcasts carry the sender's last
  executed and stable sequence numbers.  A receiver that sees a *behind*
  sender retransmits everything the sender is missing (or just the stable
  checkpoint when the gap reaches below the stable point) — the behaviour
  the Delay-Status attack weaponizes.
* **View change** — a backup that has an unexecuted pending request when its
  progress timer (5 s) fires moves to the next view and broadcasts
  ViewChange; the new primary collects 2f+1 and broadcasts NewView.

Intentional implementation flaws, mirroring what Turret found in the real
C++ codebase: ``PrePrepare.big_reqs``, ``PrePrepare.ndet_choices``, and
``Status.nmsgs`` are trusted as allocation sizes, and the two size fields of
``ViewChange`` are trusted/asserted — negative values fault the replica.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.common.ids import NodeId, client, replica
from repro.systems.common.auth import Authenticator
from repro.systems.common.config import BftConfig
from repro.systems.common.replica import BaseReplica, add_vote, digest_of
from repro.wire.codec import Message

STATUS_TIMER = "status"
PROGRESS_TIMER = "progress"
#: high watermark distance: pre-prepares beyond stable + this are refused
WATERMARK_WINDOW = 2048


class PbftReplica(BaseReplica):
    """One PBFT replica."""

    STATE = BaseReplica.STATE + (
        "next_seq", "last_exec", "stable_seq", "log", "assigned", "pending",
        "reply_cache", "checkpoint_votes", "vc_votes", "vc_sent_for",
        "in_view_change", "executed_count", "retransmissions_sent")

    def __init__(self, index: int, config: BftConfig,
                 auth: Optional[Authenticator] = None) -> None:
        super().__init__(index, config, auth)
        self.next_seq = 0          # primary only: last assigned seq
        self.last_exec = 0         # highest contiguously executed seq
        self.stable_seq = 0
        # seq -> entry dict; see _entry() for the shape
        self.log: Dict[int, Dict[str, Any]] = {}
        # (client index, timestamp) -> assigned seq (primary)
        self.assigned: Dict[Tuple[int, int], int] = {}
        # (client index, timestamp) -> payload, requests awaiting execution
        self.pending: Dict[Tuple[int, int], bytes] = {}
        # client index -> (timestamp, reply Message fields) cache
        self.reply_cache: Dict[int, Tuple[int, Dict[str, Any]]] = {}
        # checkpoint votes: seq -> digest -> list of replica indices
        self.checkpoint_votes: Dict[int, Dict[bytes, List[int]]] = {}
        # view change: new view -> list of voter indices
        self.vc_votes: Dict[int, List[int]] = {}
        self.vc_sent_for = 0       # highest view we have sent a ViewChange for
        self.in_view_change = False
        self.executed_count = 0
        self.retransmissions_sent = 0

    # ------------------------------------------------------------ log entry

    def _entry(self, seq: int) -> Dict[str, Any]:
        entry = self.log.get(seq)
        if entry is None:
            entry = {
                "digest": None, "payload": None, "timestamp": 0, "client": 0,
                "view": self.view, "preprepare": None,
                "prepares": [], "commits": [],
                "prepared": False, "committed": False, "executed": False,
                "commit_sent": False,
            }
            self.log[seq] = entry
        return entry

    # ---------------------------------------------------------------- start

    def on_start(self) -> None:
        self.set_timer(STATUS_TIMER, self.config.status_interval,
                       periodic=True)

    # Request ------------------------------------------------------------

    def _on_request(self, src: NodeId, msg: Message) -> None:
        cli, ts = msg["client"], msg["timestamp"]
        cached = self.reply_cache.get(cli)
        if cached is not None and cached[0] >= ts:
            if cached[0] == ts:
                self.send(client(cli), Message("Reply", dict(cached[1])))
            return
        key = (cli, ts)
        if self.is_primary and not self.in_view_change:
            seq = self.assigned.get(key)
            if seq is None:
                self._propose(key, msg["payload"])
            else:
                # Retransmitted request for an assigned seq: re-send the
                # pre-prepare (recovery path for dropped pre-prepares).
                entry = self.log.get(seq)
                if entry is not None and entry["preprepare"] is not None:
                    self.broadcast(
                        Message("PrePrepare", dict(entry["preprepare"])))
        else:
            self.pending[key] = msg["payload"]
            if not self.node.timer_pending(PROGRESS_TIMER):
                self.set_timer(PROGRESS_TIMER, self.config.recovery_timeout)

    def _propose(self, key: Tuple[int, int], payload: bytes) -> None:
        self.next_seq += 1
        seq = self.next_seq
        self.assigned[key] = seq
        digest = digest_of(payload)
        fields = {
            "view": self.view, "seq": seq, "big_reqs": 0, "ndet_choices": 0,
            "digest": digest, "timestamp": key[1], "client": key[0],
            "payload": payload,
            "sig": self.auth.sign(self.view, seq, digest),
        }
        entry = self._entry(seq)
        entry.update(digest=digest, payload=payload, timestamp=key[1],
                     client=key[0], view=self.view, preprepare=dict(fields))
        entry["prepares"].append(self.index)  # pre-prepare is our prepare
        self.broadcast(Message("PrePrepare", fields))

    # PrePrepare -----------------------------------------------------------

    def _on_preprepare(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: allocation sizes trusted from the wire --
        self.unchecked_alloc(msg["big_reqs"], "big request descriptors")
        self.unchecked_alloc(msg["ndet_choices"], "non-deterministic choices")

        view, seq = msg["view"], msg["seq"]
        if view != self.view or self.in_view_change:
            return
        if src != self.primary_of(view):
            return
        if not self.check_auth(msg["sig"], view, seq, msg["digest"]):
            return
        if seq <= self.stable_seq or seq > self.stable_seq + WATERMARK_WINDOW:
            # Out-of-watermark sequence number: ask the world where we are.
            self._send_status()
            return
        if msg["digest"] != digest_of(msg["payload"]):
            return
        entry = self._entry(seq)
        if entry["digest"] is not None and entry["digest"] != msg["digest"]:
            return  # conflicting pre-prepare: first one wins
        first_time = entry["preprepare"] is None
        entry.update(digest=msg["digest"], payload=msg["payload"],
                     timestamp=msg["timestamp"], client=msg["client"],
                     view=view, preprepare=dict(msg.fields))
        if first_time:
            # The primary's pre-prepare counts as its prepare vote.
            add_vote(entry["prepares"], src.index)
            add_vote(entry["prepares"], self.index)
            prepare = Message("Prepare", {
                "view": view, "seq": seq, "digest": msg["digest"],
                "replica": self.index,
                "sig": self.auth.sign(view, seq, msg["digest"], self.index),
            })
            self.broadcast(prepare)
        self._check_prepared(seq)

    # Prepare --------------------------------------------------------------

    def _on_prepare(self, src: NodeId, msg: Message) -> None:
        if msg["view"] != self.view or self.in_view_change:
            return
        if not self.check_auth(msg["sig"], msg["view"], msg["seq"],
                               msg["digest"], msg["replica"]):
            return
        add_vote(self._entry(msg["seq"])["prepares"], msg["replica"])
        self._check_prepared(msg["seq"])

    def _check_prepared(self, seq: int) -> None:
        entry = self.log.get(seq)
        if entry is None or entry["preprepare"] is None:
            return
        if entry["commit_sent"]:
            return
        # prepared: pre-prepare plus 2f prepares.  The primary's pre-prepare
        # counts as its prepare vote, so the uniform rule is 2f+1 voters.
        if len(entry["prepares"]) >= self.config.quorum:
            entry["prepared"] = True
            entry["commit_sent"] = True
            add_vote(entry["commits"], self.index)
            commit = Message("Commit", {
                "view": entry["view"], "seq": seq, "digest": entry["digest"],
                "replica": self.index,
                "sig": self.auth.sign(entry["view"], seq, entry["digest"],
                                      self.index),
            })
            self.broadcast(commit)
            self._check_committed(seq)

    # Commit ---------------------------------------------------------------

    def _on_commit(self, src: NodeId, msg: Message) -> None:
        if msg["view"] != self.view or self.in_view_change:
            return
        if not self.check_auth(msg["sig"], msg["view"], msg["seq"],
                               msg["digest"], msg["replica"]):
            return
        add_vote(self._entry(msg["seq"])["commits"], msg["replica"])
        self._check_committed(msg["seq"])

    def _check_committed(self, seq: int) -> None:
        entry = self.log.get(seq)
        if entry is None or not entry["prepared"]:
            return
        if len(entry["commits"]) >= self.config.quorum:
            entry["committed"] = True
            self._try_execute()

    # Execution ------------------------------------------------------------

    def _try_execute(self) -> None:
        while True:
            entry = self.log.get(self.last_exec + 1)
            if entry is None or not entry["committed"] or entry["executed"]:
                break
            self.last_exec += 1
            entry["executed"] = True
            cached = self.reply_cache.get(entry["client"])
            if cached is None or entry["timestamp"] > cached[0]:
                self.executed_count += 1
                self._reply(entry)
            self.pending.pop((entry["client"], entry["timestamp"]), None)
            if self.last_exec % self.config.checkpoint_interval == 0:
                self._broadcast_checkpoint(self.last_exec)
        if not self.pending:
            self.cancel_timer(PROGRESS_TIMER)

    def _reply(self, entry: Dict[str, Any]) -> None:
        result = digest_of(entry["payload"])[:8]
        fields = {
            "view": entry["view"], "timestamp": entry["timestamp"],
            "client": entry["client"], "replica": self.index,
            "result": result,
            "sig": self.auth.sign(entry["timestamp"], entry["client"],
                                  self.index, result),
        }
        self.reply_cache[entry["client"]] = (entry["timestamp"], dict(fields))
        self.send(client(entry["client"]), Message("Reply", fields))

    # Checkpoints ------------------------------------------------------------

    def _broadcast_checkpoint(self, seq: int) -> None:
        state_digest = digest_of(f"state@{seq}".encode())
        msg = Message("Checkpoint", {
            "seq": seq, "digest": state_digest, "replica": self.index,
            "sig": self.auth.sign(seq, state_digest, self.index),
        })
        self.broadcast(msg)
        self._record_checkpoint(seq, state_digest, self.index)

    def _on_checkpoint(self, src: NodeId, msg: Message) -> None:
        if not self.check_auth(msg["sig"], msg["seq"], msg["digest"],
                               msg["replica"]):
            return
        self._record_checkpoint(msg["seq"], msg["digest"], msg["replica"])

    def _record_checkpoint(self, seq: int, digest: bytes, voter: int) -> None:
        if seq <= self.stable_seq:
            return
        votes = self.checkpoint_votes.setdefault(seq, {}).setdefault(
            digest, [])
        if add_vote(votes, voter) >= self.config.quorum:
            self.stable_seq = seq
            for old in [s for s in self.log if s <= seq]:
                del self.log[old]
            for old in [s for s in self.checkpoint_votes if s <= seq]:
                del self.checkpoint_votes[old]

    # Status protocol --------------------------------------------------------

    def on_timer(self, name: str) -> None:
        if name == STATUS_TIMER:
            self._send_status()
        elif name == PROGRESS_TIMER:
            self._start_view_change(self.view + 1)

    def _send_status(self) -> None:
        msg = Message("Status", {
            "replica": self.index, "view": self.view,
            "last_exec": self.last_exec, "stable_seq": self.stable_seq,
            "nmsgs": 0,
            "sig": self.auth.sign(self.index, self.view, self.last_exec),
        })
        self.broadcast(msg)

    def _on_status(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: the piggybacked-message count is trusted --
        self.unchecked_alloc(msg["nmsgs"], "piggybacked messages")
        if not self.check_auth(msg["sig"], msg["replica"], msg["view"],
                               msg["last_exec"]):
            return
        their_last = msg["last_exec"]
        if their_last >= self.last_exec:
            return
        if msg["stable_seq"] < self.stable_seq:
            # The sender's stable point is behind ours: ship the stable
            # checkpoint so it can skip ahead ("if the delay becomes too
            # long, the receiver transmits a stable checkpoint instead of
            # sending all individual messages").
            state_digest = digest_of(f"state@{self.stable_seq}".encode())
            self.send(src, Message("Checkpoint", {
                "seq": self.stable_seq, "digest": state_digest,
                "replica": self.index,
                "sig": self.auth.sign(self.stable_seq, state_digest,
                                      self.index),
            }))
        # Retransmit every logged message the sender seems to be missing.
        # Entries at or below our stable point are gone from the log, so the
        # storm is bounded by the checkpoint distance and the window cap.
        first = max(their_last, self.stable_seq) + 1
        last = min(self.last_exec, first + self.config.retransmit_window - 1)
        if last >= first:
            # Walking the log and re-serializing stored certificates is real
            # work; the C++ implementation pays it per retransmitted entry.
            self.node.cpu.charge(self.now(), (last - first + 1) * 0.0002)
        for seq in range(first, last + 1):
            entry = self.log.get(seq)
            if entry is None:
                continue
            self._retransmit_entry(src, entry, seq)

    def _retransmit_entry(self, dst: NodeId, entry: Dict[str, Any],
                          seq: int) -> None:
        if entry["preprepare"] is not None:
            self.send(dst, Message("PrePrepare", dict(entry["preprepare"])))
            self.retransmissions_sent += 1
        if self.index in entry["prepares"] and not self.is_primary:
            self.send(dst, Message("Prepare", {
                "view": entry["view"], "seq": seq, "digest": entry["digest"],
                "replica": self.index,
                "sig": self.auth.sign(entry["view"], seq, entry["digest"],
                                      self.index),
            }))
            self.retransmissions_sent += 1
        if self.index in entry["commits"]:
            self.send(dst, Message("Commit", {
                "view": entry["view"], "seq": seq, "digest": entry["digest"],
                "replica": self.index,
                "sig": self.auth.sign(entry["view"], seq, entry["digest"],
                                      self.index),
            }))
            self.retransmissions_sent += 1

    # View change -------------------------------------------------------------

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.vc_sent_for:
            return
        self.vc_sent_for = new_view
        self.in_view_change = True
        prepared_count = sum(1 for e in self.log.values() if e["prepared"])
        msg = Message("ViewChange", {
            "new_view": new_view, "last_stable": self.stable_seq,
            "nprepared": prepared_count,
            "ncheckpoints": len(self.checkpoint_votes),
            "replica": self.index,
            "sig": self.auth.sign(new_view, self.stable_seq, self.index),
        })
        self.broadcast(msg)
        self._record_vc(new_view, self.index)
        # keep a timer running so a failed view change escalates
        self.set_timer(PROGRESS_TIMER, self.config.recovery_timeout)

    def _on_viewchange(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaws: both certificate sizes are trusted --
        self.unchecked_alloc(msg["nprepared"], "prepared certificates")
        self.native_assert(msg["ncheckpoints"] >= 0,
                           "checkpoint certificate count non-negative")
        self.unchecked_alloc(msg["ncheckpoints"], "checkpoint certificates")
        if not self.check_auth(msg["sig"], msg["new_view"],
                               msg["last_stable"], msg["replica"]):
            return
        nv = msg["new_view"]
        if nv <= self.view and not (nv == self.view and self.in_view_change):
            return
        self._record_vc(nv, msg["replica"])

    def _record_vc(self, new_view: int, voter: int) -> None:
        votes = self.vc_votes.setdefault(new_view, [])
        add_vote(votes, voter)
        # join rule: f+1 view changes for a higher view pull us along
        if (len(votes) >= self.config.f + 1
                and new_view > self.vc_sent_for):
            self._start_view_change(new_view)
        if (len(votes) >= self.config.quorum
                and self.primary_of(new_view) == self.node_id
                and new_view > self.view):
            self.broadcast(Message("NewView", {
                "view": new_view, "nvc": len(votes), "primary": self.index,
                "sig": self.auth.sign(new_view, self.index),
            }))
            self._enter_view(new_view)

    def _on_newview(self, src: NodeId, msg: Message) -> None:
        view = msg["view"]
        if view < self.view:
            return
        if msg["nvc"] < self.config.quorum:
            return  # malformed: not enough view-change proof
        if src != self.primary_of(view):
            return
        if not self.check_auth(msg["sig"], view, msg["primary"]):
            return
        self._enter_view(view)

    def _enter_view(self, view: int) -> None:
        self.view = view
        self.in_view_change = False
        self.cancel_timer(PROGRESS_TIMER)
        if self.is_primary:
            self.next_seq = max(self.next_seq, self.last_exec,
                                self.stable_seq)
            # Re-propose every pending, not-yet-executed request.
            for key, payload in sorted(self.pending.items()):
                if key not in self.assigned:
                    self._propose(key, payload)
        elif self.pending:
            self.set_timer(PROGRESS_TIMER, self.config.recovery_timeout)
