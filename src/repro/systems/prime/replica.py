"""Prime replica — pre-ordering BFT with leader monitoring (Amir et al.).

Sub-protocols:

* **Pre-ordering** — a replica receiving a client request broadcasts a
  PORequest under its own pre-order sequence; peers acknowledge (POAck);
  2f+1 acks make the request *eligible*.
* **Summaries** — every ``summary_interval`` each replica broadcasts a
  POSummary: the vector of highest contiguous pre-order sequences it has
  acknowledged per originator.
* **Ordering** — the leader periodically covers newly summarized requests
  with a PrePrepare carrying the summary matrix; Prepare/Commit/execute as
  in PBFT.
* **Suspect-leader** — a replica with an eligible-but-uncovered request
  runs a turnaround-time (TAT) timer; PrePrepares that advance the ordering
  reset it; expiry broadcasts SuspectLeader, and f+1 suspicions rotate the
  leader.

Intentional implementation flaws found by Turret in the real codebase:

* the leader waits for summaries from **all** n replicas instead of a
  quorum, so one replica withholding POSummary halts ordering "even if a
  quorum existed";
* a PrePrepare whose sequence number is *not newer* still resets the TAT
  timer, so a leader lying seq backwards stalls the system while keeping
  the suspect-leader protocol from ever firing;
* sequence number 0 indexes ``history[seq - 1]`` (the start-at-1 bug);
* ``PORequest.len``, ``POSummary.nentries`` and ``PrePrepare.summary_count``
  are trusted allocation sizes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.common.ids import NodeId, client, replica
from repro.systems.common.auth import Authenticator
from repro.systems.common.config import BftConfig
from repro.systems.common.replica import BaseReplica, add_vote, digest_of
from repro.wire.codec import Message

SUMMARY_TIMER = "po-summary"
ORDER_TIMER = "leader-order"
TAT_TIMER = "tat"


def _encode_vec(vec: Dict[int, int]) -> bytes:
    return json.dumps({str(k): v for k, v in sorted(vec.items())}).encode()


def _decode_vec(data: bytes) -> Dict[int, int]:
    return {int(k): v for k, v in json.loads(data.decode()).items()}


class PrimeReplica(BaseReplica):
    """One Prime replica."""

    #: period of POSummary broadcasts and of the leader's ordering pass
    summary_interval = 0.02
    #: turnaround-time bound before the leader is suspected
    tat_threshold = 0.5

    STATE = BaseReplica.STATE + (
        "po_next", "po_log", "acked_upto", "summaries", "ordered_upto",
        "last_pp_seq", "order_log", "last_exec", "reply_cache", "suspects",
        "executed_count", "covered_upto")

    def __init__(self, index: int, config: BftConfig,
                 auth: Optional[Authenticator] = None) -> None:
        super().__init__(index, config, auth)
        self.po_next = 0                      # my own pre-order sequence
        # (originator, po seq) -> {"timestamp","client","payload","acks",
        #                          "eligible"}
        self.po_log: Dict[Tuple[int, int], Dict[str, Any]] = {}
        # originator -> highest contiguous po seq I have acked
        self.acked_upto: Dict[int, int] = {i: 0 for i in range(config.n)}
        # replica -> its last summary vector
        self.summaries: Dict[int, Dict[int, int]] = {}
        # originator -> highest po seq covered by an executed pre-prepare
        self.ordered_upto: Dict[int, int] = {i: 0 for i in range(config.n)}
        self.last_pp_seq = 0                  # leader's and receivers' cursor
        # ordering instances: seq -> PBFT-ish entry
        self.order_log: Dict[int, Dict[str, Any]] = {}
        self.last_exec = 0
        self.reply_cache: Dict[int, int] = {}
        self.suspects: Dict[int, List[int]] = {}   # view -> suspecting replicas
        self.executed_count = 0
        # leader only: originator -> highest po seq already covered by an
        # emitted PrePrepare (ordering may still be in flight)
        self.covered_upto: Dict[int, int] = {i: 0 for i in range(config.n)}

    # ---------------------------------------------------------------- start

    def on_start(self) -> None:
        self.set_timer(SUMMARY_TIMER, self.summary_interval, periodic=True)
        self.set_timer(ORDER_TIMER, self.summary_interval, periodic=True)

    def on_timer(self, name: str) -> None:
        if name == SUMMARY_TIMER:
            self._send_summary()
        elif name == ORDER_TIMER:
            if self.is_primary:
                self._leader_order()
        elif name == TAT_TIMER:
            self._suspect_leader()

    # Pre-ordering -----------------------------------------------------------

    def _on_request(self, src: NodeId, msg: Message) -> None:
        cli, ts = msg["client"], msg["timestamp"]
        if self.reply_cache.get(cli, 0) >= ts:
            return
        # dedup: do not pre-order the same (client, ts) twice
        for entry in self.po_log.values():
            if entry["client"] == cli and entry["timestamp"] == ts:
                return
        self.po_next += 1
        payload = msg["payload"]
        fields = {
            "originator": self.index, "seq": self.po_next,
            "len": len(payload), "timestamp": ts, "client": cli,
            "payload": payload,
            "sig": self.auth.sign(self.index, self.po_next, ts),
        }
        self._store_po(self.index, self.po_next, fields)
        self.broadcast(Message("PORequest", fields))
        self._ack(self.index, self.po_next, self.index)

    def _store_po(self, originator: int, seq: int,
                  fields: Dict[str, Any]) -> None:
        key = (originator, seq)
        entry = self.po_log.setdefault(key, {
            "timestamp": 0, "client": 0, "payload": b"", "acks": [],
            "eligible": False})
        entry.update(timestamp=fields["timestamp"], client=fields["client"],
                     payload=fields["payload"])
        if seq == self.acked_upto.get(originator, 0) + 1:
            self.acked_upto[originator] = seq

    def _on_porequest(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: request length trusted from the wire --
        self.unchecked_alloc(msg["len"], "pre-order request buffer")
        if not self.check_auth(msg["sig"], msg["originator"], msg["seq"],
                               msg["timestamp"]):
            return
        self._store_po(msg["originator"], msg["seq"], dict(msg))
        ack = Message("POAck", {
            "originator": msg["originator"], "seq": msg["seq"],
            "replica": self.index,
            "sig": self.auth.sign(msg["originator"], msg["seq"], self.index),
        })
        self.broadcast(ack)
        self._ack(msg["originator"], msg["seq"], self.index)

    def _on_poack(self, src: NodeId, msg: Message) -> None:
        if not self.check_auth(msg["sig"], msg["originator"], msg["seq"],
                               msg["replica"]):
            return
        self._ack(msg["originator"], msg["seq"], msg["replica"])

    def _ack(self, originator: int, seq: int, voter: int) -> None:
        entry = self.po_log.get((originator, seq))
        if entry is None:
            return
        if add_vote(entry["acks"], voter) >= self.config.quorum:
            entry["eligible"] = True
            self._arm_tat()

    def _arm_tat(self) -> None:
        if self._has_uncovered_eligible() and not self.node.timer_pending(
                TAT_TIMER):
            self.set_timer(TAT_TIMER, self.tat_threshold)

    def _flawed_coverage(self) -> Optional[Dict[int, int]]:
        """Coverage each originator could be ordered up to — as the real
        implementation computes it.

        -- intentional flaw: the minimum across ALL n summaries is used
        instead of the 2f+1-th highest value, and the same helper backs
        both the leader's ordering pass and the TAT monitor's notion of
        "the leader could have ordered this".  One replica freezing its
        POSummary therefore halts ordering AND keeps every monitor from
        suspecting the leader — "a quorum could not be formed even if one
        existed".
        """
        if len(self.summaries) < self.config.n:
            return None
        return {originator: min(vec.get(originator, 0)
                                for vec in self.summaries.values())
                for originator in range(self.config.n)}

    def _has_uncovered_eligible(self) -> bool:
        coverage = self._flawed_coverage()
        if coverage is None:
            return False
        return any(upto > self.ordered_upto.get(originator, 0)
                   for originator, upto in coverage.items())

    # Summaries ---------------------------------------------------------------

    def _send_summary(self) -> None:
        # The periodic pass doubles as the leader monitor's evaluation
        # point: (re)arm the TAT timer if coverable work sits unordered.
        self._arm_tat()
        vec = dict(self.acked_upto)
        msg = Message("POSummary", {
            "replica": self.index, "nentries": len(vec),
            "vec": _encode_vec(vec),
            "sig": self.auth.sign(self.index, tuple(sorted(vec.items()))),
        })
        self.broadcast(msg)
        self.summaries[self.index] = vec

    def _on_posummary(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: entry count trusted from the wire --
        self.unchecked_alloc(msg["nentries"], "summary entries")
        vec = _decode_vec(msg["vec"])
        if not self.check_auth(msg["sig"], msg["replica"],
                               tuple(sorted(vec.items()))):
            return
        self.summaries[msg["replica"]] = vec

    # Ordering ---------------------------------------------------------------

    def _leader_order(self) -> None:
        coverage = self._flawed_coverage()
        if coverage is None:
            return
        # Prime's leader emits a PrePrepare every ordering interval whether
        # or not the matrix advanced -- the fixed cadence is what the
        # turnaround-time monitor measures.  (This periodicity is also what
        # the seq-lying attack abuses: a stream of "old" sequence numbers
        # keeps resetting every monitor without ordering anything.)
        for o, upto in coverage.items():
            self.covered_upto[o] = max(self.covered_upto.get(o, 0), upto)
        matrix = _encode_vec(coverage)
        digest = digest_of(matrix)
        self.last_pp_seq += 1
        fields = {
            "view": self.view, "seq": self.last_pp_seq,
            "summary_count": len(self.summaries), "digest": digest,
            "matrix": matrix,
            "sig": self.auth.sign(self.view, self.last_pp_seq, digest),
        }
        entry = self._order_entry(self.last_pp_seq)
        entry.update(digest=digest, matrix=matrix, view=self.view)
        entry["prepares"].append(self.index)
        self.broadcast(Message("PrePrepare", fields))
        self._check_order_quorums(self.last_pp_seq)

    def _order_entry(self, seq: int) -> Dict[str, Any]:
        entry = self.order_log.get(seq)
        if entry is None:
            entry = {"digest": None, "matrix": None, "view": self.view,
                     "prepares": [], "commits": [], "commit_sent": False,
                     "executed": False}
            self.order_log[seq] = entry
        return entry

    def _on_preprepare(self, src: NodeId, msg: Message) -> None:
        # -- intentional flaw: summary count trusted from the wire --
        self.unchecked_alloc(msg["summary_count"], "summary references")
        seq = msg["seq"]
        # -- intentional flaw: sequence numbers start at 1; seq 0 indexes
        # history[-1] in the C implementation --
        history_len = max(self.last_pp_seq, 1)
        self.unchecked_index(seq - 1, max(history_len, seq), "pp history")
        if src != self.primary_of(self.view):
            return
        if not self.check_auth(msg["sig"], msg["view"], seq, msg["digest"]):
            return
        if seq <= self.last_pp_seq:
            # -- intentional flaw: an old (or replayed) PrePrepare still
            # counts as leader progress, resetting the TAT timer.  A leader
            # lying its sequence numbers backwards therefore stalls
            # ordering while never being suspected.
            self.cancel_timer(TAT_TIMER)
            self._arm_tat_later()
            return
        self.last_pp_seq = seq
        self.cancel_timer(TAT_TIMER)
        entry = self._order_entry(seq)
        entry.update(digest=msg["digest"], matrix=msg["matrix"],
                     view=msg["view"])
        add_vote(entry["prepares"], src.index)
        add_vote(entry["prepares"], self.index)
        self.broadcast(Message("Prepare", {
            "view": msg["view"], "seq": seq, "digest": msg["digest"],
            "replica": self.index,
            "sig": self.auth.sign(msg["view"], seq, msg["digest"],
                                  self.index),
        }))
        self._check_order_quorums(seq)

    def _arm_tat_later(self) -> None:
        if self._has_uncovered_eligible():
            self.set_timer(TAT_TIMER, self.tat_threshold)

    def _on_prepare(self, src: NodeId, msg: Message) -> None:
        if msg["view"] != self.view:
            return
        add_vote(self._order_entry(msg["seq"])["prepares"], msg["replica"])
        self._check_order_quorums(msg["seq"])

    def _on_commit(self, src: NodeId, msg: Message) -> None:
        if msg["view"] != self.view:
            return
        add_vote(self._order_entry(msg["seq"])["commits"], msg["replica"])
        self._check_order_quorums(msg["seq"])

    def _check_order_quorums(self, seq: int) -> None:
        entry = self.order_log.get(seq)
        if entry is None or entry["digest"] is None:
            return
        if (len(entry["prepares"]) >= self.config.quorum
                and not entry["commit_sent"]):
            entry["commit_sent"] = True
            add_vote(entry["commits"], self.index)
            self.broadcast(Message("Commit", {
                "view": entry["view"], "seq": seq, "digest": entry["digest"],
                "replica": self.index,
                "sig": self.auth.sign(entry["view"], seq, self.index),
            }))
        if (len(entry["commits"]) >= self.config.quorum
                and entry["commit_sent"]):
            self._try_execute()

    def _try_execute(self) -> None:
        while True:
            entry = self.order_log.get(self.last_exec + 1)
            if (entry is None or entry["executed"]
                    or len(entry["commits"]) < self.config.quorum
                    or entry["matrix"] is None):
                break
            self.last_exec += 1
            entry["executed"] = True
            self._execute_matrix(_decode_vec(entry["matrix"]))
        if not self._has_uncovered_eligible():
            self.cancel_timer(TAT_TIMER)

    def _execute_matrix(self, coverage: Dict[int, int]) -> None:
        for originator in sorted(coverage):
            upto = coverage[originator]
            start = self.ordered_upto.get(originator, 0)
            for seq in range(start + 1, upto + 1):
                po = self.po_log.get((originator, seq))
                if po is None:
                    continue
                self.executed_count += 1
                cli, ts = po["client"], po["timestamp"]
                if self.reply_cache.get(cli, 0) >= ts:
                    continue
                self.reply_cache[cli] = ts
                result = digest_of(po["payload"])[:8]
                self.send(client(cli), Message("Reply", {
                    "timestamp": ts, "client": cli, "replica": self.index,
                    "result": result,
                    "sig": self.auth.sign(ts, cli, self.index),
                }))
            self.ordered_upto[originator] = max(start, upto)

    # Suspect-leader -----------------------------------------------------------

    def _suspect_leader(self) -> None:
        msg = Message("SuspectLeader", {
            "view": self.view, "replica": self.index,
            "tat": self.tat_threshold,
            "sig": self.auth.sign(self.view, self.index),
        })
        self.broadcast(msg)
        self._record_suspect(self.view, self.index)
        self.set_timer(TAT_TIMER, self.tat_threshold)

    def _on_suspectleader(self, src: NodeId, msg: Message) -> None:
        if msg["view"] != self.view:
            return
        if not self.check_auth(msg["sig"], msg["view"], msg["replica"]):
            return
        self._record_suspect(msg["view"], msg["replica"])

    def _record_suspect(self, view: int, voter: int) -> None:
        votes = self.suspects.setdefault(view, [])
        if add_vote(votes, voter) >= self.config.f + 1 and view == self.view:
            self.view += 1
            self.last_pp_seq = self.last_exec
            self.covered_upto = dict(self.ordered_upto)
            self.broadcast(Message("NewLeader", {
                "view": self.view, "replica": self.index,
                "sig": self.auth.sign(self.view, self.index),
            }))
            self._arm_tat_later()

    def _on_newleader(self, src: NodeId, msg: Message) -> None:
        if msg["view"] > self.view:
            self.view = msg["view"]
            self.last_pp_seq = self.last_exec
            self.covered_upto = dict(self.ordered_upto)
            self._arm_tat_later()

    # ------------------------------------------------------------- snapshot

    def snapshot_state(self) -> Dict[str, Any]:
        # po_log is keyed by (originator, po seq) and saved as "o:s"
        state = super().snapshot_state()
        state["po_log"] = {f"{o}:{s}": entry
                           for (o, s), entry in state["po_log"].items()}
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        super().restore_state(state)
        self.po_log = {tuple(map(int, key.split(":"))): entry
                       for key, entry in self.po_log.items()}
