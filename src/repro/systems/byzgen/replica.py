"""Byzantine Generals — OM(1) oral-messages agreement (classroom target).

One commander (replica 0) starts a new agreement round every
``round_interval``: it broadcasts an Order carrying the round's value.  Each
lieutenant relays the order it received to its peers and decides by majority
over {order, relays} once it holds n-1 votes (or when the round's collect
timer expires with at least two matching votes).  A decided round counts as
one completed update for the platform's performance metric.

Student-grade robustness: a round whose votes never arrive simply never
decides — there is no retransmission — so delaying or dropping Order
messages starves agreement, which is exactly what the course assignments
were tested against.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.common.ids import NodeId, replica
from repro.metrics.collector import UPDATE_DONE
from repro.systems.common.replica import Replica
from repro.wire.codec import Message

ROUND_TIMER = "round"
COLLECT_TIMER_PREFIX = "collect:"


class ByzGeneralsConfig:
    def __init__(self, n: int = 4, round_interval: float = 0.05,
                 collect_timeout: float = 0.02) -> None:
        self.n = n
        self.round_interval = round_interval
        self.collect_timeout = collect_timeout

    @property
    def majority(self) -> int:
        return (self.n - 1) // 2 + 1


class ByzGeneral(Replica):
    """One general: commander when index 0, lieutenant otherwise."""

    STATE = Replica.STATE + ("round", "rounds", "decisions")

    def __init__(self, index: int, config: ByzGeneralsConfig) -> None:
        super().__init__(index, config)
        self.round = 0
        # round -> {"votes": [values], "started": float, "decided": bool}
        self.rounds: Dict[int, Dict[str, Any]] = {}
        self.decisions = 0

    @property
    def is_commander(self) -> bool:
        return self.index == 0

    def lieutenants(self) -> List[NodeId]:
        return [replica(i) for i in range(1, self.config.n)]

    # ---------------------------------------------------------------- rounds

    def on_start(self) -> None:
        if self.is_commander:
            self.set_timer(ROUND_TIMER, self.config.round_interval,
                           periodic=True)

    def on_timer(self, name: str) -> None:
        if name == ROUND_TIMER:
            self.round += 1
            value = self.round % 2  # attack or retreat, alternating
            order = Message("Order", {
                "round": self.round, "value": value, "commander": self.index,
                "sent_at": int(self.now() * 1_000_000)})
            for lt in self.lieutenants():
                self.send(lt, order)
        elif name.startswith(COLLECT_TIMER_PREFIX):
            self._conclude(int(name[len(COLLECT_TIMER_PREFIX):]))

    def _round_entry(self, round_no: int) -> Dict[str, Any]:
        entry = self.rounds.get(round_no)
        if entry is None:
            entry = {"votes": [], "started": self.now(), "decided": False,
                     "order_at": 0.0}
            self.rounds[round_no] = entry
        return entry

    # The commander does not vote: it ignores orders and relays.

    def _on_order(self, src: NodeId, message: Message) -> None:
        if self.is_commander or src != replica(0):
            return
        entry = self._round_entry(message["round"])
        entry["order_at"] = message["sent_at"] / 1_000_000
        entry["votes"].append(message["value"])
        relay = Message("Relay", {
            "round": message["round"], "value": message["value"],
            "relayer": self.index})
        for peer in self.lieutenants():
            if peer != self.node_id:
                self.send(peer, relay)
        self._maybe_decide(message["round"])
        self.set_timer(COLLECT_TIMER_PREFIX + str(message["round"]),
                       self.config.collect_timeout)

    def _on_relay(self, src: NodeId, message: Message) -> None:
        if self.is_commander:
            return
        entry = self._round_entry(message["round"])
        entry["votes"].append(message["value"])
        self._maybe_decide(message["round"])

    def _maybe_decide(self, round_no: int) -> None:
        entry = self.rounds.get(round_no)
        if entry is None or entry["decided"]:
            return
        if len(entry["votes"]) >= self.config.n - 1:
            self._decide(round_no, entry)

    def _conclude(self, round_no: int) -> None:
        """Collect timer expiry: decide if a majority agrees, else abort."""
        entry = self.rounds.get(round_no)
        if entry is None or entry["decided"]:
            return
        counts: Dict[int, int] = {}
        for v in entry["votes"]:
            counts[v] = counts.get(v, 0) + 1
        if counts and max(counts.values()) >= self.config.majority:
            self._decide(round_no, entry)
        # else: the round is aborted; no update completes

    def _decide(self, round_no: int, entry: Dict[str, Any]) -> None:
        entry["decided"] = True
        self.decisions += 1
        self.cancel_timer(COLLECT_TIMER_PREFIX + str(round_no))
        start = entry["order_at"] or entry["started"]
        self.node.emit_metric(UPDATE_DONE, max(0.0, self.now() - start))
        # keep memory bounded
        for old in [r for r in self.rounds if r < round_no - 64]:
            del self.rounds[old]
