"""Zyzzyva client: fast path on 3f+1 speculative responses, slow path on
2f+1 plus a commit certificate round."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.common.ids import NodeId, replica
from repro.metrics.collector import UPDATE_DONE
from repro.systems.common.client import RETRY_TIMER, BaseClient
from repro.systems.common.replica import add_vote
from repro.wire.codec import Message

COMMIT_TIMER = "zyzzyva-commit"


class ZyzzyvaClient(BaseClient):
    """Speculative client with the fast/slow completion paths."""

    #: after the first SpecResponse, wait this long for the full 3f+1
    #: before falling back to the commit phase
    commit_wait = 0.0006

    STATE = BaseClient.STATE + (
        "known_view", "fast_completions", "slow_completions", "_spec_votes",
        "_spec_seq", "_commit_votes", "_committing")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.known_view = 0
        self.fast_completions = 0
        self.slow_completions = 0
        self._spec_votes: Dict[Any, List[int]] = {}
        self._spec_seq = 0
        self._commit_votes: List[int] = []
        self._committing = False

    def make_request(self, timestamp: int) -> Message:
        payload = f"update:{self.index}:{timestamp}".encode()
        return Message("Request", {
            "client": self.index, "timestamp": timestamp, "payload": payload,
            "sig": self.auth.sign(self.index, timestamp, payload),
        })

    def initial_targets(self) -> List[NodeId]:
        return [replica(self.known_view % self.config.n)]

    def classify_reply(self, src: NodeId, message: Message):
        return None  # replies handled directly in on_message

    def _issue_next(self) -> None:
        self._spec_votes.clear()
        self._commit_votes = []
        self._committing = False
        self.cancel_timer(COMMIT_TIMER)
        super()._issue_next()

    # ----------------------------------------------------------- responses

    def on_message(self, src: NodeId, message: Message) -> None:
        if message.type_name == "SpecResponse":
            self._on_spec_response(src, message)
        elif message.type_name == "LocalCommit":
            self._on_local_commit(src, message)

    def _on_spec_response(self, src: NodeId, msg: Message) -> None:
        if msg["client"] != self.index or msg["timestamp"] != self.timestamp:
            return
        self.known_view = max(self.known_view, msg["view"])
        key = (msg["hist"], bytes(msg["result"]))
        votes = self._spec_votes.setdefault(key, [])
        if msg["replica"] in votes:
            return
        votes.append(msg["replica"])
        self._spec_seq = msg["seq"]
        full = 3 * self.config.f + 1
        if len(votes) >= full:
            self._complete(fast=True)
        elif len(votes) >= self.config.quorum and not self._committing:
            # Enough for the slow path; give the fast path a brief chance.
            if not self.node.timer_pending(COMMIT_TIMER):
                self.set_timer(COMMIT_TIMER, self.commit_wait)

    def on_timer(self, name: str) -> None:
        if name == COMMIT_TIMER:
            self._start_commit_phase()
        else:
            super().on_timer(name)

    def _start_commit_phase(self) -> None:
        if self._committing:
            return
        best = max(self._spec_votes.values(), key=len, default=[])
        if len(best) < self.config.quorum:
            return  # keep waiting; the retry timer will re-drive
        self._committing = True
        self._commit_votes = []
        commit = Message("Commit", {
            "client": self.index, "cc_size": len(best),
            "view": self.known_view, "seq": self._spec_seq,
            "sig": self.auth.sign(self.index, self._spec_seq),
        })
        for i in range(self.config.n):
            self.send(replica(i), commit)

    def _on_local_commit(self, src: NodeId, msg: Message) -> None:
        if msg["client"] != self.index or not self._committing:
            return
        if msg["seq"] != self._spec_seq:
            return
        if add_vote(self._commit_votes, src.index) >= self.config.quorum:
            self._complete(fast=False)

    def _complete(self, fast: bool) -> None:
        if fast:
            self.fast_completions += 1
        else:
            self.slow_completions += 1
        self.cancel_timer(RETRY_TIMER)
        self.cancel_timer(COMMIT_TIMER)
        self.completed += 1
        self.node.emit_metric(UPDATE_DONE, self.now() - self.sent_at)
        self._issue_next()

    # ------------------------------------------------------------- snapshot

    def snapshot_state(self) -> Dict[str, Any]:
        # spec_votes is keyed by (history, result) and saved as pairs
        state = super().snapshot_state()
        state["spec_votes"] = list(state["spec_votes"].items())
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        super().restore_state(state)
        self._spec_votes = dict(self._spec_votes)
