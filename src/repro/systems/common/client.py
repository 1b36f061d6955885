"""Closed-loop BFT client.

The paper's evaluation uses one client that does not pipeline requests: it
issues an update, waits for f+1 matching replies, records the completed
update (the platform's performance metric), and immediately issues the next
one.  If replies do not arrive before the retry timer, the request is
retransmitted to *all* replicas — which is also what lets backups learn of a
request a faulty primary is sitting on and start their recovery timers.

Concrete systems subclass and provide the request/reply message formats.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.common.ids import NodeId, replica
from repro.metrics.collector import UPDATE_DONE
from repro.runtime.app import Application
from repro.systems.common.auth import Authenticator
from repro.systems.common.config import BftConfig
from repro.systems.common.replica import add_vote
from repro.wire.codec import Message

RETRY_TIMER = "client-retry"


class BaseClient(Application):
    """Closed-loop client issuing one update at a time."""

    STATE = ("index", "timestamp", "sent_at", "retries", "completed",
             "_reply_votes")

    def __init__(self, index: int, config: BftConfig,
                 auth: Optional[Authenticator] = None) -> None:
        super().__init__()
        self.index = index
        self.config = config
        self.auth = auth or Authenticator("shared-system-key")
        self.timestamp = 0
        self.sent_at = 0.0
        self.retries = 0
        self.completed = 0
        # reply bookkeeping: result key -> set of replica indices
        self._reply_votes: Dict[Any, List[int]] = {}

    # ------------------------------------------------- hooks for subclasses

    def make_request(self, timestamp: int) -> Message:
        """Build this system's request message."""
        raise NotImplementedError

    def initial_targets(self) -> List[NodeId]:
        """Where the first transmission of a request goes (often the primary)."""
        return [replica(0)]

    def retry_targets(self) -> List[NodeId]:
        """Where retransmissions go (usually every replica)."""
        return [replica(i) for i in range(self.config.n)]

    def classify_reply(self, src: NodeId,
                       message: Message) -> Optional[Tuple[int, Any]]:
        """Return (timestamp, result key) if ``message`` is a reply, else None."""
        raise NotImplementedError

    def reply_quorum(self) -> int:
        return self.config.reply_quorum

    # --------------------------------------------------------------- driver

    def on_start(self) -> None:
        self._issue_next()

    def _issue_next(self) -> None:
        self.timestamp += 1
        self.sent_at = self.now()
        self._reply_votes.clear()
        request = self.make_request(self.timestamp)
        for target in self.initial_targets():
            self.send(target, request)
        self.set_timer(RETRY_TIMER, self.config.client_retry)

    def on_timer(self, name: str) -> None:
        if name != RETRY_TIMER:
            return
        self.retries += 1
        request = self.make_request(self.timestamp)
        for target in self.retry_targets():
            self.send(target, request)
        self.set_timer(RETRY_TIMER, self.config.client_retry)

    def on_message(self, src: NodeId, message: Message) -> None:
        classified = self.classify_reply(src, message)
        if classified is None:
            return
        timestamp, result_key = classified
        if timestamp != self.timestamp:
            return  # stale reply for an already-completed update
        votes = self._reply_votes.setdefault(result_key, [])
        if add_vote(votes, src.index) >= self.reply_quorum():
            self.cancel_timer(RETRY_TIMER)
            self.completed += 1
            latency = self.now() - self.sent_at
            self.node.emit_metric(UPDATE_DONE, latency)
            self._issue_next()
