"""PBFT client: closed loop, one outstanding request, f+1 matching replies."""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.common.ids import NodeId, replica
from repro.systems.common.client import BaseClient
from repro.wire.codec import Message


class PbftClient(BaseClient):
    """Tracks the current view from replies to aim requests at the primary."""

    STATE = BaseClient.STATE + ("known_view",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.known_view = 0

    def make_request(self, timestamp: int) -> Message:
        payload = f"update:{self.index}:{timestamp}".encode()
        return Message("Request", {
            "client": self.index, "timestamp": timestamp, "payload": payload,
            "sig": self.auth.sign(self.index, timestamp, payload),
        })

    def initial_targets(self) -> List[NodeId]:
        return [replica(self.known_view % self.config.n)]

    def classify_reply(self, src: NodeId,
                       message: Message) -> Optional[Tuple[int, Any]]:
        if message.type_name != "Reply":
            return None
        if message["client"] != self.index:
            return None
        self.known_view = max(self.known_view, message["view"])
        return (message["timestamp"], bytes(message["result"]))
