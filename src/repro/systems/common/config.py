"""Shared configuration for the BFT systems under test."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class BftConfig:
    """Sizing and timing of one BFT deployment.

    The defaults mirror the paper's evaluation: f = 1 (4 replicas), one
    closed-loop client, recovery timers of 5 seconds ("the systems we tested
    had timers of 5 seconds to start their recovery protocols"), and digital
    signature verification off ("in order to explore lying attacks ... we
    turn off the verification of digital signatures").
    """

    f: int = 1
    clients: int = 1
    verify_signatures: bool = False
    #: client retransmits an unanswered request after this many seconds
    client_retry: float = 0.15
    #: replica progress timer before starting the recovery protocol
    recovery_timeout: float = 5.0
    #: period of the status/keepalive protocol
    status_interval: float = 0.5
    #: executions between checkpoints
    checkpoint_interval: int = 256
    #: most missing sequence numbers a status reply will retransmit
    retransmit_window: int = 400

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ConfigError("f must be at least 1")
        if self.clients < 1:
            raise ConfigError("need at least one client")

    @property
    def n(self) -> int:
        """Replica count for the classic 3f+1 bound."""
        return 3 * self.f + 1

    @property
    def quorum(self) -> int:
        """2f+1, the intersection quorum."""
        return 2 * self.f + 1

    @property
    def reply_quorum(self) -> int:
        """f+1 matching replies convince a client."""
        return self.f + 1
