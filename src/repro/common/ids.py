"""Identifier types used across the platform.

Node identifiers are small integers (as in the BFT literature where replicas
are numbered 0..n-1); the helpers here wrap them with roles so log output and
assertions stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class NodeId:
    """Identity of a participant in the distributed system under test.

    Node ids key every host table and tag every message, so the two things
    done with them per message are cheap: the hash is the index (never a
    cached ``str`` hash — that would go stale in a process with another
    hash seed) and the name is formatted once, at construction.
    """

    index: int
    role: str = "replica"
    _name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_name", f"{self.role}{self.index}")

    def __hash__(self) -> int:
        return hash(self.index)

    def __str__(self) -> str:
        return self._name


def replica(i: int) -> NodeId:
    return NodeId(i, "replica")


def client(i: int) -> NodeId:
    return NodeId(i, "client")


@dataclass(frozen=True, order=True)
class FlowId:
    """A unidirectional application-level flow between two nodes."""

    src: NodeId
    dst: NodeId

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.src}->{self.dst}"
