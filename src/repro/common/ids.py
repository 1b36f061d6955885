"""Identifier types used across the platform.

Node identifiers are small integers (as in the BFT literature where replicas
are numbered 0..n-1); the helpers here wrap them with roles so log output and
assertions stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict


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

    #: ``str(self)``, read through a C getter: per-message code compares
    #: and keys hosts by it with no Python call
    name = property(attrgetter("_name"))

    def __str__(self) -> str:
        return self._name


class _Interned(dict):
    """index -> the one shared :class:`NodeId` of one role, so per-message
    code builds no ids and lookups match by identity before ``__eq__``.
    Equality and hashing never depend on it (an unpickled id is another
    object).  Only small indices are kept: lies cannot grow the table."""

    LIMIT = 1 << 12

    def __init__(self, role: str) -> None:
        super().__init__()
        self.role = role

    def __missing__(self, index: int) -> NodeId:
        node = NodeId(index, self.role)
        if type(index) is int and 0 <= index < self.LIMIT:
            self[index] = node
        return node


_ROLES: Dict[str, _Interned] = {}


def node_id(index: int, role: str = "replica") -> NodeId:
    """The shared ``NodeId(index, role)`` (what record loaders use)."""
    table = _ROLES.get(role)
    if table is None:
        table = _ROLES[role] = _Interned(role)
    return table[index]


_REPLICAS = _ROLES["replica"] = _Interned("replica")
_CLIENTS = _ROLES["client"] = _Interned("client")


def replica(i: int) -> NodeId:
    return _REPLICAS[i]


def client(i: int) -> NodeId:
    return _CLIENTS[i]


@dataclass(frozen=True, order=True)
class FlowId:
    """A unidirectional application-level flow between two nodes."""

    src: NodeId
    dst: NodeId

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.src}->{self.dst}"
