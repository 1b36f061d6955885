"""Application base class for systems under test.

A target system participant subclasses :class:`Application` and implements
the message-event model of Section II-A: it reacts to delivered messages and
timer expirations, sends messages through its node runtime, and never shares
memory with other participants.

Contract for execution branching: declare the *entire* protocol state as
the attribute names of the class-level :attr:`Application.STATE` tuple,
extending the parent's.  ``snapshot_state`` saves them, in that order, as a
dict of plain picklable data and ``restore_state`` reads them back, both
through :func:`copy_state`, so neither side aliases the other.  Only a field
whose saved form differs from its live form (a tuple-keyed dict saved with
string keys, say) needs a ``snapshot_state``/``restore_state`` override,
rewriting that one entry after the base method ran.  Guest app pages are
``pickle.dumps(node.snapshot_state())``, so key order and container types
are part of every stored snapshot (``tests/test_system_state.py`` pins them
per system), and every system's tests include a branch-determinism check
that fails if a field is forgotten.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.common.ids import NodeId
from repro.wire.codec import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.node import Node

_CONTAINERS = frozenset((dict, list, tuple))


def copy_state(value: Any) -> Any:
    """Copy the dict/list/tuple structure of ``value``, sharing everything
    else.

    Dict keys and leaves are never copied: pickle memoizes an object it
    meets twice (a request key used by two tables, a payload held by a log
    entry and its pre-prepare), so copying one would change the saved bytes.
    """
    kind = type(value)
    if kind is dict:
        copied = value.copy()
        for key, item in value.items():
            if type(item) in _CONTAINERS:
                copied[key] = copy_state(item)
        return copied
    if kind is list:
        return [copy_state(item) if type(item) in _CONTAINERS else item
                for item in value]
    if kind is tuple:
        return tuple([copy_state(item) if type(item) in _CONTAINERS else item
                      for item in value])
    return value


class Application:
    """Base class for the per-node logic of a system under test."""

    #: attribute names making up the protocol state, in saved order; a
    #: leading underscore is not part of the saved key
    STATE: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.node: "Node" = None  # injected by Node.attach

    # ---------------------------------------------------------------- hooks

    def on_start(self) -> None:
        """Called once when the node boots."""

    def on_message(self, src: NodeId, message: Message) -> None:
        """Called when a message has been delivered and processed by the CPU."""

    def on_timer(self, name: str) -> None:
        """Called when the named timer expires."""

    def on_ingress(self, src: NodeId, size: int) -> bool:
        """Admission control before any CPU is spent on a message.

        Robust systems (Aardvark) isolate per-sender resources; returning
        False drops the message for a token cost instead of letting it
        consume full processing.  Default: accept everything.
        """
        return True

    # ------------------------------------------------------------ utilities

    @property
    def node_id(self) -> NodeId:
        return self.node.node_id

    def now(self) -> float:
        return self.node.now()

    def send(self, dst: NodeId, message: Message) -> None:
        self.node.send(dst, message)

    def broadcast(self, message: Message) -> None:
        self.node.broadcast(message)

    def set_timer(self, name: str, delay: float, periodic: bool = False) -> None:
        self.node.set_timer(name, delay, periodic)

    def cancel_timer(self, name: str) -> None:
        self.node.cancel_timer(name)

    # -------------------------------------------------------------- snapshot

    def snapshot_state(self) -> Dict[str, Any]:
        """Return the full protocol state (:attr:`STATE`) as plain data."""
        return {attr.lstrip("_"): copy_state(getattr(self, attr))
                for attr in self.STATE}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Rebuild protocol state from :meth:`snapshot_state` output."""
        for attr in self.STATE:
            setattr(self, attr, copy_state(state[attr.lstrip("_")]))
