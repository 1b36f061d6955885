"""Base replica with the helpers every BFT system here shares.

This includes the *intentional implementation flaws* the paper's lying
attacks exploit.  Real BFT codebases trusted wire integers in exactly this
way — "the implementation trusts that these values will always be positive
and does no error checking before utilizing the values" (Section V-B) — so
each system calls :meth:`unchecked_alloc` / :meth:`unchecked_index` on the
size-like fields the paper names, and those helpers fault the way the C++
originals did.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import AssertionViolation, SegmentationFault
from repro.common.ids import NodeId, replica
from repro.runtime.app import Application
from repro.systems.common.auth import Authenticator
from repro.systems.common.config import BftConfig
from repro.wire.codec import Message

#: an allocation beyond this (in "elements") would exhaust the guest's RAM
ALLOC_LIMIT = 1 << 27


def digest_of(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=32).digest()


def add_vote(votes: List[int], voter: int) -> int:
    """Count ``voter`` once in ``votes`` and return how many have voted.

    Votes stay a list, in arrival order: they are saved state, and a set
    would change the saved bytes.
    """
    if voter not in votes:
        votes.append(voter)
    return len(votes)


class Replica(Application):
    """A numbered group member whose message handlers are ``_on_<type>``
    methods (``_on_preprepare`` handles ``PrePrepare``).

    Each class gets one dispatch table when it is defined, so an override in
    a subclass replaces its parent's handler; a message type with no handler
    is ignored.  Lookups are cached per exact type name, so each name is
    lower-cased once per class.
    """

    STATE = ("index",)
    _handlers: Dict[str, Callable[..., None]] = {}
    _by_type: Dict[str, Optional[Callable[..., None]]] = {}

    def __init__(self, index: int, config: Any) -> None:
        super().__init__()
        self.index = index
        self.config = config

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {name[len("_on_"):]: getattr(cls, name)
                         for name in dir(cls) if name.startswith("_on_")}
        cls._by_type = {}

    def on_message(self, src: NodeId, message: Message) -> None:
        name = message.type_name
        by_type = self._by_type
        if name in by_type:
            handler = by_type[name]
        else:
            handler = by_type[name] = self._handlers.get(name.lower())
        if handler is not None:
            handler(self, src, message)


class BaseReplica(Replica):
    """Common machinery: view arithmetic, auth, and the unsafe helpers."""

    STATE = Replica.STATE + ("view",)

    def __init__(self, index: int, config: BftConfig,
                 auth: Optional[Authenticator] = None) -> None:
        super().__init__(index, config)
        self.auth = auth or Authenticator("shared-system-key")
        self.view = 0

    # ----------------------------------------------------- view arithmetic

    def primary_of(self, view: int) -> NodeId:
        return replica(view % self.config.n)

    @property
    def primary(self) -> NodeId:
        return self.primary_of(self.view)

    @property
    def is_primary(self) -> bool:
        return self.primary == self.node_id

    def replica_ids(self) -> List[NodeId]:
        return [replica(i) for i in range(self.config.n)]

    # -------------------------------------------------------- authentication

    def check_auth(self, signature: bytes, *fields: Any) -> bool:
        """True when the message should be accepted.

        With verification disabled (the paper's lying-attack configuration)
        everything is accepted; with it enabled, a mutated message fails
        here and is discarded, which is why the paper had to disable it.
        """
        if not self.config.verify_signatures:
            return True
        return self.auth.verify(signature, *fields)

    # --------------------------------------------- intentional C-style flaws

    def _identity(self) -> str:
        if self.node is not None:
            return str(self.node_id)
        return f"replica{self.index}"

    def unchecked_alloc(self, count: int, what: str) -> int:
        """Allocate ``count`` elements the way the C++ originals did.

        A negative count reinterpreted as size_t, or an enormous one, makes
        the allocation (or the memset that follows) fault.
        """
        if count < 0 or count > ALLOC_LIMIT:
            raise SegmentationFault(
                f"{self._identity()}: allocating {count} {what}")
        return count

    def unchecked_index(self, index: int, length: int, what: str) -> int:
        """Index a buffer without a bounds check."""
        if index < 0 or index >= length:
            raise SegmentationFault(
                f"{self._identity()}: {what}[{index}] with length {length}")
        return index

    def native_assert(self, condition: bool, what: str) -> None:
        """An assert() compiled into the target binary."""
        if not condition:
            raise AssertionViolation(f"{self._identity()}: {what}")
