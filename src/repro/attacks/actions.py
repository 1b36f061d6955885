"""Malicious message actions (Section II-B).

Two families:

* **Delivery actions** — dropping, delaying, diverting, duplicating; applied
  to where/when a message is delivered, no knowledge of the format needed.
* **Lying actions** — typed mutation of one message field via a
  :class:`~repro.attacks.strategies.LyingStrategy`; requires the message
  format description (the wire schema) but not the protocol semantics.

Every action maps an intercepted message to a list of
:class:`~repro.netem.emulator.Delivery` objects (empty list = dropped) and
serializes to a plain record so that attack scenarios can be stored,
compared, and replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.errors import ProxyError
from repro.common.ids import NodeId
from repro.common.rng import RandomStream
from repro.netem.emulator import Delivery
from repro.netem.packets import MessageEnvelope
from repro.wire.codec import ProtocolCodec
from repro.attacks.strategies import LyingStrategy

# Cluster keys used by the weighted-greedy algorithm to group actions that
# tend to behave alike regardless of message type.
CLUSTER_DROP = "drop"
CLUSTER_DELAY = "delay"
CLUSTER_DIVERT = "divert"
CLUSTER_DUPLICATE = "duplicate"
CLUSTER_LIE_BOUNDARY = "lie-boundary"   # min/max/spanning
CLUSTER_LIE_RANDOM = "lie-random"
CLUSTER_LIE_RELATIVE = "lie-relative"   # add/sub/mul


@dataclass
class ActionContext:
    """Everything an action may consult while being applied."""

    codec: ProtocolCodec
    rng: RandomStream
    all_nodes: Sequence[NodeId]


class MaliciousAction:
    """Base class: one way to misbehave on messages of some type."""

    cluster = "none"

    def describe(self) -> str:
        raise NotImplementedError

    def apply(self, envelope: MessageEnvelope,
              ctx: ActionContext) -> List[Delivery]:
        raise NotImplementedError

    # ------------------------------------------------------------- records

    def to_record(self) -> tuple:
        raise NotImplementedError

    @staticmethod
    def from_record(record: tuple) -> "MaliciousAction":
        kind = record[0]
        cls = _ACTION_KINDS.get(kind)
        if cls is None:
            raise ProxyError(f"unknown action kind {kind!r}")
        return cls._from_record(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.describe()}>"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MaliciousAction)
                and self.to_record() == other.to_record())

    def __hash__(self) -> int:
        return hash(self.to_record())


class DropAction(MaliciousAction):
    """Drop the message (probabilistically)."""

    cluster = CLUSTER_DROP

    def __init__(self, probability: float = 1.0) -> None:
        if not 0.0 < probability <= 1.0:
            raise ProxyError(f"drop probability {probability} out of (0, 1]")
        self.probability = probability

    def describe(self) -> str:
        return f"Drop {self.probability:.0%}"

    def apply(self, envelope: MessageEnvelope,
              ctx: ActionContext) -> List[Delivery]:
        if self.probability >= 1.0 or ctx.rng.random() < self.probability:
            return []
        return [Delivery(envelope.dst, envelope.payload)]

    def to_record(self) -> tuple:
        return ("drop", self.probability)

    @classmethod
    def _from_record(cls, record: tuple) -> "DropAction":
        return cls(record[1])


class DelayAction(MaliciousAction):
    """Inject a fixed delay before the message leaves the malicious node."""

    cluster = CLUSTER_DELAY

    def __init__(self, delay: float) -> None:
        if delay <= 0:
            raise ProxyError(f"delay must be positive, got {delay}")
        self.delay = delay

    def describe(self) -> str:
        return f"Delay {self.delay:g}s"

    def apply(self, envelope: MessageEnvelope,
              ctx: ActionContext) -> List[Delivery]:
        return [Delivery(envelope.dst, envelope.payload, extra_delay=self.delay)]

    def to_record(self) -> tuple:
        return ("delay", self.delay)

    @classmethod
    def _from_record(cls, record: tuple) -> "DelayAction":
        return cls(record[1])


class DivertAction(MaliciousAction):
    """Deliver the message to a node other than the intended destination.

    The replacement destination is the next node (in node order) after the
    original destination, skipping the sender — deterministic, so a divert
    scenario replays identically across branches.
    """

    cluster = CLUSTER_DIVERT

    def describe(self) -> str:
        return "Divert"

    def apply(self, envelope: MessageEnvelope,
              ctx: ActionContext) -> List[Delivery]:
        nodes = [n for n in ctx.all_nodes
                 if n != envelope.dst and n != envelope.src]
        if not nodes:
            return [Delivery(envelope.dst, envelope.payload)]
        ordered = sorted(nodes)
        after = [n for n in ordered if n > envelope.dst]
        target = after[0] if after else ordered[0]
        return [Delivery(target, envelope.payload)]

    def to_record(self) -> tuple:
        return ("divert",)

    @classmethod
    def _from_record(cls, record: tuple) -> "DivertAction":
        return cls()


class DuplicateAction(MaliciousAction):
    """Send ``copies`` copies of the message instead of one."""

    cluster = CLUSTER_DUPLICATE

    def __init__(self, copies: int) -> None:
        if copies < 2:
            raise ProxyError(f"duplicate needs >= 2 copies, got {copies}")
        self.copies = copies

    def describe(self) -> str:
        return f"Dup x{self.copies}"

    def apply(self, envelope: MessageEnvelope,
              ctx: ActionContext) -> List[Delivery]:
        return [Delivery(envelope.dst, envelope.payload)
                for __ in range(self.copies)]

    def to_record(self) -> tuple:
        return ("duplicate", self.copies)

    @classmethod
    def _from_record(cls, record: tuple) -> "DuplicateAction":
        return cls(record[1])


class LyingAction(MaliciousAction):
    """Replace one scalar field with a strategy-derived value."""

    def __init__(self, field: str, strategy: LyingStrategy) -> None:
        self.field = field
        self.strategy = strategy

    @property
    def cluster(self) -> str:  # type: ignore[override]
        from repro.attacks.strategies import (ABS_RANDOM, REL_ADD, REL_MUL,
                                              REL_SUB)
        if self.strategy.kind == ABS_RANDOM:
            return CLUSTER_LIE_RANDOM
        if self.strategy.kind in (REL_ADD, REL_SUB, REL_MUL):
            return CLUSTER_LIE_RELATIVE
        return CLUSTER_LIE_BOUNDARY

    def describe(self) -> str:
        return f"Lie {self.field}={self.strategy.describe()}"

    def apply(self, envelope: MessageEnvelope,
              ctx: ActionContext) -> List[Delivery]:
        spec = envelope.spec or ctx.codec.peek_type(envelope.payload)
        if spec is None:
            return [Delivery(envelope.dst, envelope.payload)]
        field_spec = spec.field_named(self.field)
        message = ctx.codec.decode(envelope.payload, spec)
        lied = self.strategy.lie(field_spec.scalar, message[self.field], ctx.rng)
        mutated = ctx.codec.mutate(envelope.payload, self.field, lied)
        return [Delivery(envelope.dst, mutated)]

    def to_record(self) -> tuple:
        return ("lie", self.field, self.strategy.to_record())

    @classmethod
    def _from_record(cls, record: tuple) -> "LyingAction":
        return cls(record[1], LyingStrategy.from_record(tuple(record[2])))


_ACTION_KINDS = {
    "drop": DropAction,
    "delay": DelayAction,
    "divert": DivertAction,
    "duplicate": DuplicateAction,
    "lie": LyingAction,
}


@dataclass(frozen=True)
class AttackScenario:
    """One entry of the attack-scenario list: a message type plus an action."""

    message_type: str
    action: MaliciousAction

    def describe(self) -> str:
        return f"{self.action.describe()} {self.message_type}"

    @property
    def cluster(self) -> str:
        return self.action.cluster

    def to_record(self) -> tuple:
        return (self.message_type, self.action.to_record())

    @classmethod
    def from_record(cls, record: tuple) -> "AttackScenario":
        return cls(record[0], MaliciousAction.from_record(tuple(record[1])))
