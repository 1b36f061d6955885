"""Schema objects produced by the message-format compiler.

A :class:`ProtocolSchema` is the only description of a target system that
Turret requires from the user (Section I: "Turret requires only a description
of the external API of the service, i.e., the message protocol").  It lists
message types and their typed fields; the malicious proxy uses it to identify
message types on the wire and the lying strategies use it to enumerate
mutable fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import WireFormatError
from repro.wire.types import ScalarType, scalar_type

KIND_SCALAR = "scalar"
KIND_BYTES = "bytes"        # fixed-length byte string
KIND_VARBYTES = "varbytes"  # length-prefixed byte string


@dataclass(frozen=True)
class FieldSpec:
    """One field of a message."""

    name: str
    kind: str
    scalar: Optional[ScalarType] = None   # for KIND_SCALAR
    fixed_len: int = 0                    # for KIND_BYTES
    len_type: Optional[ScalarType] = None  # for KIND_VARBYTES

    def __post_init__(self) -> None:
        if self.kind == KIND_SCALAR and self.scalar is None:
            raise WireFormatError(f"field {self.name}: scalar kind needs a type")
        if self.kind == KIND_BYTES and self.fixed_len <= 0:
            raise WireFormatError(f"field {self.name}: bytes length must be > 0")
        if self.kind == KIND_VARBYTES and (
                self.len_type is None or self.len_type.signed   # or a float
                or self.len_type.is_bool):
            raise WireFormatError(
                f"field {self.name}: varbytes needs an unsigned length type")

    @property
    def is_mutable_scalar(self) -> bool:
        """Whether lying strategies may target this field."""
        return self.kind == KIND_SCALAR

    def type_label(self) -> str:
        if self.kind == KIND_SCALAR:
            return self.scalar.name
        if self.kind == KIND_BYTES:
            return f"bytes[{self.fixed_len}]"
        return f"varbytes<{self.len_type.name}>"


@dataclass(frozen=True)
class MessageSpec:
    """One message type: a numeric wire tag plus an ordered field list."""

    name: str
    type_id: int
    fields: Tuple[FieldSpec, ...]

    def field_named(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise WireFormatError(f"message {self.name} has no field {name!r}")

    def scalar_fields(self) -> List[FieldSpec]:
        return [f for f in self.fields if f.is_mutable_scalar]

    def default_values(self) -> Dict[str, object]:
        """A zero-valued instance of this message, useful in tests."""
        values: Dict[str, object] = {}
        for f in self.fields:
            if f.kind == KIND_SCALAR:
                values[f.name] = False if f.scalar.is_bool else (
                    0.0 if f.scalar.is_float else 0)
            elif f.kind == KIND_BYTES:
                values[f.name] = b"\x00" * f.fixed_len
            else:
                values[f.name] = b""
        return values


@dataclass
class ProtocolSchema:
    """A named collection of message types for one target system."""

    name: str
    messages: Tuple[MessageSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        by_id: Dict[int, str] = {}
        by_name: Dict[str, int] = {}
        for m in self.messages:
            if not 0 <= m.type_id <= 0xFFFF:
                raise WireFormatError(
                    f"message {m.name}: type id {m.type_id} out of u16 range")
            if m.type_id in by_id:
                raise WireFormatError(
                    f"duplicate type id {m.type_id} ({by_id[m.type_id]} vs {m.name})")
            if m.name in by_name:
                raise WireFormatError(f"duplicate message name {m.name}")
            by_id[m.type_id] = m.name
            by_name[m.name] = m.type_id
        self._by_id = {m.type_id: m for m in self.messages}
        self._by_name = {m.name: m for m in self.messages}

    def message_named(self, name: str) -> MessageSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise WireFormatError(
                f"schema {self.name} has no message {name!r}") from None

    def message_names(self) -> List[str]:
        return [m.name for m in self.messages]


def make_field(name: str, type_label: str) -> FieldSpec:
    """Build a :class:`FieldSpec` from a type label like ``u32`` or ``bytes[8]``.

    This is the programmatic twin of the DSL parser, used by target systems
    that define their schemas in code.
    """
    label = type_label.strip()
    if label.startswith("bytes[") and label.endswith("]"):
        try:
            length = int(label[len("bytes["):-1])
        except ValueError:
            raise WireFormatError(f"bad bytes length in {type_label!r}") from None
        return FieldSpec(name, KIND_BYTES, fixed_len=length)
    if label.startswith("varbytes<") and label.endswith(">"):
        inner = label[len("varbytes<"):-1]
        return FieldSpec(name, KIND_VARBYTES, len_type=scalar_type(inner))
    return FieldSpec(name, KIND_SCALAR, scalar=scalar_type(label))


def make_message(name: str, type_id: int, fields: List[Tuple[str, str]]) -> MessageSpec:
    """Build a :class:`MessageSpec` from ``(field_name, type_label)`` pairs."""
    seen = set()
    specs = []
    for fname, flabel in fields:
        if fname in seen:
            raise WireFormatError(f"message {name}: duplicate field {fname!r}")
        seen.add(fname)
        specs.append(make_field(fname, flabel))
    return MessageSpec(name, type_id, tuple(specs))
