"""Binary codec for schema-described messages.

Wire layout of an encoded message::

    u16 type_id | field 0 | field 1 | ...   (all little-endian)

Scalars use their struct encoding; ``bytes[N]`` is raw; ``varbytes<T>`` is a
T-encoded length followed by that many raw bytes.  The codec is the runtime
half of the message-format compiler: the malicious proxy uses it to identify
message types on the wire, read field values, and re-encode mutated messages.
The per-type encode/decode functions are generated from the schema by
:mod:`repro.wire.codegen`; there is no other implementation of the layout.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.common.errors import CodecError
from repro.wire.codegen import compile_schema
from repro.wire.schema import KIND_SCALAR, MessageSpec, ProtocolSchema


class Message(dict):
    """An application message: its field dict, tagged with its type name.
    It equals a message of the same type and fields, or a plain dict of
    the same fields."""

    __slots__ = ("type_name",)

    def __init__(self, type_name: str, fields: Mapping[str, Any] = ()) -> None:
        dict.__init__(self, fields)
        self.type_name = type_name

    @property
    def fields(self) -> "Message":
        """The message itself: a message is its field dict."""
        return self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Message) and other.type_name != self.type_name:
            return False
        return dict.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def copy(self) -> "Message":
        return Message(self.type_name, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type_name}({dict.__repr__(self)})"


class ProtocolCodec:
    """Encodes and decodes every message type of one protocol schema.

    The work is done by the functions :mod:`repro.wire.codegen` generates
    for the schema; the methods here only dispatch on the type name (encode)
    or the wire tag (decode, peek, mutate).
    """

    def __init__(self, schema: ProtocolSchema) -> None:
        self.schema = schema

    @cached_property
    def _generated(self) -> Dict[Any, Tuple[MessageSpec, Callable, Callable]]:
        """``(spec, encode, decode)`` under both the type name and the wire
        tag.  Compiled on first use, so a process pays (time and memory)
        only for the schemas it actually speaks."""
        module = compile_schema(self.schema)
        table = {}
        for spec in self.schema.messages:
            table[spec.name] = table[spec.type_id] = (
                spec, getattr(module, f"encode_{spec.name}"),
                getattr(module, f"decode_{spec.name}"))
        return table

    @cached_property
    def specs(self) -> Dict[str, MessageSpec]:
        """Each message type's spec by name: what a sender tags its
        envelope with, so the receiving side need not parse the tag."""
        return {spec.name: spec for spec in self.schema.messages}

    def encode(self, message: Message) -> bytes:
        entry = self._generated.get(message.type_name)
        if entry is None:
            self.schema.message_named(message.type_name)   # raises
        return entry[1](message)

    def encode_wrapped(self, message: Message) -> bytes:
        """Encode ``message`` with every scalar stored the way a C field
        would hold it.

        :meth:`encode` rejects an out-of-range scalar.  A node sends this
        instead when its own code computed one: the originals keep such
        fields in fixed-width integers, so a Paxos ``ballot + 1`` at the u32
        maximum wraps to 0 (as :meth:`mutate` wraps a lie) rather than
        aborting the platform.  A missing field or an over-long varbytes is
        still a platform bug: :class:`CodecError`, naming the protocol.
        """
        spec = self.schema.message_named(message.type_name)
        fields = dict(message)
        for f in spec.fields:
            if f.kind == KIND_SCALAR and f.name in fields:
                fields[f.name] = f.scalar.wrap(fields[f.name])
        try:
            return self._generated[spec.name][1](fields)
        except CodecError as exc:
            raise CodecError(f"{self.schema.name}: {exc}") from None

    def _lookup(self, data: bytes):
        """The table entry for an encoded buffer's tag, if known."""
        if len(data) < 2:
            return None
        return self._generated.get(data[0] | data[1] << 8)

    def peek_type(self, data: bytes) -> Optional[MessageSpec]:
        """Identify the message type of an encoded buffer, if known."""
        entry = self._lookup(data)
        return None if entry is None else entry[0]

    def decode(self, data: bytes,
               spec: Optional[MessageSpec] = None) -> Message:
        """Decode ``data``; ``spec`` is the type its sender tagged it with
        (None: unknown, so the tag is parsed from the bytes)."""
        entry = None if spec is None else self._generated.get(spec.type_id)
        if entry is None or entry[0] is not spec:
            entry = self._lookup(data)
        if entry is None:
            raise CodecError("unknown or truncated message type tag")
        message = dict.__new__(Message)     # no Python-level __init__
        message.update(entry[2](data))
        message.type_name = entry[0].name
        return message

    def mutate(self, data: bytes, field_name: str, new_value: Any) -> bytes:
        """Return ``data`` re-encoded with one scalar field replaced.

        This is the proxy's lying primitive: decode, substitute, re-encode.
        The new value is wrapped into the field's representable range the way
        a C assignment would (modular for integers), because the attacker
        writes raw bytes, not checked values.
        """
        entry = self._lookup(data)
        if entry is None:
            raise CodecError("unknown or truncated message type tag")
        spec, encode, decode = entry
        fields = decode(data)
        f = spec.field_named(field_name)
        if f.kind != KIND_SCALAR:
            raise CodecError(
                f"{spec.name}.{field_name}: only scalar fields can be mutated")
        fields[field_name] = f.scalar.wrap(new_value)
        return encode(fields)
