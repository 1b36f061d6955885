"""Message-format compiler: DSL -> schema -> binary codecs.

This package is the reproduction of Turret's "small compiler that reads a
message format description and generates code compatible with a large set of
binary wire protocols" (Section IV-B).  Public surface:

* :func:`parse_schema` — parse the DSL into a :class:`ProtocolSchema`.
* :class:`ProtocolCodec` — encode/decode/mutate messages of a schema, by
  dispatching into the functions the compiler generated for it.
* :class:`Message` — a message is its field dict, tagged with its type name.
* :func:`compile_schema` — the back end: the generated module, an
  ``encode_<Type>(fields)`` and a ``decode_<Type>(data)`` per message type.
"""

from repro.wire.codec import Message, ProtocolCodec
from repro.wire.codegen import compile_schema, generate_module_source
from repro.wire.parser import format_schema, parse_schema
from repro.wire.schema import (FieldSpec, MessageSpec, ProtocolSchema,
                               make_field, make_message)
from repro.wire.types import SCALAR_TYPES, ScalarType, scalar_type

__all__ = [
    "Message", "ProtocolCodec", "compile_schema", "generate_module_source",
    "format_schema", "parse_schema", "FieldSpec", "MessageSpec",
    "ProtocolSchema", "make_field", "make_message", "SCALAR_TYPES",
    "ScalarType", "scalar_type",
]
