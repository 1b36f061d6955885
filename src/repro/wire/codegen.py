"""Code generator: schema -> the codec's encode/decode functions.

The paper's compiler "generates C++ code compatible with a large set of
binary wire protocols" which is "compiled and linked to the malicious proxy".
We target Python instead of C++: :func:`generate_module_source` emits a
module with a straight-line ``encode_<Type>(fields)`` /
``decode_<Type>(data)`` function pair per message type, and
:func:`compile_schema` executes it.  Each *fixed-layout run* of fields — the
type tag, scalars, ``bytes[N]`` and the length prefix of the ``varbytes``
that ends the run — is one precompiled ``struct.Struct``, so a message costs
one pack/unpack call per run plus the checks the wire format needs.  The
generated code *is* the codec: :class:`repro.wire.codec.ProtocolCodec` only
dispatches into it.
"""

from __future__ import annotations

import types as _types
from struct import calcsize
from typing import List, NamedTuple, Optional

from repro.wire.schema import (KIND_BYTES, KIND_SCALAR, FieldSpec,
                               MessageSpec, ProtocolSchema)

_HEADER = '''"""Generated by repro.wire.codegen - do not edit."""

from struct import Struct as _Struct, error as _struct_error

from repro.common.errors import (CodecError as _CodecError,
                                 WireFormatError as _WireFormatError)

_BYTES = (bytes, bytearray)


def _bad_bytes(where, value, want):
    if not isinstance(value, _BYTES):
        return _CodecError(
            "%s: expected bytes, got %s" % (where, type(value).__name__))
    return _CodecError(
        "%s: expected %s bytes, got %d" % (where, want, len(value)))


def _bad_length(where, data, end):
    if end > len(data):
        return _CodecError("%s: truncated" % where)
    return _CodecError("%s: %d trailing bytes" % (where, len(data) - end))
'''


class _Run(NamedTuple):
    """One fixed-layout run of a message: what one ``Struct`` covers."""

    fmt: str                    # struct format, without the byte-order mark
    values: List[str]           # what it packs: tag, field locals, tail length
    tail: Optional[FieldSpec]   # the varbytes field whose body follows the run
    raw: bool                   # bytes[N] only: the values are the encoding


def _runs(spec: MessageSpec) -> List[_Run]:
    runs: List[_Run] = []
    fmt, values, raw = "H", [str(spec.type_id)], False
    for f in spec.fields:
        if f.kind == KIND_SCALAR:
            fmt += "?" if f.scalar.is_bool else f.scalar.fmt
            values.append(f"_{f.name}")
            raw = False
        elif f.kind == KIND_BYTES:
            fmt += f"{f.fixed_len}s"
            values.append(f"_{f.name}")
        else:
            runs.append(_Run(fmt + f.len_type.fmt,
                             values + [f"n_{f.name}"], f, False))
            fmt, values, raw = "", [], True
    if fmt:
        runs.append(_Run(fmt, values, None, raw))
    return runs


def _emit_encode(spec: MessageSpec, runs: List[_Run]) -> List[str]:
    lines = [f"def encode_{spec.name}(fields):"]
    if spec.fields:
        lines.append("    try:")
        lines += [f"        _{f.name} = fields[{f.name!r}]"
                  for f in spec.fields]
        lines += ["    except KeyError as exc:",
                  f'        raise _CodecError("{spec.name}: missing field '
                  '%r" % exc.args) from None']
    for f in spec.fields:
        where = f'"{spec.name}.{f.name}"'
        if f.kind == KIND_BYTES:
            lines += [f"    if not isinstance(_{f.name}, _BYTES) or "
                      f"len(_{f.name}) != {f.fixed_len}:",
                      f"        raise _bad_bytes({where}, _{f.name}, "
                      f"{f.fixed_len})"]
        elif f.kind != KIND_SCALAR:
            error = (f'_bad_bytes({where}, _{f.name}, '
                     f'"at most {f.len_type.max_value}")')
            lines += [f"    if not isinstance(_{f.name}, _BYTES):",
                      f"        raise {error}",
                      f"    n_{f.name} = len(_{f.name})",
                      f"    if n_{f.name} > {f.len_type.max_value}:",
                      f"        raise {error}"]
    parts: List[str] = []
    for i, run in enumerate(runs):
        if run.raw:
            parts += run.values
        else:
            parts.append(f"_{spec.name}_{i}.pack({', '.join(run.values)})")
        if run.tail is not None:
            parts.append(f"_{run.tail.name}")
    lines += ["    try:",
              f"        return {' + '.join(parts)}",
              "    except (_struct_error, OverflowError) as exc:",
              f'        raise _WireFormatError("{spec.name}: %s" % exc) '
              "from None"]
    return lines


def _emit_decode(spec: MessageSpec, runs: List[_Run]) -> List[str]:
    body: List[str] = []
    exact = len(runs) == 1 and runs[0].tail is None   # one fixed-size struct
    for i, run in enumerate(runs):
        struct, size = f"_{spec.name}_{i}", calcsize("<" + run.fmt)
        targets = ", ".join(["_"] + run.values[1:] if i == 0
                            else run.values) + ","
        if exact:
            body.append(f"{targets} = {struct}.unpack(data)")
        elif i == 0:
            body += [f"{targets} = {struct}.unpack_from(data)",
                     f"end = {size}"]
        else:
            body += [f"{targets} = {struct}.unpack_from(data, end)",
                     f"end += {size}"]
        if run.tail is not None:
            body += [f"_{run.tail.name} = data[end:end + n_{run.tail.name}]",
                     f"end += n_{run.tail.name}"]
    lines = [f"def decode_{spec.name}(data):", "    try:"]
    lines += ["        " + line for line in body]
    lines += ["    except _struct_error:",
              f'        raise _CodecError("{spec.name}: truncated or '
              'trailing bytes") from None']
    if not exact:
        lines += ["    if end != len(data):",
                  f'        raise _bad_length("{spec.name}", data, end)']
    entries = ", ".join(f"{f.name!r}: _{f.name}" for f in spec.fields)
    lines.append(f"    return {{{entries}}}")
    return lines


def _emit_message(spec: MessageSpec) -> str:
    runs = _runs(spec)
    lines = [f'_{spec.name}_{i} = _Struct("<{run.fmt}")'
             for i, run in enumerate(runs)]
    lines += ["", ""] + _emit_encode(spec, runs) + ["", ""]
    return "\n".join(lines + _emit_decode(spec, runs))


def generate_module_source(schema: ProtocolSchema) -> str:
    """Emit Python source for the codec module of ``schema``."""
    return "\n\n".join(
        [_HEADER] + [_emit_message(spec) + "\n" for spec in schema.messages])


def compile_schema(schema: ProtocolSchema):
    """Generate, execute, and return the codec module for ``schema``."""
    source = generate_module_source(schema)
    module = _types.ModuleType(f"repro_generated_{schema.name}")
    exec(compile(source, f"<generated {schema.name}>", "exec"), module.__dict__)
    module.__source__ = source
    return module
