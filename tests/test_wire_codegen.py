"""Tests for the generated codec against an independent wire oracle.

The message-format compiler's output *is* the codec, so comparing the two
would be a tautology.  The oracle here is a per-field reference encoder and
decoder written straight from the wire layout (``wire/codec.py`` docstring;
forty lines, one ``struct`` call per field), golden bytes captured from the
per-field interpreter this code replaced, and the exception classes that
interpreter raised for every malformed input.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CodecError, WireFormatError
from repro.systems.registry import get_system, system_names
from repro.wire.codec import Message, ProtocolCodec
from repro.wire.codegen import compile_schema, generate_module_source
from repro.wire.parser import parse_schema
from repro.wire.schema import KIND_BYTES, KIND_SCALAR, KIND_VARBYTES
from repro.wire.types import SCALAR_TYPES


# ------------------------------------------------------ the reference oracle

_fmt = lambda t: "<" + ("?" if t.is_bool else t.fmt)     # noqa: E731
_le = lambda raw: int.from_bytes(raw, "little")          # noqa: E731


def ref_encode(spec, fields):
    out = struct.pack("<H", spec.type_id)
    for f in spec.fields:
        if f.name not in fields:
            raise CodecError(f.name)
        value = fields[f.name]
        if f.kind == KIND_SCALAR:
            try:
                out += struct.pack(_fmt(f.scalar), value)
            except (struct.error, OverflowError):
                raise WireFormatError(f.name) from None
        elif not (isinstance(value, (bytes, bytearray)) and f.fixed_len
                  <= len(value) <= (f.fixed_len or f.len_type.max_value)):
            raise CodecError(f.name)
        elif f.kind == KIND_BYTES:
            out += bytes(value)
        else:
            out += struct.pack(_fmt(f.len_type), len(value)) + bytes(value)
    return out


def ref_decode(schema, data):
    spec = {m.type_id: m for m in schema.messages}.get(_le(data[:2]))
    if len(data) < 2 or spec is None:
        raise CodecError("tag")
    offset, fields = 2, {}
    for f in spec.fields:
        size = f.scalar.size if f.kind == KIND_SCALAR else f.fixed_len
        if f.kind == KIND_VARBYTES:     # unsigned little-endian length prefix
            offset += f.len_type.size
            size = _le(data[offset - f.len_type.size:offset])
        if offset + size > len(data):
            raise CodecError(f.name)
        fields[f.name] = raw = data[offset:offset + size]
        if f.kind == KIND_SCALAR:
            fields[f.name], = struct.unpack(_fmt(f.scalar), raw)
        offset += size
    if offset != len(data):
        raise CodecError("trailing")
    return spec.name, fields


def raised(fn, *args):
    """The exact class ``fn(*args)`` raises (None when it returns)."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc)
    return None


# ------------------------------------------------------------ a small schema

SCHEMA = parse_schema("""
protocol gen
message Alpha = 1 { a: u32  b: i16  c: bool  d: bytes[8]  e: varbytes<u16> }
message Beta = 7 { value: f64  tag: u8 }
message Gamma = 9 { head: varbytes<u8>  mid: i64  body: varbytes<u32>
                    x: bytes[3]  y: bytes[2] }
message Kitchen = 11 { flag: bool  tiny: i8  little: u8  short: i16
                       ushort: u16  word: i32  uword: u32  big: i64
                       ubig: u64  ratio: f32  precise: f64
                       mac: bytes[4]  blob: varbytes<u16> }
message Empty = 12 { }
""")
CODEC = ProtocolCodec(SCHEMA)
MODULE = compile_schema(SCHEMA)
ALPHA = {"a": 9, "b": -3, "c": True, "d": b"12345678", "e": b"hey"}


def spec_of(name, schema=SCHEMA):
    return schema.message_named(name)


class TestGeneratedModule:
    def test_source_is_persisted(self):
        assert "class Alpha" in MODULE.__source__
        assert generate_module_source(SCHEMA) == MODULE.__source__

    def test_classes_exist(self):
        assert MODULE.Alpha.TYPE_ID == 1
        assert MODULE.Beta.TYPE_ID == 7
        assert MODULE.Alpha.FIELDS == ("a", "b", "c", "d", "e")
        assert MODULE.MESSAGE_CLASSES == {
            1: MODULE.Alpha, 7: MODULE.Beta, 9: MODULE.Gamma,
            11: MODULE.Kitchen, 12: MODULE.Empty}

    def test_one_struct_per_fixed_layout_run(self):
        source = MODULE.__source__
        # tag + scalars + bytes[N] + the varbytes length prefix: one Struct
        assert '_Alpha_0 = _Struct("<HIh?8sH")' in source
        assert "_Alpha_1" not in source
        assert '_Gamma_0 = _Struct("<HB")' in source
        assert '_Gamma_1 = _Struct("<qI")' in source
        assert '_Gamma_2 = _Struct("<3s2s")' in source
        assert source.count("_Struct(") == 1 + 1 + 3 + 1 + 1

    def test_pack_matches_codec(self):
        expected = ref_encode(spec_of("Alpha"), ALPHA)
        assert expected.hex() == "010009000000fdff0131323334353637380300686579"
        assert MODULE.Alpha(**ALPHA).pack() == expected
        assert MODULE.Alpha.encode(ALPHA) == expected
        assert CODEC.encode(Message("Alpha", ALPHA)) == expected

    def test_decode_dispatches_by_type(self):
        encoded = ref_encode(spec_of("Beta"), {"value": 2.5, "tag": 4})
        decoded = CODEC.decode(encoded)
        assert decoded.type_name == "Beta"
        assert decoded.fields == {"value": 2.5, "tag": 4}
        assert MODULE.MESSAGE_CLASSES[7].decode(encoded) == decoded.fields
        assert CODEC.peek_type(encoded) is spec_of("Beta")

    def test_decode_unknown_type(self):
        assert raised(CODEC.decode, b"\x63\x00") is CodecError
        assert raised(CODEC.decode, b"") is CodecError
        assert CODEC.peek_type(b"\x63\x00") is None

    def test_decode_truncated(self):
        encoded = ref_encode(spec_of("Alpha"), ALPHA)
        assert raised(CODEC.decode, encoded[:-1]) is CodecError
        assert raised(MODULE.Alpha.decode, encoded[:-1]) is CodecError

    def test_decode_trailing(self):
        encoded = ref_encode(spec_of("Beta"), {"value": 0.0, "tag": 0})
        assert raised(CODEC.decode, encoded + b"!") is CodecError
        assert raised(MODULE.Beta.decode, encoded + b"!") is CodecError

    def test_fixed_bytes_length_enforced(self):
        assert raised(MODULE.Alpha(**dict(ALPHA, d=b"short")).pack) \
            is CodecError

    def test_empty_message_is_just_its_tag(self):
        assert CODEC.encode(Message("Empty", {})) == b"\x0c\x00"
        assert CODEC.decode(b"\x0c\x00").fields == {}
        assert raised(CODEC.decode, b"\x0c\x00\x00") is CodecError

    def test_length_prefix_must_be_unsigned(self):
        for prefix in ("i8", "i32", "f32", "f64", "bool"):
            with pytest.raises(WireFormatError):
                parse_schema("message M = 1 { b: varbytes<%s> }" % prefix)

    def test_codec_has_no_interpreter_left(self):
        assert not hasattr(ProtocolCodec, "_encode_field")
        assert not hasattr(ProtocolCodec, "_decode_field")


class TestEquivalenceProperty:
    @settings(max_examples=150)
    @given(a=st.integers(0, 2**32 - 1), b=st.integers(-2**15, 2**15 - 1),
           c=st.booleans(), d=st.binary(min_size=8, max_size=8),
           e=st.binary(max_size=100))
    def test_pack_equivalence(self, a, b, c, d, e):
        fields = {"a": a, "b": b, "c": c, "d": d, "e": e}
        reference = ref_encode(spec_of("Alpha"), fields)
        assert MODULE.Alpha(**fields).pack() == reference
        assert CODEC.encode(Message("Alpha", fields)) == reference
        assert CODEC.decode(reference).fields == fields
        assert ref_decode(SCHEMA, reference) == ("Alpha", fields)


# --------------------------------------------------- the eight system schemas

def populated(spec):
    """A deterministic, fully-populated message: no zero, no empty field."""
    fields = {}
    for i, f in enumerate(spec.fields, start=1):
        if f.kind == KIND_SCALAR:
            fields[f.name] = (True if f.scalar.is_bool
                              else 1.5 * i if f.scalar.is_float
                              else f.scalar.wrap(0x0123456789ABCDEF * i - i))
        elif f.kind == KIND_BYTES:
            fields[f.name] = bytes((17 * i + j) % 256
                                   for j in range(f.fixed_len))
        else:
            fields[f.name] = f.name.encode() + bytes(range(i + 2))
    return fields


def widest(schema):
    return max(schema.messages, key=lambda m: len(m.fields))


#: ``encode(populated(widest(schema)))`` by the per-field interpreter of
#: commit e233437, per system
GOLDEN_HEX = {
    "aardvark":                                               # PrePrepare
        "0200eecdab89dc9b5713ca69039db83755565758595a5b5c5d5e5f60616263646566"
        "6768696a6b6c6d6e6f707172737494d3063a6da0d30682a1110000007061796c6f61"
        "6400010203040506070809999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8",
    "byzgen": "0100eecdab89dcca69b837af269e158d04",           # Order
    "paxos":                                                  # Accept
        "0400eecdab89dc9b5713ca69b837af269e158d04a6050d00000076616c7565000102"
        "0304050607",
    "pbft":                                                   # PrePrepare
        "0200eecdab89dc9b5713ca69039db83755565758595a5b5c5d5e5f60616263646566"
        "6768696a6b6c6d6e6f707172737494d3063a6da0d30682a1110000007061796c6f61"
        "6400010203040506070809999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8",
    "prime":                                                  # PORequest
        "0200eecddc9b5713ca69039db837af269e158d04a6050f0000007061796c6f616400"
        "010203040506077778797a7b7c7d7e7f80818283848586",
    "steward":                                                # Proposal
        "0400eecdab89dc9b5713333435363738393a3b3c3d3e3f404142434445464748494a"
        "4b4c4d4e4f505152b837af269e158d04a6050f0000007061796c6f61640001020304"
        "05060782a188898a8b8c8d8e8f9091929394959697",
    "tom":                                                    # Publish
        "0100eecddc9b5713ca69039d36d069030d007061796c6f6164000102030405",
    "zyzzyva":                                                # OrderRequest
        "0200eecdab89dc9b5713333435363738393a3b3c3d3e3f404142434445464748494a"
        "4b4c4d4e4f5051524445464748494a4b4c4d4e4f505152535455565758595a5b5c5d"
        "5e5f60616263a6055bb094d3063a6da0d30682a1110000007061796c6f6164000102"
        "03040506070809999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8",
}


def value_strategy(f):
    if f.kind == KIND_SCALAR:
        t = f.scalar
        if t.is_bool:
            return st.booleans()
        if t.is_integer:
            return st.integers(int(t.min_value), int(t.max_value))
        return st.floats(width=32 if t.name == "f32" else 64,
                         allow_nan=False)
    if f.kind == KIND_BYTES:
        return st.binary(min_size=f.fixed_len, max_size=f.fixed_len)
    return st.binary(max_size=48)


@st.composite
def messages(draw, schema):
    spec = draw(st.sampled_from(schema.messages))
    return spec, {f.name: draw(value_strategy(f)) for f in spec.fields}


def all_schemas():
    return [SCHEMA] + [get_system(name).schema for name in system_names()]


@st.composite
def any_message(draw):
    schema = draw(st.sampled_from(all_schemas()))
    spec, fields = draw(messages(schema))
    return schema, spec, fields


#: wrong-typed values, and which field kinds each is wrong for
NOT_BYTES = ("text", 7, None, [1, 2])
NOT_A_NUMBER = ("7", None, b"\x07", [7])


class TestRealSchemas:
    @pytest.mark.parametrize("modpath,codec_name", [
        ("repro.systems.pbft.schema", "PBFT"),
        ("repro.systems.zyzzyva.schema", "ZYZZYVA"),
        ("repro.systems.steward.schema", "STEWARD"),
        ("repro.systems.prime.schema", "PRIME"),
        ("repro.systems.paxos.schema", "PAXOS"),
    ])
    def test_system_schemas_compile(self, modpath, codec_name):
        import importlib
        mod = importlib.import_module(modpath)
        schema = getattr(mod, f"{codec_name}_SCHEMA")
        codec = getattr(mod, f"{codec_name}_CODEC")
        generated = compile_schema(schema)
        for spec in schema.messages:
            values = spec.default_values()
            reference = ref_encode(spec, values)
            assert getattr(generated, spec.name)(**values).pack() == reference
            assert codec.encode(Message(spec.name, values)) == reference
            assert codec.decode(reference).fields == values

    @pytest.mark.parametrize("system", system_names())
    def test_golden_bytes(self, system):
        schema = get_system(system).schema
        spec = widest(schema)
        fields = populated(spec)
        golden = bytes.fromhex(GOLDEN_HEX[system])
        codec = ProtocolCodec(schema)
        assert codec.encode(Message(spec.name, fields)) == golden
        assert ref_encode(spec, fields) == golden
        assert codec.decode(golden).fields == fields
        assert codec.peek_type(golden) is spec

    @settings(max_examples=300, deadline=None)
    @given(any_message())
    def test_bytes_equal_the_reference(self, drawn):
        schema, spec, fields = drawn
        codec = ProtocolCodec(schema)
        data = codec.encode(Message(spec.name, fields))
        assert data == ref_encode(spec, fields) and type(data) is bytes
        decoded = codec.decode(data)
        assert (decoded.type_name, decoded.fields) == ref_decode(schema, data)
        assert list(decoded.fields) == [f.name for f in spec.fields]
        # bytearray in, same bytes out; bytearray on the wire, same fields
        soft = {k: bytearray(v) if isinstance(v, bytes) else v
                for k, v in fields.items()}
        assert codec.encode(Message(spec.name, soft)) == data
        assert codec.decode(bytearray(data)).fields == decoded.fields

    @settings(max_examples=150, deadline=None)
    @given(any_message())
    def test_malformed_wire_raises_what_the_reference_raises(self, drawn):
        schema, spec, fields = drawn
        codec = ProtocolCodec(schema)
        data = ref_encode(spec, fields)
        for cut in range(len(data)):              # every prefix length
            assert raised(codec.decode, data[:cut]) is CodecError
            assert raised(ref_decode, schema, data[:cut]) is CodecError
        assert raised(codec.decode, data + b"\x00") is CodecError
        assert raised(ref_decode, schema, data + b"\x00") is CodecError
        # a lie cannot be told on a malformed message, whatever the field
        assert raised(codec.mutate, data[:-1], "no_such", 1) is CodecError
        assert raised(codec.mutate, data + b"\x00", "no_such", 1) is CodecError

    @settings(max_examples=150, deadline=None)
    @given(any_message(), st.data())
    def test_malformed_fields_raise_what_the_reference_raises(self, drawn,
                                                              data):
        schema, spec, fields = drawn
        if not spec.fields:
            return
        codec = ProtocolCodec(schema)
        f = data.draw(st.sampled_from(spec.fields))
        bad = [{k: v for k, v in fields.items() if k != f.name}]  # missing
        if f.kind == KIND_SCALAR:
            t = f.scalar
            if t.is_integer and not t.is_bool:
                bad += [dict(fields, **{f.name: v}) for v in
                        (t.max_value + 1, t.min_value - 1, 1.5)]
            if t.name == "f32":
                bad.append(dict(fields, **{f.name: 1e300}))
            if not t.is_bool:
                bad += [dict(fields, **{f.name: v}) for v in NOT_A_NUMBER]
        else:
            bad += [dict(fields, **{f.name: v}) for v in NOT_BYTES]
            if f.kind == KIND_BYTES:
                bad += [dict(fields, **{f.name: b"x" * n})
                        for n in (f.fixed_len - 1, f.fixed_len + 1)]
            elif f.len_type.max_value < 2**16:
                bad.append(dict(fields, **{
                    f.name: b"x" * (f.len_type.max_value + 1)}))
        for broken in bad:
            expected = raised(ref_encode, spec, broken)
            assert expected in (CodecError, WireFormatError)
            assert raised(codec.encode, Message(spec.name, broken)) \
                is expected

    def test_unknown_message_name(self):
        assert raised(CODEC.encode, Message("Nope", {})) is WireFormatError


class TestMutate:
    @settings(max_examples=200, deadline=None)
    @given(any_message(), st.data(),
           st.integers(min_value=-2**70, max_value=2**70))
    def test_mutate_is_decode_wrap_encode(self, drawn, data, lie):
        schema, spec, fields = drawn
        codec = ProtocolCodec(schema)
        wire = ref_encode(spec, fields)
        for f in spec.fields:
            if f.kind != KIND_SCALAR:
                assert raised(codec.mutate, wire, f.name, lie) is CodecError
        assert raised(codec.mutate, wire, "no_such_field", lie) \
            is WireFormatError
        if spec.scalar_fields():
            f = data.draw(st.sampled_from(spec.scalar_fields()))
            expected = dict(ref_decode(schema, wire)[1],
                            **{f.name: f.scalar.wrap(lie)})
            assert codec.mutate(wire, f.name, lie) == \
                ref_encode(spec, expected)

    @pytest.mark.parametrize("type_name", sorted(SCALAR_TYPES))
    def test_wrap_around_for_every_scalar_type(self, type_name):
        t = SCALAR_TYPES[type_name]
        field = next(f for f in spec_of("Kitchen").fields
                     if f.kind == KIND_SCALAR and f.scalar is t)
        spec = spec_of("Kitchen")
        wire = ref_encode(spec, dict(spec.default_values(), mac=b"abcd"))
        if t.is_bool:
            cases = [(2, True), (0, False), (-1, True)]
        elif t.is_integer:
            span = t.max_value - t.min_value + 1
            cases = [(t.max_value + 1, t.min_value),
                     (t.min_value - 1, t.max_value),
                     (t.max_value + span + 5, t.min_value + 4), (3, 3)]
        else:
            cases = [(1e39 if t.name == "f32" else 1e400, t.max_value),
                     (-1e400, t.min_value), (0.5, 0.5)]
        for lie, stored in cases:
            mutated = CODEC.mutate(wire, field.name, lie)
            assert ref_decode(SCHEMA, mutated)[1][field.name] == \
                pytest.approx(stored)
            assert len(mutated) == len(wire)
