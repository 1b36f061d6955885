"""Tests for the binary message codec, including property-based round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CodecError
from repro.wire.codec import Message, ProtocolCodec
from repro.wire.schema import make_message, ProtocolSchema
from repro.wire.types import SCALAR_TYPES

SCHEMA = ProtocolSchema("t", (
    make_message("Kitchen", 1, [
        ("flag", "bool"), ("tiny", "i8"), ("little", "u8"),
        ("short", "i16"), ("ushort", "u16"), ("word", "i32"),
        ("uword", "u32"), ("big", "i64"), ("ubig", "u64"),
        ("ratio", "f32"), ("precise", "f64"),
        ("mac", "bytes[4]"), ("blob", "varbytes<u16>"),
    ]),
    make_message("Tiny", 2, [("x", "u8")]),
    make_message("NoFields", 3, []),
))
CODEC = ProtocolCodec(SCHEMA)


def kitchen(**overrides):
    values = SCHEMA.message_named("Kitchen").default_values()
    values["mac"] = b"abcd"
    values.update(overrides)
    return Message("Kitchen", values)


class TestEncodeDecode:
    def test_roundtrip_defaults(self):
        msg = kitchen()
        assert CODEC.decode(CODEC.encode(msg)) == msg

    def test_roundtrip_extremes(self):
        msg = kitchen(tiny=-128, little=255, short=-32768, ushort=65535,
                      word=-2**31, uword=2**32 - 1, big=-2**63,
                      ubig=2**64 - 1, flag=True, blob=b"x" * 1000)
        decoded = CODEC.decode(CODEC.encode(msg))
        assert decoded == msg

    def test_no_fields_message(self):
        msg = Message("NoFields", {})
        encoded = CODEC.encode(msg)
        assert len(encoded) == 2  # just the type tag
        assert CODEC.decode(encoded).type_name == "NoFields"

    def test_peek_type(self):
        encoded = CODEC.encode(Message("Tiny", {"x": 9}))
        assert CODEC.peek_type(encoded).name == "Tiny"

    def test_peek_unknown_type(self):
        assert CODEC.peek_type(b"\xff\xff rest") is None

    def test_peek_truncated(self):
        assert CODEC.peek_type(b"\x01") is None

    def test_missing_field_raises(self):
        with pytest.raises(CodecError):
            CODEC.encode(Message("Tiny", {}))

    def test_wrong_bytes_length_raises(self):
        with pytest.raises(CodecError):
            CODEC.encode(kitchen(mac=b"abc"))

    def test_varbytes_type_check(self):
        with pytest.raises(CodecError):
            CODEC.encode(kitchen(blob="not-bytes"))

    def test_trailing_bytes_raise(self):
        encoded = CODEC.encode(Message("Tiny", {"x": 1})) + b"\x00"
        with pytest.raises(CodecError):
            CODEC.decode(encoded)

    def test_truncated_raises(self):
        encoded = CODEC.encode(kitchen())
        with pytest.raises(CodecError):
            CODEC.decode(encoded[:-3])

    def test_unknown_type_raises(self):
        with pytest.raises(CodecError):
            CODEC.decode(b"\x63\x00")

    def test_varbytes_over_length_prefix(self):
        with pytest.raises(CodecError):
            CODEC.encode(kitchen(blob=b"x" * 70000))


class TestMessageValue:
    """What a handler, a test and the benchmark may rely on a message for,
    whatever class carries it."""

    def test_equal_exactly_when_type_and_fields_are(self):
        msg = Message("Tiny", {"x": 1})
        assert msg == Message("Tiny", {"x": 1})
        assert not msg != Message("Tiny", {"x": 1})
        assert msg != Message("Tiny", {"x": 2})
        assert msg != Message("Other", {"x": 1})
        assert not msg == Message("Other", {"x": 1})
        assert Message("NoFields") == Message("NoFields", {})

    def test_copy_is_an_independent_message_of_the_same_type(self):
        msg = kitchen(word=3)
        copied = msg.copy()
        assert type(copied) is Message and copied is not msg
        assert copied == msg and copied.type_name == "Kitchen"
        copied["word"] = 4
        assert msg["word"] == 3 and copied["word"] == 4

    def test_pickle_round_trip(self):
        import pickle
        msg = kitchen(blob=b"payload")
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(msg, protocol))
            assert type(back) is Message and back == msg
            assert back.type_name == "Kitchen"

    def test_field_access(self):
        msg = Message("Tiny", {"x": 1})
        assert msg["x"] == 1 and msg.get("x") == 1
        assert msg.get("missing") is None and msg.get("missing", 5) == 5
        msg["x"] = 2
        assert msg["x"] == 2
        with pytest.raises(KeyError):
            msg["missing"]

    def test_decoded_fields_equal_a_plain_dict(self):
        """The frozen benchmark's round-trip check."""
        decoded = CODEC.decode(CODEC.encode(Message("Tiny", {"x": 9})))
        assert decoded.fields == {"x": 9}
        assert not decoded.fields != {"x": 9}
        assert decoded.type_name == "Tiny"

    def test_a_message_is_its_field_dict(self):
        msg = kitchen(word=3)
        assert dict(msg) == msg.fields == msg
        assert type(dict(msg)) is dict


class TestMutate:
    def test_mutate_scalar(self):
        encoded = CODEC.encode(kitchen(word=10))
        mutated = CODEC.mutate(encoded, "word", -5)
        assert CODEC.decode(mutated)["word"] == -5

    def test_mutate_wraps_like_c(self):
        encoded = CODEC.encode(kitchen())
        mutated = CODEC.mutate(encoded, "little", 300)
        assert CODEC.decode(mutated)["little"] == 44

    def test_mutate_preserves_other_fields(self):
        msg = kitchen(blob=b"payload", big=77)
        mutated = CODEC.decode(CODEC.mutate(CODEC.encode(msg), "word", 1))
        assert mutated["blob"] == b"payload"
        assert mutated["big"] == 77

    def test_mutate_non_scalar_rejected(self):
        with pytest.raises(CodecError):
            CODEC.mutate(CODEC.encode(kitchen()), "mac", 1)

    def test_mutate_unknown_field_rejected(self):
        with pytest.raises(Exception):
            CODEC.mutate(CODEC.encode(kitchen()), "nope", 1)


def _value_for(label):
    t = SCALAR_TYPES.get(label)
    if label == "bool":
        return st.booleans()
    if t is not None and t.is_integer:
        return st.integers(min_value=int(t.min_value),
                           max_value=int(t.max_value))
    if label == "f32":
        return st.floats(width=32, allow_nan=False)
    return st.floats(allow_nan=False)


@st.composite
def kitchen_messages(draw):
    values = {}
    for f in SCHEMA.message_named("Kitchen").fields:
        if f.kind == "scalar":
            values[f.name] = draw(_value_for(f.scalar.name))
        elif f.kind == "bytes":
            values[f.name] = draw(st.binary(min_size=f.fixed_len,
                                            max_size=f.fixed_len))
        else:
            values[f.name] = draw(st.binary(max_size=200))
    return Message("Kitchen", values)


class TestPropertyRoundTrip:
    @settings(max_examples=200)
    @given(kitchen_messages())
    def test_encode_decode_identity(self, msg):
        decoded = CODEC.decode(CODEC.encode(msg))
        assert decoded.type_name == msg.type_name
        for name, value in msg.items():
            if isinstance(value, float):
                assert decoded[name] == pytest.approx(value, rel=1e-6) or \
                    decoded[name] == value
            else:
                assert decoded[name] == value

    @given(kitchen_messages(), st.integers(min_value=-2**70, max_value=2**70))
    def test_mutation_always_decodable(self, msg, lie):
        encoded = CODEC.encode(msg)
        mutated = CODEC.mutate(encoded, "word", lie)
        decoded = CODEC.decode(mutated)
        assert -2**31 <= decoded["word"] <= 2**31 - 1
