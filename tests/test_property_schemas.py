"""Property tests across every bundled system schema.

For each system: random messages of every type round-trip through the
codec, and every enumerated attack scenario applies cleanly to a well-formed
message of its type.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.actions import ActionContext
from repro.attacks.space import ActionSpace
from repro.common.ids import replica
from repro.common.rng import RandomStream
from repro.netem.packets import MessageEnvelope
from repro.systems.registry import get_system, system_names
from repro.wire.codec import Message, ProtocolCodec
from repro.wire.schema import KIND_BYTES, KIND_SCALAR


def value_strategy(field_spec):
    if field_spec.kind == KIND_SCALAR:
        t = field_spec.scalar
        if t.is_bool:
            return st.booleans()
        if t.is_integer:
            return st.integers(min_value=int(t.min_value),
                               max_value=int(t.max_value))
        if t.name == "f32":
            return st.floats(width=32, allow_nan=False)
        return st.floats(allow_nan=False)
    if field_spec.kind == KIND_BYTES:
        return st.binary(min_size=field_spec.fixed_len,
                         max_size=field_spec.fixed_len)
    return st.binary(max_size=64)


def message_strategy(schema):
    @st.composite
    def build(draw):
        spec = draw(st.sampled_from(schema.messages))
        values = {f.name: draw(value_strategy(f)) for f in spec.fields}
        return Message(spec.name, values)
    return build()


@pytest.mark.parametrize("system", system_names())
class TestSchemaProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_codec_roundtrip(self, system, data):
        entry = get_system(system)
        codec = ProtocolCodec(entry.schema)
        msg = data.draw(message_strategy(entry.schema))
        decoded = codec.decode(codec.encode(msg))
        assert decoded.type_name == msg.type_name
        for name, value in msg.items():
            if isinstance(value, float):
                assert decoded[name] == pytest.approx(value, rel=1e-6) or \
                    decoded[name] == value
            else:
                assert decoded[name] == value

    def test_every_scenario_applies_cleanly(self, system):
        entry = get_system(system)
        codec = ProtocolCodec(entry.schema)
        ctx = ActionContext(codec, RandomStream(0, "t"),
                            [replica(i) for i in range(4)])
        space = ActionSpace(entry.schema)
        for scenario in space.all_scenarios():
            spec = entry.schema.message_named(scenario.message_type)
            values = spec.default_values()
            payload = codec.encode(Message(spec.name, values))
            envelope = MessageEnvelope(1, replica(0), replica(1), "udp",
                                       payload)
            deliveries = scenario.action.apply(envelope, ctx)
            for delivery in deliveries:
                codec.decode(delivery.payload)  # always re-decodable
