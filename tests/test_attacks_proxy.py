"""Tests for the malicious proxy."""


from repro.attacks.actions import DropAction, DuplicateAction
from repro.attacks.proxy import INJECTION_POINT, MaliciousProxy
from repro.common.ids import replica
from repro.common.rng import RandomStream
from repro.netem.emulator import NetworkEmulator
from repro.netem.topology import LanTopology
from repro.sim.kernel import SimKernel
from repro.wire.codec import Message, ProtocolCodec
from repro.wire.schema import ProtocolSchema, make_message

SCHEMA = ProtocolSchema("px", (
    make_message("A", 1, [("x", "u32")]),
    make_message("B", 2, [("y", "u32")]),
))
CODEC = ProtocolCodec(SCHEMA)
GOOD, BAD, OTHER = replica(0), replica(1), replica(2)


def build(malicious=(BAD,)):
    kernel = SimKernel()
    emulator = NetworkEmulator(kernel, LanTopology())
    inboxes = {}
    for node in (GOOD, BAD, OTHER):
        emulator.register_host(node)
        inbox = []
        inboxes[node] = inbox
        emulator.set_receiver(node,
                              lambda env, i=inbox: i.append(env.payload))
    proxy = MaliciousProxy(emulator, CODEC, malicious,
                           RandomStream(0, "proxy"))
    return kernel, emulator, proxy, inboxes


def payload(mtype="A", value=1):
    field = "x" if mtype == "A" else "y"
    return CODEC.encode(Message(mtype, {field: value}))


class TestScoping:
    def test_benign_traffic_untouched(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.set_policy("A", DropAction(1.0))
        emulator.transmit(GOOD, OTHER, "udp", payload())
        kernel.run_until(0.1)
        assert len(inboxes[OTHER]) == 1
        assert proxy.intercepted == 0

    def test_malicious_traffic_intercepted(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.set_policy("A", DropAction(1.0))
        emulator.transmit(BAD, OTHER, "udp", payload())
        kernel.run_until(0.1)
        assert inboxes[OTHER] == []
        assert proxy.intercepted == 1

    def test_unknown_message_passes(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.set_policy("A", DropAction(1.0))
        emulator.transmit(BAD, OTHER, "udp", b"\x63\x00junk")
        kernel.run_until(0.1)
        assert len(inboxes[OTHER]) == 1

    def test_policy_is_per_type(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.set_policy("A", DropAction(1.0))
        emulator.transmit(BAD, OTHER, "udp", payload("B"))
        kernel.run_until(0.1)
        assert len(inboxes[OTHER]) == 1


class TestPolicies:
    def test_duplicate_policy(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.set_policy("A", DuplicateAction(3))
        emulator.transmit(BAD, OTHER, "udp", payload())
        kernel.run_until(0.1)
        assert len(inboxes[OTHER]) == 3
        assert proxy.first_injection_time is not None

    def test_clear_policy(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.set_policy("A", DropAction(1.0))
        proxy.clear_policy()
        emulator.transmit(BAD, OTHER, "udp", payload())
        kernel.run_until(0.1)
        assert len(inboxes[OTHER]) == 1

    def test_background_policy_survives_clear(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.set_background_policy("A", DropAction(1.0))
        proxy.clear_policy()
        emulator.transmit(BAD, OTHER, "udp", payload())
        kernel.run_until(0.1)
        assert inboxes[OTHER] == []

    def test_search_policy_shadows_background(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.set_background_policy("A", DropAction(1.0))
        proxy.set_policy("A", DuplicateAction(2))
        emulator.transmit(BAD, OTHER, "udp", payload())
        kernel.run_until(0.1)
        assert len(inboxes[OTHER]) == 2


class TestArming:
    def test_armed_type_interrupts_and_holds(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.arm("A")
        emulator.transmit(BAD, OTHER, "udp", payload())
        intr = kernel.run_until(0.1)
        assert intr is not None and intr.reason == INJECTION_POINT
        assert intr.payload["message_type"] == "A"
        assert intr.payload["src"] == BAD
        assert proxy.has_held()
        assert inboxes[OTHER] == []
        assert proxy.armed_type is None  # disarmed after trigger

    def test_armed_ignores_other_types(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.arm("A")
        emulator.transmit(BAD, OTHER, "udp", payload("B"))
        assert kernel.run_until(0.1) is None
        assert len(inboxes[OTHER]) == 1

    def test_arm_after_threshold(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.arm("A", after=0.5)
        emulator.transmit(BAD, OTHER, "udp", payload())
        assert kernel.run_until(0.2) is None
        kernel.schedule(0.5, lambda: emulator.transmit(
            BAD, OTHER, "udp", payload()))
        intr = kernel.run_until(1.0)
        assert intr is not None

    def test_release_baseline(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.arm("A")
        emulator.transmit(BAD, OTHER, "udp", payload())
        kernel.run_until(0.1)
        proxy.release_held(None)
        kernel.run_until(0.2)
        assert len(inboxes[OTHER]) == 1

    def test_release_with_action(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.arm("A")
        emulator.transmit(BAD, OTHER, "udp", payload())
        kernel.run_until(0.1)
        proxy.release_held(DuplicateAction(4))
        kernel.run_until(0.2)
        assert len(inboxes[OTHER]) == 4

    def test_release_with_drop(self):
        kernel, emulator, proxy, inboxes = build()
        proxy.arm("A")
        emulator.transmit(BAD, OTHER, "udp", payload())
        kernel.run_until(0.1)
        proxy.release_held(DropAction(1.0))
        kernel.run_until(0.2)
        assert inboxes[OTHER] == []
        assert not proxy.has_held()
