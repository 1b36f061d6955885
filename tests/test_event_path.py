"""Invariants of the per-message path: kernel order, plain saved state, cost.

These are stated once here instead of per scenario:

* the kernel fires events in ``(time, priority, seq)`` order whatever is
  scheduled, cancelled or re-scheduled across run windows (checked against
  a sorted reference model);
* in-flight tables hold ``Packet``/``MessageEnvelope``/``NodeId`` objects,
  but ``save_state()``/``snapshot_state()`` hand out plain records only —
  pinned byte for byte to what the record-holding emulator produced;
* a benign message costs no record conversion, no interpretive codec call,
  no ``NodeId`` construction, no tag parse after the sender's, one
  ``Packet`` and one heap entry per scheduled event (counted, never timed);
* a signature's canonical bytes equal the isinstance ladder kept here as
  the reference, and interning leaves a pickled id byte-identical.
"""

import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import WatchdogTimeout
from repro.common.ids import NodeId, client, replica
from repro.common.rng import RngRegistry
from repro.faults.models import PathFaults, path_key
from repro.netem import packets as packets_module
from repro.netem.emulator import NetworkEmulator, Verdict
from repro.netem.packets import MTU, MessageEnvelope, Packet
from repro.netem.topology import LanTopology
from repro.runtime.app import Application
from repro.runtime.node import Node
from repro.sim import kernel as kernel_module
from repro.sim.events import PRIORITY_CPU, PRIORITY_NETWORK, PRIORITY_TIMER
from repro.sim.kernel import SimKernel
from repro.telemetry.instruments import InstrumentRegistry
from repro.wire.codec import Message, ProtocolCodec
from repro.wire.schema import ProtocolSchema, make_message
from repro.wire.types import ScalarType


# ------------------------------------------------------------------ kernel

PRIORITIES = (PRIORITY_NETWORK, PRIORITY_CPU, PRIORITY_TIMER)
#: few distinct delays, so ties on time (and on time + priority) are common
DELAYS = st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.75))
OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), DELAYS, st.sampled_from(PRIORITIES),
              st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("reschedule"), st.integers(0, 40), DELAYS,
              st.sampled_from(PRIORITIES)),
    st.tuples(st.just("run"), st.sampled_from((0.0, 0.3, 1.0, 2.5))),
), min_size=1, max_size=60)


class TestKernelMatchesSortedReference:
    @settings(max_examples=200, deadline=None)
    @given(OPS)
    def test_firing_order_and_counts(self, ops):
        kernel = SimKernel()
        fired, handles = [], []
        #: the model, indexed like ``handles``:
        #: [time, priority, seq, cancelled, interrupts, fired]
        model, now, executed = [], 0.0, 0

        def fire(ident, interrupts):
            fired.append((ident, kernel.now))
            if interrupts:
                kernel.interrupt("stop", payload=ident)

        def schedule(delay, priority, interrupts):
            ident = len(handles)
            handles.append(kernel.schedule(delay, fire, ident, interrupts,
                                           priority=priority))
            model.append([now + delay, priority, ident, False, interrupts,
                          False])

        for op in ops:
            if op[0] == "schedule":
                schedule(*op[1:])
            elif op[0] == "cancel" and op[1] < len(handles):
                handles[op[1]].cancel()           # maybe after it fired
                model[op[1]][3] = True
            elif op[0] == "reschedule" and op[1] < len(handles):
                handles[op[1]].cancel()
                model[op[1]][3] = True
                schedule(op[2], op[3], False)
            elif op[0] == "run":
                deadline, expected, stopped = now + op[1], [], None
                for entry in sorted(model):
                    time, __, ident, cancelled, interrupts, was_fired = entry
                    if cancelled or was_fired or time > deadline:
                        continue
                    expected.append((ident, time))
                    entry[5] = True
                    if interrupts:
                        stopped = (ident, time)
                        break
                before = len(fired)
                interrupt = kernel.run_until(deadline)
                assert fired[before:] == expected
                executed += len(expected)
                if stopped is None:
                    assert interrupt is None
                    now = deadline
                else:
                    assert interrupt.payload == stopped[0]
                    now = stopped[1]
                assert kernel.now == now
                assert kernel.events_executed == executed
            for handle, entry in zip(handles, model):
                assert handle.time == entry[0]
                assert handle.active == (not entry[3])
        assert kernel.pending() == sum(
            1 for e in model if not e[3] and not e[5])

    def test_watchdog_trips_after_exactly_limit_events(self):
        kernel = SimKernel()
        kernel.instruments = InstrumentRegistry(enabled=True)
        kernel.watchdog_limit = 5
        ran = []
        for i in range(9):
            kernel.schedule(0.1 * i, ran.append, i)
        with pytest.raises(WatchdogTimeout) as info:
            kernel.run_until(10.0)
        assert ran == [0, 1, 2, 3, 4]
        assert (info.value.events, info.value.limit) == (5, 5)
        assert kernel.events_executed == 5 and kernel.watchdog_trips == 1
        assert kernel.now == pytest.approx(0.4)
        counters = kernel.instruments.counters()
        assert counters["kernel.events"] == 5
        assert counters["kernel.windows"] == 1
        # the next window starts a fresh count and finishes the rest
        kernel.watchdog_limit = None
        assert kernel.run_until(10.0) is None
        assert ran == list(range(9)) and kernel.events_executed == 9

    def test_scheduled_event_is_its_own_heap_entry_and_handle(self):
        kernel = SimKernel()
        handle = kernel.schedule(0.5, lambda: None)
        assert kernel._heap == [handle] and kernel._heap[0] is handle
        assert not any(isinstance(part, (list, tuple)) for part in handle[:4])


# ------------------------------------------------- saved state is plain data

PLAIN = (dict, list, tuple, str, bytes, int, float, bool, type(None))


def assert_plain(value, where="state"):
    """Only builtin containers and scalars, checked by exact type (a
    ``Packet`` is a tuple *subclass* and must not pass)."""
    assert type(value) in PLAIN, f"{where}: {type(value).__name__}"
    if isinstance(value, dict):
        for key, item in value.items():
            assert_plain(key, f"{where} key")
            assert_plain(item, f"{where}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            assert_plain(item, f"{where}[{i}]")


A, B, C, K = replica(0), replica(1), replica(2), client(0)


def bare_emulator():
    kernel = SimKernel()
    emulator = NetworkEmulator(kernel, LanTopology())
    inbox = []
    for host in (A, B, C, K):
        emulator.register_host(host)
        emulator.set_receiver(host, inbox.append)
    return kernel, emulator, inbox


def busy_emulator():
    """An emulator holding every kind of in-flight item at once."""
    kernel, emulator, inbox = bare_emulator()
    emulator.set_interceptor(
        lambda env: Verdict.hold("inj:1") if env.payload == b"hold"
        else Verdict.passthrough())
    emulator.transmit(A, B, "udp", b"hold")                  # held
    emulator.transmit(A, C, "udp", b"f" * (2 * MTU + 7))     # 3 fragments
    emulator.transmit(B, C, "tcp", b"delayed", delay=0.5)    # delayed egress
    emulator.topology.set_link_down("client0", "replica2")
    emulator.transmit(K, C, "tcp", b"retry me")              # TCP retry
    kernel.run_until(0.0013)          # fragment 0 has arrived, 1 and 2 not
    emulator.faults.set_path(path_key("replica1", "replica0"),
                             PathFaults(corrupt_rate=1.0))
    emulator.transmit(B, A, "udp", b"garbled")               # corrupt
    emulator.freeze()
    kernel.run_until(0.0016)          # fragment 1 lands frozen, 2 on the wire
    emulator.transmit(A, B, "udp", b"sent while frozen")     # frozen egress
    emulator.transmit(C, B, "tcp", b"and delayed", delay=0.25)
    assert not inbox
    return kernel, emulator


F = b"f" * MTU
#: ``busy_emulator()[1].save_state()`` as the record-holding emulator of
#: commit e233437 produced it (the local fault RNG's Mersenne state, 625
#: words, is pinned by the sha256 of its ``repr``)
BUSY_STATE = {
    "msg_seq": 7, "event_seq": 6, "frozen": True,
    "in_flight": [
        (3, "deliver", 0.0018528000000000001,
         (2, 2, 3, (0, "replica"), (2, "replica"), "udp", b"fffffff")),
        (4, "egress", 0.5,
         ((3, (1, "replica"), (2, "replica"), "tcp", b"delayed"), True)),
        (5, "retry", 0.2,
         (4, 0, 1, (0, "client"), (2, "replica"), "tcp", b"retry me")),
        (6, "corrupt", 0.0023527999999999995,
         (5, 0, 1, (1, "replica"), (0, "replica"), "udp", b"garbled")),
    ],
    "held": {"inj:1": (1, (0, "replica"), (1, "replica"), "udp", b"hold")},
    "frozen_packets": [(2, 1, 3, (0, "replica"), (2, "replica"), "udp", F)],
    "frozen_egress": [
        ((6, (0, "replica"), (1, "replica"), "udp", b"sent while frozen"),
         0.0, True),
        ((7, (2, "replica"), (1, "replica"), "tcp", b"and delayed"),
         0.25, True)],
    "devices": {
        "replica0": {"busy_until": 0.0012000000000000001, "stats": (3, 3, 0)},
        "replica1": {"busy_until": 0.0017, "stats": (1, 1, 0)},
        "replica2": {"busy_until": 0.0, "stats": (0, 0, 0)},
        "client0": {"busy_until": 0.0, "stats": (0, 0, 0)}},
    "reassembly": {
        "replica0": [], "replica1": [],
        "replica2": [
            (2, [(2, 0, 3, (0, "replica"), (2, "replica"), "udp", F)])],
        "client0": []},
    "counters": {"replica0": (0, 3, 0), "replica1": (0, 2, 0),
                 "replica2": (0, 1, 1), "client0": (0, 1, 0)},
    "stats": (7, 0, 0, 0, 4, 0, 0, 0, 1, 0),
    "faults": {"replica1>replica0": {"loss": None, "corrupt_rate": 1.0,
                                     "jitter": 0.0}},
    "link_state": {"down": [("client0", "replica2")], "partition": {}},
}
BUSY_FAULT_RNG_SHA256 = (
    "8006c64c29f2a5c0a4fe85bafd5bc9f127cc2f84c5c4ec7d4927404522f96c63")


class TestEmulatorStateIsPlainData:
    def test_every_kind_in_flight_saves_as_pinned_records(self):
        __, emulator = busy_emulator()
        state = emulator.save_state()
        assert {kind for __, kind, __, __ in state["in_flight"]} == {
            "egress", "deliver", "retry", "corrupt"}
        assert state["held"] and state["frozen_packets"]
        assert state["frozen_egress"] and state["reassembly"]["replica2"]
        assert_plain(state)
        fault_rng = state.pop("fault_rng")
        assert hashlib.sha256(repr(fault_rng).encode()).hexdigest() == \
            BUSY_FAULT_RNG_SHA256
        # ``==`` alone would let a tuple subclass through; ``repr`` does not
        assert state == BUSY_STATE and repr(state) == repr(BUSY_STATE)

    def test_tables_hold_objects_not_records(self):
        __, emulator = busy_emulator()
        for kind, __, item, __handle in emulator._in_flight.values():
            if kind == "egress":
                assert type(item[0]) is MessageEnvelope
            else:
                assert type(item) is Packet and type(item.src) is NodeId
        assert type(emulator._held["inj:1"]) is MessageEnvelope
        assert type(emulator._frozen_packets[0]) is Packet
        assert type(emulator._frozen_egress[0][0]) is MessageEnvelope

    def test_load_then_save_is_unchanged_and_still_delivers(self):
        __, emulator = busy_emulator()
        state = emulator.save_state()
        for fresh in (bare_emulator(), busy_emulator()):
            kernel, other = fresh[0], fresh[1]
            other.load_state(state)
            assert other.save_state() == state
            assert repr(other.save_state()) == repr(state)
        other.set_interceptor(None)
        other.topology.set_link_up("client0", "replica2")
        other.resume_emulation()
        other.release_held("inj:1")
        kernel.run_until(2.0)
        assert other.stats.messages_delivered == 6   # all but the garbled
        assert other.stats.packets_dropped_corrupt == 1
        assert not other._in_flight


SCHEMA = ProtocolSchema("path", (make_message("Ping", 1, [("n", "u32")]),))
CODEC = ProtocolCodec(SCHEMA)


class Sink(Application):
    def __init__(self):
        super().__init__()
        self.seen = []

    def on_message(self, src, message):
        self.seen.append((src, message["n"]))

    def snapshot_state(self):
        return {"seen": [((s.index, s.role), n) for s, n in self.seen]}

    def restore_state(self, state):
        self.seen = [(NodeId(*s), n) for s, n in state["seen"]]


def busy_node():
    """Replica 1 with two messages queued behind its serial CPU."""
    kernel = SimKernel()
    emulator = NetworkEmulator(kernel, LanTopology())
    rng = RngRegistry(0)
    nodes = []
    for host in (A, B, K):
        emulator.register_host(host)
        node = Node(host, kernel, emulator, CODEC, rng.stream(str(host)))
        node.attach(Sink())
        nodes.append(node)
    for n in (1, 2):
        nodes[0].send(B, Message("Ping", {"n": n}))
    nodes[2].send(B, Message("Ping", {"n": 3}))
    kernel.run_until(0.0012)
    return kernel, nodes[1]


#: ``busy_node()[1].snapshot_state()["pending"]`` at commit e233437
BUSY_PENDING = [
    (1, 0.0014027799999999997, (0, "replica"), b"\x01\x00\x01\x00\x00\x00", 1),
    (2, 0.0017528399999999999, (0, "client"), b"\x01\x00\x03\x00\x00\x00", 3),
]


class TestNodePendingIsPlainData:
    def test_pending_saves_as_pinned_records(self):
        __, node = busy_node()
        state = node.snapshot_state()
        assert_plain(state)
        assert repr(state["pending"]) == repr(BUSY_PENDING)
        assert type(state["dedup_fifo"]) is list
        assert all(type(entry[1]) is NodeId
                   for entry in node._pending.values())

    def test_restore_then_snapshot_is_unchanged_and_dispatches(self):
        kernel, node = busy_node()
        state = node.snapshot_state()
        node.restore_state(state)
        assert repr(node.snapshot_state()) == repr(state)
        kernel.run_until(1.0)
        assert node.app.seen == [(A, 1), (K, 3), (A, 2)]

    def test_pre_forensics_snapshot_without_cause_restores(self):
        kernel, node = busy_node()
        state = node.snapshot_state()
        state["pending"] = [entry[:4] for entry in state["pending"]]
        node.restore_state(state)
        assert [e[4] for e in node.snapshot_state()["pending"]] == [None] * 2


# ------------------------------------------------------------- cost per message

def count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)
    key = f"{getattr(owner, '__name__', owner)}.{name}"
    counts[key] = 0

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestCostPerMessage:
    """One benign PBFT request round on a 4-replica world (counts only)."""

    def test_no_record_conversion_no_interpreter_one_entry_per_event(
            self, monkeypatch):
        from repro.netem import emulator as emulator_module
        from repro.systems.pbft.testbed import pbft_testbed
        world = pbft_testbed(malicious="primary", warmup=1.0,
                             window=1.0)(3).world
        world.boot()
        world.run_for(0.5)
        counts = {}
        for name in ("packet_to_record", "packet_from_record",
                     "envelope_to_record", "envelope_from_record"):
            count_calls(monkeypatch, packets_module, name, counts)
            # the emulator imported these names at module load
            monkeypatch.setattr(emulator_module, name,
                                getattr(packets_module, name))
        count_calls(monkeypatch, ScalarType, "pack", counts)
        count_calls(monkeypatch, ScalarType, "unpack", counts)
        entries = []

        class CountedEvent(kernel_module.Event):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                entries.append(self)

        monkeypatch.setattr(kernel_module, "Event", CountedEvent)
        kernel = world.kernel
        seq_before = kernel._seq
        delivered_before = world.emulator.stats.messages_delivered
        names = {host: str(host) for host in world.emulator.hosts()}
        world.run_for(0.2)
        delivered = world.emulator.stats.messages_delivered - delivered_before
        assert delivered >= 4 * 3 * 2      # at least one three-phase round
        assert counts == dict.fromkeys(counts, 0), counts
        assert len(entries) == kernel._seq - seq_before > delivered
        assert all(type(e) is CountedEvent for e in kernel._heap
                   if e[2] > seq_before)
        for host, name in names.items():
            assert str(host) is name           # formatted once, not per call

    @staticmethod
    def steady_pbft():
        from repro.systems.pbft.testbed import pbft_testbed
        instance = pbft_testbed(malicious="primary", warmup=1.0,
                                window=1.0)(3)
        instance.world.boot()
        instance.world.run_for(0.5)
        return instance

    def test_steady_window_constructs_no_node_id(self, monkeypatch):
        """Ids are interned: a steady PBFT window re-uses the shared
        ``NodeId`` of every (index, role) it names instead of building one
        per message."""
        world = self.steady_pbft().world
        built = []
        post_init = NodeId.__post_init__

        def counted(node):
            built.append((node.index, node.role))
            post_init(node)

        monkeypatch.setattr(NodeId, "__post_init__", counted)
        delivered = world.emulator.stats.messages_delivered
        world.run_for(0.2)
        assert world.emulator.stats.messages_delivered - delivered >= 24
        assert built == []

    def test_steady_window_compares_no_node_id(self, monkeypatch):
        """A broadcast sends to its peers-without-self, and per-message
        id checks compare names: no ``NodeId.__eq__`` call per message."""
        world = self.steady_pbft().world
        counts = {}
        count_calls(monkeypatch, NodeId, "__eq__", counts)
        delivered = world.emulator.stats.messages_delivered
        world.run_for(0.2)
        assert world.emulator.stats.messages_delivered - delivered >= 24
        assert counts == {"NodeId.__eq__": 0}

    def test_field_read_is_a_dict_read(self):
        """A handler's ``msg["seq"]`` is a C call: a message is its field
        dict."""
        assert Message.__getitem__ is dict.__getitem__
        assert Message.get is dict.get

    def test_lying_path_parses_each_tag_at_most_once(self, monkeypatch):
        """The sender's spec rides on the envelope, so the proxy, the
        lying action and the receiver read it instead of re-parsing the
        tag; only bytes the lie re-created are parsed again, once."""
        from repro.attacks.actions import LyingAction
        from repro.attacks.strategies import REL_ADD, LyingStrategy
        instance = self.steady_pbft()
        world = instance.world
        instance.proxy.set_policy("PrePrepare", LyingAction(
            "big_reqs", LyingStrategy(REL_ADD, 0.0)))
        counts = {}
        count_calls(monkeypatch, ProtocolCodec, "_lookup", counts)
        count_calls(monkeypatch, ProtocolCodec, "mutate", counts)
        delivered = world.emulator.stats.messages_delivered
        world.run_for(0.2)
        delivered = world.emulator.stats.messages_delivered - delivered
        lies = counts["ProtocolCodec.mutate"]
        assert lies > 0 and delivered > 4 * lies
        # one parse inside each mutate, one at each lied copy's receiver
        assert counts["ProtocolCodec._lookup"] == 2 * lies <= delivered

    def test_single_fragment_message_is_one_packet(self, monkeypatch):
        from repro.netem import emulator as emulator_module
        world = self.steady_pbft().world
        built = []

        class CountedPacket(Packet):
            __slots__ = ()

            def __new__(cls, *args):
                built.append(args[0])
                return Packet.__new__(Packet, *args)

        monkeypatch.setattr(emulator_module, "Packet", CountedPacket)
        monkeypatch.setattr(packets_module, "Packet", CountedPacket)
        stats = world.emulator.stats
        sent, forwarded = stats.messages_sent, stats.packets_forwarded
        world.run_for(0.2)
        assert stats.messages_sent - sent >= 24
        assert len(built) == len(set(built)) == stats.messages_sent - sent
        assert stats.packets_forwarded - forwarded == len(built)

    @staticmethod
    def log_events_stream():
        from repro.attacks.space import ActionSpaceConfig
        from repro.controller.monitor import AttackThreshold
        from repro.search.hunt import hunt
        from repro.systems.registry import get_system
        from repro.telemetry.export import log_jsonl_records, write_jsonl
        result = hunt(
            get_system("pbft").build("primary", 1.0, 1.0), seed=1,
            message_types=["PrePrepare"],
            threshold=AttackThreshold(delta=0.25),
            space_config=ActionSpaceConfig(
                delays=(1.0,), drop_probabilities=(1.0,),
                duplicate_counts=(50,), include_divert=False,
                include_lying=False),
            max_passes=1, max_wait=5.0, log_events=True)
        out = io.StringIO()
        write_jsonl(out, log_jsonl_records(result.event_log, "*"))
        return out.getvalue()

    def test_log_events_output_matches_parent(self):
        text = self.log_events_stream()
        assert text.count("\n") == LOG_EVENTS_LINES
        assert hashlib.sha256(text.encode()).hexdigest() == LOG_EVENTS_SHA256

    def test_log_events_output_outlasts_the_log_capacity(self, monkeypatch):
        """A prober empties its world's EventLog at every probe, so a log
        holding about half the stream (the largest probe logs some 11,000
        records) still streams every record of the hunt."""
        import functools
        from repro.common.logging import EventLog
        monkeypatch.setattr(EventLog, "__init__", functools.partialmethod(
            EventLog.__init__, capacity=12_000))
        text = self.log_events_stream()
        assert text.count("\n") == LOG_EVENTS_LINES
        assert hashlib.sha256(text.encode()).hexdigest() == LOG_EVENTS_SHA256


#: what ``repro hunt --log-events`` wrote for that hunt at commit e233437
LOG_EVENTS_LINES = 21576
LOG_EVENTS_SHA256 = (
    "60a0a9ce5778ffdbb278d2c322d2fa0b8b265d5adfee865a54ff96f4f54403a9")


# ------------------------------------------------------- ids and signatures

def reference_canonical(fields):
    """``auth._canonical`` as the isinstance ladder it was, kept here as the
    reference the type-keyed version must equal byte for byte."""
    parts = []
    for value in fields:
        if isinstance(value, bytes):
            parts.append(b"b" + value)
        elif isinstance(value, bool):
            parts.append(b"o1" if value else b"o0")
        elif isinstance(value, int):
            parts.append(b"i" + str(value).encode())
        elif isinstance(value, float):
            parts.append(b"f" + repr(value).encode())
        else:
            parts.append(b"s" + str(value).encode())
    return b"|".join(parts)


FIELD_VALUES = st.one_of(
    st.binary(max_size=40), st.booleans(),
    st.integers(min_value=-10 ** 300, max_value=10 ** 300),
    st.sampled_from((0, -1, 2 ** 63, -2 ** 63, 2 ** 64 + 1)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((float("nan"), -0.0, 0.0, float("inf"),
                     float("-inf"), 1e-320)),
    st.text(max_size=20), st.none(),
    st.builds(replica, st.integers(0, 9)),
    st.builds(NodeId, st.integers(-3, 5000), st.sampled_from(
        ("replica", "client"))),
)


class TestIdsAndSignatures:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(FIELD_VALUES, st.tuples(FIELD_VALUES,
                                                      FIELD_VALUES)),
                    max_size=8))
    def test_canonical_equals_the_isinstance_ladder(self, fields):
        from repro.systems.common.auth import _canonical
        assert _canonical(tuple(fields)) == reference_canonical(fields)

    def test_pickled_id_is_unchanged(self):
        """Interning changes no byte of a pickled id, and an unpickled id
        is another object that still equals and hashes like the shared
        one."""
        import pickle
        data = pickle.dumps(replica(2))
        assert hashlib.sha256(data).hexdigest() == REPLICA2_PICKLE_SHA256
        copy = pickle.loads(data)
        assert copy is not replica(2)
        assert copy == replica(2) and hash(copy) == hash(replica(2))
        assert {copy: 1}[replica(2)] == 1 and str(copy) == "replica2"
        assert replica(2) is replica(2) and client(0) is client(0)
        assert replica(0) != client(0) and hash(replica(0)) == hash(client(0))


#: ``pickle.dumps(replica(2))`` at commit 4cc3218, before interning
REPLICA2_PICKLE_SHA256 = (
    "cb07d4828aeb179ebcbc200ece9a7982deb819f0ec422fe45d5978db27f8e6f8")
