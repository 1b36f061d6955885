"""The replica skeleton every registered system shares.

Saved state, pinned byte for byte: a guest's app pages are
``pickle.dumps(node.snapshot_state())`` (``vm/machine.py``), so the key
order, the container types and the shared objects of that state are part of
every snapshot the platform stores and of every ``vm.stored_bytes`` figure.
The pins below were taken after a 2 s
warm-up of each system's default testbed at seed 1, and 8 s into PBFT's
view-change testbed, where the new primary holds one request key in both
``assigned`` and ``pending``; a change to how a system declares or copies its
state must leave them unchanged.

Dispatch: a replica's handler for message type ``T`` is its ``_on_<t>``
method, and a type it has no handler for is ignored.
"""

import hashlib
import pickle

import pytest

from repro.common.ids import client, replica
from repro.systems.common.replica import Replica
from repro.systems.pbft.testbed import pbft_view_change_testbed
from repro.systems.registry import get_system, system_names
from repro.wire.codec import Message

#: system -> node -> sha256 prefix of ``pickle.dumps(node.snapshot_state())``
PINS = {
    "aardvark": {"client0": "e5865e3858fa8f5e", "replica0": "268ded5938b4813c",
                 "replica1": "d2b58574fb9d5463", "replica2": "5208cd8e30a627ae",
                 "replica3": "29958ca6a7f4004f"},
    "byzgen": {"replica0": "979362d76be01143", "replica1": "199463109327ee2c",
               "replica2": "3d131f637ba97a09", "replica3": "f41a5ac4022f2862"},
    "paxos": {"client0": "0fae5e5bf361090d", "replica0": "43362dddc4559b74",
              "replica1": "0f48690a6f1c228c", "replica2": "dce75f2c3cee0292"},
    "pbft-view-change": {
        "client0": "51fb54e71cf5d849", "replica0": "7c5e205eb3f31615",
        "replica1": "c92a5435aa8a600c", "replica2": "0c10df306db6a03f",
        "replica3": "e8d576c064e107d4", "replica4": "cc2a28b9a59e726e",
        "replica5": "2e7eb0678ad81b28", "replica6": "81bf1a191f950a41"},
    "pbft": {"client0": "17a618b85218800b", "replica0": "7fcccd92d5a538b2",
             "replica1": "c0c8b19974b5dace", "replica2": "2a4abab80e9fe200",
             "replica3": "50f819766ada9cc9"},
    "prime": {"client0": "8e317143e63b9d48", "replica0": "878e179e0a010e86",
              "replica1": "f264792e0147b5a4", "replica2": "5c6aa0e6b1ad79a3",
              "replica3": "9aa4c0213d426e02"},
    "steward": {"client0": "f8018e11a11dad88", "replica0": "8947a5f7a48acd9d",
                "replica1": "aeb4368b6ed01a56", "replica2": "e01fd27ce06082f8",
                "replica3": "45e6eb0fa4616b4f", "replica4": "edc65254565a60b8",
                "replica5": "1ad31b89f737cca5", "replica6": "16310d1075b46468",
                "replica7": "bec0aef285110409"},
    "tom": {"replica0": "56bcd8cd8387ca81", "replica1": "f6941477edb56a4e",
            "replica2": "1bc9e3e7605145c0", "replica3": "fd9531d74ed032c7"},
    "zyzzyva": {"client0": "3a50a16eda219c0a", "replica0": "d0aa0363dedd640f",
                "replica1": "67dfd141a913a79c", "replica2": "b39de87dc9acf3cc",
                "replica3": "f9d5f3438c081693"},
}


def warm_world(name):
    if name == "pbft-view-change":
        world, warmup = pbft_view_change_testbed(warmup=1.0)(1).world, 8.0
    else:
        entry = get_system(name)
        world, warmup = entry.build(entry.default_role, 2.0, 1.0)(1).world, 2.0
    world.boot()
    world.run_for(warmup)
    return world


def saved(state):
    return pickle.dumps(state, protocol=4)


def containers(obj, found=None):
    """ids of every mutable container reachable from ``obj`` through dict
    values and list/tuple items (keys are immutable, leaves not followed)."""
    found = set() if found is None else found
    if isinstance(obj, (dict, list, set)):
        found.add(id(obj))
    if isinstance(obj, dict):
        for value in obj.values():
            containers(value, found)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            containers(item, found)
    return found


@pytest.mark.parametrize("name", system_names() + ["pbft-view-change"])
def test_saved_state_is_pinned_and_round_trips(name):
    world = warm_world(name)
    got = {str(n): hashlib.sha256(
        saved(world.nodes[n].snapshot_state())).hexdigest()[:16]
        for n in sorted(world.nodes)}
    assert got == PINS[name]

    for node_id in sorted(world.nodes):
        app = world.app(node_id)
        state = app.snapshot_state()
        app.restore_state(state)
        assert app.snapshot_state() == state
        assert saved(app.snapshot_state()) == saved(state)
        # A state may be restored more than once (the fault injector keeps
        # one per crashed node), so the live app must not alias it.
        live = {k: v for k, v in vars(app).items() if k != "node"}
        assert not containers(live) & containers(state), \
            f"{name}/{node_id}: restored app aliases its saved state"


@pytest.mark.parametrize("name", system_names())
def test_dispatch_table_is_the_handler_naming_rule(name):
    entry = get_system(name)
    world = entry.build(entry.default_role, 1.0, 1.0)(1).world
    types = entry.schema.message_names()
    replicas = {type(world.app(n)) for n in world.nodes
                if n.role == "replica"}
    assert replicas and all(issubclass(cls, Replica) for cls in replicas)
    for cls in replicas:
        rule = {t: getattr(cls, f"_on_{t.lower()}", None) for t in types}
        assert {t: cls._handlers.get(t.lower()) for t in types} == rule
        # every handler answers a message type the schema has
        assert set(cls._handlers) <= {t.lower() for t in types}


def test_a_type_without_a_handler_is_ignored():
    world = warm_world("pbft")
    app = world.app(replica(1))
    state = saved(app.snapshot_state())
    app.on_message(client(0), Message("Reply", {
        "view": 0, "timestamp": 1, "client": 0, "replica": 2,
        "result": bytes(8), "sig": bytes(32)}))
    assert saved(app.snapshot_state()) == state
