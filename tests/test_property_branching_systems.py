"""Branch-determinism property across every target system.

The controller's conclusions are only valid if a restored snapshot replays
*exactly* — for each system we snapshot mid-execution, run a window twice
from the same snapshot, and require byte-identical world digests and
identical measured throughput.  This is the platform-wide regression net
for forgotten state in any app's ``snapshot_state``.

A snapshot is also data: pickled and restored into a second world, booted
and warmed on its own from the same factory and seed, it must replay the
same window.  That is what lets any prober branch from a context another
one sought, and what catches state a snapshot leaves behind in its world.
"""

import hashlib
import pickle

import pytest

from repro.controller.harness import AttackHarness
from repro.systems.aardvark.testbed import aardvark_testbed
from repro.systems.byzgen.testbed import byzgen_testbed
from repro.systems.paxos.testbed import paxos_testbed
from repro.systems.pbft.testbed import pbft_testbed
from repro.systems.prime.testbed import prime_testbed
from repro.systems.steward.testbed import steward_testbed
from repro.systems.tom.testbed import tom_testbed
from repro.systems.zyzzyva.testbed import zyzzyva_testbed

FACTORIES = {
    "pbft": lambda: pbft_testbed(warmup=1.0, window=1.0),
    "steward": lambda: steward_testbed(warmup=1.5, window=1.5),
    "zyzzyva": lambda: zyzzyva_testbed(warmup=1.0, window=1.0),
    "prime": lambda: prime_testbed(warmup=1.0, window=1.0),
    "aardvark": lambda: aardvark_testbed(warmup=1.0, window=1.0),
    "paxos": lambda: paxos_testbed(warmup=1.0, window=1.0),
    "byzgen": lambda: byzgen_testbed(warmup=1.0, window=1.0),
    "tom": lambda: tom_testbed(warmup=1.0, window=1.0),
}


def world_digest(world):
    h = hashlib.blake2b(digest_size=16)
    for node_id in sorted(world.nodes):
        h.update(pickle.dumps(world.nodes[node_id].snapshot_state(),
                              protocol=4))
    h.update(repr(world.kernel.now).encode())
    h.update(pickle.dumps(world.emulator.save_state(), protocol=4))
    return h.digest()


def mid_execution_snapshot(harness):
    """Boot and warm ``harness``, run on past the warm point (where a second
    world's restore starts from) and snapshot there."""
    harness.start_run()
    harness.world.run_for(0.25)
    return harness.take_snapshot()


def replay(harness, snapshot, window=1.0):
    """Restore ``snapshot`` and run ``window``: (digest, throughput)."""
    harness.restore(snapshot)
    harness.world.run_for(window)
    return (world_digest(harness.world), harness.world.metrics.throughput(
        snapshot.taken_at, snapshot.taken_at + window))


def replay_in_second_world(harness, snapshot, window=1.0):
    """:func:`replay` of ``snapshot``, round-tripped through ``pickle``, in
    a separately booted and warmed harness of the same factory and seed."""
    other = AttackHarness(harness.factory, harness.seed,
                          shared_pages=harness.shared_pages,
                          delta_snapshots=harness.delta_snapshots,
                          fault_schedule=harness.fault_schedule)
    other.start_run()
    return replay(other, pickle.loads(pickle.dumps(snapshot)), window), other


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_branch_replay_is_exact(name):
    harness = AttackHarness(FACTORIES[name](), seed=13)
    snapshot = mid_execution_snapshot(harness)

    runs = [replay(harness, snapshot) for __ in range(2)]
    assert runs[0][0] == runs[1][0], f"{name}: branch replay diverged"
    assert runs[0][1] == runs[1][1]
    assert runs[0][1] > 0, f"{name}: no progress measured"
    assert replay_in_second_world(harness, snapshot)[0] == runs[0], \
        f"{name}: the snapshot replayed differently in a second world"


@pytest.mark.parametrize("mode", [
    pytest.param(dict(shared_pages=False), id="plain"),
    pytest.param(dict(delta_snapshots=True), id="delta"),
])
def test_branch_replays_in_a_second_world_in_every_snapshot_mode(mode):
    harness = AttackHarness(FACTORIES["pbft"](), seed=13, **mode)
    snapshot = mid_execution_snapshot(harness)
    assert replay_in_second_world(harness, snapshot)[0] == \
        replay(harness, snapshot)


def test_second_world_catches_state_left_in_the_world(monkeypatch):
    """A planted bug one world cannot see: the component states leave the
    netem in-flight table out, and the world keeps the table of its last
    save to put back on restore.  Branching twice in the world that took
    the snapshot replays exactly; the second world, whose last save is its
    warm snapshot, re-schedules the wrong packets."""
    from repro.runtime.world import World

    save, load = World.save_component_states, World.load_component_states

    def save_without_in_flight(world):
        state = save(world)
        world.kept_in_flight = state["netem"]["in_flight"]
        state["netem"]["in_flight"] = []
        return state

    def load_with_kept_in_flight(world, state):
        state = dict(state, netem=dict(state["netem"],
                                       in_flight=world.kept_in_flight))
        load(world, state)

    monkeypatch.setattr(World, "save_component_states",
                        save_without_in_flight)
    monkeypatch.setattr(World, "load_component_states",
                        load_with_kept_in_flight)
    harness = AttackHarness(FACTORIES["pbft"](), seed=13)
    snapshot = mid_execution_snapshot(harness)
    first = replay(harness, snapshot)
    assert replay(harness, snapshot) == first  # one world: undetected
    assert replay_in_second_world(harness, snapshot)[0] != first


def test_branch_replay_is_exact_under_chaos_schedule():
    """The branch-determinism property must survive an armed FaultSchedule:
    loss/corruption draws, flaps, and injected crashes all replay exactly."""
    from repro.faults.schedule import FaultSchedule

    schedule = FaultSchedule(seed=9)
    schedule.add("loss", 0.0, path="*", p_enter_bad=0.02, p_exit_bad=0.5)
    schedule.add("corrupt", 0.0, path="*", rate=0.01)
    schedule.add("flap", 1.2, a="replica2", b="replica3", down_for=0.6)
    harness = AttackHarness(FACTORIES["pbft"](), seed=13,
                            fault_schedule=schedule)
    snapshot = mid_execution_snapshot(harness)

    runs = []
    for __ in range(2):
        runs.append((replay(harness, snapshot),
                     harness.world.emulator.stats.as_tuple()))
    assert runs[0] == runs[1], "pbft: chaos-schedule branch diverged"
    # the environment was genuinely faulty, not a no-op schedule
    stats = harness.world.emulator.stats
    assert stats.packets_dropped_loss > 0
    digest, other = replay_in_second_world(harness, snapshot)
    assert (digest, other.world.emulator.stats.as_tuple()) == runs[0], \
        "pbft: chaos-schedule snapshot replayed differently in a second world"


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_snapshot_restores_clock_and_state(name):
    harness = AttackHarness(FACTORIES[name](), seed=17)
    harness.start_run()
    snapshot = harness.take_snapshot()
    t0 = harness.world.kernel.now
    # semantic (not pickle-identity) capture of every node's state
    states0 = {str(n): harness.world.nodes[n].snapshot_state()
               for n in sorted(harness.world.nodes)}
    netem0 = harness.world.emulator.save_state()
    harness.world.run_for(0.7)
    harness.restore(snapshot)
    assert harness.world.kernel.now == t0
    for n in sorted(harness.world.nodes):
        assert harness.world.nodes[n].snapshot_state() == states0[str(n)], \
            f"{name}: {n} state diverged across restore"
    assert harness.world.emulator.save_state() == netem0
