"""A lie is a finding, never a platform abort.

Whatever a lying proxy writes into a scalar field (the type's minimum or
maximum, the value nudged by one, doubled or negated), the target runs
under it: a branch comes back measured, possibly with crashed nodes, and no
platform error escapes ``branch_measure``.  That includes what the target
computes from the lie, such as a Paxos ``ballot + 1`` at the u32 maximum,
which is sent the way the original's fixed-width field would hold it.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.actions import LyingAction
from repro.attacks.strategies import LyingStrategy
from repro.controller.harness import AttackHarness
from repro.systems.registry import get_system, system_names

#: the CLI's default window: a Paxos follower lied a ballot campaigns (and
#: overflows it) only after its leader timeout, a few seconds in
WINDOW = 6.0
STRATEGIES = [LyingStrategy("min"), LyingStrategy("max"),
              LyingStrategy("add", 1), LyingStrategy("sub", 1),
              LyingStrategy("mul", 2), LyingStrategy("mul", -1)]


def _targets():
    """(system, message type, scalar field) over the types a benign run
    sends."""
    for name in system_names():
        entry = get_system(name)
        for mtype in entry.active_types or entry.schema.message_names():
            for f in entry.schema.message_named(mtype).scalar_fields():
                yield name, mtype, f.name


TARGETS = list(_targets())


@pytest.fixture(scope="module")
def injection():
    """``(system, type)`` -> (warm harness, injection point or None); one
    harness per system, one seek per type, for the whole module."""
    harnesses, points = {}, {}

    def point(name, mtype):
        if name not in harnesses:
            entry = get_system(name)
            harnesses[name] = AttackHarness(
                entry.build(entry.default_role, 1.0, WINDOW), seed=1)
            harnesses[name].start_run()
        harness = harnesses[name]
        if (name, mtype) not in points:
            harness.restore(harness.warm_snapshot)
            harness.proxy.clear_policy()
            points[name, mtype] = harness.run_to_injection(mtype, max_wait=5.0)
        return harness, points[name, mtype]

    return point


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(target=("paxos", "Accept", "ballot"), lie=LyingStrategy("max"))
@given(target=st.sampled_from(TARGETS), lie=st.sampled_from(STRATEGIES))
def test_a_lying_branch_is_measured(injection, target, lie):
    name, mtype, field = target
    harness, point = injection(name, mtype)
    if point is None:
        return  # this testbed never sends the type within the wait
    sample = harness.branch_measure(point, LyingAction(field, lie))
    assert sample.crashed_nodes <= len(harness.world.nodes)
