"""A branch equals a fresh execution: brute force's pricing rule, pinned.

Brute force (Fig. 2(a)) runs each scenario as a fresh execution: boot,
warm up, run on until the action first applies, then measure the window.
The platform's premise is that a branch from a checkpoint of the whole
system behaves like that execution.  So a brute-force scenario can be
*priced* (:func:`repro.search.brute.price`) from what a branching walk
records anyway: the startup, the type's injection context and the
action's evaluation.  The property holds the priced probe to a fresh
execution, on every registered system, with and without CI's chaos
schedule: every charge (float ``==``), the injection time, the sample and
the crashed-node lines.  Two planted bugs show that it can fail.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.common.rng import RngRegistry
from repro.controller.costs import EXECUTION, SNAPSHOT_SAVE
from repro.controller.harness import AttackHarness
from repro.faults.schedule import FaultSchedule
from repro.parallel.recording import RecordingLedger
from repro.parallel.worker import ProbeParams, WorkerProber
from repro.search.brute import price
from repro.systems.registry import get_system, system_names

WARMUP, WINDOW, MAX_WAIT = 1.0, 1.0, 5.0
#: the ``--fast`` lying space
SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(0.5, 1.0),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=True)
#: CI's chaos schedule (it names replica2 and replica3)
CHAOS = FaultSchedule.from_dict({"version": 1, "seed": 21, "events": [
    {"kind": "loss", "at": 0.0, "path": "*", "p_enter_bad": 0.003,
     "p_exit_bad": 0.5},
    {"kind": "corrupt", "at": 0.0, "path": "*", "rate": 0.002},
    {"kind": "flap", "at": 1.5, "a": "replica2", "b": "replica3",
     "down_for": 0.4},
    {"kind": "crash", "at": 2.2, "node": "replica3", "restart_after": 0.5}]})


def _factory(system):
    entry = get_system(system)
    return entry.build(entry.default_role, WARMUP, WINDOW)


def _params(schedule):
    return ProbeParams(algorithm="greedy", space_config=SPACE,
                       max_wait=MAX_WAIT, fault_schedule=schedule)


CHAOS_SYSTEMS = [name for name in system_names()
                 if {"replica2", "replica3"}
                 <= {str(n) for n in _factory(name)(1).world.nodes}]

#: (system, chaos?) -> (branching prober, its startup, {type: context})
_BRANCHING = {}


def priced(system, message_type, action, schedule, rule=price,
           probers=_BRANCHING):
    """The scenario as brute force prices it: ``(charges, injected_at,
    sample, crash lines)`` from a branching prober's probes."""
    key = (system, schedule is not None)
    if key not in probers:
        prober = WorkerProber(0, _factory(system), 1, _params(schedule))
        probers[key] = (prober, prober.startup(), {})
    prober, startup, contexts = probers[key]
    if message_type not in contexts:
        contexts[message_type] = prober.context(message_type)
    probe = context = contexts[message_type]
    injected_at = sample = None
    if context.found:
        probe = prober.evaluate(message_type, action)
        injected_at, sample = probe.sample.start, probe.sample
    boot = [c for c in startup.trace.charges if c[0] != SNAPSHOT_SAVE]
    instance = prober.harness.instance
    return (rule(boot, instance.warmup, instance.window, MAX_WAIT,
                 injected_at),
            injected_at, sample, probe.trace.crash_lines)


def fresh(system, message_type, action, schedule):
    """The scenario as a fresh execution runs it: boot, warm up, install the
    action, run in half-second steps until it first applies, measure the
    window.  This is the reference implementation the rule is held to."""
    ledger = RecordingLedger()
    harness = AttackHarness(_factory(system), 1, ledger=ledger,
                            fault_schedule=schedule)
    instance = harness.start_run(take_warm_snapshot=False)
    instance.proxy.set_policy(message_type, action)
    world = instance.world
    deadline = world.kernel.now + MAX_WAIT
    injected_at = sample = None
    while world.kernel.now < deadline:
        start = world.kernel.now
        world.run_for(min(0.5, deadline - start))
        ledger.charge(EXECUTION, world.kernel.now - start)
        injected_at = instance.proxy.first_injection_time
        if injected_at is not None:
            break
    if injected_at is not None:
        window_end = injected_at + instance.window
        start = world.kernel.now
        world.run_until(window_end)
        ledger.charge(EXECUTION, world.kernel.now - start)
        sample = harness.monitor.sample(
            injected_at, window_end, crashed_nodes=len(world.crashed_nodes()))
    return (ledger.log, injected_at, sample,
            list(world.crashed_node_summaries()))


def check(system, message_type, action, schedule, **priced_options):
    assert priced(system, message_type, action, schedule,
                  **priced_options) == fresh(system, message_type, action,
                                             schedule)


@st.composite
def scenarios(draw):
    schedule = draw(st.sampled_from([None, CHAOS]))
    system = draw(st.sampled_from(
        CHAOS_SYSTEMS if schedule is not None else system_names()))
    instance = _factory(system)(1)
    message_type = draw(st.sampled_from(get_system(system).active_types
                                        or instance.search_types()))
    action = draw(st.sampled_from(
        ActionSpace(instance.schema, SPACE).actions_for(message_type)))
    return system, message_type, action, schedule


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(scenario=scenarios())
def test_a_priced_scenario_equals_a_fresh_execution(scenario):
    check(*scenario)


DELAY, COIN = ActionSpace(get_system("pbft").schema, SPACE).actions_for(
    "PrePrepare")[:2]


def resummed(boot, warmup, window, max_wait, injected_at):
    """A planted bug: the seek and the window charged as one sum."""
    if injected_at is None:
        return [*boot, ("execution", max_wait)]
    return [*boot, ("execution", injected_at + window - warmup)]


def test_property_catches_a_pricing_rule_that_resums_the_seek():
    check("pbft", "PrePrepare", DELAY, None)
    with pytest.raises(AssertionError):
        check("pbft", "PrePrepare", DELAY, None, rule=resummed)


def test_property_catches_a_restore_that_drops_an_rng_stream(monkeypatch):
    """A restore that leaves the proxy's stream where the last branch left
    it: a second branch from the same point flips other coins than a fresh
    execution does."""
    load_state = RngRegistry.load_state

    def forgetful(registry, state):
        load_state(registry, {name: stream for name, stream in state.items()
                              if name != "proxy"})

    probers = {}
    for __ in range(2):
        check("pbft", "PrePrepare", COIN, None, probers=probers)
    monkeypatch.setattr(RngRegistry, "load_state", forgetful)
    probers = {}
    check("pbft", "PrePrepare", COIN, None, probers=probers)
    with pytest.raises(AssertionError):
        check("pbft", "PrePrepare", COIN, None, probers=probers)


def test_the_injection_lands_in_a_chunk():
    """The seek is charged step by step, the window from the injection."""
    charges = price([("boot", 8.0)], 1.0, 2.0, 5.0, injected_at=1.7)
    assert charges == [("boot", 8.0), ("execution", 0.5),
                       ("execution", 0.5), ("execution", 1.7 + 2.0 - 2.0)]
    assert price([], 1.0, 2.0, 1.2, None) == [
        ("execution", 0.5), ("execution", 0.5), ("execution", 2.2 - 2.0)]
