"""The engine's determinism contract, drawn rather than enumerated.

Any engine configuration — one parent-side prober or a fork pool of two or
three workers, a journaled probe cache or none — must report, for any
algorithm, any excluded subset and with or without a fault plan, what the
reference configuration reports: one prober over an empty, unjournaled
cache.  Hypothesis draws the configuration; the reference report it is
compared with is computed once per ``(algorithm, exclude, plan)`` and
cached for the session, and its fault-free ``exclude=∅`` bytes are pinned.
Each drawn executor runs the pass twice: the second pass is answered by the
probes the first recorded.
"""

import hashlib
import json
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.reports import report_to_dict
from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.controller.supervisor import FaultPlan
from repro.parallel import ScenarioExecutor
from repro.store.runstore import RunStore
from repro.systems.paxos.testbed import paxos_testbed

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(), include_divert=False,
                          include_lying=False)
FACTORY = paxos_testbed(malicious_index=0, warmup=0.5, window=1.0)
TYPES = ["Accept", "Prepare", "Heartbeat"]
SCENARIOS = [s.to_record() for t in TYPES
             for s in ActionSpace(FACTORY(3).schema, SPACE).scenarios_for(t)]
COMMON = dict(seed=3, space_config=SPACE, max_wait=5.0)
#: per algorithm: constructor options, run options
OPTIONS = {
    "weighted": ({}, {}),
    "greedy": ({"rounds": 1, "confirmations": 1}, {}),
    "brute": ({}, {"max_scenarios": 4}),
}
#: the fault plans a configuration runs under (None: no injected faults),
#: each seeded with :data:`PLAN_SEED`
PLANS = [None, "restore=0.15,max=2"]
PLAN_SEED = 1


def report_json(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


#: the reference report's sha256 at ``exclude=∅``, as the live algorithm
#: classes reported it while they still simulated through a plane of their
#: own (commit ``e62344e``)
PINNED = {
    "weighted":
        "b5b8df0ee31b64d61347828f82238f04be0511aa441b3da2ec1e51db80da52ef",
    "greedy":
        "b5ba22239d1156ddf27d365800ee6f646bdae1f3713e70d6f6f36888184c5f6e",
    "brute":
        "082613c40a0c84a5ef7912f6040b2e20cb1e975f8edb3e5afd4076950424271b",
}


def run_passes(algorithm, exclude, plan=None, workers=1, store=None,
               passes=1):
    built, run = OPTIONS[algorithm]
    fault_plan = FaultPlan.from_spec(plan, seed=PLAN_SEED) if plan else None
    with ScenarioExecutor(FACTORY, algorithm=algorithm, workers=workers,
                          store=store, fault_plan=fault_plan, **COMMON,
                          **built) as executor:
        return [report_json(executor.run_pass(
            message_types=TYPES, exclude=set(exclude), **run))
            for __ in range(passes)]


@pytest.fixture(scope="session")
def reference():
    """``(algorithm, exclude, plan)`` -> the reference configuration's
    report JSON: one prober, no store, a fresh cache."""
    reports = {}

    def report(algorithm, exclude, plan=None):
        key = (algorithm, exclude, plan)
        if key not in reports:
            reports[key] = run_passes(algorithm, exclude, plan)[0]
        return reports[key]

    return report


@pytest.mark.parametrize("algorithm", sorted(OPTIONS))
def test_reference_is_pinned(reference, algorithm):
    digest = hashlib.sha256(
        reference(algorithm, frozenset()).encode()).hexdigest()
    assert digest == PINNED[algorithm]


@pytest.mark.parametrize("algorithm", sorted(OPTIONS))
def test_the_plan_faults(reference, algorithm):
    """The planned configurations are not fault-free ones in disguise."""
    stats = json.loads(reference(algorithm, frozenset(), PLANS[1]))[
        "supervisor"]
    assert stats["retries"] > 0 and stats["quarantines"] == 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(workers=st.sampled_from([1, 2, 3]), stored=st.booleans(),
       algorithm=st.sampled_from(sorted(OPTIONS)),
       exclude=st.frozensets(st.sampled_from(SCENARIOS), max_size=3),
       plan=st.sampled_from(PLANS))
def test_every_engine_configuration_reports_serially(
        reference, workers, stored, algorithm, exclude, plan):
    assume(workers > 1 or stored)  # (the reference configuration itself)
    with tempfile.TemporaryDirectory() as directory:
        store = RunStore(directory) if stored else None
        try:
            reports = run_passes(algorithm, exclude, plan, workers, store,
                                 passes=2)
        finally:
            if store is not None:
                store.close()
    assert reports == [reference(algorithm, exclude, plan)] * 2
