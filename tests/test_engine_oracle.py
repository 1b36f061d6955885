"""The engine's determinism contract, drawn rather than enumerated.

Any engine configuration — one parent-side prober or a fork pool of two or
three workers, a journaled probe cache or none — must report, for any
algorithm and any excluded subset, what the live algorithm class reports
serially.  Hypothesis draws the configuration; the serial report it is
compared with is computed once per ``(algorithm, exclude)`` and cached for
the session.  Each drawn executor runs the pass twice: the second pass is
answered by the probes the first recorded.
"""

import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.reports import report_to_dict
from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.parallel import ScenarioExecutor
from repro.search import ALGORITHMS
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


def report_json(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


@pytest.fixture(scope="session")
def serial_reference():
    """``(algorithm, exclude)`` -> the live class's serial report JSON."""
    reports = {}

    def reference(algorithm, exclude):
        key = (algorithm, exclude)
        if key not in reports:
            built, run = OPTIONS[algorithm]
            reports[key] = report_json(ALGORITHMS[algorithm](
                FACTORY, **COMMON, **built).run(
                    message_types=TYPES, exclude=set(exclude), **run))
        return reports[key]

    return reference


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(workers=st.sampled_from([1, 2, 3]), stored=st.booleans(),
       algorithm=st.sampled_from(sorted(OPTIONS)),
       exclude=st.frozensets(st.sampled_from(SCENARIOS), max_size=3))
def test_every_engine_configuration_reports_serially(
        serial_reference, workers, stored, algorithm, exclude):
    built, run = OPTIONS[algorithm]
    with tempfile.TemporaryDirectory() as directory:
        store = RunStore(directory, seed=3) if stored else None
        try:
            with ScenarioExecutor(FACTORY, algorithm=algorithm,
                                  workers=workers, store=store, **COMMON,
                                  **built) as executor:
                reports = [report_json(executor.run_pass(
                    message_types=TYPES, exclude=set(exclude), **run))
                    for __ in range(2)]
        finally:
            if store is not None:
                store.close()
    assert reports == [serial_reference(algorithm, exclude)] * 2
