"""The superset rule, checked without simulating anything.

A walk is a policy over step answers, so it can run over a synthetic table
as well as over a testbed.  :class:`ScriptedSteps` is such a table: per
message type, whether its injection context is found, absent or
quarantined, and per action whether the branch is an attack, a crash,
benign or quarantined.  The property fills a :class:`ProbeCache` the way a
fork pool prefetches it — each type's context, then
:meth:`ProbeCache.split` and :meth:`ProbeCache.walk` per found one, and
brute force's baseline — and then runs the walk over that cache with no
prober: a miss would be a coverage hole.  It must find none, and must
report what the same walk reports asking the table directly.  Brute force
asks what greedy asks, so greedy's prefetch covers it too.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reports import report_to_dict
from repro.attacks.actions import AttackScenario
from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.common.errors import SearchError
from repro.controller.monitor import AttackThreshold, PerfSample
from repro.parallel.merge import CachedSteps
from repro.parallel.recording import StepTrace
from repro.parallel.worker import (BaselineProbe, ContextProbe, EvalProbe,
                                   ProbeCache, StartupProbe)
from repro.search import ALGORITHMS
from repro.search.weighted import DEFAULT_WEIGHTS, ClusterWeights
from repro.systems.paxos.schema import PAXOS_SCHEMA

TYPES = ["Accept", "Prepare", "Heartbeat"]
#: four clusters, two of them with two actions: enough for an early stop
#: to leave something out
SPACE = ActionSpaceConfig(delays=(0.5, 1.0), drop_probabilities=(0.5, 1.0),
                          duplicate_counts=(2,), include_divert=True,
                          include_lying=False)
THRESHOLD = AttackThreshold()
ACTIONS = ActionSpace(PAXOS_SCHEMA, SPACE).actions_for(TYPES[0])
RECORDS = [action.to_record() for action in ACTIONS]
SCENARIOS = [AttackScenario(t, a).to_record() for t in TYPES for a in ACTIONS]

CONTEXTS = ("found", "absent", "quarantined")
OUTCOMES = ("benign", "attack", "crash", "quarantined")
BASELINE = PerfSample(0.0, 1.0, 100.0, 0.1, 0.2, 0.3)
SAMPLES = {"benign": PerfSample(0.0, 1.0, 95.0, 0.1, 0.2, 0.3),
           "attack": PerfSample(0.0, 1.0, 10.0, 0.1, 2.0, 3.0),
           "crash": PerfSample(0.0, 1.0, 90.0, 0.1, 0.2, 0.3,
                               crashed_nodes=1)}


def _trace(seconds: float) -> StepTrace:
    return StepTrace([("execution", seconds), ("snapshot_restore", 0.25)])


class ScriptedSteps:
    """A step source answering from ``table``: message type ->
    ``(context outcome, [action outcome per ACTIONS entry])``."""

    system = "scripted"
    schema = PAXOS_SCHEMA
    warmup, window, max_wait = 2.0, 1.0, 3.0

    def __init__(self, table) -> None:
        self.table = table

    def search_types(self):
        return list(self.table)

    def _outcome(self, message_type, action) -> str:
        return self.table[message_type][1][RECORDS.index(action.to_record())]

    def startup(self):
        return StartupProbe(StepTrace([("boot", 8.0), ("execution", 2.0)]))

    def context(self, message_type):
        outcome = self.table[message_type][0]
        return ContextProbe(
            found=outcome == "found", trace=_trace(1.5),
            quarantined=("scripted fault", 3)
            if outcome == "quarantined" else None)

    def evaluate(self, message_type, action):
        outcome = self._outcome(message_type, action)
        if outcome == "quarantined":
            return EvalProbe(action.to_record(), None, None, _trace(0.5),
                             ("scripted fault", 3))
        return EvalProbe(action.to_record(), BASELINE, SAMPLES[outcome],
                         _trace(1.0 + RECORDS.index(action.to_record()) / 8))

    def baseline(self):
        return BaselineProbe(BASELINE, _trace(3.0))


def prefetch(steps: ScriptedSteps, algorithm: str, excluded) -> ProbeCache:
    """Every probe a fork pool records for the pass before its walk."""
    cache = ProbeCache()
    space = ActionSpace(steps.schema, SPACE)
    if algorithm == "brute":
        cache.add_baseline(steps.baseline())
    early_stop = algorithm == "weighted"
    cache.add_startup(steps.startup())
    for message_type in steps.search_types():
        actions = space.actions_for(message_type, excluded)
        if not actions:
            continue
        context = steps.context(message_type)
        cache.add_context(message_type, context)
        if context.found and context.quarantined is None:
            for group in ProbeCache.split(actions, early_stop):
                cache.walk(message_type, group, THRESHOLD, early_stop,
                           steps.evaluate)
    return cache


def walk_report(algorithm, weights, excluded, steps) -> str:
    options = {"weighted": {"weights": ClusterWeights(dict(weights))},
               "greedy": {"rounds": 2, "confirmations": 2},
               "brute": {}}[algorithm]
    walk = ALGORITHMS[algorithm](None, threshold=THRESHOLD,
                                 space_config=SPACE, **options)
    report = walk.run(exclude=set(excluded), steps=steps)
    return json.dumps(report_to_dict(report), sort_keys=True)


def check_superset(table, algorithm, weights, excluded) -> None:
    """The property body: a prefetched cache answers the whole walk."""
    steps = ScriptedSteps(table)
    cache = prefetch(steps, algorithm, excluded)
    instance = SimpleNamespace(name=steps.system, schema=steps.schema,
                               search_types=steps.search_types,
                               warmup=steps.warmup, window=steps.window)
    try:
        cached = walk_report(algorithm, weights, excluded,
                             CachedSteps(instance, cache,
                                         max_wait=steps.max_wait))
    except SearchError as hole:
        raise AssertionError(f"{algorithm}: {hole}") from hole
    assert cached == walk_report(algorithm, weights, excluded, steps)


tables = st.fixed_dictionaries({
    message_type: st.tuples(
        st.sampled_from(CONTEXTS),
        st.lists(st.sampled_from(OUTCOMES), min_size=len(ACTIONS),
                 max_size=len(ACTIONS)))
    for message_type in TYPES})


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(table=tables, algorithm=st.sampled_from(sorted(ALGORITHMS)),
       weights=st.dictionaries(st.sampled_from(sorted(DEFAULT_WEIGHTS)),
                               st.floats(0.0, 3.0)),
       excluded=st.sets(st.sampled_from(SCENARIOS), max_size=6))
def test_prefetched_cache_answers_every_walk(table, algorithm, weights,
                                             excluded):
    check_superset(table, algorithm, weights, excluded)


def test_property_catches_a_split_that_keeps_one_action_per_cluster(
        monkeypatch):
    """A property that cannot fail proves nothing: a ``split`` that keeps
    only each cluster's first action breaks the superset rule as soon as a
    weighted walk passes a cluster's first action by — here every branch
    of a found type is benign, so it walks all of them."""
    table = {message_type: ("found", ["benign"] * len(ACTIONS))
             for message_type in TYPES}
    check_superset(table, "weighted", {}, set())
    split = ProbeCache.split

    def first_of_each_cluster(actions, early_stop):
        return [group[:1] for group in split(actions, early_stop)]

    monkeypatch.setattr(ProbeCache, "split",
                        staticmethod(first_of_each_cluster))
    with pytest.raises(AssertionError, match="coverage hole"):
        check_superset(table, "weighted", {}, set())
