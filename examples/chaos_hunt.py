#!/usr/bin/env python3
"""Chaos layer end to end: hunt under faults, then validate robustness.

A hunt on a pristine emulated network can surface candidates whose damage
would equally well be produced by a lossy link — false positives in any
real deployment.  This example demonstrates the full chaos pipeline:

1. a PBFT hunt with a declarative :class:`FaultSchedule` armed — bursty
   Gilbert–Elliott loss, payload corruption, reorder jitter, a link flap,
   and a scheduled crash+restart of a benign replica — all deterministic
   and JSON-serializable;
2. robustness validation: the found attacks (plus one scripted
   false positive) re-measured under perturbed environments, each scored
   against *that environment's own* benign baseline, so ambient damage
   subtracts out;
3. the determinism guarantee: the same seed and schedule reproduce the
   hunt byte-for-byte.

Run:  python examples/chaos_hunt.py
"""

import json
from types import SimpleNamespace

from repro.analysis.reports import hunt_result_to_dict
from repro.attacks.actions import AttackScenario, DelayAction
from repro.attacks.space import ActionSpaceConfig
from repro.controller.config import HuntConfig
from repro.faults.schedule import FaultSchedule
from repro.faults.validation import validate_findings
from repro.search.hunt import hunt
from repro.systems.pbft import pbft_testbed

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)
FACTORY = pbft_testbed(malicious="primary", warmup=1.0, window=2.0)
KW = dict(seed=1, message_types=["PrePrepare"], space_config=SPACE,
          max_wait=5.0, max_passes=2)


def chaos_schedule() -> FaultSchedule:
    # Each rate is mild on its own, but they compose: the combined ambient
    # degradation must stay below the point where PBFT's view-change timers
    # start cascading, or the benign baseline itself flatlines and the
    # Δ-rule has nothing to compare against.
    schedule = FaultSchedule(seed=21)
    schedule.add("loss", 0.0, path="*", p_enter_bad=0.003, p_exit_bad=0.5)
    schedule.add("corrupt", 0.0, path="*", rate=0.002)
    schedule.add("jitter", 0.0, path="*", jitter=0.0003)
    schedule.add("flap", 1.5, a="replica2", b="replica3", down_for=0.4)
    schedule.add("crash", 2.2, node="replica3", restart_after=0.5)
    return schedule


def main() -> int:
    schedule = chaos_schedule()
    print("=== 1. PBFT hunt inside a perturbed environment ===")
    print(schedule.describe())
    print("(round-trips through JSON: --faults chaos.json on the CLI)")
    assert FaultSchedule.from_json(schedule.to_json()).to_dict() \
        == schedule.to_dict()

    result = hunt(FACTORY, fault_schedule=schedule, **KW)
    print(result.describe())
    assert result.findings, "the hunt should still find attacks under chaos"

    print("\n=== 2. robustness validation (real attack vs false positive) ===")
    # A scripted false positive: 1 ms of delay does nothing to PBFT — any
    # damage attributed to it in a noisy run came from the environment.
    false_positive = SimpleNamespace(
        scenario=AttackScenario("PrePrepare", DelayAction(0.001)))
    candidates = list(result.findings) + [false_positive]
    validation = validate_findings(FACTORY, candidates,
                                   HuntConfig(seed=KW["seed"], max_wait=5.0),
                                   environments=3, seed=KW["seed"])
    print(validation.describe())
    fp = validation.result_named(false_positive.scenario.describe())
    assert fp.score == 0.0, "the false positive should not survive"
    for finding in result.findings:
        score = validation.result_named(finding.name).score
        assert score > fp.score
        print(f"-> {finding.name}: robustness {score:.0%} "
              f"(false positive: {fp.score:.0%})")

    print("\n=== 3. same seed + same schedule => byte-identical hunt ===")
    again = hunt(FACTORY, fault_schedule=chaos_schedule(), **KW)
    a = json.dumps(hunt_result_to_dict(result), sort_keys=True)
    b = json.dumps(hunt_result_to_dict(again), sort_keys=True)
    assert a == b, "chaos hunts must be reproducible"
    print(f"-> {len(a)} bytes of serialized hunt result, identical twice")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
