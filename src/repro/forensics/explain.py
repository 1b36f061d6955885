"""Turning findings into explanations.

:class:`ForensicRunner` owns a dedicated :class:`AttackHarness` — with its
own private :class:`CostLedger`, so forensic re-execution never pollutes
the search's deterministic cost accounting — and replays each finding's
injection point twice: once benign, once attacked, with a
:class:`~repro.forensics.causality.CausalRecorder` attached during each
branch.  The differential between the two branches becomes an
:class:`AttackExplanation`: injected action → first divergent message →
affected phases → perf delta, plus the raw material (chronologies,
timelines, crash chains) the report renderers consume.

Explanations are computed *after* a search or hunt completes — from its
finding list, post-merge — so a parallel hunt's explanations are
identical to a serial hunt's, and the search output itself is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.controller.config import HuntConfig
from repro.controller.costs import CostLedger
from repro.controller.harness import InjectionPoint, TestbedFactory
from repro.controller.monitor import PerfSample
from repro.forensics.causality import CausalRecorder
from repro.forensics.differential import (DifferentialResult, Divergence,
                                          PerfTimeline, diff_branches,
                                          perf_timeline)
from repro.search.results import AttackFinding

#: buckets per observation window in the perf timelines
TIMELINE_BUCKETS = 6


def _sample_dict(sample: Optional[PerfSample]) -> Optional[dict]:
    if sample is None:
        return None
    return {
        "throughput": sample.throughput,
        "latency_avg": sample.latency_avg,
        "completed": sample.completed,
        "crashed_nodes": sample.crashed_nodes,
    }


@dataclass
class BranchObservation:
    """One forensic branch: its chronology, perf, and crash evidence."""

    recorder: CausalRecorder
    sample: PerfSample
    timeline: PerfTimeline
    crash_chain: List[str] = field(default_factory=list)


@dataclass
class AttackExplanation:
    """Why one confirmed finding degrades the system."""

    scenario: str                     # e.g. "Drop 100% PrePrepare"
    message_type: str
    action: str                       # the action's describe() text
    action_record: tuple
    injection_time: float
    window: float
    divergence: Divergence
    damage: float
    suppressed_types: List[str] = field(default_factory=list)
    delivery_deltas: List = field(default_factory=list)
    lost_descendants: int = 0
    proxy_notes: List[str] = field(default_factory=list)
    crash_chain: List[str] = field(default_factory=list)
    benign_sample: Optional[PerfSample] = None
    attack_sample: Optional[PerfSample] = None
    benign_timeline: Optional[PerfTimeline] = None
    attack_timeline: Optional[PerfTimeline] = None
    #: full branch observations (chronologies for the trace export);
    #: deliberately excluded from :meth:`to_dict`
    benign_branch: Optional[BranchObservation] = None
    attack_branch: Optional[BranchObservation] = None
    #: set when the injection point could not be reproduced
    unreproduced: bool = False

    # ------------------------------------------------------------ rendering

    def one_line(self) -> str:
        if self.unreproduced:
            return f"why {self.scenario}: injection point not reproduced"
        return f"why {self.scenario}: {self.divergence.describe()}"

    def narrative(self) -> str:
        """The investigator's summary, one clause per causal step."""
        if self.unreproduced:
            return (f"{self.scenario}: the injection point did not recur "
                    f"during forensic replay; no explanation available.")
        parts = [f"Injected {self.action} on {self.message_type} at "
                 f"t={self.injection_time:.2f}.",
                 f"First divergence from baseline: "
                 f"{self.divergence.describe()}."]
        if self.suppressed_types:
            parts.append("Suppressed protocol phases: "
                         + ", ".join(self.suppressed_types) + ".")
        if self.lost_descendants:
            parts.append(f"{self.lost_descendants} downstream messages "
                         f"induced by the diverged message in the baseline "
                         f"never materialised under attack.")
        if self.crash_chain:
            parts.append("Crash chain: " + " -> ".join(self.crash_chain)
                         + ".")
        if self.benign_sample is not None and self.attack_sample is not None:
            parts.append(
                f"Performance: {self.benign_sample.throughput:.2f} -> "
                f"{self.attack_sample.throughput:.2f} upd/s over the "
                f"{self.window:g}s window (damage {self.damage:.0%}).")
        return " ".join(parts)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "message_type": self.message_type,
            "action": self.action,
            "action_record": list(self.action_record),
            "injection_time": self.injection_time,
            "window": self.window,
            "unreproduced": self.unreproduced,
            "divergence": self.divergence.to_dict(),
            "damage": self.damage,
            "suppressed_types": list(self.suppressed_types),
            "delivery_deltas": [d.to_dict() for d in self.delivery_deltas],
            "lost_descendants": self.lost_descendants,
            "proxy_notes": list(self.proxy_notes),
            "crash_chain": list(self.crash_chain),
            "benign": _sample_dict(self.benign_sample),
            "attack": _sample_dict(self.attack_sample),
            "benign_timeline": (self.benign_timeline.to_dict()
                                if self.benign_timeline else None),
            "attack_timeline": (self.attack_timeline.to_dict()
                                if self.attack_timeline else None),
            "narrative": self.narrative(),
        }


class ForensicRunner:
    """Replays findings from their injection points and explains them."""

    def __init__(self, factory: TestbedFactory,
                 config: Optional[HuntConfig] = None) -> None:
        self.config = config = config or HuntConfig()
        #: private ledger: forensic replay cost never reaches search reports
        self.ledger = CostLedger()
        # No platform faults: a replay explains the finding, it is not
        # supervised.  Full event-log retention: the crash chain comes
        # from there.
        self.harness = replace(config, fault_plan=None).harness(
            factory, ledger=self.ledger, log_events=True)
        self._started = False
        #: one warm testbed serves every finding, so each message type's
        #: injection point is sought once: message type -> its point
        self._points: Dict[str, InjectionPoint] = {}

    # -------------------------------------------------------------- branches

    def _branch(self, point, action) -> BranchObservation:
        world = self.harness.world
        recorder = CausalRecorder(world.codec, lambda: world.kernel.now)
        log_mark = len(world.log.records)
        world.emulator.causal_tap = recorder
        try:
            sample = self.harness.branch_measure(point, action)
        finally:
            world.emulator.causal_tap = None
        crash_chain = [
            f"{r.component}[{'injected' if r.event == 'crash_injected' else 'fault'}]"
            f"@{r.time:.3f}"
            for r in world.log.records[log_mark:]
            if r.event in ("crash", "crash_injected")]
        window = self.harness.instance.window
        timeline = perf_timeline(world.metrics, point.time,
                                 point.time + window,
                                 buckets=TIMELINE_BUCKETS)
        return BranchObservation(recorder, sample, timeline, crash_chain)

    # --------------------------------------------------------------- explain

    def explain(self, finding: AttackFinding) -> AttackExplanation:
        if not self._started:
            self.harness.start_run()
            self._started = True
        scenario = finding.scenario
        point = self._points.get(scenario.message_type)
        if point is None:
            self.harness.restore(self.harness.warm_snapshot)
            point = self.harness.run_to_injection(scenario.message_type,
                                                  self.config.max_wait)
        if point is None:
            return AttackExplanation(
                scenario=scenario.describe(),
                message_type=scenario.message_type,
                action=scenario.action.describe(),
                action_record=scenario.action.to_record(),
                injection_time=-1.0, window=self.harness.instance.window,
                divergence=Divergence("none"), damage=0.0,
                unreproduced=True)
        self._points[scenario.message_type] = point
        benign = self._branch(point, None)
        attack = self._branch(point, scenario.action)
        diff: DifferentialResult = diff_branches(benign.recorder,
                                                 attack.recorder)
        notes = sorted(
            {note for notes in attack.recorder.proxy_notes.values()
             for note in notes})
        return AttackExplanation(
            scenario=scenario.describe(),
            message_type=scenario.message_type,
            action=scenario.action.describe(),
            action_record=scenario.action.to_record(),
            injection_time=point.time,
            window=self.harness.instance.window,
            divergence=diff.divergence,
            damage=self.config.threshold.damage(benign.sample, attack.sample),
            suppressed_types=diff.suppressed_types,
            delivery_deltas=diff.delivery_deltas,
            lost_descendants=diff.lost_descendants,
            proxy_notes=notes,
            crash_chain=attack.crash_chain,
            benign_sample=benign.sample,
            attack_sample=attack.sample,
            benign_timeline=benign.timeline,
            attack_timeline=attack.timeline,
            benign_branch=benign,
            attack_branch=attack)


def explain_findings(factory: TestbedFactory,
                     findings: List[AttackFinding],
                     config: Optional[HuntConfig] = None
                     ) -> List[AttackExplanation]:
    """Explain every finding, in finding order, on one warm testbed.

    Deterministic: the runner's world is seeded like the search's, the
    branches replay from snapshots, and nothing here consults wall-clock
    time — two calls with the same findings produce identical
    explanations, regardless of how many workers found them.
    """
    runner = ForensicRunner(factory, config)
    return [runner.explain(finding) for finding in findings]
