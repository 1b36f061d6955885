"""Turning findings into explanations.

An explanation is a probe, off the books: the prober that holds a finding
type's found context (:meth:`repro.parallel.worker.WorkerProber.explain`)
branches from its injection point once benign and once per finding
attacked, each with a :class:`~repro.forensics.causality.CausalRecorder`
on the emulator's causal tap (:func:`observe`).  :func:`explain_branches`
turns a pair of branches into an :class:`AttackExplanation`: injected
action → first divergent message → affected phases → perf delta.  It
keeps the two chronologies, which only the Chrome traces of a forensics
bundle read, when asked to.

Explanations are computed after a search or hunt's passes, from its
finding list, post-merge, so a parallel hunt's explanations are identical
to a serial hunt's, and the search output itself is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.attacks.actions import AttackScenario, MaliciousAction
from repro.controller.harness import InjectionPoint
from repro.controller.monitor import AttackThreshold, PerfSample
from repro.forensics.causality import CausalRecorder
from repro.forensics.differential import (Divergence, PerfTimeline,
                                          diff_branches, perf_timeline)

#: buckets per observation window in the perf timelines
TIMELINE_BUCKETS = 6


class CrashRecords(list):
    """A branch's EventLog record list that keeps its crashes only: all a
    crash chain reads."""

    def append(self, record) -> None:
        if record.event in ("crash", "crash_injected"):
            super().append(record)


def _sample_dict(sample: PerfSample) -> dict:
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
    crash_chain: List[str]


def observe(recorder: CausalRecorder, sample: PerfSample,
            crashes: CrashRecords, metrics, start: float,
            window: float) -> BranchObservation:
    """A branch that ran from ``start`` for ``window``, as the tap
    (``recorder``), the world's ``metrics`` and the EventLog's ``crashes``
    saw it."""
    crash_chain = [
        f"{r.component}[{'injected' if r.event == 'crash_injected' else 'fault'}]"
        f"@{r.time:.3f}" for r in crashes]
    timeline = perf_timeline(metrics, start, start + window,
                             buckets=TIMELINE_BUCKETS)
    return BranchObservation(recorder, sample, timeline, crash_chain)


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
    benign_sample: PerfSample
    attack_sample: PerfSample
    benign_timeline: PerfTimeline
    attack_timeline: PerfTimeline
    suppressed_types: List[str] = field(default_factory=list)
    delivery_deltas: List = field(default_factory=list)
    lost_descendants: int = 0
    proxy_notes: List[str] = field(default_factory=list)
    crash_chain: List[str] = field(default_factory=list)
    #: both branches' chronologies, for the trace export; kept only when
    #: asked for, and deliberately excluded from :meth:`to_dict`
    benign_chronology: Optional[CausalRecorder] = None
    attack_chronology: Optional[CausalRecorder] = None

    # ------------------------------------------------------------ rendering

    def one_line(self) -> str:
        return f"why {self.scenario}: {self.divergence.describe()}"

    def narrative(self) -> str:
        """The investigator's summary, one clause per causal step."""
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
            # always False: a finding's context always recurs (a prober
            # re-seeks one it lacks); kept for schema stability
            "unreproduced": False,
            "divergence": self.divergence.to_dict(),
            "damage": self.damage,
            "suppressed_types": list(self.suppressed_types),
            "delivery_deltas": [d.to_dict() for d in self.delivery_deltas],
            "lost_descendants": self.lost_descendants,
            "proxy_notes": list(self.proxy_notes),
            "crash_chain": list(self.crash_chain),
            "benign": _sample_dict(self.benign_sample),
            "attack": _sample_dict(self.attack_sample),
            "benign_timeline": self.benign_timeline.to_dict(),
            "attack_timeline": self.attack_timeline.to_dict(),
            "narrative": self.narrative(),
        }


def explain_branches(injection: InjectionPoint, action: MaliciousAction,
                     window: float, benign: BranchObservation,
                     attack: BranchObservation, threshold: AttackThreshold,
                     traces: bool) -> AttackExplanation:
    """Why ``action``, injected at ``injection``, degraded the system over
    ``window``: the differential of its ``attack`` branch against the
    ``benign`` one.  ``traces`` keeps both chronologies on the
    explanation."""
    scenario = AttackScenario(injection.message_type, action)
    diff = diff_branches(benign.recorder, attack.recorder)
    notes = sorted({note for notes in attack.recorder.proxy_notes.values()
                    for note in notes})
    return AttackExplanation(
        scenario=scenario.describe(),
        message_type=injection.message_type,
        action=action.describe(),
        action_record=action.to_record(),
        injection_time=injection.time,
        window=window,
        divergence=diff.divergence,
        damage=threshold.damage(benign.sample, attack.sample),
        benign_sample=benign.sample,
        attack_sample=attack.sample,
        benign_timeline=benign.timeline,
        attack_timeline=attack.timeline,
        suppressed_types=diff.suppressed_types,
        delivery_deltas=diff.delivery_deltas,
        lost_descendants=diff.lost_descendants,
        proxy_notes=notes,
        crash_chain=attack.crash_chain,
        benign_chronology=benign.recorder if traces else None,
        attack_chronology=attack.recorder if traces else None)
