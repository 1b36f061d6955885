"""Attack findings and search reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.attacks.actions import AttackScenario
from repro.controller.costs import CostLedger
from repro.controller.monitor import PerfSample
from repro.controller.supervisor import QuarantinedScenario, SupervisorStats
from repro.faults.validation import ValidationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.health import WorkerHealthReport


@dataclass
class AttackFinding:
    """One discovered performance attack."""

    scenario: AttackScenario
    baseline: PerfSample
    attacked: PerfSample
    damage: float                 # relative throughput loss, 0..1
    crashes: int                  # benign nodes crashed by the action
    found_at: float               # ledger total when the attack was confirmed
    confirmations: int = 1        # times the scenario was (re-)selected

    @property
    def name(self) -> str:
        return self.scenario.describe()

    @property
    def is_crash_attack(self) -> bool:
        return self.crashes > 0

    def describe(self) -> str:
        kind = "CRASH" if self.is_crash_attack else "PERF"
        return (f"[{kind}] {self.name}: {self.baseline.throughput:.1f} -> "
                f"{self.attacked.throughput:.1f} upd/s "
                f"(damage {self.damage:.0%}, found at {self.found_at:.1f}s)")


@dataclass
class SearchReport:
    """Everything a search run produced."""

    algorithm: str
    system: str
    findings: List[AttackFinding] = field(default_factory=list)
    #: worst-but-below-Δ selections (weighted greedy's fallback path)
    weak_selections: List[AttackFinding] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)
    scenarios_evaluated: int = 0
    injection_points: int = 0
    types_without_injection: List[str] = field(default_factory=list)
    #: scenarios set aside as inconclusive after persistent platform faults
    quarantined: List[QuarantinedScenario] = field(default_factory=list)
    #: retries, rebuilds, quarantines, watchdog trips + their event log
    supervisor: SupervisorStats = field(default_factory=SupervisorStats)
    #: nodes observed crashed during the search, as "name [kind] reason"
    #: lines — makes a hunt that silently lost a replica visible
    crashed_nodes: List[str] = field(default_factory=list)
    #: robustness validation of the findings (None unless --validate ran)
    validation: Optional[ValidationReport] = None
    #: side channel, like HuntResult.worker_breakdown: what the parallel
    #: executor's self-healing layer did this pass (None when the pass was
    #: serial or clean).  Worker fate depends on wall-clock scheduling, so
    #: this is never serialized into the deterministic report JSON.
    worker_health: Optional["WorkerHealthReport"] = None
    #: forensic :class:`~repro.forensics.explain.AttackExplanation` list
    #: (side channel too: computed post-search on demand, and never part
    #: of the serialized report — the report JSON must stay byte-identical
    #: whether or not --explain ran)
    explanations: Optional[list] = None

    @property
    def total_time(self) -> float:
        return self.ledger.total()

    def finding_named(self, name: str) -> Optional[AttackFinding]:
        for finding in self.findings:
            if finding.name == name:
                return finding
        return None

    def attack_names(self) -> List[str]:
        return [f.name for f in self.findings]

    def describe(self) -> str:
        lines = [f"{self.algorithm} on {self.system}: "
                 f"{len(self.findings)} attacks, "
                 f"{self.scenarios_evaluated} scenarios evaluated, "
                 f"platform time {self.total_time:.1f}s"]
        lines.extend("  " + f.describe() for f in self.findings)
        if self.crashed_nodes:
            lines.append(f"  crashed nodes: {', '.join(self.crashed_nodes)}")
        if self.supervisor.total_events:
            lines.append("  " + self.supervisor.describe())
        lines.extend("  " + q.describe() for q in self.quarantined)
        if self.worker_health is not None and self.worker_health.eventful:
            lines.append("  " + self.worker_health.one_line())
        if self.explanations:
            lines.extend("  " + e.one_line() for e in self.explanations)
        if self.validation is not None:
            lines.extend("  " + line
                         for line in self.validation.describe().splitlines())
        return "\n".join(lines)
