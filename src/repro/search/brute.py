"""Brute-force attack search (Fig. 2(a) of the paper).

The simplest algorithm: obtain a benign baseline once, then for every attack
scenario in the list run a *fresh* execution of the whole system with the
scenario's action installed from the start, and measure the window after the
first injection.  It needs no branching support, but it pays for that
simplicity exactly as the paper describes: executions where the target
message type never appears are entirely wasted, and every scenario re-pays
boot and warmup.  The executions are the prober's
(:meth:`repro.parallel.worker.WorkerProber.scenario`); the walk only asks.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.search.base import SearchAlgorithm
from repro.search.results import AttackFinding, SearchReport


class BruteForceSearch(SearchAlgorithm):
    """Fresh execution per scenario; no snapshots, no branching."""

    name = "brute-force"
    key = "brute"

    def _run_pass(self, message_types: Optional[Sequence[str]] = None,
                  exclude: Optional[Set[tuple]] = None,
                  max_scenarios: Optional[int] = None) -> SearchReport:
        report = self._make_report()
        probe = self._ask(self.steps.baseline(), note_crashes=False)
        if probe is None:
            return report
        baseline = probe.sample

        types = self._search_types(message_types)
        space = self._space()
        scenarios = [s for t in types
                     for s in space.scenarios_for(t, exclude)]
        if max_scenarios is not None:
            scenarios = scenarios[:max_scenarios]

        for scenario in scenarios:
            # (a fresh world per execution: only the last one's crashed
            # nodes are the report's)
            probe = self._ask(self.steps.scenario(scenario.to_record()),
                              scenario.message_type, scenario.action,
                              note_crashes=False)
            if probe is None:
                continue
            report.scenarios_evaluated += 1
            if probe.injected_at is None:
                if scenario.message_type not in report.types_without_injection:
                    report.types_without_injection.append(scenario.message_type)
                continue
            report.injection_points += 1

            if self.threshold.is_attack(baseline, probe.sample):
                report.findings.append(AttackFinding(
                    scenario, baseline, probe.sample,
                    damage=self.threshold.damage(baseline, probe.sample),
                    crashes=probe.sample.crashed_nodes,
                    found_at=self.ledger.total()))
        return report
