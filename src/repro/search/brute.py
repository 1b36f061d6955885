"""Brute-force attack search (Fig. 2(a) of the paper).

The simplest algorithm: obtain a benign baseline once, then for every attack
scenario in the list run a *fresh* execution of the whole system with the
scenario's action installed from the start, and measure the window after the
first injection.  It needs no branching support, but it pays for that
simplicity exactly as the paper describes: executions where the target
message type never appears are entirely wasted, and every scenario re-pays
boot and warmup.  That cost is a ledger fact, not a reason to simulate
again: a branch from a checkpoint of the whole system behaves like a fresh
execution (``tests/test_brute_pricing.py`` pins it), so the walk asks what
greedy asks and replays each scenario priced as its execution
(:func:`price`).  Only the baseline is a live fresh execution.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Set

from repro.controller.costs import EXECUTION, SNAPSHOT_SAVE
from repro.search.base import SearchAlgorithm, supervised
from repro.search.results import AttackFinding, SearchReport


def price(boot, warmup: float, window: float, max_wait: float,
          injected_at: Optional[float]) -> list:
    """One scenario's fresh execution, as charges: ``boot`` (a startup's
    less its warm snapshot save), then 0.5 s steps from ``warmup`` on, up
    to the first ending at or after ``injected_at`` (the kernel runs an
    event due on a deadline), then the rest of the window — or, with no
    injection point (None), ``max_wait`` of steps.  The float operations
    are the execution's, in its order, so a replay adds up bit for bit.
    """
    charges = list(boot)
    t = warmup
    deadline = t + max_wait
    while t < deadline:
        s, t = t, t + min(0.5, deadline - t)
        charges.append((EXECUTION, t - s))
        if injected_at is not None and injected_at <= t:
            # (the clock never goes back: a window ending inside the step
            # costs nothing more)
            charges.append((EXECUTION, max(t, injected_at + window) - t))
            break
    return charges


class BruteForceSearch(SearchAlgorithm):
    """Fresh execution per scenario; no snapshots, no branching."""

    name = "brute-force"
    key = "brute"

    def _run_pass(self, message_types: Optional[Sequence[str]] = None,
                  exclude: Optional[Set[tuple]] = None,
                  max_scenarios: Optional[int] = None) -> SearchReport:
        report, steps = self._make_report(), self.steps
        probe = self._ask(steps.baseline(), note_crashes=False)
        if probe is None:
            return report
        baseline = probe.sample

        space = self._space()
        scenarios = [s for t in self._search_types(message_types)
                     for s in space.scenarios_for(t, exclude)][:max_scenarios]
        startup = steps.startup()
        if supervised(startup) and self._ask(startup,
                                             note_crashes=False) is None:
            return report
        boot = [c for c in startup.trace.charges if c[0] != SNAPSHOT_SAVE]

        for scenario in scenarios:
            # (a fresh world per execution: only the last one's crashed
            # nodes are the report's)
            message_type, action = scenario.message_type, scenario.action
            probes = [steps.context(message_type)]
            if probes[0].found:
                probes.append(steps.evaluate(message_type, action))
            replayed, last = probes, probes[-1]
            if not any(map(supervised, probes)):
                charges = price(boot, steps.warmup, steps.window,
                                steps.max_wait, last.sample.start
                                if len(probes) > 1 else None)
                replayed = [replace(last, trace=replace(last.trace,
                                                        charges=charges))]
            if not all(self._ask(p, message_type, action, note_crashes=False)
                       for p in replayed):
                continue
            report.scenarios_evaluated += 1
            if len(probes) == 1:
                if message_type not in report.types_without_injection:
                    report.types_without_injection.append(message_type)
                continue
            report.injection_points += 1

            sample = probes[1].sample
            if self.threshold.is_attack(baseline, sample):
                report.findings.append(AttackFinding(
                    scenario, baseline, sample,
                    damage=self.threshold.damage(baseline, sample),
                    crashes=sample.crashed_nodes,
                    found_at=self.ledger.total()))
        return report
