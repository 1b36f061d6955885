"""Brute-force attack search (Fig. 2(a) of the paper).

The simplest algorithm: obtain a benign baseline once, then for every attack
scenario in the list run a *fresh* execution of the whole system with the
scenario's action installed from the start, and measure the window after the
first injection.  It needs no branching support, but it pays for that
simplicity exactly as the paper describes: executions where the target
message type never appears are entirely wasted, and every scenario re-pays
boot and warmup.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

from repro.controller.costs import EXECUTION
from repro.controller.harness import AttackHarness
from repro.controller.monitor import PerfSample
from repro.controller.supervisor import ScenarioQuarantined
from repro.search.base import SearchAlgorithm
from repro.search.results import AttackFinding, SearchReport


class BruteForceSearch(SearchAlgorithm):
    """Fresh execution per scenario; no snapshots, no branching."""

    name = "brute-force"

    def _baseline_attempt(self) -> PerfSample:
        """One benign execution for the baseline.  Each attempt is already
        a full rebuild, so the supervisor retries the callable directly."""
        self.harness = self._fresh_harness()
        self.harness.start_run(take_warm_snapshot=False)
        return self.harness.measure_window()

    def _scenario_attempt(self, scenario, max_wait: float
                          ) -> Tuple[Optional[float], Optional[PerfSample]]:
        # Fresh execution: boot + warmup paid every time.
        self.harness = self._fresh_harness()
        instance = self.harness.start_run(take_warm_snapshot=False)
        instance.proxy.set_policy(scenario.message_type, scenario.action)
        instance.proxy.reset_counters()

        # Run until the action has actually been applied (the injection
        # point), or waste the full execution if the type never occurs.
        deadline = instance.world.kernel.now + max_wait
        injected_at = None
        while instance.world.kernel.now < deadline:
            start = instance.world.kernel.now
            step = min(0.5, deadline - start)
            try:
                instance.world.run_for(step)
            finally:
                self.ledger.charge(
                    EXECUTION, instance.world.kernel.now - start)
            if instance.proxy.first_injection_time is not None:
                injected_at = instance.proxy.first_injection_time
                break
        if injected_at is None:
            return None, None

        # Measure the window from the injection point.
        window_end = injected_at + instance.window
        start = instance.world.kernel.now
        try:
            instance.world.run_until(window_end)
        finally:
            self.ledger.charge(EXECUTION,
                               instance.world.kernel.now - start)
        crashed = len(instance.world.crashed_nodes())
        return injected_at, self.harness.monitor.sample(
            injected_at, window_end, crashed_nodes=crashed)

    # Brute force's share of the supervised step seam (see search/base.py):
    # the serial walk, the parallel prober and the replay source all go
    # through these two.

    def _measure_baseline(self) -> PerfSample:
        return self.supervisor.run("baseline", self._baseline_attempt)

    def _measure_scenario(self, scenario
                          ) -> Tuple[Optional[float], Optional[PerfSample]]:
        max_wait = (self.max_wait if self.max_wait is not None
                    else AttackHarness.DEFAULT_MAX_WAIT)
        return self.supervisor.run(
            f"scenario:{scenario.message_type}",
            lambda: self._scenario_attempt(scenario, max_wait),
            scenario=scenario.describe())

    def _run_pass(self, message_types: Optional[Sequence[str]] = None,
                  exclude: Optional[Set[tuple]] = None,
                  max_scenarios: Optional[int] = None) -> SearchReport:
        baseline = self._measure_baseline()
        report = self._make_report()

        types = self._search_types(message_types)
        space = self._space()
        scenarios = [s for t in types
                     for s in space.scenarios_for(t, exclude)]
        if max_scenarios is not None:
            scenarios = scenarios[:max_scenarios]

        for scenario in scenarios:
            try:
                injected_at, sample = self._measure_scenario(scenario)
            except ScenarioQuarantined as q:
                report.quarantined.append(self._quarantine_entry(
                    q, scenario.message_type, scenario.action))
                continue
            report.scenarios_evaluated += 1
            self._progress_tick()
            if injected_at is None:
                if scenario.message_type not in report.types_without_injection:
                    report.types_without_injection.append(scenario.message_type)
                continue
            report.injection_points += 1

            if self.threshold.is_attack(baseline, sample):
                report.findings.append(AttackFinding(
                    scenario, baseline, sample,
                    damage=self.threshold.damage(baseline, sample),
                    crashes=sample.crashed_nodes,
                    found_at=self.ledger.total()))
        return self._finalize_report(report)
