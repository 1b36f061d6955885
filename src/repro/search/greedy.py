"""Dynamic greedy attack search (Fig. 2(b), after Gatling).

For each message type the algorithm branches the execution at an attack
injection point, obtains a baseline and the performance for *every*
malicious action, and selects the one causing the largest degradation.
"As an aggressive approach can also make mistakes, higher confidence is
obtained by deciding that a scenario is an attack if it was selected more
than a certain number of times, which in turn requires additional
executions" — the ``rounds``/``confirmations`` parameters.

Its inefficiency, which motivates weighted greedy, is structural: all
actions are always evaluated, so effective-but-not-strongest actions consume
full measurement windows and are then discarded.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.attacks.actions import AttackScenario
from repro.search.base import SearchAlgorithm
from repro.search.results import AttackFinding, SearchReport


class GreedySearch(SearchAlgorithm):
    """Branch at each injection point; evaluate all actions; pick the worst."""

    name = "greedy"
    key = "greedy"

    def __init__(self, *args, rounds: int = 3, confirmations: int = 2,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if confirmations > rounds:
            raise ValueError("confirmations cannot exceed rounds")
        self.rounds = rounds
        self.confirmations = confirmations

    def _run_pass(self, message_types: Optional[Sequence[str]] = None,
                  exclude: Optional[Set[tuple]] = None) -> SearchReport:
        report = self._make_report()
        if self._ask(self.steps.startup(), note_crashes=False) is None:
            return report
        space = self._space()

        for message_type in self._search_types(message_types):
            actions = space.actions_for(message_type, exclude)
            if not actions:
                continue

            selections: Dict[tuple, int] = {}
            best_by_action: Dict[tuple, Tuple] = {}
            saw_injection = False
            type_quarantined = False

            for __ in range(self.rounds):
                context = self._ask(self.steps.context(message_type),
                                    message_type)
                if context is None:
                    type_quarantined = True
                    break
                if not context.found:
                    break
                saw_injection = True
                report.injection_points += 1

                worst_key = None
                worst_damage = -1.0
                for action in actions:
                    probe = self._ask(
                        self.steps.evaluate(message_type, action),
                        message_type, action)
                    if probe is None:
                        continue
                    baseline, sample = probe.baseline, probe.sample
                    report.scenarios_evaluated += 1
                    damage = self.threshold.damage(baseline, sample)
                    if sample.crashed_nodes > baseline.crashed_nodes:
                        damage = 1.0
                    if damage > worst_damage:
                        worst_damage = damage
                        worst_key = action.to_record()
                        best_by_action[worst_key] = (action, baseline, sample,
                                                     damage)
                if worst_key is not None:
                    selections[worst_key] = selections.get(worst_key, 0) + 1

            if not saw_injection:
                if not type_quarantined:
                    report.types_without_injection.append(message_type)
                continue

            # Confirm the most-selected action if it clears both bars.
            for key, count in sorted(selections.items(),
                                     key=lambda kv: -kv[1]):
                action, baseline, sample, damage = best_by_action[key]
                crashed = sample.crashed_nodes > baseline.crashed_nodes
                if count >= self.confirmations and (
                        crashed or self.threshold.is_attack(baseline, sample)):
                    report.findings.append(AttackFinding(
                        AttackScenario(message_type, action), baseline, sample,
                        damage=damage, crashes=sample.crashed_nodes,
                        found_at=self.ledger.total(),
                        confirmations=count))
                break  # greedy keeps only the strongest attack per type
        return report
