"""Weighted greedy attack search — the paper's new algorithm (Fig. 2(c)).

Observations it builds on:

* certain *categories* of malicious action are effective regardless of
  message type, so actions are clustered (delay, drop, duplicate, divert,
  boundary lies, relative lies, random lies) and clusters carry weights;
* the user ultimately wants *all* attacks, not the strongest one first, so
  time-to-find matters more than ordering.

The algorithm tries actions in descending cluster weight and **stops the
moment it encounters an action whose performance damage exceeds Δ**,
reporting it as an attack and bumping the cluster's weight so later message
types try that category sooner.  Only when no action clears Δ does it fall
back to greedy behaviour and evaluate everything, keeping the worst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.attacks.actions import (CLUSTER_DELAY, CLUSTER_DIVERT,
                                   CLUSTER_DROP, CLUSTER_DUPLICATE,
                                   CLUSTER_LIE_BOUNDARY, CLUSTER_LIE_RANDOM,
                                   CLUSTER_LIE_RELATIVE, AttackScenario,
                                   MaliciousAction)
from repro.search.base import SearchAlgorithm, is_attack_sample
from repro.search.results import AttackFinding, SearchReport

#: Preloaded cluster weights.  "The weight of each cluster can be preloaded"
#: — these reflect the prior the paper's authors accumulated: delivery
#: timing attacks (delay/drop) are the most broadly effective, duplication
#: next, boundary-value lies find crashes, diversion and arbitrary lies
#: rarely beat them.
DEFAULT_WEIGHTS: Dict[str, float] = {
    CLUSTER_DELAY: 1.00,
    CLUSTER_DROP: 0.90,
    CLUSTER_DUPLICATE: 0.80,
    CLUSTER_LIE_BOUNDARY: 0.70,
    CLUSTER_LIE_RELATIVE: 0.50,
    CLUSTER_DIVERT: 0.40,
    CLUSTER_LIE_RANDOM: 0.30,
}

#: weight bump applied to a cluster whose action was confirmed as an attack
WEIGHT_BUMP = 0.25


@dataclass
class ClusterWeights:
    """Mutable cluster weights with the learning rule."""

    weights: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def weight(self, cluster: str) -> float:
        return self.weights.get(cluster, 0.1)

    def bump(self, cluster: str, amount: float = WEIGHT_BUMP) -> None:
        self.weights[cluster] = self.weight(cluster) + amount

    def order_actions(self, actions: Sequence[MaliciousAction]
                      ) -> List[MaliciousAction]:
        """Stable sort: descending cluster weight, enumeration order within."""
        indexed = list(enumerate(actions))
        indexed.sort(key=lambda pair: (-self.weight(pair[1].cluster), pair[0]))
        return [action for __, action in indexed]


class WeightedGreedySearch(SearchAlgorithm):
    """Cluster-weighted ordering with early stop on the first attack found."""

    name = "weighted-greedy"
    key = "weighted"

    def __init__(self, *args, weights: Optional[ClusterWeights] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.weights = weights or ClusterWeights()

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
            context = self._ask(self.steps.context(message_type),
                                message_type)
            if context is None:
                continue
            if not context.found:
                report.types_without_injection.append(message_type)
                continue
            report.injection_points += 1

            ordered = self.weights.order_actions(actions)
            worst: Optional[AttackFinding] = None
            found = False
            for action in ordered:
                probe = self._ask(self.steps.evaluate(message_type, action),
                                  message_type, action)
                if probe is None:
                    continue
                report.scenarios_evaluated += 1
                # Each probe carries the baseline its sample is measured
                # against: its type's context's.
                baseline, sample = probe.baseline, probe.sample
                damage = self.config.threshold.damage(baseline, sample)
                crashed = sample.crashed_nodes > baseline.crashed_nodes
                finding = AttackFinding(
                    AttackScenario(message_type, action), baseline, sample,
                    damage=1.0 if crashed else damage,
                    crashes=sample.crashed_nodes,
                    found_at=self.ledger.total())
                if is_attack_sample(self.config.threshold, baseline, sample):
                    # Stop immediately: this action is an attack.  Learn.
                    self.weights.bump(action.cluster)
                    report.findings.append(finding)
                    found = True
                    break
                if worst is None or finding.damage > worst.damage:
                    worst = finding
            if not found and worst is not None:
                # No action cleared Δ: all actions were evaluated and the
                # worst is chosen (greedy fallback), but it is recorded as a
                # weak selection, not a confirmed attack.
                worst.found_at = self.ledger.total()
                report.weak_selections.append(worst)
        return report
