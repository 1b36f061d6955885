"""Enumeration of the attack-scenario space.

The search algorithms operate on "a list of all possible attack scenarios
(malicious actions for each message type)" (Section III-B).  Given a
protocol schema, :class:`ActionSpace` generates that list: the delivery
actions with canonical parameters, plus one lying action per (scalar field,
strategy) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.wire.schema import MessageSpec, ProtocolSchema
from repro.attacks.actions import (AttackScenario, DelayAction, DivertAction,
                                   DropAction, DuplicateAction, LyingAction,
                                   MaliciousAction)
from repro.attacks.strategies import default_strategies


@dataclass(frozen=True)
class ActionSpaceConfig:
    """Canonical parameters for the enumerated delivery actions.

    The defaults mirror the paper's evaluation: delays of 0.5 s and 1 s
    (below the 5 s recovery timers of the tested systems), probabilistic and
    total drops, small and large duplication factors (Fig. 5 uses 50), and
    the divert action.
    """

    delays: Sequence[float] = (0.5, 1.0)
    drop_probabilities: Sequence[float] = (0.5, 1.0)
    duplicate_counts: Sequence[int] = (2, 50)
    include_divert: bool = True
    include_lying: bool = True


class ActionSpace:
    """All attack scenarios for one protocol schema."""

    def __init__(self, schema: ProtocolSchema,
                 config: Optional[ActionSpaceConfig] = None) -> None:
        self.schema = schema
        self.config = config or ActionSpaceConfig()

    def delivery_actions(self) -> List[MaliciousAction]:
        cfg = self.config
        actions: List[MaliciousAction] = []
        actions.extend(DelayAction(d) for d in cfg.delays)
        actions.extend(DropAction(p) for p in cfg.drop_probabilities)
        actions.extend(DuplicateAction(n) for n in cfg.duplicate_counts)
        if cfg.include_divert:
            actions.append(DivertAction())
        return actions

    def lying_actions(self, spec: MessageSpec) -> List[MaliciousAction]:
        if not self.config.include_lying:
            return []
        actions: List[MaliciousAction] = []
        for field_spec in spec.scalar_fields():
            for strategy in default_strategies(field_spec.scalar):
                actions.append(LyingAction(field_spec.name, strategy))
        return actions

    def actions_for(self, message_type: str,
                    exclude=()) -> List[MaliciousAction]:
        """Every action on ``message_type``, minus those whose scenario
        record is in ``exclude`` (what earlier hunt passes found)."""
        return [s.action for s in self.scenarios_for(message_type, exclude)]

    def scenarios_for(self, message_type: str,
                      exclude=()) -> List[AttackScenario]:
        spec = self.schema.message_named(message_type)
        scenarios = [AttackScenario(message_type, a) for a in
                     self.delivery_actions() + self.lying_actions(spec)]
        return [s for s in scenarios if s.to_record() not in exclude]

    def all_scenarios(self) -> List[AttackScenario]:
        out: List[AttackScenario] = []
        for spec in self.schema.messages:
            out.extend(self.scenarios_for(spec.name))
        return out

    def size(self) -> int:
        return len(self.all_scenarios())

    def summary(self) -> Dict[str, int]:
        return {spec.name: len(self.actions_for(spec.name))
                for spec in self.schema.messages}
