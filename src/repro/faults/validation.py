"""Attack validation under perturbed environments (robustness scoring).

"Automated Attacker Synthesis for Distributed Protocols" makes the point
that a synthesized attack is only meaningful if it is distinguishable from
ambient environmental noise.  A hunt run on a pristine network can report
a candidate whose damage would equally well be produced by a lossy link —
a false positive in any real deployment.

:func:`validate_findings` re-measures each candidate attack under M
seeded fault environments (mild bursty loss, jitter, and corruption from
:meth:`~repro.faults.schedule.FaultSchedule.perturbation`) and reports:

* a **robustness score** per finding — the fraction of environments where
  the attack's damage, measured *against that environment's own benign
  baseline*, still exceeds the Δ threshold.  Comparing against the
  perturbed baseline is the key move: damage the environment causes on
  its own is subtracted out, so a "finding" that only looked harmful
  because the schedule was dropping packets scores near 0, while a real
  protocol attack keeps winning against whatever baseline it faces;
* a **benign degradation** per environment — how much the faults alone
  degrade the clean baseline, quantifying the ambient noise floor.

Scores land in ``SearchReport.validation`` / ``HuntResult.validation``
and in the JSON/markdown reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.common.rng import derive_seed
from repro.controller.config import HuntConfig
from repro.controller.costs import CostLedger
from repro.controller.harness import TestbedFactory
from repro.faults.schedule import FaultSchedule


@dataclass
class EnvironmentOutcome:
    """One candidate attack re-measured in one perturbed environment."""

    environment: int           # index 0..M-1
    schedule_seed: int         # seed of the perturbation schedule
    injected: bool             # the injection point reappeared under faults
    benign_throughput: float   # env baseline: faults active, no attack
    attacked_throughput: float
    damage: float              # vs the *environment's* benign baseline
    sustained: bool            # damage still exceeds Δ in this environment
    benign_degradation: float  # clean baseline -> env baseline damage

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "EnvironmentOutcome":
        return cls(**data)


@dataclass
class RobustnessResult:
    """Robustness of one finding across every validation environment."""

    name: str                  # scenario description, e.g. "delay 1s PrePrepare"
    scenario_record: tuple
    message_type: str
    environments: List[EnvironmentOutcome] = field(default_factory=list)

    @property
    def score(self) -> float:
        """Fraction of environments where the attack damage held up.

        An environment where the injection point never reappeared counts
        as not sustained: an attack that needs a pristine network to even
        trigger is not robust.
        """
        if not self.environments:
            return 0.0
        sustained = sum(1 for e in self.environments if e.sustained)
        return sustained / len(self.environments)

    @property
    def mean_benign_degradation(self) -> float:
        if not self.environments:
            return 0.0
        return (sum(e.benign_degradation for e in self.environments)
                / len(self.environments))

    def describe(self) -> str:
        marks = "".join("#" if e.sustained else "." for e in self.environments)
        return (f"{self.name}: robustness {self.score:.0%} [{marks}], "
                f"ambient noise {self.mean_benign_degradation:.0%}")

    def to_dict(self) -> Dict:
        from repro.analysis.reports import record_to_jsonable
        return {
            "name": self.name,
            "scenario": record_to_jsonable(self.scenario_record),
            "message_type": self.message_type,
            "score": self.score,
            "environments": [e.to_dict() for e in self.environments],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RobustnessResult":
        from repro.analysis.reports import record_from_jsonable
        return cls(
            name=data["name"],
            scenario_record=tuple(record_from_jsonable(data["scenario"])),
            message_type=data["message_type"],
            environments=[EnvironmentOutcome.from_dict(e)
                          for e in data["environments"]])


@dataclass
class ValidationReport:
    """Robustness validation of a whole report's findings."""

    environments: int
    seed: int
    delta: float
    results: List[RobustnessResult] = field(default_factory=list)
    platform_time: float = 0.0

    def result_named(self, name: str) -> Optional[RobustnessResult]:
        for result in self.results:
            if result.name == name:
                return result
        return None

    def describe(self) -> str:
        lines = [f"validation: {len(self.results)} findings x "
                 f"{self.environments} environments "
                 f"(Δ={self.delta:.0%}, platform time "
                 f"{self.platform_time:.1f}s)"]
        for result in self.results:
            lines.append("  " + result.describe())
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "environments": self.environments,
            "seed": self.seed,
            "delta": self.delta,
            "platform_time": self.platform_time,
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ValidationReport":
        return cls(
            environments=data["environments"],
            seed=data["seed"],
            delta=data["delta"],
            platform_time=data.get("platform_time", 0.0),
            results=[RobustnessResult.from_dict(r)
                     for r in data["results"]])


def validate_findings(factory: TestbedFactory, findings: Sequence,
                      config: Optional[HuntConfig] = None,
                      environments: int = 3, seed: int = 0
                      ) -> ValidationReport:
    """Re-measure each finding under M perturbed environments.

    ``findings`` is any sequence of objects with ``.scenario`` (an
    :class:`~repro.attacks.actions.AttackScenario`) — in practice the
    ``findings`` list of a :class:`~repro.search.results.SearchReport` or
    :class:`~repro.search.hunt.HuntResult`.

    Environment ``i`` is a prober (:class:`~repro.parallel.worker.
    WorkerProber`) on the hunt's ``config`` without its fault plan, whose
    fault schedule ``FaultSchedule.perturbation(derive_seed(seed,
    "validation-env-i"))`` is armed before warmup.  Per message type it
    asks the type's context — the environment's own benign baseline —
    then an evaluation of every finding of that type, scored against that
    baseline.  One more prober, with no schedule, first asks the contexts
    alone: the clean reference for the benign-degradation figures.
    ``platform_time`` replays every probe's charges, in the order asked.
    """
    from repro.parallel.worker import WorkerProber
    config = replace(config or HuntConfig(), fault_plan=None)
    threshold = config.threshold
    report = ValidationReport(environments=environments, seed=seed,
                              delta=threshold.delta)
    findings = list(findings)
    if not findings or environments <= 0:
        return report

    results: Dict[str, RobustnessResult] = {}
    by_type: Dict[str, List] = {}
    for finding in findings:
        scenario = finding.scenario
        name = scenario.describe()
        if name in results:
            continue
        results[name] = RobustnessResult(
            name=name, scenario_record=scenario.to_record(),
            message_type=scenario.message_type)
        by_type.setdefault(scenario.message_type, []).append(scenario)
    report.results = list(results.values())
    ledger = CostLedger()

    def asked(probe):
        for category, seconds in probe.trace.charges:
            ledger.charge(category, seconds)
        return probe

    def prober(schedule) -> WorkerProber:
        prober = WorkerProber(0, factory,
                              replace(config, fault_schedule=schedule))
        asked(prober.startup())
        return prober

    clean = prober(None)
    clean_baselines: Dict[str, float] = {}
    for message_type in sorted(by_type):
        context = asked(clean.context(message_type))
        if context.found:
            clean_baselines[message_type] = context.baseline.throughput

    for env in range(environments):
        schedule_seed = derive_seed(seed, f"validation-env-{env}")
        environment = prober(FaultSchedule.perturbation(schedule_seed))
        for message_type in sorted(by_type):
            context = asked(environment.context(message_type))
            if not context.found:
                # The environment starved this type of traffic entirely;
                # nothing to attack here, so nothing is sustained.
                for scenario in by_type[message_type]:
                    results[scenario.describe()].environments.append(
                        EnvironmentOutcome(
                            environment=env, schedule_seed=schedule_seed,
                            injected=False, benign_throughput=0.0,
                            attacked_throughput=0.0, damage=0.0,
                            sustained=False, benign_degradation=1.0))
                continue
            env_baseline = context.baseline
            clean_tp = clean_baselines.get(message_type, 0.0)
            if clean_tp > 0:
                degradation = max(0.0, min(1.0, (
                    clean_tp - env_baseline.throughput) / clean_tp))
            else:
                degradation = 0.0
            for scenario in by_type[message_type]:
                attacked = asked(environment.evaluate(
                    message_type, context, scenario.action)).sample
                damage = threshold.damage(env_baseline, attacked)
                sustained = threshold.is_attack(env_baseline, attacked)
                results[scenario.describe()].environments.append(
                    EnvironmentOutcome(
                        environment=env, schedule_seed=schedule_seed,
                        injected=True,
                        benign_throughput=env_baseline.throughput,
                        attacked_throughput=attacked.throughput,
                        damage=damage, sustained=sustained,
                        benign_degradation=degradation))

    report.platform_time = ledger.total()
    return report
