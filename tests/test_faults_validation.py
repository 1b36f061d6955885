"""Robustness validation: true attacks survive perturbed environments,
scripted false positives do not.

The false positive here is the classic trap the chaos layer exists to
catch: a "finding" whose damage came from environmental packet loss, not
from the malicious action.  Measured against each perturbed environment's
*own* benign baseline, the environmental damage subtracts out and the
scenario scores near zero, while a real protocol attack keeps winning.
"""

from types import SimpleNamespace

from repro.attacks.actions import AttackScenario, DelayAction
from repro.controller.config import HuntConfig
from repro.controller.monitor import AttackThreshold
from repro.faults.validation import (EnvironmentOutcome, RobustnessResult,
                                     ValidationReport, validate_findings)
from repro.systems.pbft.testbed import pbft_testbed


def finding(message_type, action):
    return SimpleNamespace(scenario=AttackScenario(message_type, action))


class TestValidateFindings:
    def test_true_attack_beats_false_positive(self):
        factory = pbft_testbed(warmup=1.0, window=2.0)
        true_attack = finding("PrePrepare", DelayAction(1.0))
        # a 1 ms delay is far below the protocol's timeouts: any "damage"
        # this scenario ever shows came from the environment, not from it
        false_positive = finding("PrePrepare", DelayAction(0.001))
        report = validate_findings(
            factory, [true_attack, false_positive],
            HuntConfig(seed=1, max_wait=5.0,
                       threshold=AttackThreshold(delta=0.25)),
            environments=2, seed=0)

        strong = report.result_named(true_attack.scenario.describe())
        weak = report.result_named(false_positive.scenario.describe())
        assert strong is not None and weak is not None
        assert len(strong.environments) == 2
        assert strong.score == 1.0
        assert weak.score == 0.0
        assert strong.score > weak.score
        # the environments actually bit (ambient noise floor is nonzero)
        # without flooring throughput entirely
        assert 0.0 < strong.mean_benign_degradation < 1.0
        for outcome in strong.environments:
            assert outcome.injected
            assert outcome.damage > 0.25
        for outcome in weak.environments:
            assert outcome.damage < 0.25
        assert report.platform_time > 0

    def test_validation_is_deterministic(self):
        factory = pbft_testbed(warmup=1.0, window=2.0)
        candidate = finding("PrePrepare", DelayAction(1.0))

        def run_once():
            return validate_findings(
                factory, [candidate], HuntConfig(seed=1, max_wait=5.0),
                environments=2, seed=7).to_dict()

        assert run_once() == run_once()

    def test_duplicate_findings_validated_once(self):
        factory = pbft_testbed(warmup=1.0, window=2.0)
        a = finding("PrePrepare", DelayAction(1.0))
        b = finding("PrePrepare", DelayAction(1.0))
        report = validate_findings(factory, [a, b],
                                   HuntConfig(seed=1, max_wait=5.0),
                                   environments=1, seed=0)
        assert len(report.results) == 1

    def test_no_findings_short_circuits(self):
        factory = pbft_testbed(warmup=1.0, window=2.0)
        report = validate_findings(factory, [], environments=3, seed=0)
        assert report.results == []
        assert report.platform_time == 0.0


class TestCliValidation:
    def test_validation_runs_on_the_runs_platform_settings(self,
                                                          monkeypatch):
        """``--validate`` re-measures on the testbed the run searched:
        its snapshot mode and watchdog reach every validation harness."""
        from repro.cli import main
        from repro.controller.harness import AttackHarness
        from repro.faults import validation
        built = []
        start_run = AttackHarness.start_run

        def spied(harness, *args, **kwargs):
            built.append((harness.shared_pages, harness.watchdog_limit))
            return start_run(harness, *args, **kwargs)

        found = []
        validate = validation.validate_findings

        def validating(factory, findings, *args, **kwargs):
            found.extend(findings)
            del built[:]
            return validate(factory, findings, *args, **kwargs)

        monkeypatch.setattr(AttackHarness, "start_run", spied)
        monkeypatch.setattr(validation, "validate_findings", validating)
        code = main(["search", "pbft", "--types", "PrePrepare", "--fast",
                     "--no-lying", "--warmup", "1", "--window", "2",
                     "--max-wait", "5", "--no-shared-pages",
                     "--watchdog", "2000000", "--validate", "1"])
        assert code == 0 and found
        assert built == [(False, 2000000)] * 2  # clean + one environment


class TestValidationReportSerialization:
    def make_report(self):
        scenario = AttackScenario("PrePrepare", DelayAction(1.0))
        result = RobustnessResult(
            name=scenario.describe(),
            scenario_record=scenario.to_record(),
            message_type="PrePrepare",
            environments=[
                EnvironmentOutcome(
                    environment=0, schedule_seed=123, injected=True,
                    benign_throughput=40.0, attacked_throughput=2.0,
                    damage=0.95, sustained=True, benign_degradation=0.1),
                EnvironmentOutcome(
                    environment=1, schedule_seed=456, injected=False,
                    benign_throughput=0.0, attacked_throughput=0.0,
                    damage=0.0, sustained=False, benign_degradation=1.0),
            ])
        return ValidationReport(environments=2, seed=9, delta=0.25,
                                results=[result], platform_time=12.5)

    def test_dict_roundtrip(self):
        report = self.make_report()
        clone = ValidationReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.results[0].score == 0.5
        assert clone.results[0].environments[1].injected is False

    def test_score_semantics(self):
        report = self.make_report()
        result = report.results[0]
        # the no-injection environment counts against robustness
        assert result.score == 0.5
        assert result.mean_benign_degradation == 0.55
        assert "[#.]" in result.describe()
        assert "robustness 50%" in result.describe()

    def test_describe(self):
        text = self.make_report().describe()
        assert "1 findings x 2 environments" in text
        assert "Delay 1s PrePrepare" in text
