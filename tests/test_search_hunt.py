"""Tests for the multi-pass hunt loop."""

import pytest

from repro.attacks.space import ActionSpaceConfig
from repro.controller.monitor import AttackThreshold
from repro.parallel.executor import ScenarioExecutor
from repro.search.hunt import hunt
from repro.search.weighted import WeightedGreedySearch
from repro.systems.paxos.testbed import paxos_testbed

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)
FACTORY = paxos_testbed(malicious_index=0, warmup=1.0, window=2.0)


class TestHunt:
    def test_passes_accumulate_distinct_findings(self):
        result = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_passes=3, max_wait=5.0)
        names = result.attack_names()
        assert len(names) == len(set(names))  # never re-finds an attack
        assert len(result.passes) >= 2
        assert result.findings

    def test_stops_when_pass_finds_nothing(self):
        # Heartbeat attacks in this trimmed space do little; the hunt must
        # terminate before the pass budget
        result = hunt(FACTORY, seed=3, message_types=["Heartbeat"],
                      threshold=AttackThreshold(delta=0.5),
                      space_config=SPACE, max_passes=4, max_wait=5.0)
        assert len(result.passes) <= 4
        assert result.passes[-1].findings == []

    def test_ledger_merged_across_passes(self):
        result = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_passes=2, max_wait=5.0)
        assert result.total_time == pytest.approx(
            sum(p.total_time for p in result.passes))

    def test_seed_exclusions_respected(self):
        first = hunt(FACTORY, seed=3, message_types=["Accept"],
                     space_config=SPACE, max_passes=1, max_wait=5.0)
        records = {f.scenario.to_record() for f in first.findings}
        second = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_passes=1, max_wait=5.0,
                      exclude=records)
        assert not records & {f.scenario.to_record()
                              for f in second.findings}

    def test_describe(self):
        result = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_passes=1, max_wait=5.0)
        text = result.describe()
        assert "pass 1" in text and "hunt:" in text

    @pytest.mark.parametrize("build, setting", [
        (hunt, "rounds"), (hunt, "confirmations"),
        (ScenarioExecutor, "max_passes"), (ScenarioExecutor, "exclude"),
        (WeightedGreedySearch, "rounds"),
        (WeightedGreedySearch, "injection_cache")])
    def test_a_setting_the_entry_point_never_reads_is_refused(
            self, build, setting):
        """Each entry point takes only what it reads: a walk's own
        settings are keywords of the one that runs that walk."""
        with pytest.raises(TypeError, match=setting):
            build(FACTORY, **{setting: 1})


class TestHuntCli:
    def test_hunt_command(self, capsys):
        from repro.cli import main
        code = main(["hunt", "paxos", "--types", "Accept", "--fast",
                     "--no-lying", "--warmup", "1", "--window", "2",
                     "--max-wait", "5", "--passes", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hunt:" in out
