"""Tests for the durable run store and checkpointing.

The store's contract mirrors the parallel executor's: whatever the journal
replays, the hunt's serialized result must stay *byte-identical* to a
plain uninterrupted run.  Process-kill durability (SIGKILL mid-hunt, torn
journal tails, corrupt checkpoint generations) is exercised separately in
``test_store_durability.py``.
"""

import json
import os

import pytest

from repro.analysis.reports import hunt_result_to_dict
from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import ConfigError
from repro.controller.config import HuntConfig
from repro.controller.costs import CostLedger
from repro.controller.supervisor import FaultPlan
from repro.search.hunt import (CHECKPOINT_VERSION, HuntResult,
                               _checkpoint_dict, hunt)
from repro.search.weighted import ClusterWeights
from repro.store.journal import (Journal, atomic_write_json, decode_line,
                                 encode_record, recover_journal)
from repro.store.runstore import JOURNAL_VERSION, RunStore, StoreReport
from repro.systems.paxos.testbed import paxos_testbed

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(), include_divert=False,
                          include_lying=False)
FACTORY = paxos_testbed(malicious_index=0, warmup=1.0, window=2.0)


def hunt_json(result) -> str:
    return json.dumps(hunt_result_to_dict(result), sort_keys=True)


# ------------------------------------------------------------------ journal

class TestJournal:
    def test_encode_decode_roundtrip(self):
        record = {"kind": "eval", "type": "Accept", "x": [1, 2.5, None]}
        assert decode_line(encode_record(record).rstrip(b"\n")) == record

    def test_decode_rejects_corruption(self):
        line = encode_record({"kind": "meta"}).rstrip(b"\n")
        assert decode_line(line[:-5]) is None          # torn
        assert decode_line(line.replace(b"meta", b"mete")) is None  # bitrot
        assert decode_line(b"not json at all") is None
        assert decode_line(b'{"crc": 1}') is None      # missing record

    def test_append_recover_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"kind": "a", "n": 1})
            journal.append({"kind": "b", "n": 2})
        records, dropped = recover_journal(path)
        assert dropped == 0
        assert [r["kind"] for r in records] == ["a", "b"]

    def test_torn_tail_truncated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"kind": "a"})
            journal.append({"kind": "b"})
        clean_size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(encode_record({"kind": "c"})[:10])  # torn append
        records, dropped = recover_journal(path)
        assert [r["kind"] for r in records] == ["a", "b"]
        assert dropped == 10
        assert os.path.getsize(path) == clean_size  # truncated in place
        # a re-opened journal sees only the committed prefix
        with Journal(path) as journal:
            assert [r["kind"] for r in journal.records] == ["a", "b"]

    def test_garbage_tail_hides_later_lines(self, tmp_path):
        # Scanning stops at the first invalid line: valid-looking lines
        # after garbage were never acknowledged as committed.
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"kind": "a"})
        with open(path, "ab") as fh:
            fh.write(b"garbage line\n")
            fh.write(encode_record({"kind": "z"}))
        records, dropped = recover_journal(path)
        assert [r["kind"] for r in records] == ["a"]
        assert dropped > 0

    def test_atomic_write_json(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        assert json.load(open(path)) == {"a": 2}
        assert not os.path.exists(path + ".tmp")


# -------------------------------------------------------------- checkpoints

def _dummy_state():
    return (HuntConfig(seed=3).key(FACTORY(3)), {("Accept", "delay", 1.0)},
            ClusterWeights(),
            HuntResult(total_ledger=CostLedger({"boot": 1.0})))


class TestCheckpointSatellites:
    def test_save_checkpoint_is_atomic_and_loadable(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.save_checkpoint(_checkpoint_dict(*_dummy_state()))
        assert not [n for n in os.listdir(str(tmp_path))
                    if n.endswith(".tmp")]
        data = store.resume_checkpoint(CHECKPOINT_VERSION)
        store.close()
        assert data["version"] == CHECKPOINT_VERSION
        assert data["config"]["probe"]["testbed"] == "paxos-malicious-0"
        assert data["written_at_pass"] == 0

    def test_non_object_checkpoint_rejected(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.save_checkpoint({"n": 0})
        path = os.path.join(str(tmp_path), "checkpoint-000001.json")
        with open(path, "w") as fh:
            fh.write("[1, 2, 3]")  # valid JSON, not a checkpoint envelope
        assert store.load_checkpoint() is None
        store.close()

    def test_unknown_version_rejected(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.save_checkpoint({"version": 99, "passes": []})
        with pytest.raises(ConfigError) as err:
            store.resume_checkpoint(CHECKPOINT_VERSION)
        store.close()
        assert str(tmp_path) in str(err.value)
        assert "99" in str(err.value)


class TestStoreCheckpoints:
    def test_generation_swap_and_prune(self, tmp_path):
        store = RunStore(str(tmp_path))
        for n in range(4):
            store.save_checkpoint({"n": n})
        names = sorted(f for f in os.listdir(str(tmp_path))
                       if f.startswith("checkpoint-"))
        assert names == ["checkpoint-000003.json", "checkpoint-000004.json"]
        assert store.load_checkpoint() == {"n": 3}
        store.close()

    def test_corrupt_newest_generation_falls_back(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.save_checkpoint({"n": 0})
        store.save_checkpoint({"n": 1})
        newest = os.path.join(str(tmp_path), "checkpoint-000002.json")
        size = os.path.getsize(newest)
        with open(newest, "r+b") as fh:
            fh.truncate(size // 2)  # torn at rename time
        assert store.load_checkpoint() == {"n": 0}
        assert store.counters["store.checkpoint.fallbacks"] == 1
        store.close()

    def test_all_generations_corrupt_returns_none(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.save_checkpoint({"n": 0})
        path = os.path.join(str(tmp_path), "checkpoint-000001.json")
        with open(path, "w") as fh:
            fh.write("garbage")
        assert store.load_checkpoint() is None
        store.close()

    def test_new_store_instance_continues_generations(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.save_checkpoint({"n": 0})
        store.close()
        store = RunStore(str(tmp_path))
        store.save_checkpoint({"n": 1})
        assert store.load_checkpoint() == {"n": 1}
        store.close()


# ----------------------------------------------------------------- runstore

class TestRunStore:
    def test_seed_mismatch_rejected(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.bind(HuntConfig(seed=1).key(FACTORY(1))["probe"])
        store.close()
        store = RunStore(str(tmp_path))
        with pytest.raises(ConfigError, match="seed=1.*seed=2"):
            store.bind(HuntConfig(seed=2).key(FACTORY(2))["probe"])
        store.close()

    def test_journal_dedupes_replayed_probes(self, tmp_path):
        from repro.parallel.recording import StepTrace
        from repro.parallel.worker import ContextProbe
        key = HuntConfig(seed=1).key(FACTORY(1))["probe"]
        store = RunStore(str(tmp_path))
        store.bind(key)
        probe = ContextProbe(found=True, trace=StepTrace())
        store.cache.add_context("Accept", probe)
        store.cache.add_context("Accept", probe)  # dropped: already durable
        appended = store.journal.appended
        store.close()
        reopened = RunStore(str(tmp_path))
        reopened.bind(key)
        assert appended == 2  # meta + one context
        assert "Accept" in reopened.cache.contexts
        reopened.cache.add_context("Accept", probe)  # dedupe survives reopen
        assert reopened.journal.appended == 0
        reopened.close()

    def test_store_report_one_line(self):
        report = StoreReport()
        assert not report.eventful
        assert report.one_line() == "store: clean"
        report = StoreReport({"store.resume.evals_seeded": 3,
                              "store.resume.passes_restored": 1,
                              "store.journal.records_loaded": 9})
        assert report.eventful
        assert report.one_line() == \
            "store: 3 evals replayed, 1 passes restored"


# --------------------------------------------------------------- hunt-level

class TestDurableHunt:
    @pytest.fixture(scope="class")
    def plain(self):
        return hunt(FACTORY, seed=3, message_types=["Accept"],
                    space_config=SPACE, max_wait=5.0, max_passes=2)

    def test_store_hunt_byte_identical_to_plain(self, tmp_path, plain):
        stored = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_wait=5.0, max_passes=2,
                      store_dir=str(tmp_path))
        assert hunt_json(stored) == hunt_json(plain)
        assert stored.store_report is not None
        assert os.path.exists(os.path.join(str(tmp_path), "journal.jsonl"))

    def test_rerun_resumes_from_store(self, tmp_path, plain):
        kwargs = dict(seed=3, message_types=["Accept"], space_config=SPACE,
                      max_wait=5.0, max_passes=2, store_dir=str(tmp_path))
        hunt(FACTORY, **kwargs)
        again = hunt(FACTORY, **kwargs)
        assert hunt_json(again) == hunt_json(plain)
        assert again.resumed_passes == 0  # byte-identity pins it
        counters = again.store_report.counters
        assert counters.get("store.resume.passes_restored", 0) > 0

    def test_store_hunt_workers_byte_identical(self, tmp_path, plain):
        stored = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_wait=5.0, max_passes=2,
                      workers=2, store_dir=str(tmp_path))
        assert hunt_json(stored) == hunt_json(plain)
        resumed = hunt(FACTORY, seed=3, message_types=["Accept"],
                       space_config=SPACE, max_wait=5.0, max_passes=2,
                       workers=2, store_dir=str(tmp_path))
        assert hunt_json(resumed) == hunt_json(plain)

    def test_guards(self, tmp_path):
        """A store refuses neither a FaultPlan nor the kept-snapshots
        pricing: a planned hunt journals its probes, faults and all, and
        reports what the same hunt reports with no store; the pricing is a
        policy the store journals the same probes under."""
        kwargs = dict(seed=3, message_types=["Accept"], space_config=SPACE,
                      max_wait=5.0, max_passes=1)
        planned = dict(kwargs, max_passes=2,
                       fault_plan=FaultPlan.from_spec("restore=0.3,max=2",
                                                      seed=1))
        plain = hunt(FACTORY, **planned)
        assert plain.supervisor.retries > 0
        stored = hunt(FACTORY, store_dir=str(tmp_path / "planned"),
                      **planned)
        assert hunt_json(stored) == hunt_json(plain)
        journals = []
        for injection_cache in (False, True):
            store = tmp_path / f"cache-{injection_cache}"
            hunt(FACTORY, store_dir=str(store),
                 injection_cache=injection_cache, **kwargs)
            journals.append((store / "journal.jsonl").read_bytes())
        assert journals[0] == journals[1]

    @pytest.mark.parametrize("written", [False, True])
    def test_resume_under_the_other_pricing_walks_afresh(self, tmp_path,
                                                         written):
        """The pricing is the walk's: the journal answers the other
        pricing's hunt, whose passes are walked — not restored — again."""
        kwargs = dict(seed=3, message_types=["Accept"], space_config=SPACE,
                      max_wait=5.0, max_passes=2)
        fresh = hunt(FACTORY, injection_cache=not written, **kwargs)
        hunt(FACTORY, injection_cache=written, store_dir=str(tmp_path),
             **dict(kwargs, max_passes=1))
        resumed = hunt(FACTORY, injection_cache=not written,
                       store_dir=str(tmp_path), **kwargs)
        assert hunt_json(resumed) == hunt_json(fresh)
        counters = resumed.store_report.counters
        assert not counters.get("store.resume.passes_restored")
        assert counters["store.resume.types_seeded"] == 1

    def test_older_checkpoint_or_journal_rejected(self, tmp_path):
        kwargs = dict(seed=3, message_types=["Accept"], space_config=SPACE,
                      max_wait=5.0, store_dir=str(tmp_path))
        hunt(FACTORY, max_passes=1, **kwargs)
        store = RunStore(str(tmp_path))
        data = store.load_checkpoint()
        store.save_checkpoint(dict(data, version=CHECKPOINT_VERSION - 1))
        store.close()
        with pytest.raises(ConfigError, match="version 2 checkpoint"):
            hunt(FACTORY, max_passes=2, **kwargs)
        path = tmp_path / "journal.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        meta = decode_line(lines[0].rstrip(b"\n"))
        assert meta["journal_version"] == JOURNAL_VERSION
        path.write_bytes(encode_record(dict(meta, journal_version=1))
                         + b"".join(lines[1:]))
        with pytest.raises(ConfigError, match="version 1 journal"):
            hunt(FACTORY, max_passes=2, **kwargs)


class TestJournalCoverage:
    def test_covered_means_nothing_is_simulated(self, tmp_path, monkeypatch):
        """A second executor on the same store simulates exactly the steps
        its walk asks for and the journal lacks — none when it covers the
        pass, not even a boot."""
        from repro.analysis.reports import report_to_dict
        from repro.controller.harness import AttackHarness
        from repro.parallel.executor import ScenarioExecutor
        factory = paxos_testbed(malicious_index=0, warmup=0.5, window=1.0)
        branches = []
        boots = []
        original = AttackHarness.branch_measure
        start_run = AttackHarness.start_run

        def counted(harness, injection, action):
            branches.append(action)
            return original(harness, injection, action)

        def booted(harness, *args, **kwargs):
            boots.append(harness)
            return start_run(harness, *args, **kwargs)

        monkeypatch.setattr(AttackHarness, "branch_measure", counted)
        monkeypatch.setattr(AttackHarness, "start_run", booted)

        def run_pass():
            del branches[:], boots[:]
            store = RunStore(str(tmp_path))
            with ScenarioExecutor(factory, seed=3, workers=1,
                                  space_config=SPACE, max_wait=5.0,
                                  store=store) as executor:
                report = executor.run_pass(
                    message_types=["Accept", "Heartbeat"])
            store.close()
            return json.dumps(report_to_dict(report), sort_keys=True)

        fresh = run_pass()
        needed = sum(action is not None for action in branches)
        assert needed >= 3 and len(boots) == 1
        assert run_pass() == fresh
        assert branches == [] and boots == []  # fully covered

        # keep the journal up to Accept's first eval (k = 1) — the attack
        # its walk stops at: all of Heartbeat is asked for again, and
        # nothing of Accept (the superset's other clusters are not the
        # walk's business)
        path = os.path.join(str(tmp_path), "journal.jsonl")
        with open(path, "rb") as fh:
            lines = fh.readlines()
        first_eval = next(i for i, line in enumerate(lines)
                          if decode_line(line)["kind"] == "eval")
        with open(path, "wb") as fh:
            fh.writelines(lines[:first_eval + 1])
        assert run_pass() == fresh
        assert sum(action is not None for action in branches) == needed - 1
        # one baseline branch — Heartbeat's recorded context; Accept's
        # injection point is never re-derived because nothing asks for it
        assert branches.count(None) == 1
        assert len(boots) == 1  # cross-checked against the journaled one



class TestForeignHunt:
    """A store holds one hunt's probes: resuming it under another probe
    half (the testbed, the seed, the platform settings) is refused before
    anything is simulated, and another walk half replays the journal but
    walks afresh instead of restoring the checkpoint."""

    KW = dict(seed=3, message_types=["Accept"], space_config=SPACE,
              max_wait=5.0)

    def test_another_window_is_refused(self, tmp_path):
        hunt(paxos_testbed(0, warmup=1.0, window=1.0), max_passes=1,
             store_dir=str(tmp_path), **self.KW)
        with pytest.raises(ConfigError, match="window"):
            hunt(FACTORY, max_passes=2, store_dir=str(tmp_path), **self.KW)

    def test_another_role_is_refused_by_the_journal(self, tmp_path):
        hunt(FACTORY, max_passes=2, store_dir=str(tmp_path), **self.KW)
        for name in os.listdir(str(tmp_path)):
            if name.startswith("checkpoint-"):
                os.unlink(os.path.join(str(tmp_path), name))
        backup = paxos_testbed(malicious_index=1, warmup=1.0, window=2.0)
        with pytest.raises(ConfigError, match="paxos-malicious-1"):
            hunt(backup, max_passes=2, store_dir=str(tmp_path), **self.KW)

    def test_another_threshold_reuses_the_journal_only(self, tmp_path):
        from repro.controller.monitor import AttackThreshold
        kw = dict(self.KW, max_passes=2, space_config=ActionSpaceConfig(
            delays=(0.05, 1.0), drop_probabilities=(0.3, 1.0),
            duplicate_counts=(2,), include_divert=False,
            include_lying=False))
        strict = AttackThreshold(delta=0.9)
        fresh = hunt(FACTORY, threshold=strict, **kw)
        hunt(FACTORY, store_dir=str(tmp_path), **kw)
        resumed = hunt(FACTORY, threshold=strict, store_dir=str(tmp_path),
                       **kw)
        assert hunt_json(resumed) == hunt_json(fresh)
        counters = resumed.store_report.counters
        assert counters["store.resume.evals_seeded"] > 0
        assert not counters.get("store.resume.passes_restored")
