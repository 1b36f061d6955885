"""Tests for delta (incremental) snapshots."""

import pytest

from repro.common.errors import SnapshotError
from repro.vm.ksm import KsmDaemon
from repro.vm.memory import GuestMemory, OsImage
from repro.vm.snapshots import SnapshotManager
from repro.vm.timing import VmTimingModel

SMALL = OsImage(name="tiny", resident_mb=2, unique_mb=1)


def setup(n=3):
    guests = [GuestMemory(f"vm{i}", SMALL) for i in range(n)]
    for g in guests:
        g.write_app_state(f"{g.vm_name}-gen0".encode() * 100)
        g.clear_dirty()
    manager = SnapshotManager(KsmDaemon(), VmTimingModel())
    return guests, manager


class TestDeltaSave:
    def test_unchanged_guests_produce_empty_delta(self):
        guests, manager = setup()
        base = manager.save(guests)
        delta = manager.save_delta(guests, base)
        assert delta.stored_bytes() == 0
        assert all(not d.changed and not d.removed for d in delta.vm_deltas)

    def test_delta_stores_only_changed_pages(self):
        guests, manager = setup()
        base = manager.save(guests)
        guests[0].write_app_state(b"vm0-gen1" * 100)
        delta = manager.save_delta(guests, base)
        changed = {d.vm_name: len(d.changed) for d in delta.vm_deltas}
        assert changed["vm0"] == 1  # one app page rewritten
        assert changed["vm1"] == 0
        assert delta.stored_bytes() < base.stored_bytes() / 100

    def test_delta_much_faster_to_save(self):
        # use the realistic image size: the saving scales with guest memory
        guests = [GuestMemory(f"vm{i}", OsImage()) for i in range(3)]
        manager = SnapshotManager(KsmDaemon(), VmTimingModel())
        base = manager.save(guests)
        guests[0].write_app_state(b"new" * 10)
        delta = manager.save_delta(guests, base)
        assert delta.save_time < base.save_time / 5

    def test_delta_tracks_removed_pages(self):
        guests, manager = setup()
        guests[0].write_app_state(b"x" * 4096 * 5)
        base = manager.save(guests)
        guests[0].write_app_state(b"x" * 4096)
        delta = manager.save_delta(guests, base)
        vm0 = next(d for d in delta.vm_deltas if d.vm_name == "vm0")
        assert len(vm0.removed) == 4

    def test_unknown_vm_rejected(self):
        guests, manager = setup()
        base = manager.save(guests)
        stranger = GuestMemory("other", SMALL)
        with pytest.raises(SnapshotError):
            manager.save_delta([stranger], base)


class TestDeltaRestore:
    def test_roundtrip_restores_exact_state(self):
        guests, manager = setup()
        base = manager.save(guests)
        guests[0].write_app_state(b"vm0-gen1" * 77)
        guests[2].write_app_state(b"vm2-gen1" * 33)
        expect = {g.vm_name: [p.digest for __, p in g.iter_pages()]
                  for g in guests}
        delta = manager.save_delta(guests, base)

        for g in guests:
            g.write_app_state(b"corrupted-later")
        manager.load_delta(delta, guests)
        for g in guests:
            assert [p.digest for __, p in g.iter_pages()] == expect[g.vm_name]

    def test_restore_after_shrink(self):
        guests, manager = setup()
        guests[1].write_app_state(b"y" * 4096 * 3)
        base = manager.save(guests)
        guests[1].write_app_state(b"z" * 100)
        delta = manager.save_delta(guests, base)
        guests[1].write_app_state(b"w" * 4096 * 8)
        manager.load_delta(delta, guests)
        assert guests[1].read_app_state().startswith(b"z" * 100)
        assert guests[1].app_page_count() == 1


class TestHarnessIntegration:
    def test_delta_branching_equals_full_branching(self):
        from repro.attacks.actions import DelayAction
        from repro.controller.harness import AttackHarness
        from repro.systems.paxos.testbed import paxos_testbed

        results = []
        for delta in (False, True):
            h = AttackHarness(paxos_testbed(warmup=1.0, window=1.5), seed=5,
                              delta_snapshots=delta)
            h.start_run()
            injection = h.run_to_injection("Accept")
            baseline = h.branch_measure(injection, None)
            attacked = h.branch_measure(injection, DelayAction(1.0))
            results.append((baseline.throughput, attacked.throughput,
                            injection.snapshot.save_cost))
        (b0, a0, cost_full), (b1, a1, cost_delta) = results
        assert b0 == b1 and a0 == a1      # identical measurements
        assert cost_delta < cost_full / 3  # much cheaper snapshots


class TestAtomicRestore:
    """A restore that fails mid-way (satellite of the staged two-phase
    rewrite) must leave every guest's memory exactly as it was — never a
    half-applied base with no delta on top."""

    def _digests(self, guests):
        return {g.vm_name: [p.digest for __, p in g.iter_pages()]
                for g in guests}

    def test_failed_delta_restore_leaves_memory_unchanged(self):
        guests, manager = setup()
        base = manager.save(guests)
        guests[0].write_app_state(b"vm0-gen1" * 50)
        delta = manager.save_delta(guests, base)
        guests[0].write_app_state(b"current-state" * 20)
        before = self._digests(guests)
        # vm2 is missing from the restore set: staging must fail before
        # any guest is touched
        with pytest.raises(SnapshotError):
            manager.load_delta(delta, guests[:2])
        assert self._digests(guests) == before

    def test_failed_full_restore_leaves_memory_unchanged(self):
        guests, manager = setup()
        snap = manager.save(guests)
        guests[1].write_app_state(b"newer" * 30)
        before = self._digests(guests)
        with pytest.raises(SnapshotError):
            manager.load(snap, guests[1:])  # vm0 missing
        assert self._digests(guests) == before

    def test_dangling_shared_ref_fails_before_commit(self):
        guests = [GuestMemory(f"vm{i}", SMALL) for i in range(3)]
        ksm = KsmDaemon()
        for g in guests:
            g.clear_dirty()
            ksm.register(g)
        ksm.scan()
        manager = SnapshotManager(ksm, VmTimingModel())
        shared = manager.save(guests, shared=True)
        assert shared.shared_map is not None
        shared.shared_map.runs.clear()  # corrupt the map
        guests[0].write_app_state(b"post-snapshot" * 10)
        before = self._digests(guests)
        with pytest.raises(SnapshotError):
            manager.load(shared, guests)
        assert self._digests(guests) == before
