"""The extent representation of guest memory against a per-page model.

``RefCluster`` below is the naive implementation this repo used to have:
one dict entry per resident page, KSM merging by digest over every page,
one snapshot record per page.  The property drives both through the same
operations and requires every observable to agree; the second test pins
that the extent form never derives a synthetic digest on the hot path.
"""

import gc
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import SnapshotError
from repro.common.units import PAGE_SIZE, pages_for
from repro.vm import memory as memory_module
from repro.vm.ksm import KsmDaemon
from repro.vm.manager import VmCluster
from repro.vm.memory import (GuestMemory, OsImage, Page, digest_bytes,
                             synthetic_digest)
from repro.vm.snapshots import SnapshotManager
from repro.vm.timing import VmTimingModel

TIMING = VmTimingModel()
PRIVATE, SHARED_REF, MAP_ENTRY = 9 + PAGE_SIZE, 9 + 16, PAGE_SIZE + 16


@dataclass(frozen=True)
class TinyImage(OsImage):
    """An OS image sized in pages, so touches and prefixes collide."""

    shared: int = 0
    unique: int = 0
    shared_pages = property(lambda self: self.shared)
    unique_pages = property(lambda self: self.unique)


class RefCluster:
    """Per-page guests + KSM + snapshots, as plainly as they can be put."""

    def __init__(self, images, need):
        self.need, self.table, self.registered = need, {}, set(images)
        self.stats = dict(scans=0, shared=0, sharing=0, volatile=0)
        self.pages, self.dirty, self.base = {}, {}, {}
        for vm, image in images.items():
            os_pages = ([synthetic_digest(image.name, i)
                         for i in range(image.shared_pages)]
                        + [synthetic_digest(f"{image.name}:{vm}", i)
                           for i in range(image.unique_pages)])
            self.pages[vm] = {pfn: Page(d) for pfn, d in enumerate(os_pages)}
            self.dirty[vm], self.base[vm] = set(), len(os_pages)

    def write(self, vm, blob):
        pages, base = self.pages[vm], self.base[vm]
        for pfn in [p for p in pages if p >= base + pages_for(len(blob))]:
            del pages[pfn]
            self.dirty[vm].discard(pfn)
        for i in range(pages_for(len(blob))):
            chunk = blob[i * PAGE_SIZE:(i + 1) * PAGE_SIZE].ljust(
                PAGE_SIZE, b"\x00")
            if pages.get(base + i) != Page(digest_bytes(chunk), chunk):
                pages[base + i] = Page(digest_bytes(chunk), chunk)
                self.dirty[vm].add(base + i)

    def touch(self, vm, pfn):
        if pfn in self.pages[vm]:
            self.dirty[vm].add(pfn)

    def _restat(self):
        self.table = {d: m for d, m in self.table.items()
                      if len(m) >= self.need}
        self.stats.update(shared=len(self.table),
                          sharing=sum(map(len, self.table.values())))

    def scan(self):
        self.table = {}
        self.stats["volatile"] = sum(
            len(self.dirty[vm]) for vm in self.registered)
        for vm in self.registered:
            for pfn, page in self.pages[vm].items():
                if pfn not in self.dirty[vm]:
                    self.table.setdefault(page.digest, set()).add((vm, pfn))
            self.dirty[vm].clear()
        self.stats["scans"] += 1
        self._restat()

    def unregister(self, vm):
        self.registered.discard(vm)
        self.table = {d: {m for m in ms if m[0] != vm}
                      for d, ms in self.table.items()}
        self._restat()

    def is_shared(self, vm, pfn):
        return (vm, pfn) in self.table.get(self.pages[vm][pfn].digest, ())

    def save(self, shared, max_bandwidth):
        snap = {"map": {} if shared else None, "vms": {}}
        for vm, pages in self.pages.items():
            snap["vms"][vm] = [
                (pfn, shared and self.is_shared(vm, pfn), page)
                for pfn, page in sorted(pages.items())]
            for __, is_ref, page in snap["vms"][vm]:
                if is_ref:
                    snap["map"][page.digest] = page
        refs = sum(r[1] for records in snap["vms"].values() for r in records)
        total = sum(map(len, snap["vms"].values()))
        snap["counts"] = {"pages_total": total, "pages_shared": refs,
                          "pages_private": total - refs}
        snap["stored"] = (refs * SHARED_REF + (total - refs) * PRIVATE
                          + len(snap["map"] or ()) * MAP_ENTRY)
        snap["save_time"] = TIMING.save_time(
            snap["stored"], len(self.pages), max_bandwidth=max_bandwidth)
        snap["load_time"] = TIMING.load_time(len(self.pages))
        return snap

    def _stage(self, snap, names):
        staged = {}
        for vm, records in snap["vms"].items():
            if vm not in names:
                raise SnapshotError(vm)
            staged[vm] = {}
            for pfn, is_ref, page in records:
                if is_ref and page.digest not in snap["map"]:
                    raise SnapshotError("dangling")
                staged[vm][pfn] = page
        return staged

    def load(self, snap, names, delta=None):
        staged = self._stage(snap, names)
        for vm, (changed, removed) in (delta or {}).items():
            for pfn in removed:
                staged[vm].pop(pfn, None)
            staged[vm].update(changed)
        for vm, pages in staged.items():
            self.pages[vm], self.dirty[vm] = pages, set()

    def save_delta(self, base):
        delta = {}
        for vm, pages in self.pages.items():
            known = {pfn: page.digest for pfn, __, page in base["vms"][vm]}
            delta[vm] = ({pfn: page for pfn, page in pages.items()
                          if known.get(pfn) != page.digest},
                         sorted(set(known) - set(pages)))
        return delta


def check_ksm(ref, ksm, guests):
    stats = ksm.stats
    assert dict(scans=stats.scans, shared=stats.pages_shared,
                sharing=stats.pages_sharing,
                volatile=stats.pages_volatile) == ref.stats
    for g in guests:
        for pfn, page in g.iter_pages():
            assert ksm.is_shared(g.vm_name, pfn, page) \
                == ref.is_shared(g.vm_name, pfn), (g.vm_name, pfn)


def digests(guests):
    return {g.vm_name: [(pfn, p.digest) for pfn, p in g.iter_pages()]
            for g in guests}


def check_memory(ref, guests):
    assert digests(guests) == {
        vm: [(pfn, p.digest) for pfn, p in sorted(pages.items())]
        for vm, pages in ref.pages.items()}
    for g in guests:
        assert g.resident_pages() == len(ref.pages[g.vm_name])
        assert g.dirty_pfns() == ref.dirty[g.vm_name]


def check_full(snap, ref_snap):
    assert snap.stored_bytes() == ref_snap["stored"]
    assert snap.page_counts() == ref_snap["counts"]
    assert {s.vm_name: s.shared_refs() for s in snap.vm_snapshots} == {
        vm: sum(r[1] for r in records)
        for vm, records in ref_snap["vms"].items()}
    assert snap.save_time == ref_snap["save_time"]
    assert snap.load_time == ref_snap["load_time"]


BLOBS = st.builds(lambda fill, size: bytes([65 + fill]) * size,
                  st.integers(0, 2),
                  st.sampled_from([0, 1, 100, PAGE_SIZE, PAGE_SIZE + 1,
                                   2 * PAGE_SIZE, 3 * PAGE_SIZE - 5]))
OPS = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 3), BLOBS),
    st.tuples(st.just("touch"), st.integers(0, 3), st.integers(0, 14)),
    st.tuples(st.just("scan")),
    st.tuples(st.just("unregister"), st.integers(0, 3)),
    st.tuples(st.just("save"), st.booleans(), st.booleans()),
    st.tuples(st.just("save_delta"), st.integers(0, 5), st.booleans()),
    # restore: which snapshot, clear its map first?, leave a guest out?
    st.tuples(st.just("load"), st.integers(0, 5), st.booleans(),
              st.booleans()),
)
SIZES = st.tuples(st.integers(0, 4), st.integers(0, 3))


class TestExtentModelEqualsPerPageModel:
    @settings(max_examples=300, deadline=None)
    @given(sizes=st.lists(SIZES, min_size=2, max_size=2),
           n_guests=st.integers(1, 4), need=st.integers(1, 3),
           ops=st.lists(OPS, max_size=30))
    # a page only the longer extents hold, volatile in one of the two: the
    # shorter extent saved between them must not put it back in the map
    @example(sizes=[(4, 0), (2, 0)], n_guests=3, need=2,
             ops=[("touch", 0, 3), ("scan",), ("save", True, True)])
    def test_same_observables(self, sizes, n_guests, need, ops):
        # two images of one name: equal namespaces, different lengths
        images = {f"vm{i}": TinyImage("img", shared=sizes[i % 2][0],
                                      unique=sizes[i % 2][1])
                  for i in range(n_guests)}
        guests = [GuestMemory(vm, image) for vm, image in images.items()]
        ksm = KsmDaemon(min_share_count=need)
        for g in guests:
            ksm.register(g)
        manager = SnapshotManager(ksm, TIMING)
        ref = RefCluster(images, need)
        names = [g.vm_name for g in guests]
        saved = []  # (snapshot, reference snapshot, reference delta)

        for op, *args in ops:
            if op == "write":
                guests[args[0] % n_guests].write_app_state(args[1])
                ref.write(names[args[0] % n_guests], args[1])
            elif op == "touch":
                guests[args[0] % n_guests].touch(args[1])
                ref.touch(names[args[0] % n_guests], args[1])
            elif op == "scan":
                ksm.scan()
                ref.scan()
            elif op == "unregister":
                ksm.unregister(names[args[0] % n_guests])
                ref.unregister(names[args[0] % n_guests])
            elif op == "save":
                snap = manager.save(guests, *args)
                saved.append((snap, ref.save(*args), None))
                check_full(snap, saved[-1][1])
            elif op == "save_delta":
                full = [s for s in saved if s[2] is None]
                if not full:
                    continue
                base, ref_base, __ = full[args[0] % len(full)]
                snap = manager.save_delta(guests, base,
                                          max_bandwidth=args[1])
                delta = ref.save_delta(ref_base)
                saved.append((snap, ref_base, delta))
                changed = sum(len(c) for c, __ in delta.values())
                removed = sum(len(r) for __, r in delta.values())
                assert snap.page_counts() == {"pages_changed": changed,
                                              "pages_removed": removed}
                assert snap.stored_bytes() == changed * PRIVATE + 8 * removed
                assert snap.save_time == TIMING.save_time(
                    snap.stored_bytes(), n_guests, max_bandwidth=args[1])
                assert snap.load_time == (ref_base["load_time"]
                                          + TIMING.load_time(n_guests))
            elif op == "load" and saved:
                snap, ref_snap, delta = saved[args[0] % len(saved)]
                full = snap if delta is None else snap.base
                if args[1] and full.shared_map is not None:
                    full.shared_map.runs.clear()
                    full.shared_map.pages.clear()
                    ref_snap["map"].clear()
                into = guests[1:] if args[2] else guests
                restore = manager.load if delta is None else manager.load_delta
                before = digests(guests)
                try:
                    ref.load(ref_snap, [g.vm_name for g in into], delta)
                except SnapshotError:
                    with pytest.raises(SnapshotError):
                        restore(snap, into)
                    assert digests(guests) == before
                else:
                    restore(snap, into)
            check_ksm(ref, ksm, guests)
            check_memory(ref, guests)


class CounterApp:
    def __init__(self, hostname):
        self.sent = [hostname]

    def snapshot_state(self):
        return list(self.sent)

    def restore_state(self, state):
        self.sent = list(state)


class TestCostIsAppPages:
    """Boot, scan, save and restore never walk the OS image."""

    def test_no_synthetic_digest_on_the_hot_path(self, monkeypatch):
        calls = []
        real = synthetic_digest
        monkeypatch.setattr(
            memory_module, "synthetic_digest",
            lambda ns, i: calls.append((ns, i)) or real(ns, i))

        gc.collect()
        objects_before = len(gc.get_objects())
        cluster = VmCluster([f"vm{i}" for i in range(5)])
        cluster.boot_all()
        assert len(gc.get_objects()) - objects_before < 2000
        for vm in cluster.machines():
            vm.app = CounterApp(vm.name)

        shared = cluster.save_snapshot(shared=True).snapshot
        for vm in cluster.machines():
            vm.app.sent.append("later")
        delta = cluster.save_delta_snapshot(shared).snapshot
        cluster.restore_snapshot(shared)
        assert all(vm.app.sent == [vm.name] for vm in cluster.machines())
        cluster.restore_snapshot(delta)
        assert all(vm.app.sent[-1] == "later" for vm in cluster.machines())
        assert delta.page_counts()["pages_changed"] == 5
        assert shared.page_counts()["pages_shared"] == 5 * 48 * 256
        assert calls == []

        image, guest = cluster.image, cluster.vm("vm3").memory
        pages = list(guest.iter_pages())
        assert len(pages) == 27136 + guest.app_page_count()
        assert [p.digest for __, p in pages[:27136]] == (
            [real(image.name, i) for i in range(image.shared_pages)]
            + [real(f"{image.name}:vm3", i)
               for i in range(image.unique_pages)])
