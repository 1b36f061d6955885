"""Page-sharing-aware snapshot management (Section IV-C of the paper).

Two snapshot modes:

* **plain** — each VM snapshot stores the full content of every resident
  page, exactly what unmodified KVM writes.
* **shared** — the manager additionally writes one *shared page map* holding
  each KSM-merged page once; the per-VM snapshot stores only a pfn plus a
  digest reference for shared pages and full content for private pages.

Snapshot files are run-length encoded like guest memory: one record per OS
extent, one per application page.  Every page still accounts for its bytes,
and that accounting feeds :class:`~repro.vm.timing.VmTimingModel` so that
sharing translates into save-time savings the way the paper measures in
Table II.  Restores check every shared reference against the map first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SnapshotError
from repro.common.units import PAGE_SIZE
from repro.vm.ksm import KsmDaemon
from repro.vm.memory import Extent, GuestMemory, Page
from repro.vm.timing import VmTimingModel

# On-disk record sizes (bytes): pfn (8) + flag (1), then 4096 bytes of
# content or, for a page the shared map holds, its 16-byte digest.
_DIGEST_REF = 16
_PRIVATE = 9 + PAGE_SIZE
_SHARED = 9 + _DIGEST_REF


@dataclass(frozen=True)
class PageRecord:
    """One application page inside a VM snapshot file."""

    pfn: int
    shared: bool
    digest: bytes
    content: Optional[bytes] = None  # None for shared refs


@dataclass(frozen=True)
class ExtentRecord:
    """One OS extent inside a VM snapshot file: the pages at indices below
    ``limit``, bar ``holes``, are shared refs; the rest are stored in full."""

    extent: Extent
    limit: int = 0
    holes: frozenset = frozenset()

    def shared_refs(self) -> int:
        return self.limit - len(self.holes)


@dataclass
class VmSnapshot:
    """Snapshot file of a single VM."""

    vm_name: str
    extents: List[ExtentRecord]
    records: List[PageRecord]

    def pages(self) -> int:
        return sum(r.extent.count for r in self.extents) + len(self.records)

    def shared_refs(self) -> int:
        return (sum(r.shared_refs() for r in self.extents)
                + sum(r.shared for r in self.records))

    def stored_bytes(self) -> int:
        refs = self.shared_refs()
        return refs * _SHARED + (self.pages() - refs) * _PRIVATE


@dataclass
class SharedPageMap:
    """The shared page map file: each merged page stored exactly once — an
    application page under its digest, a merged OS run under its namespace
    as (length, indices below it that no saved guest references)."""

    pages: Dict[bytes, Page] = field(default_factory=dict)
    runs: Dict[str, Tuple[int, frozenset]] = field(default_factory=dict)

    def stored_bytes(self) -> int:
        merged = len(self.pages) + sum(
            length - len(missing) for length, missing in self.runs.values())
        return merged * (PAGE_SIZE + _DIGEST_REF)

    def add_run(self, run: ExtentRecord) -> None:
        have, missing = self.runs.get(run.extent.namespace, (0, frozenset()))
        self.runs[run.extent.namespace] = (max(have, run.limit), frozenset(
            [i for i in missing if i >= run.limit or i in run.holes]
            + [i for i in run.holes if i >= have or i in missing]))

    def lookup(self, digest: bytes) -> Page:
        if digest not in self.pages:
            raise SnapshotError(
                f"shared page map missing digest {digest.hex()}")
        return self.pages[digest]


@dataclass
class ClusterSnapshot:
    """Snapshots of all VMs plus the optional shared page map."""

    mode: str                      # "plain" | "shared"
    vm_snapshots: List[VmSnapshot]
    shared_map: Optional[SharedPageMap]
    save_time: float
    load_time: float

    def stored_bytes(self) -> int:
        return (sum(s.stored_bytes() for s in self.vm_snapshots)
                + (self.shared_map.stored_bytes() if self.shared_map else 0))

    def page_counts(self) -> Dict[str, int]:
        """Table-II-style page breakdown: total, KSM-shared refs, private."""
        total = sum(s.pages() for s in self.vm_snapshots)
        shared = sum(s.shared_refs() for s in self.vm_snapshots)
        return {"pages_total": total, "pages_shared": shared,
                "pages_private": total - shared}


@dataclass
class DeltaVmSnapshot:
    """Application pages of one VM that differ from a base snapshot."""

    vm_name: str
    changed: List[PageRecord]
    removed: List[int]

    def stored_bytes(self) -> int:
        return len(self.changed) * _PRIVATE + 8 * len(self.removed)


@dataclass
class DeltaClusterSnapshot:
    """A base snapshot plus per-VM deltas; restores base-then-overlay."""

    base: ClusterSnapshot
    vm_deltas: List[DeltaVmSnapshot]
    save_time: float
    load_time: float

    def stored_bytes(self) -> int:
        return sum(d.stored_bytes() for d in self.vm_deltas)

    def page_counts(self) -> Dict[str, int]:
        """Delta breakdown: pages re-stored vs dropped relative to the base."""
        return {"pages_changed": sum(len(d.changed) for d in self.vm_deltas),
                "pages_removed": sum(len(d.removed) for d in self.vm_deltas)}


class SnapshotManager:
    """Implements save/load for a set of guests, with optional page sharing."""

    def __init__(self, ksm: Optional[KsmDaemon] = None,
                 timing: Optional[VmTimingModel] = None) -> None:
        self.ksm = ksm
        self.timing = timing or VmTimingModel()

    # ------------------------------------------------------------------ save

    def save(self, memories: Sequence[GuestMemory], shared: bool = False,
             max_bandwidth: bool = True) -> ClusterSnapshot:
        if shared and self.ksm is None:
            raise SnapshotError("shared snapshots require a KSM daemon")
        shared_map = SharedPageMap() if shared else None
        vm_snapshots: List[VmSnapshot] = []
        for memory in memories:
            name = memory.vm_name
            extents, app = memory.export_pages()
            runs = [ExtentRecord(e, *self.ksm.shared_run(name, e)) if shared
                    else ExtentRecord(e) for e in extents]
            for run in runs:
                if run.shared_refs():
                    shared_map.add_run(run)
            records: List[PageRecord] = []
            for pfn, page in sorted(app.items()):
                if shared and self.ksm.is_shared(name, pfn, page):
                    shared_map.pages.setdefault(page.digest, page)
                    records.append(PageRecord(pfn, True, page.digest))
                else:
                    records.append(
                        PageRecord(pfn, False, page.digest, page.content))
            vm_snapshots.append(VmSnapshot(name, runs, records))
        snapshot = ClusterSnapshot(
            "shared" if shared else "plain", vm_snapshots, shared_map,
            0.0, self.timing.load_time(len(vm_snapshots)))
        snapshot.save_time = self.timing.save_time(
            snapshot.stored_bytes(), len(vm_snapshots),
            max_bandwidth=max_bandwidth)
        return snapshot

    # ------------------------------------------------------------------ load

    def _stage(self, snapshot, memories) -> Dict[str, tuple]:
        """Reconstruct every VM's memory without touching the guests.

        Restores are applied in two phases — stage everything (where any
        missing guest or dangling shared reference surfaces as a
        :class:`SnapshotError`), then commit — so a failed restore leaves
        every guest exactly as it was, never a base with no delta on top.
        """
        if isinstance(snapshot, DeltaClusterSnapshot):
            staged = self._stage(snapshot.base, memories)
            for delta in snapshot.vm_deltas:
                app = staged[delta.vm_name][2]
                for pfn in delta.removed:
                    app.pop(pfn, None)
                for record in delta.changed:
                    app[record.pfn] = Page(record.digest, record.content)
            return staged
        by_name = {m.vm_name: m for m in memories}
        shared_map = snapshot.shared_map or SharedPageMap()
        staged = {}
        for vm_snap in snapshot.vm_snapshots:
            if vm_snap.vm_name not in by_name:
                raise SnapshotError(
                    f"no guest named {vm_snap.vm_name} to restore into")
            for run in vm_snap.extents:
                held = shared_map.runs.get(run.extent.namespace, (0,))[0]
                if run.shared_refs() and run.limit > held:
                    raise SnapshotError("shared page map missing pages of "
                                        f"run {run.extent.namespace!r}")
            app = {r.pfn: shared_map.lookup(r.digest) if r.shared
                   else Page(r.digest, r.content) for r in vm_snap.records}
            staged[vm_snap.vm_name] = (
                by_name[vm_snap.vm_name],
                tuple(run.extent for run in vm_snap.extents), app)
        return staged

    def load(self, snapshot, memories: Sequence[GuestMemory]) -> None:
        """Restore a full snapshot, or a delta as its base plus overlay."""
        for memory, extents, app in self._stage(snapshot, memories).values():
            memory.load_pages(extents, app)

    load_delta = load

    # ----------------------------------------------------- delta snapshots
    #
    # Execution branching snapshots every injection point of a search, yet
    # the OS extents and most of the heap still equal the warm snapshot: a
    # delta stores only the application pages that changed against a base,
    # cutting save cost for every injection point after the first.

    def save_delta(self, memories: Sequence[GuestMemory],
                   base: ClusterSnapshot,
                   max_bandwidth: bool = True) -> DeltaClusterSnapshot:
        base_vms = {s.vm_name: s for s in base.vm_snapshots}
        deltas: List[DeltaVmSnapshot] = []
        for memory in memories:
            extents, app = memory.export_pages()
            known = base_vms.get(memory.vm_name)
            if known is None or extents != tuple(
                    run.extent for run in known.extents):
                raise SnapshotError("base snapshot has no VM named "
                                    f"{memory.vm_name} with this OS image")
            digests = {r.pfn: r.digest for r in known.records}
            changed = [PageRecord(pfn, False, page.digest, page.content)
                       for pfn, page in sorted(app.items())
                       if digests.get(pfn) != page.digest]
            deltas.append(DeltaVmSnapshot(
                memory.vm_name, changed, sorted(set(digests) - set(app))))
        save_time = self.timing.save_time(
            sum(d.stored_bytes() for d in deltas), len(deltas),
            max_bandwidth=max_bandwidth)
        # loading must materialize the base first, then apply the delta
        load_time = base.load_time + self.timing.load_time(len(deltas))
        return DeltaClusterSnapshot(base, deltas, save_time, load_time)

    # -------------------------------------------------------------- analysis

    @staticmethod
    def compare(plain: ClusterSnapshot, shared: ClusterSnapshot
                ) -> Tuple[float, float]:
        """(size reduction, save-time reduction) of shared vs plain, in %.

        A plain snapshot of empty memories (or one taken under a
        zero-bandwidth timing model) has nothing to reduce; report 0.0
        instead of dividing by zero.
        """
        plain_bytes = plain.stored_bytes()
        size_red = (100.0 * (1 - shared.stored_bytes() / plain_bytes)
                    if plain_bytes else 0.0)
        time_red = (100.0 * (1 - shared.save_time / plain.save_time)
                    if plain.save_time else 0.0)
        return size_red, time_red
