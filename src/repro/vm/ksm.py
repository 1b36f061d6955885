"""KSM: kernel samepage merging across VMs.

The paper modifies KSM to "expose shared page information by adding an
interface that verifies if a page is shared or not", which the modified KVM
save path then queries.  This module reproduces that daemon: it scans the
registered guests' memory, merges stable identical pages into a shared-page
table, and answers :meth:`is_shared` queries from the snapshot manager.

Like the real KSM we skip *volatile* pages: a page dirtied since the last
scan is not merged, because merging pages that are about to diverge again
only causes copy-on-write churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.vm.memory import Extent, GuestMemory, Page


@dataclass
class KsmStats:
    scans: int = 0
    pages_shared: int = 0      # distinct merged pages
    pages_sharing: int = 0     # guest mappings backed by merged pages
    pages_volatile: int = 0    # skipped because dirtied since last scan


class KsmDaemon:
    """Content-based page merger over a set of guests.

    Application pages merge by digest; OS extents of one namespace hold the
    same page at the same index, so they merge wholesale over the prefix
    enough guests hold, bar the indices a guest dirtied.
    """

    def __init__(self, min_share_count: int = 2) -> None:
        self.min_share_count = min_share_count
        self._guests: Dict[str, GuestMemory] = {}
        #: digest of a merged application page -> its (vm, pfn) mappings
        self._table: Dict[bytes, Set[Tuple[str, int]]] = {}
        #: namespace -> [(vm, extent, indices volatile at the last scan)]
        self._holders: Dict[str, List[Tuple[str, Extent, frozenset]]] = {}
        #: vm -> extent -> (merged prefix length, unmerged indices below it)
        self._runs: Dict[str, Dict[Extent, Tuple[int, frozenset]]] = {}
        self.stats = KsmStats()

    def register(self, memory: GuestMemory) -> None:
        self._guests[memory.vm_name] = memory

    def unregister(self, vm_name: str) -> None:
        self._guests.pop(vm_name, None)
        self._table = {d: {m for m in mappings if m[0] != vm_name}
                       for d, mappings in self._table.items()}
        self._holders = {ns: [h for h in holders if h[0] != vm_name]
                         for ns, holders in self._holders.items()}
        self._merge()

    def _merge(self) -> None:
        """Keep what enough mappings back; derive the runs and the stats."""
        need = self.min_share_count
        self._table = {d: mappings for d, mappings in self._table.items()
                       if len(mappings) >= need}
        shared = len(self._table)
        sharing = sum(map(len, self._table.values()))
        self._runs = {}
        for holders in self._holders.values():
            counts = sorted((e.count for __, e, __ in holders), reverse=True)
            prefix = counts[need - 1] if len(counts) >= need else 0
            volatile = frozenset().union(*(v for __, __, v in holders))
            unmerged = {i for i in volatile if i < prefix and sum(
                e.count > i and i not in v for __, e, v in holders) < need}
            shared += prefix - len(unmerged)
            for vm_name, extent, mine in holders:
                limit = min(prefix, extent.count)
                holes = frozenset(i for i in mine | unmerged if i < limit)
                self._runs.setdefault(vm_name, {})[extent] = (limit, holes)
                sharing += limit - len(holes)
        self.stats.pages_shared, self.stats.pages_sharing = shared, sharing

    # ------------------------------------------------------------------ scan

    def scan(self) -> KsmStats:
        """One full scan pass: rebuild the shared-page table.

        Real KSM scans incrementally; a full rebuild per pass is equivalent
        for our purposes (the table state after a pass over a quiescent
        system is identical) and much simpler to reason about.
        """
        self._table, self._holders = {}, {}
        volatile = 0
        for memory in self._guests.values():
            dirty = memory.dirty_pfns()
            volatile += len(dirty)
            extents, app = memory.export_pages()
            for extent in extents:
                self._holders.setdefault(extent.namespace, []).append(
                    (memory.vm_name, extent, frozenset(
                        pfn - extent.base for pfn in dirty if pfn in extent)))
            for pfn, page in app.items():
                if pfn not in dirty:
                    self._table.setdefault(page.digest, set()).add(
                        (memory.vm_name, pfn))
            memory.clear_dirty()
        self.stats = KsmStats(self.stats.scans + 1, pages_volatile=volatile)
        self._merge()
        return self.stats

    # ------------------------------------------------- interface added by us
    # (the paper's KSM modification: "an interface that verifies if a page
    # is shared or not")

    def is_shared(self, vm_name: str, pfn: int, page: Page) -> bool:
        if page.digest in self._table:
            return (vm_name, pfn) in self._table[page.digest]
        for extent, (limit, holes) in self._runs.get(vm_name, {}).items():
            index = pfn - extent.base
            if 0 <= index < limit and index not in holes:
                return extent.page(pfn).digest == page.digest
        return False

    def shared_run(self, vm_name: str,
                   extent: Extent) -> Tuple[int, frozenset]:
        """:meth:`is_shared`, run-length encoded: the pages of ``extent`` at
        indices below the limit, bar the holes, are backed by merged ones."""
        return self._runs.get(vm_name, {}).get(extent, (0, frozenset()))

    def sharing_ratio(self) -> float:
        """Fraction of resident guest pages backed by a merged page."""
        total = sum(m.resident_pages() for m in self._guests.values())
        return self.stats.pages_sharing / total if total else 0.0
