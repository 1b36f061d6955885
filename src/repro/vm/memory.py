"""Guest memory as a page store.

A Turret guest is a KVM virtual machine with (in the paper's evaluation)
128 MiB of RAM.  What the snapshot experiments measure is a function of the
*page population*: how many 4 KiB pages are resident, and which of them are
byte-identical across VMs (the OS image, shared libraries) versus unique to
one VM (boot entropy, page cache, application heap).

We model a page by its content digest plus, for application pages, the
actual bytes.  OS-image pages are generated deterministically from the image
name, so two VMs booted from the same image have identical page digests —
exactly the property KSM exploits.  They never change after boot, so a guest
holds them run-length encoded, as two :class:`Extent` values whose per-page
digests are derived only on demand: boot, scan, save and restore cost what
the application dirtied, not the address space, and every mechanism under
test is preserved — content-based dedup, dirty-page tracking, snapshot sizes
(every page still accounts for 4 KiB on the wire), restore verification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.common.errors import SnapshotError
from repro.common.units import MIB, PAGE_SIZE, pages_for


def digest_bytes(content: bytes) -> bytes:
    return hashlib.blake2b(content, digest_size=16).digest()


def synthetic_digest(namespace: str, index: int) -> bytes:
    """Digest of a deterministic synthetic page (content never materialized)."""
    return hashlib.blake2b(
        f"page:{namespace}:{index}".encode(), digest_size=16).digest()


@dataclass(frozen=True)
class Page:
    """One resident 4 KiB guest page.

    ``content`` is None for synthetic pages (OS image / boot churn), whose
    identity is fully captured by the digest.
    """

    digest: bytes
    content: Optional[bytes] = None


@dataclass(frozen=True)
class Extent:
    """A run of synthetic pages that never change after boot: the page at
    pfn ``base + i`` is ``synthetic_digest(namespace, i)``, derived only
    when somebody asks for it.  Equal namespaces mean equal content, index
    for index, so KSM and snapshots compare whole runs by identity."""

    namespace: str
    base: int
    count: int

    def __contains__(self, pfn: int) -> bool:
        return self.base <= pfn < self.base + self.count

    def page(self, pfn: int) -> Page:
        return Page(synthetic_digest(self.namespace, pfn - self.base))


@dataclass(frozen=True)
class OsImage:
    """A guest operating-system image.

    ``resident_mb`` pages are identical across all VMs booted from the same
    image (kernel text, shared libraries, read-only caches) and are the
    sharing opportunity.  ``unique_mb`` pages are per-VM (boot-time entropy,
    dirty page cache, logs) and can never be merged.

    The default split (48 MiB shareable + 58 MiB unique out of 128 MiB RAM)
    gives the resident-set size and sharing ratio implied by Table II of the
    paper: ~106 MiB saved per VM, with save-time savings from sharing growing
    from ~34.5% at 5 VMs towards ~40.3% at 15 VMs.
    """

    name: str = "debian-headless"
    resident_mb: int = 48
    unique_mb: int = 58

    @property
    def shared_pages(self) -> int:
        return pages_for(self.resident_mb * MIB)

    @property
    def unique_pages(self) -> int:
        return pages_for(self.unique_mb * MIB)


class GuestMemory:
    """Resident page set of one VM, with dirty tracking for KSM."""

    # pfn layout: [0, shared_pages) OS image, then unique pages, then app;
    # the first two are one extent each, only app pages are held one by one.
    def __init__(self, vm_name: str, image: OsImage) -> None:
        self.vm_name = vm_name
        self.image = image
        shared, unique = image.shared_pages, image.unique_pages
        self.extents: Tuple[Extent, ...] = (
            Extent(image.name, 0, shared),
            Extent(f"{image.name}:{vm_name}", shared, unique))
        self._app: Dict[int, Page] = {}
        self._dirty: set = set()
        self._app_base = shared + unique

    # ------------------------------------------------------------- app pages

    def write_app_state(self, blob: bytes) -> None:
        """(Re)write the application's resident pages from a state blob."""
        new_count = pages_for(len(blob)) if blob else 0
        for i in range(max(new_count, len(self._app))):
            pfn = self._app_base + i
            if i < new_count:
                chunk = blob[i * PAGE_SIZE:(i + 1) * PAGE_SIZE].ljust(
                    PAGE_SIZE, b"\x00")
                page = Page(digest_bytes(chunk), chunk)
                if self._app.get(pfn) != page:
                    self._app[pfn] = page
                    self._dirty.add(pfn)
            else:
                self._app.pop(pfn, None)
                self._dirty.discard(pfn)

    def read_app_state(self) -> bytes:
        """Reassemble the app state blob from resident app pages."""
        chunks = []
        for i in range(len(self._app)):
            page = self._app.get(self._app_base + i)
            if page is None or page.content is None:
                raise SnapshotError(
                    f"{self.vm_name}: app page {i} missing or synthetic")
            chunks.append(page.content)
        return b"".join(chunks)

    def app_page_count(self) -> int:
        return len(self._app)

    # --------------------------------------------------------------- queries

    def resident_pages(self) -> int:
        return sum(e.count for e in self.extents) + len(self._app)

    def page(self, pfn: int) -> Page:
        if pfn in self._app:
            return self._app[pfn]
        for extent in self.extents:
            if pfn in extent:
                return extent.page(pfn)
        raise SnapshotError(f"{self.vm_name}: pfn {pfn} not resident")

    def iter_pages(self) -> Iterator[Tuple[int, Page]]:
        """Every resident page in pfn order, OS digests derived on the fly."""
        for extent in self.extents:
            for pfn in range(extent.base, extent.base + extent.count):
                yield pfn, extent.page(pfn)
        yield from sorted(self._app.items())

    # --------------------------------------------------------- dirty tracking

    def dirty_pfns(self) -> set:
        return set(self._dirty)

    def clear_dirty(self) -> None:
        self._dirty.clear()

    def touch(self, pfn: int) -> None:
        """Mark a page written without changing content (volatile page)."""
        if pfn in self._app or any(pfn in e for e in self.extents):
            self._dirty.add(pfn)

    # ---------------------------------------------------------------- restore

    def load_pages(self, extents: Tuple[Extent, ...],
                   app: Dict[int, Page]) -> None:
        """Replace the entire resident set (used by snapshot restore)."""
        self.extents = tuple(extents)
        self._app = dict(app)
        self._dirty = set()

    def export_pages(self) -> Tuple[Tuple[Extent, ...], Dict[int, Page]]:
        return self.extents, dict(self._app)
