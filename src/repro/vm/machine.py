"""The virtual machine abstraction.

A :class:`VirtualMachine` hosts one participant of the distributed system
under test.  It owns guest memory (``repro.vm.memory``), exposes the
pause/resume lifecycle the distributed-snapshot procedure requires, and
bridges between the hosted application's structured state and the page-level
view the snapshot machinery operates on: ``sync_app_pages`` serializes the
application state into resident pages, and ``restore_app`` rebuilds the
application from the pages a snapshot restore brought back.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional, Protocol

from repro.common.errors import SnapshotError
from repro.vm.memory import GuestMemory, OsImage, digest_bytes


class HostedApp(Protocol):
    """What a VM needs from the application it hosts."""

    def snapshot_state(self) -> Any:
        """Return the app's full protocol state as plain picklable data."""

    def restore_state(self, state: Any) -> None:
        """Rebuild the app from a previously returned state value."""


class VirtualMachine:
    """One guest: memory plus a hosted application and a pause flag."""

    def __init__(self, name: str, image: Optional[OsImage] = None) -> None:
        self.name = name
        self.image = image or OsImage()
        self.memory = GuestMemory(name, self.image)
        self.app: Optional[HostedApp] = None
        self.paused = False
        self.running = False

    # ------------------------------------------------------------- lifecycle

    def boot(self, app: Optional[HostedApp] = None) -> None:
        if app is not None:
            self.app = app
        self.running = True
        self.paused = False

    def pause(self) -> None:
        if not self.running:
            raise SnapshotError(f"{self.name}: cannot pause a VM that is not running")
        self.paused = True

    def resume(self) -> None:
        if not self.running:
            raise SnapshotError(f"{self.name}: cannot resume a VM that is not running")
        self.paused = False

    def shutdown(self) -> None:
        self.running = False
        self.paused = False

    # ------------------------------------------------------------ app bridge

    def sync_app_pages(self) -> int:
        """Serialize the hosted app's state into guest pages.

        Returns the size of the serialized state in bytes.  Must be called
        with the VM paused (the paper pauses VMs before saving so the saved
        pages are consistent).
        """
        if not self.paused:
            raise SnapshotError(
                f"{self.name}: app pages may only be synced while paused")
        if self.app is None:
            self.memory.write_app_state(b"")
            return 0
        blob = pickle.dumps(self.app.snapshot_state(), protocol=4)
        self.memory.write_app_state(blob)
        return len(blob)

    def restore_app(self) -> None:
        """Rebuild the hosted app's state from resident app pages."""
        if self.app is None:
            return
        padded = self.memory.read_app_state()
        if not padded:
            return
        self.app.restore_state(pickle.loads(padded))

    def state_digest(self) -> bytes:
        """Digest of the hosted app's state (for branch-equality checks)."""
        if self.app is None:
            return b""
        return digest_bytes(
            pickle.dumps(self.app.snapshot_state(), protocol=4))
