"""Virtualization substrate: guests, KSM, page-sharing-aware snapshots."""

from repro.vm.ksm import KsmDaemon, KsmStats
from repro.vm.machine import VirtualMachine
from repro.vm.manager import ClusterSaveResult, VmCluster
from repro.vm.memory import Extent, GuestMemory, OsImage, Page
from repro.vm.snapshots import (ClusterSnapshot, ExtentRecord, PageRecord,
                                SharedPageMap, SnapshotManager, VmSnapshot)
from repro.vm.timing import VmTimingModel

__all__ = [
    "KsmDaemon", "KsmStats", "VirtualMachine", "ClusterSaveResult",
    "VmCluster", "Extent", "GuestMemory", "OsImage", "Page",
    "ClusterSnapshot", "ExtentRecord", "PageRecord", "SharedPageMap",
    "SnapshotManager", "VmSnapshot", "VmTimingModel",
]
