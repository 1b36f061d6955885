"""Unit helpers.

All platform time is in float seconds of virtual time; sizes are in bytes;
rates are in bytes per second or packets per second.  These helpers exist to
keep call sites readable (``delay=millis(1)``) and conversions centralized.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

PAGE_SIZE = 4096  # bytes, matching x86 pages and the KVM snapshot granularity


def millis(ms: float) -> float:
    """Milliseconds to seconds."""
    return ms / 1000.0


def micros(us: float) -> float:
    """Microseconds to seconds."""
    return us / 1_000_000.0


def mbit_per_sec(mbps: float) -> float:
    """Megabits per second to bytes per second."""
    return mbps * 1_000_000 / 8.0


def pages_for(nbytes: int) -> int:
    """Number of 4 KiB pages needed to hold ``nbytes``."""
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
