"""Time accounting for attack finding.

The platform runs systems in real time, so "the order of attacks is less
important than the total time required to find attacks" (Section III-B).
Every second the platform would spend — booting VMs, executing the system,
saving and restoring snapshots — is charged to a ledger, and Table III is a
comparison of ledger totals between the greedy and weighted-greedy
algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

BOOT = "boot"
EXECUTION = "execution"
SNAPSHOT_SAVE = "snapshot_save"
SNAPSHOT_RESTORE = "snapshot_restore"
#: overhead of classifying a platform fault and tearing the attempt down
RETRY = "retry"
#: platform time spent rebuilding a testbed after a persistent fault
#: (boot + warmup + warm snapshot, reattributed from their usual categories)
REBUILD = "rebuild"

CATEGORIES = (BOOT, EXECUTION, SNAPSHOT_SAVE, SNAPSHOT_RESTORE,
              RETRY, REBUILD)


@dataclass
class CostLedger:
    """Accumulated platform time, by category, in (virtual) seconds."""

    by_category: Dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative charge {seconds} for {category}")
        self.by_category[category] = self.by_category.get(category, 0.0) + seconds

    def total(self) -> float:
        return sum(self.by_category.values())

    def get(self, category: str) -> float:
        return self.by_category.get(category, 0.0)

    def snapshot_total(self) -> float:
        return self.get(SNAPSHOT_SAVE) + self.get(SNAPSHOT_RESTORE)

    def mark(self) -> float:
        """Current total, for measuring a span: total() - mark."""
        return self.total()

    def merge(self, other: "CostLedger") -> None:
        for category, seconds in other.by_category.items():
            self.charge(category, seconds)

    def describe(self) -> str:
        # Supervision categories only appear once something was charged to
        # them, so fault-free runs keep the familiar four-column output.
        parts = [f"{c}={self.by_category.get(c, 0.0):.1f}s" for c in CATEGORIES
                 if c not in (RETRY, REBUILD)
                 or self.by_category.get(c, 0.0) > 0]
        return f"total={self.total():.1f}s ({', '.join(parts)})"
