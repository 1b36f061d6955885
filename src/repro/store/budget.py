"""Byte-accounted LRU budgets for snapshot caches.

The harness injection-point cache (``--injection-cache``) holds one full
:class:`~repro.controller.branching.WorldSnapshot` per message type, which
grows without bound over a long hunt.  A :class:`SnapshotBudget` bounds it:
entries are charged by their stored bytes, and admitting a new entry evicts
least-recently-used entries until the budget fits again.  (It is the only
snapshot cache: parallel probers hold one live context and need no budget.)

Eviction is **deterministic**: the access sequence of a deterministic hunt
is deterministic, so the LRU order — and therefore which entries are
evicted, and when — is reproducible run to run.  A later access to an
evicted entry rebuilds it from the warm snapshot (the deterministic world
reproduces it exactly); the platform time that rebuild costs is charged to
the budget's own side-channel :class:`~repro.controller.costs.CostLedger`,
*not* the report ledger, so a budgeted run's report stays byte-identical
to an unbudgeted one.

Counters live in an always-on private
:class:`~repro.telemetry.instruments.InstrumentRegistry` under the
``snapshot.cache.*`` namespace (the :class:`~repro.parallel.health.
HealthMonitor` pattern) and surface through :class:`StoreReport` — a side
channel, never serialized into the deterministic report JSON.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.common.errors import ConfigError
from repro.controller.costs import CostLedger
from repro.telemetry.instruments import InstrumentRegistry

#: ledger category for platform time spent rebuilding evicted entries
CACHE_REBUILD = "cache_rebuild"


def parse_bytes(spec: str) -> int:
    """Parse a byte-size spec: plain int or with a k/M/G suffix."""
    text = str(spec).strip()
    multiplier = 1
    if text and text[-1].lower() in "kmg":
        multiplier = {"k": 1 << 10, "m": 1 << 20,
                      "g": 1 << 30}[text[-1].lower()]
        text = text[:-1]
    try:
        value = int(float(text) * multiplier)
    except ValueError:
        raise ConfigError(f"bad byte size {spec!r}; expected e.g. "
                          f"4096, 64k, 2M, 1G") from None
    if value <= 0:
        raise ConfigError(f"byte budget must be positive, got {spec!r}")
    return value


class SnapshotBudget:
    """LRU byte budget over opaque cache keys.

    The budget only does the accounting; the owning cache passes an
    ``on_evict`` callback that actually drops its entry.  The most
    recently admitted entry is never evicted by its own admission, so a
    budget smaller than a single snapshot still makes progress (exactly
    one resident entry) instead of thrashing.
    """

    def __init__(self, limit_bytes: int) -> None:
        if limit_bytes <= 0:
            raise ConfigError(
                f"snapshot budget must be positive, got {limit_bytes}")
        self.limit = limit_bytes
        #: key -> stored bytes, in least-recently-used-first order
        self._entries: "OrderedDict[Any, int]" = OrderedDict()
        #: side-channel accounting of rebuild-on-miss platform time
        self.ledger = CostLedger()
        self.registry = InstrumentRegistry(enabled=True)

    # ------------------------------------------------------------- accounting

    @property
    def held_bytes(self) -> int:
        return sum(self._entries.values())

    def counters(self) -> Dict[str, float]:
        counters = dict(self.registry.counters())
        counters["snapshot.cache.bytes_held"] = float(self.held_bytes)
        rebuild = self.ledger.get(CACHE_REBUILD)
        if rebuild:
            counters["snapshot.cache.rebuild_platform_seconds"] = rebuild
        return counters

    # -------------------------------------------------------------- lifecycle

    def admit(self, key: Any, nbytes: int,
              on_evict: Callable[[Any], None]) -> None:
        """Account a new entry, evicting LRU entries until the budget fits.

        ``on_evict(victim_key)`` must drop the owning cache's entry; the
        just-admitted key itself is exempt from this admission's evictions.
        """
        self._entries.pop(key, None)
        self._entries[key] = nbytes
        self.registry.count("snapshot.cache.insertions")
        self.registry.count("snapshot.cache.bytes_admitted", nbytes)
        while self.held_bytes > self.limit and len(self._entries) > 1:
            victim, size = next(iter(self._entries.items()))
            del self._entries[victim]
            self.registry.count("snapshot.cache.evictions")
            self.registry.count("snapshot.cache.bytes_evicted", size)
            on_evict(victim)

    def touch(self, key: Any) -> None:
        """Mark a cache hit, refreshing the key's LRU position."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self.registry.count("snapshot.cache.hits")

    def miss(self) -> None:
        self.registry.count("snapshot.cache.misses")

    def discard(self, key: Any) -> None:
        """Forget one key without counting an eviction (owner dropped it)."""
        self._entries.pop(key, None)

    def invalidate_all(self) -> None:
        """Forget everything (e.g. a testbed rebuild bumped the epoch)."""
        if self._entries:
            self.registry.count("snapshot.cache.invalidations",
                                len(self._entries))
        self._entries.clear()

    def note_rebuild(self, seconds: float) -> None:
        """Charge one rebuild-on-miss to the side-channel ledger."""
        self.registry.count("snapshot.cache.rebuilds")
        self.ledger.charge(CACHE_REBUILD, seconds)


@dataclass
class StoreReport:
    """What the durable store and snapshot budgets did during a hunt.

    A **side channel**, like ``worker_health``: resume and eviction
    activity differ between an interrupted and an uninterrupted run, so
    serializing this into the result JSON would break the byte-identity
    contract.  It is rendered for humans and exportable on its own.
    """

    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def eventful(self) -> bool:
        return any(value for value in self.counters.values())

    def merge_counters(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value

    def one_line(self) -> str:
        interesting = (
            ("store.resume.evals_seeded", "evals replayed"),
            ("store.resume.types_seeded", "types replayed"),
            ("store.resume.passes_restored", "passes restored"),
            ("store.journal.records_appended", "journaled"),
            ("store.journal.torn_bytes_dropped", "torn bytes dropped"),
            ("store.checkpoint.fallbacks", "checkpoint fallbacks"),
            ("snapshot.cache.evictions", "evictions"),
            ("snapshot.cache.rebuilds", "rebuilds"),
        )
        parts = [f"{int(self.counters[name])} {label}"
                 for name, label in interesting if self.counters.get(name)]
        return "store: " + (", ".join(parts) if parts else "clean")

    def to_dict(self) -> Dict[str, float]:
        return dict(sorted(self.counters.items()))
