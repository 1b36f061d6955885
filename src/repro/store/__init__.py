"""Durable run storage: crash-safe journals and checkpoints.

Long hunts only pay off when progress survives process death.  This
package provides the two pieces that make a hunt kill-``-9``-safe:

* :class:`~repro.store.journal.Journal` — an append-only write-ahead log
  (JSONL, per-record CRC32, fsync-on-commit) with torn-tail recovery;
* :class:`~repro.store.runstore.RunStore` — journal + generation-swapped
  checkpoints for a hunt campaign, replayed on resume so a restarted hunt
  skips every already-completed scenario mid-pass.
"""

from repro.store.journal import Journal, atomic_write_json
from repro.store.runstore import RunStore, StoreReport

__all__ = ["Journal", "RunStore", "StoreReport", "atomic_write_json"]
