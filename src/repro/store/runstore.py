"""RunStore: the durable campaign store behind ``hunt --store DIR``.

Two durable artifacts live in the store directory:

* ``journal.jsonl`` — a write-ahead journal of every completed probe
  (startup boot, per-type injection context, per-action evaluation), each
  committed with CRC32 + fsync *before* the hunt proceeds.  The journal is
  the persistence of one :class:`~repro.parallel.worker.ProbeCache`
  (``RunStore.cache``): replay loads it, every new admission appends to it,
  and it *is* the executor's cache, the one the walk looks its steps up
  in — so a resumed hunt skips every already-completed scenario
  **mid-pass**, not just completed passes.
* ``checkpoint-<N>.json`` — generation-swapped hunt checkpoints (the
  pass-boundary state: excluded scenarios, weights, ledger, completed
  passes), each written atomically via tmp + fsync + rename + directory
  fsync.  The last two generations are kept; a corrupt newest generation
  (torn rename, bad CRC) falls back to the previous good one.

Resume produces a report **byte-identical** to the uninterrupted run: the
journal stores the recorded :class:`~repro.parallel.recording.StepTrace` of
every probe, and the algorithm's walk replays traces in serial order
whether they came from a live worker or from disk.  Anything *not* in the
journal is re-simulated — deterministic worlds reproduce the identical
traces.  The journal's ``meta`` record keys it on the hunt's probe half
(:mod:`repro.controller.config`, :meth:`RunStore.bind`).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.reports import (_sample_from_dict, _sample_to_dict,
                                    record_from_jsonable, record_to_jsonable)
from repro.common import chaos
from repro.common.errors import ConfigError
from repro.controller.config import refuse_another
from repro.parallel.recording import StepTrace
from repro.parallel.worker import (ContextProbe, EvalProbe, ProbeCache,
                                   StartupProbe)
from repro.store.journal import Journal, _canonical, atomic_write_json

JOURNAL_NAME = "journal.jsonl"
CHECKPOINT_PREFIX = "checkpoint-"
#: checkpoint generations kept on disk (current + previous good)
KEPT_GENERATIONS = 2
#: schema of the journal's records; a journal of any other is refused
JOURNAL_VERSION = 2


# ------------------------------------------------------- probe serialization

def trace_to_jsonable(trace: StepTrace) -> Dict[str, Any]:
    return {
        "charges": [[category, seconds] for category, seconds
                    in trace.charges],
        "events": [list(event) for event in trace.events],
        "crash_lines": list(trace.crash_lines),
    }


def trace_from_jsonable(data: Dict[str, Any]) -> StepTrace:
    return StepTrace(
        charges=[(category, seconds) for category, seconds
                 in data["charges"]],
        events=[tuple(event) for event in data["events"]],
        crash_lines=list(data["crash_lines"]))


def _quarantine_to_jsonable(quarantined) -> Optional[List]:
    if quarantined is None:
        return None
    reason, attempts = quarantined
    return [reason, attempts]


def _quarantine_from_jsonable(data) -> Optional[tuple]:
    if data is None:
        return None
    return (data[0], data[1])


def _sample_or_none(sample) -> Optional[Dict[str, Any]]:
    return None if sample is None else _sample_to_dict(sample)


def _sample_back(data) -> Optional[Any]:
    return None if data is None else _sample_from_dict(data)


# ------------------------------------------------------------------ RunStore

class RunStore:
    """Durable journal + checkpoints for one hunt campaign."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        #: what the store did, by counter name (``StoreReport.counters``)
        self.counters: Counter = Counter()
        self.journal = Journal(os.path.join(directory, JOURNAL_NAME))
        if self.journal.recovered_bytes:
            self.counters["store.journal.torn_bytes_dropped"] += (
                self.journal.recovered_bytes)
        #: every journaled probe; once the store is bound, admissions are
        #: committed to the journal first (the cache's own dedupe is the
        #: journal's: a probe it already holds is never appended twice)
        self.cache = ProbeCache()
        self._generation = self._latest_generation()
        #: checkpoints this process wrote (what ``checkpoint.write`` chaos
        #: counts)
        self.checkpoints_written = 0
        self._meta = self._load_journal()

    def bind(self, probe: Dict[str, Any]) -> None:
        """Key the store on a hunt's probe half (its JSON): a new journal
        records it, a journal of another half is a :class:`ConfigError`
        naming the first field they differ in.  Only a bound store
        journals the probes its cache admits."""
        digest = hashlib.sha256(_canonical(probe).encode()).hexdigest()
        if self._meta is None:
            self._meta = {"kind": "meta", "journal_version": JOURNAL_VERSION,
                          "digest": digest, "probe": probe}
            self.journal.append(self._meta)
        elif self._meta["digest"] != digest:
            refuse_another(self._meta["probe"], probe,
                           f"store {self.directory}")
        self.cache.commit = self._journal_probe

    # ---------------------------------------------------------------- journal

    def _load_journal(self) -> Optional[Dict[str, Any]]:
        """Load the journal's probes into the cache; returns its ``meta``
        record (None: an empty journal)."""
        records = self.journal.records
        if not records:
            return None
        version = records[0].get("journal_version")
        if records[0].get("kind") != "meta" or version != JOURNAL_VERSION:
            raise ConfigError(
                f"store {self.directory} holds a version {version!r} "
                f"journal; this build reads version {JOURNAL_VERSION}")
        cache = self.cache
        for record in records[1:]:
            kind = record.get("kind")
            if kind == "startup":
                cache.add_startup(StartupProbe(
                    trace_from_jsonable(record["trace"]),
                    _quarantine_from_jsonable(record["quarantined"])))
            elif kind == "context":
                cache.add_context(record["type"], ContextProbe(
                    found=record["found"],
                    trace=trace_from_jsonable(record["trace"]),
                    quarantined=_quarantine_from_jsonable(
                        record["quarantined"])))
            elif kind == "eval":
                cache.add_eval(record["type"], EvalProbe(
                    tuple(record_from_jsonable(record["record"])),
                    _sample_back(record["baseline"]),
                    _sample_back(record["sample"]),
                    trace_from_jsonable(record["trace"]),
                    _quarantine_from_jsonable(record["quarantined"])))
            # unknown kinds are skipped: forward compatibility
        self.counters["store.journal.records_loaded"] += len(records)
        if cache.startup is not None:
            self.counters["store.resume.startup_seeded"] += 1
        # only types with a journaled *context* count as seeded; stray
        # evals without their context cannot short-circuit anything
        if cache.contexts:
            self.counters["store.resume.types_seeded"] += len(cache.contexts)
            self.counters["store.resume.evals_seeded"] += sum(
                len(cache.evals.get(t, ())) for t in cache.contexts)
        return records[0]

    def _journal_probe(self, kind: str, message_type: Optional[str],
                       probe) -> None:
        """Commit one new probe (CRC32 + fsync) before the cache admits it."""
        record = {"kind": kind, "trace": trace_to_jsonable(probe.trace),
                  "quarantined": _quarantine_to_jsonable(probe.quarantined)}
        if kind == "context":
            record.update(type=message_type, found=probe.found)
        elif kind == "eval":
            record.update(type=message_type,
                          record=record_to_jsonable(probe.record),
                          baseline=_sample_or_none(probe.baseline),
                          sample=_sample_or_none(probe.sample))
        self.journal.append(record)
        self.counters["store.journal.records_appended"] += 1

    # ------------------------------------------------------------ checkpoints

    def _checkpoint_path(self, generation: int) -> str:
        return os.path.join(self.directory,
                            f"{CHECKPOINT_PREFIX}{generation:06d}.json")

    def _generations_on_disk(self) -> List[int]:
        generations = []
        for name in os.listdir(self.directory):
            if (name.startswith(CHECKPOINT_PREFIX)
                    and name.endswith(".json")):
                digits = name[len(CHECKPOINT_PREFIX):-len(".json")]
                if digits.isdigit():
                    generations.append(int(digits))
        return sorted(generations)

    def _latest_generation(self) -> int:
        generations = self._generations_on_disk()
        return generations[-1] if generations else 0

    def save_checkpoint(self, data: Dict[str, Any]) -> None:
        """Write the next checkpoint generation atomically; prune old ones.

        The previous generation survives until the new one is durably in
        place, so a checkpoint torn at any instant still leaves a good one
        to fall back to.
        """
        self._generation += 1
        path = self._checkpoint_path(self._generation)
        body = _canonical(data)
        wrapper = {"crc": zlib.crc32(body.encode("utf-8")),
                   "checkpoint": data}
        atomic_write_json(path, wrapper)
        self.checkpoints_written += 1
        self.counters["store.checkpoint.writes"] += 1
        if chaos.fault("checkpoint.write",
                       self.checkpoints_written):  # pragma: no cover
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(max(1, size // 2))
                fh.flush()
                os.fsync(fh.fileno())
            chaos.kill_self()
        for generation in self._generations_on_disk():
            if generation <= self._generation - KEPT_GENERATIONS:
                try:
                    os.unlink(self._checkpoint_path(generation))
                except OSError:  # pragma: no cover - defensive
                    pass

    def load_checkpoint(self) -> Optional[Dict[str, Any]]:
        """The newest valid checkpoint, falling back past corrupt ones."""
        for generation in reversed(self._generations_on_disk()):
            path = self._checkpoint_path(generation)
            data = self._read_checkpoint(path)
            if data is not None:
                return data
            self.counters["store.checkpoint.fallbacks"] += 1
        return None

    def resume_checkpoint(self, version: int) -> Optional[Dict[str, Any]]:
        """The checkpoint a rerun resumes from (None: a fresh campaign).

        A checkpoint of any other schema ``version`` is a
        :class:`ConfigError`: quietly starting over would discard — and
        then prune — a campaign this build cannot read.  Whether it is
        this hunt's to restore is the caller's to judge (and count, as
        ``store.resume.passes_restored``).
        """
        data = self.load_checkpoint()
        if data is not None and data.get("version") != version:
            raise ConfigError(
                f"store {self.directory} holds a version "
                f"{data.get('version')!r} checkpoint; this build reads "
                f"version {version}")
        return data

    @staticmethod
    def _read_checkpoint(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path) as fh:
                wrapper = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(wrapper, dict) or "checkpoint" not in wrapper:
            return None
        data = wrapper["checkpoint"]
        crc = zlib.crc32(_canonical(data).encode("utf-8"))
        if crc != wrapper.get("crc"):
            return None
        return data

    def close(self) -> None:
        self.journal.close()


@dataclass
class StoreReport:
    """What the durable store did during a hunt.

    A **side channel**, like ``worker_health``: resume activity differs
    between an interrupted and an uninterrupted run, so serializing this
    into the result JSON would break the byte-identity contract.  It is
    rendered for humans and written to the ``--stats`` manifest.
    """

    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def eventful(self) -> bool:
        return any(value for value in self.counters.values())

    def one_line(self) -> str:
        interesting = (
            ("store.resume.evals_seeded", "evals replayed"),
            ("store.resume.types_seeded", "types replayed"),
            ("store.resume.passes_restored", "passes restored"),
            ("store.journal.records_appended", "journaled"),
            ("store.journal.torn_bytes_dropped", "torn bytes dropped"),
            ("store.checkpoint.fallbacks", "checkpoint fallbacks"),
        )
        parts = [f"{int(self.counters[name])} {label}"
                 for name, label in interesting if self.counters.get(name)]
        return "store: " + (", ".join(parts) if parts else "clean")
