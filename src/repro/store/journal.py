"""Append-only write-ahead journal with CRC32 records and fsync commits.

The journal is the durability primitive under :class:`~repro.store.runstore.
RunStore`: each record is one line of JSON wrapped in an envelope carrying
a CRC32 of the record's canonical encoding, and every append is flushed and
fsynced before it is considered committed.  A process killed mid-append
leaves at most one torn line at the end of the file; :func:`recover_journal`
truncates the file back to the last valid record, so the journal's committed
prefix is always readable.

``REPRO_STORE_CHAOS`` injects deterministic durability faults for tests and
CI, mirroring ``REPRO_WORKER_CHAOS`` from the self-healing layer:

* ``torn:<n>:<flag-file>`` — the ``n``-th append in this process writes only
  half of the record's bytes, skips the fsync, and SIGKILLs the process
  (the torn-tail case recovery must truncate);
* ``crash:<n>:<flag-file>`` — the ``n``-th append commits normally (write +
  fsync) and then SIGKILLs the process (the clean-kill case: everything
  journaled so far must survive);
* ``ckpt:<n>:<flag-file>`` — the ``n``-th checkpoint write truncates the
  freshly renamed generation file to half its bytes and SIGKILLs (the
  corrupt-generation case: load must fall back to the previous good one).

The flag file is written *before* firing, so the fault disarms itself after
one shot — a resumed process with the same environment runs clean.
"""

from __future__ import annotations

import json
import os
import signal
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError

#: bump when the record envelope format changes
JOURNAL_VERSION = 1

CHAOS_ENV = "REPRO_STORE_CHAOS"
_CHAOS_MODES = ("torn", "crash", "ckpt")


def _canonical(record: Dict[str, Any]) -> str:
    """The byte-stable encoding the CRC is computed over."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_record(record: Dict[str, Any]) -> bytes:
    """One journal line: ``{"crc": <crc32>, "r": <record>}\\n``."""
    body = _canonical(record)
    crc = zlib.crc32(body.encode("utf-8"))
    return f'{{"crc": {crc}, "r": {body}}}\n'.encode("utf-8")


def decode_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Decode one journal line; None if torn, corrupt, or CRC-mismatched."""
    try:
        envelope = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(envelope, dict) or "crc" not in envelope \
            or "r" not in envelope:
        return None
    record = envelope["r"]
    if not isinstance(record, dict):
        return None
    if zlib.crc32(_canonical(record).encode("utf-8")) != envelope["crc"]:
        return None
    return record


class _ChaosHook:
    """Parsed ``REPRO_STORE_CHAOS`` spec with fire-once flag semantics."""

    def __init__(self) -> None:
        self.mode: Optional[str] = None
        self.nth = 0
        self.flag = ""
        self._appends = 0
        self._checkpoints = 0
        spec = os.environ.get(CHAOS_ENV)
        if not spec:
            return
        parts = spec.split(":")
        if len(parts) < 3 or parts[0] not in _CHAOS_MODES:
            raise ConfigError(
                f"bad {CHAOS_ENV} spec {spec!r}; expected "
                f"<torn|crash|ckpt>:<n>:<flag-file>")
        self.mode = parts[0]
        try:
            self.nth = int(parts[1])
        except ValueError:
            raise ConfigError(f"bad {CHAOS_ENV} count {parts[1]!r}") from None
        self.flag = parts[2]

    def _fire(self) -> bool:
        """Arm-check the flag file; True means the fault should fire now."""
        if self.flag:
            if os.path.exists(self.flag):
                return False  # already fired once
            with open(self.flag, "w") as handle:
                handle.write("fired\n")
        return True

    def on_append(self) -> Optional[str]:
        """Return 'torn'/'crash' when this append should fault, else None."""
        if self.mode not in ("torn", "crash"):
            return None
        self._appends += 1
        if self._appends != self.nth:
            return None
        return self.mode if self._fire() else None

    def on_checkpoint(self) -> bool:
        if self.mode != "ckpt":
            return False
        self._checkpoints += 1
        if self._checkpoints != self.nth:
            return False
        return self._fire()


def _fsync_dir(path: str) -> None:
    """fsync a directory so a rename/append inside it is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _sigkill_self() -> None:  # pragma: no cover - ends the process
    os.kill(os.getpid(), signal.SIGKILL)


def atomic_write_json(path: str, data: Any, indent: int = 2) -> None:
    """Durably replace ``path`` with ``data`` as JSON.

    Write to a temp file, fsync it, rename over the target, then fsync the
    parent directory — a crash at any instant leaves either the complete
    old file or the complete new one, never a torn or empty checkpoint.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=indent)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def recover_journal(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Read every committed record; truncate any torn tail in place.

    Returns ``(records, dropped)`` where ``dropped`` is the number of
    bytes cut off the tail (0 for a clean journal).  Scanning stops at the
    first invalid line — an append either commits fully (fsync returned)
    or is part of the torn tail; valid-looking lines *after* garbage would
    be appends whose commit we never acknowledged.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as fh:
        data = fh.read()
    records: List[Dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # no trailing newline: torn final append
        record = decode_line(data[offset:newline])
        if record is None:
            break
        records.append(record)
        offset = newline + 1
    dropped = len(data) - offset
    if dropped:
        with open(path, "r+b") as fh:
            fh.truncate(offset)
            fh.flush()
            os.fsync(fh.fileno())
    return records, dropped


class Journal:
    """Append-only JSONL journal; every append is durable when it returns."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._chaos = _ChaosHook()
        self.records, self.recovered_bytes = recover_journal(path)
        self.appended = 0
        self._fh = open(path, "ab")

    def append(self, record: Dict[str, Any]) -> None:
        """Commit one record: write, flush, fsync (the WAL contract)."""
        payload = encode_record(record)
        chaos = self._chaos.on_append()
        if chaos == "torn":  # pragma: no cover - SIGKILLs the process
            self._fh.write(payload[:max(1, len(payload) // 2)])
            self._fh.flush()
            _sigkill_self()
        self._fh.write(payload)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.appended += 1
        if chaos == "crash":  # pragma: no cover - SIGKILLs the process
            _sigkill_self()

    def checkpoint_chaos(self) -> bool:
        """Whether the ``ckpt`` chaos mode wants this checkpoint corrupted."""
        return self._chaos.on_checkpoint()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
