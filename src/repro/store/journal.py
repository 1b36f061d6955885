"""Append-only write-ahead journal with CRC32 records and fsync commits.

The journal is the durability primitive under :class:`~repro.store.runstore.
RunStore`: each record is one line of JSON wrapped in an envelope carrying
a CRC32 of the record's canonical encoding, and every append is flushed and
fsynced before it is considered committed.  A process killed mid-append
leaves at most one torn line at the end of the file; :func:`recover_journal`
truncates the file back to the last valid record, so the journal's committed
prefix is always readable.

The ``journal.append`` site of :mod:`repro.common.chaos` tears or kills
the ``n``-th append in a process (and its ``checkpoint.write`` site, the
``n``-th checkpoint of a :class:`~repro.store.runstore.RunStore`), for
tests and CI.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.common import chaos

#: bump when the record envelope format changes
JOURNAL_VERSION = 1


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


def _fsync_dir(path: str) -> None:
    """fsync a directory so a rename/append inside it is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
        self.records, self.recovered_bytes = recover_journal(path)
        self.appended = 0
        self._fh = open(path, "ab")

    def append(self, record: Dict[str, Any]) -> None:
        """Commit one record: write, flush, fsync (the WAL contract)."""
        payload = encode_record(record)
        fault = chaos.fault("journal.append", self.appended + 1)
        if fault is not None and fault.mode == "torn":  # pragma: no cover
            self._fh.write(payload[:max(1, len(payload) // 2)])
            self._fh.flush()
            chaos.kill_self()
        self._fh.write(payload)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.appended += 1
        if fault is not None:  # pragma: no cover - "crash": SIGKILLs
            chaos.kill_self()

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
