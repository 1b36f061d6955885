"""Simulated message authentication.

The tested systems digitally sign or MAC their messages.  The paper's proxy
modifies messages *after* they leave the VM, so with verification enabled a
benign node "would simply discard modified messages"; the evaluation
therefore turns signature verification off, and separately notes that
duplication attacks get worse with it on (each copy pays the verification
cost).

:class:`Authenticator` reproduces both effects: a keyed digest over the
authenticated fields that any field mutation invalidates, and the CPU cost
knob lives in :class:`~repro.runtime.cpu.CpuCostModel`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Tuple

SIGNATURE_LEN = 16
ZERO_SIGNATURE = b"\x00" * SIGNATURE_LEN


def _part(value: Any) -> bytes:
    """One field's canonical bytes, for any type."""
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, bool):
        return b"o1" if value else b"o0"
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, float):
        return b"f" + repr(value).encode()
    return b"s" + str(value).encode()


#: what :func:`_part` makes of a value of exactly these types, as one
#: ``%`` format each (``%r`` of a float is its ASCII ``repr``)
_FORMATS = {bytes: b"b%s", bool: b"o%d", int: b"i%d", float: b"f%r"}


def _canonical(fields: Tuple[Any, ...]) -> bytes:
    formats = _FORMATS
    return b"|".join([formats[type(value)] % value
                      if type(value) in formats else _part(value)
                      for value in fields])


class Authenticator:
    """Keyed digests standing in for signatures/MACs."""

    def __init__(self, system_key: str) -> None:
        self._key = system_key.encode()

    def sign(self, *fields: Any) -> bytes:
        return hashlib.blake2b(_canonical(fields), key=self._key,
                               digest_size=SIGNATURE_LEN).digest()

    def verify(self, signature: bytes, *fields: Any) -> bool:
        return signature == self.sign(*fields)
