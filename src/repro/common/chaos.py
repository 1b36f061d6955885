"""``REPRO_CHAOS``: deterministic process faults at named sites.

Tests and CI use it to drive the real crash paths — a ``SIGKILL`` with
nothing flushed, a hung process — instead of simulated ones.  The spec is
``<site>:<mode>:<which>:<flag-file>[:<seconds>]``:

====================  ============  ==========================================
site                  modes         fires
====================  ============  ==========================================
``worker.step``       kill, hang    in forked worker ``<which>`` (``*``: every
                                    worker) as it receives a step; ``hang``
                                    sleeps ``<seconds>`` (default an hour)
``journal.append``    torn, crash   at this process's ``<which>``-th journal
                                    append: ``torn`` writes half the record,
                                    skips the fsync and SIGKILLs; ``crash``
                                    commits it, then SIGKILLs
``checkpoint.write``  torn          at this process's ``<which>``-th
                                    checkpoint write: truncates the renamed
                                    generation file to half and SIGKILLs
====================  ============  ==========================================

The flag file is written *before* the fault fires, so the fault disarms
itself after one shot and a rerun with the same environment runs clean; an
empty flag path fires every time.  A malformed spec is a
:class:`~repro.common.errors.ConfigError` at the first site it is read at.
"""

from __future__ import annotations

import os
import signal
from typing import NamedTuple, Optional

from repro.common.errors import ConfigError

CHAOS_ENV = "REPRO_CHAOS"

#: site -> the modes it takes
SITES = {
    "worker.step": ("kill", "hang"),
    "journal.append": ("torn", "crash"),
    "checkpoint.write": ("torn",),
}


class Chaos(NamedTuple):
    """One parsed ``REPRO_CHAOS`` spec."""

    site: str
    mode: str
    which: str
    flag: str
    seconds: float = 3600.0


def _parse(spec: str) -> Chaos:
    parts = spec.split(":")
    if len(parts) not in (4, 5) or parts[1] not in SITES.get(parts[0], ()):
        raise ConfigError(
            f"bad {CHAOS_ENV} spec {spec!r}; expected "
            f"<site>:<mode>:<which>:<flag-file>[:<seconds>] with "
            f"<site>:<mode> one of "
            + ", ".join(f"{site}:{mode}" for site, modes in SITES.items()
                        for mode in modes))
    try:
        return Chaos(*parts[:4], *(float(s) for s in parts[4:]))
    except ValueError:
        raise ConfigError(f"bad {CHAOS_ENV} seconds {parts[4]!r}") from None


def fault(site: str, which) -> Optional[Chaos]:
    """The fault to fire now at ``site`` — for worker ``which``, or the
    site's ``which``-th hit in this process — or None.  A fault returned
    has written its flag file: it will not fire again."""
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return None
    chaos = _parse(spec)
    if chaos.site != site or chaos.which not in (str(which), "*"):
        return None
    if chaos.flag:
        if os.path.exists(chaos.flag):
            return None  # already fired once
        with open(chaos.flag, "w") as handle:
            handle.write("fired\n")
    return chaos


def kill_self() -> None:  # pragma: no cover - ends the process
    os.kill(os.getpid(), signal.SIGKILL)
