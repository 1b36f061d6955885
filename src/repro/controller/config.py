"""HuntConfig: the settings every part of a hunt reads, spelled once.

A hunt's settings fall in two halves, and its run store is keyed on them:

* The **probe half** is what a probe's content depends on: the testbed
  (read off an unbooted instance: its name, which encodes system and
  role, its warmup, window and malicious nodes), the ``seed``,
  ``max_wait``, the snapshot modes (``shared_pages``,
  ``delta_snapshots``), the ``fault_schedule`` and ``fault_plan``, the
  kernel ``watchdog_limit`` and the supervisor's ``max_retries``.  The
  journal records it, and a hunt with another probe half is refused.  A
  factory option its testbed name does not encode (``pbft_testbed``'s
  ``verify_signatures`` or ``config``) is not in it: only the startup
  cross-check catches a build that boots otherwise.
* The **walk half** decides only which probes are asked and how they are
  priced: the ``algorithm``, ``threshold`` and ``space_config`` here, and
  what a walk is run with (its message types and exclusions, greedy's
  rounds and confirmations, :func:`~repro.search.hunt.hunt`'s pass budget
  and kept-snapshots pricing).  A hunt's checkpoint records it; under
  another walk half the journal still answers every probe, but no pass is
  restored.

How a hunt is run or watched (tracer, progress, event log, forensics,
workers, health policy, store directory) is in neither half.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Dict, Optional

from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import ConfigError
from repro.controller.harness import AttackHarness
from repro.controller.monitor import AttackThreshold
from repro.controller.supervisor import FaultPlan

#: the settings a probe's content depends on (with the testbed's identity)
PROBE_HALF = ("seed", "max_wait", "shared_pages", "delta_snapshots",
              "fault_schedule", "fault_plan", "watchdog_limit",
              "max_retries")


@dataclass(frozen=True)
class HuntConfig:
    """One hunt's settings: the probe half, then the walk half."""

    seed: int = 0
    max_wait: Optional[float] = None
    shared_pages: bool = True
    delta_snapshots: bool = False
    #: a :class:`~repro.faults.schedule.FaultSchedule` armed before warmup
    #: (``Any``: :mod:`repro.faults` imports this module)
    fault_schedule: Any = None
    #: a keyed :class:`FaultPlan` (None: no injected platform faults)
    fault_plan: Optional[FaultPlan] = None
    watchdog_limit: Optional[int] = None
    max_retries: int = 2
    algorithm: str = "weighted"        # weighted | greedy | brute
    threshold: AttackThreshold = AttackThreshold()
    space_config: Optional[ActionSpaceConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold",
                           self.threshold or AttackThreshold())

    def harness(self, factory, **observation) -> AttackHarness:
        """A testbed on this probe half; ``observation`` are the harness's
        own options (its ledger, tracer and event log)."""
        return AttackHarness(
            factory, self.seed, shared_pages=self.shared_pages,
            delta_snapshots=self.delta_snapshots,
            fault_plan=self.fault_plan, fault_schedule=self.fault_schedule,
            watchdog_limit=self.watchdog_limit, **observation)

    def key(self, testbed, **walk) -> Dict[str, Dict[str, Any]]:
        """Both halves as JSON: the probe half leads with the identity of
        ``testbed``, an unbooted instance of the hunt's factory; ``walk``
        adds what the walk is run with."""
        probe = {"testbed": testbed.name, "warmup": testbed.warmup,
                 "window": testbed.window,
                 "malicious": [node.name for node in testbed.malicious]}
        probe.update((name, getattr(self, name)) for name in PROBE_HALF)
        walk.update((f.name, getattr(self, f.name)) for f in fields(self)
                    if f.name not in PROBE_HALF)
        return json.loads(json.dumps({"probe": probe, "walk": walk},
                                     default=_jsonable))


def _jsonable(value: Any) -> Any:
    if isinstance(value, frozenset):
        from repro.analysis.reports import record_to_jsonable
        return [record_to_jsonable(record) for record in sorted(value)]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"no JSON form for {value!r}")


def refuse_another(written: Dict[str, Any], ours: Dict[str, Any],
                   where: str) -> None:
    """Refuse to resume ``where``, written under the probe half
    ``written``, under ``ours``: name the first field they differ in."""
    name = next(name for name in [*ours, *written]
                if written.get(name) != ours.get(name))
    raise ConfigError(
        f"{where} was written by a hunt with {name}={written.get(name)!r}, "
        f"cannot resume one with {name}={ours.get(name)!r}: its probes answer "
        f"another hunt's questions")
