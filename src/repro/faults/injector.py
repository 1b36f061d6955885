"""The fault injector: drives a FaultSchedule against a live world.

The harness builds one injector per testbed, installs it on the world
(:meth:`~repro.runtime.world.World.install_fault_injector`), and arms it
right after boot — before warmup — so the whole measured execution runs
inside the perturbed environment.

Determinism and snapshots.  The expanded action list is a pure function of
the schedule, so injector state is just three small values: the arm time,
the count of already-applied actions (a *prefix* of the list — the kernel
fires equal-time events in scheduling order, and actions are scheduled in
list order with non-decreasing due times), and the app states captured for
``snapshot``-recovery restarts.  That state rides in the world snapshot;
on restore the injector cancels its kernel events and re-schedules exactly
the unapplied suffix, so a branch taken mid-flap or mid-partition replays
the remaining faults identically to an uninterrupted run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.faults.models import GilbertElliott, PathFaults
from repro.faults.schedule import (FaultSchedule, RECOVERY_FRESH,
                                   RECOVERY_SNAPSHOT)
from repro.sim.events import PRIORITY_NETWORK


class FaultInjector:
    """Applies one :class:`FaultSchedule` to one world, deterministically."""

    def __init__(self, world, schedule: FaultSchedule) -> None:
        self.world = world
        self.schedule = schedule
        #: static expansion of the schedule: (at, kind, params) ascending
        self._actions: List[Tuple[float, str, Dict]] = self._expand(schedule)
        self._arm_time: Optional[float] = None
        #: how many actions have fired: a prefix of ``_actions``
        self.applied = 0
        #: app states captured at crash time for "snapshot" recovery
        self._storage: Dict[str, dict] = {}
        self._handles: List[object] = []
        # Fault randomness is drawn from a registry stream derived from the
        # schedule seed: covered by the world RNG snapshot, and distinct
        # schedules perturb distinctly even on the same world seed.
        world.emulator.fault_rng = world.rng.stream(
            f"netem.faults.{schedule.seed}")
        world.emulator._local_fault_rng = False

    # ------------------------------------------------------------- expansion

    @staticmethod
    def _expand(schedule: FaultSchedule) -> List[Tuple[float, str, Dict]]:
        """Flatten composite events (flap, timed partition, crash+restart,
        timed slow) into atomic actions sorted by time (stable)."""
        actions: List[Tuple[float, str, Dict]] = []
        for event in schedule.events:
            kind, at, params = event.kind, event.at, dict(event.params)
            if kind == "flap":
                down_for = params.pop("down_for", 1.0)
                actions.append((at, "link_down", dict(params)))
                actions.append((at + down_for, "link_up", dict(params)))
            elif kind == "partition":
                heal_after = params.pop("heal_after", None)
                actions.append((at, "partition", params))
                if heal_after is not None:
                    actions.append((at + heal_after, "heal", {}))
            elif kind == "crash":
                restart_after = params.pop("restart_after", None)
                actions.append((at, "crash", params))
                if restart_after is not None:
                    actions.append((at + restart_after, "restart",
                                    {"node": params["node"],
                                     "recovery": params.get(
                                         "recovery", RECOVERY_FRESH)}))
            elif kind == "slow":
                duration = params.pop("duration", None)
                actions.append((at, "slow", params))
                if duration is not None:
                    actions.append((at + duration, "slow",
                                    {"node": params["node"], "factor": 1.0}))
            else:
                actions.append((at, kind, params))
        actions.sort(key=lambda item: item[0])
        return actions

    # ------------------------------------------------------------------ arm

    def arm(self) -> None:
        """Start the schedule clock at the current virtual time."""
        if self._arm_time is None:
            self._arm_time = self.world.kernel.now
        self._schedule_pending()

    def _cancel_handles(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles = []

    def _schedule_pending(self) -> None:
        """(Re-)schedule every not-yet-applied action on the kernel."""
        self._cancel_handles()
        kernel = self.world.kernel
        for index in range(self.applied, len(self._actions)):
            at, __, __params = self._actions[index]
            due = max(self._arm_time + at, kernel.now)
            self._handles.append(kernel.schedule_at(
                due, self._fire, index, priority=PRIORITY_NETWORK))

    def _fire(self, index: int) -> None:
        if index != self.applied:
            # A stale event surviving a restore race; the prefix counter is
            # authoritative, so anything out of order is ignored.
            return
        __, kind, params = self._actions[index]
        self.applied += 1
        self._apply(kind, params)

    @property
    def pending(self) -> int:
        return len(self._actions) - self.applied

    # ---------------------------------------------------------------- apply

    def _path_entry(self, key: str) -> PathFaults:
        entry = self.world.emulator.faults.get(key)
        if entry is None:
            entry = PathFaults()
            self.world.emulator.faults.set_path(key, entry)
        return entry

    def _node_by_name(self, name: str):
        for node_id, node in self.world.nodes.items():
            if str(node_id) == name:
                return node_id, node
        raise ConfigError(f"fault schedule targets unknown node {name!r}")

    def _apply(self, kind: str, params: Dict) -> None:
        world = self.world
        topology = world.emulator.topology
        world.log.emit("faults", kind,
                       **{k: repr(v) for k, v in sorted(params.items())})
        if kind == "loss":
            entry = self._path_entry(params.get("path", "*"))
            entry.loss = GilbertElliott(
                params["p_enter_bad"], params["p_exit_bad"],
                params.get("loss_good", 0.0), params.get("loss_bad", 1.0))
        elif kind == "corrupt":
            key = params.get("path", "*")
            entry = self._path_entry(key)
            world.emulator.faults.set_path(key, PathFaults(
                loss=entry.loss, corrupt_rate=params["rate"],
                jitter=entry.jitter))
        elif kind == "jitter":
            key = params.get("path", "*")
            entry = self._path_entry(key)
            world.emulator.faults.set_path(key, PathFaults(
                loss=entry.loss, corrupt_rate=entry.corrupt_rate,
                jitter=params["jitter"]))
        elif kind == "clear_path":
            world.emulator.faults.clear_path(params.get("path", "*"))
        elif kind == "link_down":
            topology.set_link_down(params["a"], params["b"])
        elif kind == "link_up":
            topology.set_link_up(params["a"], params["b"])
        elif kind == "partition":
            topology.set_partition(params["groups"])
        elif kind == "heal":
            topology.heal_partition()
        elif kind == "crash":
            name = params["node"]
            __, node = self._node_by_name(name)
            if (params.get("recovery") == RECOVERY_SNAPSHOT
                    and node.app is not None):
                self._storage[name] = node.app.snapshot_state()
            node.inject_crash("scheduled fault")
        elif kind == "restart":
            name = params["node"]
            node_id, __ = self._node_by_name(name)
            if params.get("recovery", RECOVERY_FRESH) == RECOVERY_SNAPSHOT:
                world.restart_node(node_id, fresh=False,
                                   app_state=self._storage.get(name))
            else:
                world.restart_node(node_id, fresh=True)
        elif kind == "slow":
            __, node = self._node_by_name(params["node"])
            node.cpu.set_scale(params["factor"])
        else:  # pragma: no cover - schedule validation rejects unknown kinds
            raise ConfigError(f"unknown fault action {kind!r}")

    # ------------------------------------------------------------- snapshot

    def save_state(self) -> dict:
        return {
            "arm_time": self._arm_time,
            "applied": self.applied,
            "storage": dict(self._storage),
        }

    def load_state(self, state: Optional[dict]) -> None:
        self._cancel_handles()
        if state is None:
            self._arm_time = None
            self.applied = 0
            self._storage = {}
            return
        self._arm_time = state["arm_time"]
        self.applied = state["applied"]
        self._storage = dict(state["storage"])
        if self._arm_time is not None:
            self._schedule_pending()
