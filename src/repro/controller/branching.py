"""Execution branching via distributed snapshots (Sections III-C, IV-C).

The snapshot of a distributed system comprises the local state of every node
plus the messages in transit.  The paper's procedure, reproduced here
verbatim in :meth:`DistributedSnapshotter.save`:

1. freeze the network emulator (its virtual clock stops; it keeps accepting
   packets from VMs but delivers nothing),
2. pause all the VMs (no more packets are generated),
3. snapshot each VM (page-sharing aware, Section IV-C),
4. snapshot the network emulator (its event queue and in-flight objects).

Restoring happens in the reverse order; the clock the components share
guarantees they agree on time afterwards.  Every operation is charged at the
durations of the VM timing model plus an NS3-snapshot cost model, and the
total feeds the search algorithms' time accounting (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import SnapshotError
from repro.controller.supervisor import (OP_SNAPSHOT_RESTORE,
                                         OP_SNAPSHOT_SAVE, FaultPlan)
from repro.runtime.world import World
from repro.telemetry.tracer import Tracer, maybe_span
from repro.vm.snapshots import ClusterSnapshot


@dataclass(frozen=True)
class NetemTimingModel:
    """Durations for the NS3 snapshot operations the paper implemented."""

    freeze_time: float = 0.001
    resume_time: float = 0.001
    save_base: float = 0.020          # iterate + serialize the event queue
    save_per_event: float = 0.0001
    load_base: float = 0.020
    load_per_event: float = 0.0001

    def save_time(self, in_flight_events: int) -> float:
        return self.save_base + in_flight_events * self.save_per_event

    def load_time(self, in_flight_events: int) -> float:
        return self.load_base + in_flight_events * self.load_per_event


@dataclass
class WorldSnapshot:
    """A complete branching point: component states plus VM page images."""

    taken_at: float
    components: dict
    cluster_snapshot: ClusterSnapshot
    in_flight_events: int
    save_cost: float
    restore_cost: float


class DistributedSnapshotter:
    """Whole-system save/restore with the paper's ordering and costs."""

    def __init__(self, world: World, shared_pages: bool = True,
                 max_bandwidth: bool = True,
                 netem_timing: Optional[NetemTimingModel] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 tracer: Optional[Tracer] = None) -> None:
        if not world.booted:
            raise SnapshotError("world must be booted before snapshotting")
        self.world = world
        self.shared_pages = shared_pages
        self.max_bandwidth = max_bandwidth
        self.netem_timing = netem_timing or NetemTimingModel()
        self.fault_plan = fault_plan
        self.tracer = tracer

    # ------------------------------------------------------------------ save

    def save(self, delta_base: Optional[ClusterSnapshot] = None
             ) -> WorldSnapshot:
        """Take a distributed snapshot.

        With ``delta_base`` the VM images store only pages changed since
        that base snapshot — much cheaper when many injection-point
        snapshots are taken after one warm snapshot.
        """
        world = self.world
        mode = ("delta" if delta_base is not None
                else "shared" if self.shared_pages else "plain")
        with maybe_span(self.tracer, "snapshot.save", mode=mode) as span:
            # Injected faults fire before any component is touched, so a
            # failed save leaves the world exactly as it was — retryable by
            # design.
            if self.fault_plan is not None:
                self.fault_plan.check(OP_SNAPSHOT_SAVE)
            # 1. freeze the emulator: virtual time stops, nothing reaches a
            #    VM.
            world.emulator.freeze()
            # 2. pause every VM: no new packets are generated.
            pause_cost = world.cluster.pause_all()
            # 3. snapshot the VMs (apps serialized into guest pages,
            #    KSM-shared).
            if delta_base is not None:
                vm_result = world.cluster.save_delta_snapshot(
                    delta_base, max_bandwidth=self.max_bandwidth)
            else:
                vm_result = world.cluster.save_snapshot(
                    shared=self.shared_pages,
                    max_bandwidth=self.max_bandwidth)
            # 4. snapshot the emulator and host-side bookkeeping.
            components = world.save_component_states()
            in_flight = len(components["netem"]["in_flight"])
            netem_save = self.netem_timing.save_time(in_flight)

            # Resume execution from the saved point.
            resume_cost = world.cluster.resume_all()
            world.emulator.resume_emulation()

            save_cost = (self.netem_timing.freeze_time + pause_cost
                         + vm_result.snapshot.save_time + netem_save
                         + resume_cost + self.netem_timing.resume_time)
            restore_cost = (vm_result.snapshot.load_time
                            + self.netem_timing.load_time(in_flight)
                            + world.cluster.timing.resume_time(
                                len(world.cluster))
                            + self.netem_timing.resume_time)
            span.set(stored_bytes=vm_result.snapshot.stored_bytes(),
                     save_cost=save_cost, restore_cost=restore_cost,
                     **vm_result.snapshot.page_counts())
            return WorldSnapshot(
                taken_at=world.kernel.now,
                components=components,
                cluster_snapshot=vm_result.snapshot,
                in_flight_events=in_flight,
                save_cost=save_cost,
                restore_cost=restore_cost,
            )

    # --------------------------------------------------------------- restore

    def restore(self, snapshot: WorldSnapshot) -> float:
        """Rewind the world to ``snapshot``; returns the modelled cost."""
        world = self.world
        with maybe_span(self.tracer, "snapshot.restore",
                        mode=snapshot.cluster_snapshot.mode
                        if isinstance(snapshot.cluster_snapshot,
                                      ClusterSnapshot) else "delta",
                        restore_cost=snapshot.restore_cost,
                        taken_at=snapshot.taken_at):
            if self.fault_plan is not None:
                self.fault_plan.check(OP_SNAPSHOT_RESTORE)
            # Reverse order of the save: emulator (and host clock) state
            # first, then the VMs, then resume VMs, then resume the emulator.
            world.load_component_states(snapshot.components)
            world.cluster.restore_snapshot(snapshot.cluster_snapshot)
            world.cluster.resume_all()
            if world.emulator.frozen:
                world.emulator.resume_emulation()
            return snapshot.restore_cost
