"""The controller: orchestrates executions, branching, and measurement.

The controller "is a separate process that communicates with the network
emulator and each individual VM" (Section IV-A).  :class:`AttackHarness`
is that controller: it boots a testbed, runs it to attack injection points,
takes distributed snapshots, branches once per candidate action, measures
the observation window, and charges every second of platform time to a
:class:`~repro.controller.costs.CostLedger`.

Target systems plug in through a :class:`TestbedInstance` factory — a
callable that, given a seed, builds a booted-ready world with its malicious
proxy, schema, warmup duration, and observation window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.attacks.actions import MaliciousAction
from repro.attacks.proxy import INJECTION_POINT, MaliciousProxy
from repro.common.errors import SearchError
from repro.common.ids import NodeId
from repro.controller.branching import DistributedSnapshotter, WorldSnapshot
from repro.controller.costs import (BOOT, EXECUTION, SNAPSHOT_RESTORE,
                                    SNAPSHOT_SAVE, CostLedger)
from repro.controller.monitor import PerfSample, PerformanceMonitor
from repro.controller.supervisor import OP_BOOT, OP_PROXY, FaultPlan
from repro.runtime.world import World
from repro.telemetry.tracer import Tracer, maybe_span
from repro.wire.schema import ProtocolSchema


@dataclass
class TestbedInstance:
    """One built (not yet booted) deployment of a target system."""

    name: str
    world: World
    proxy: MaliciousProxy
    schema: ProtocolSchema
    malicious: List[NodeId]
    warmup: float = 3.0
    window: float = 6.0
    #: message types the search should consider (defaults to whole schema)
    message_types: Optional[List[str]] = None

    def search_types(self) -> List[str]:
        if self.message_types is not None:
            return list(self.message_types)
        return self.schema.message_names()


TestbedFactory = Callable[[int], TestbedInstance]


@dataclass
class InjectionPoint:
    """Where an attack scenario begins: first send of the target type."""

    message_type: str
    time: float
    src: NodeId
    dst: NodeId
    snapshot: WorldSnapshot


class AttackHarness:
    """Drives one testbed instance through branch-and-measure cycles."""

    #: how long to wait for a message of the target type before giving up
    DEFAULT_MAX_WAIT = 30.0

    def __init__(self, factory: TestbedFactory, seed: int = 0,
                 shared_pages: bool = True,
                 delta_snapshots: bool = False,
                 ledger: Optional[CostLedger] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 fault_schedule=None,
                 watchdog_limit: Optional[int] = None,
                 tracer: Optional[Tracer] = None,
                 log_events: bool = False) -> None:
        self.factory = factory
        self.seed = seed
        self.shared_pages = shared_pages
        #: injection-point snapshots store only pages changed since the
        #: warm snapshot (cheaper saves; see SnapshotManager.save_delta)
        self.delta_snapshots = delta_snapshots
        self.ledger = ledger or CostLedger()
        #: deterministic platform fault injection (None: no faults)
        self.fault_plan = fault_plan
        #: environmental fault schedule armed on every testbed before
        #: warmup (chaos layer; None: a pristine environment)
        self.fault_schedule = fault_schedule
        #: events-per-window cap installed on each instance's kernel
        self.watchdog_limit = watchdog_limit
        #: platform-side tracer (never rewound by restores); None disables
        self.tracer = tracer
        #: enable each instance's EventLog so records can be exported
        self.log_events = log_events
        self.instance: Optional[TestbedInstance] = None
        self.snapshotter: Optional[DistributedSnapshotter] = None
        self.monitor: Optional[PerformanceMonitor] = None
        self.warm_snapshot: Optional[WorldSnapshot] = None

    # ------------------------------------------------------------- lifecycle

    def _wire_telemetry(self, instance: TestbedInstance) -> None:
        """Attach the platform tracer and flip on the world's observers."""
        world = instance.world
        if self.log_events:
            world.log.enabled = True
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.attach_clock(lambda: world.kernel.now)
            world.instruments.enabled = True
            world.kernel.tracer = self.tracer
            instance.proxy.tracer = self.tracer

    def start_run(self, take_warm_snapshot: bool = True) -> TestbedInstance:
        """Build, boot, and warm up a fresh instance of the testbed."""
        if self.fault_plan is not None:
            self.fault_plan.check(OP_BOOT)
        self.instance = self.factory(self.seed)
        world = self.instance.world
        self._wire_telemetry(self.instance)
        if self.watchdog_limit is not None:
            world.set_watchdog(self.watchdog_limit)
        with maybe_span(self.tracer, "harness.boot",
                        testbed=self.instance.name, seed=self.seed) as span:
            boot_time = world.boot()
            span.set(boot_time=boot_time, nodes=len(world.nodes))
        self.ledger.charge(BOOT, boot_time)
        if self.fault_schedule is not None and not self.fault_schedule.empty:
            # Arm the chaos layer before warmup so the warm snapshot — and
            # everything branched from it — lives inside the perturbed
            # environment, with pending fault events in injector state.
            from repro.faults.injector import FaultInjector
            injector = FaultInjector(world, self.fault_schedule)
            world.install_fault_injector(injector)
            injector.arm()
        self.snapshotter = DistributedSnapshotter(
            world, shared_pages=self.shared_pages,
            fault_plan=self.fault_plan, tracer=self.tracer)
        self.monitor = PerformanceMonitor(world.metrics)
        with maybe_span(self.tracer, "harness.warmup",
                        duration=self.instance.warmup):
            self._run(self.instance.warmup)
        if take_warm_snapshot:
            self.warm_snapshot = self.take_snapshot()
        return self.instance

    def _require_instance(self) -> TestbedInstance:
        if self.instance is None:
            raise SearchError("harness has no running instance; call start_run")
        return self.instance

    @property
    def world(self) -> World:
        return self._require_instance().world

    @property
    def proxy(self) -> MaliciousProxy:
        return self._require_instance().proxy

    def _run(self, duration: float):
        """Run the world for ``duration``, charging execution time.

        The charge lands even when the run raises (e.g. a watchdog trip):
        the platform spent that time whether or not the window completed.
        """
        start = self.world.kernel.now
        try:
            return self.world.run_for(duration)
        finally:
            self.ledger.charge(EXECUTION, self.world.kernel.now - start)

    # -------------------------------------------------------------- snapshot

    def take_snapshot(self) -> WorldSnapshot:
        delta_base = None
        if self.delta_snapshots and self.warm_snapshot is not None:
            delta_base = self.warm_snapshot.cluster_snapshot
        snapshot = self.snapshotter.save(delta_base=delta_base)
        self.ledger.charge(SNAPSHOT_SAVE, snapshot.save_cost)
        return snapshot

    def restore(self, snapshot: WorldSnapshot) -> None:
        cost = self.snapshotter.restore(snapshot)
        self.ledger.charge(SNAPSHOT_RESTORE, cost)

    # ------------------------------------------------------------ injection

    def run_to_injection(self, message_type: str,
                         max_wait: Optional[float] = None
                         ) -> Optional[InjectionPoint]:
        """Arm the proxy and run until the target type is intercepted.

        Returns the injection point (with the world snapshotted while the
        message is held inside the emulator), or None if no message of that
        type was sent within ``max_wait`` — the wasted execution is charged,
        as it would be on the real platform.
        """
        instance = self._require_instance()
        wait = max_wait if max_wait is not None else self.DEFAULT_MAX_WAIT
        deadline = self.world.kernel.now + wait
        if self.fault_plan is not None:
            self.fault_plan.check(OP_PROXY)
        instance.proxy.arm(message_type)
        with maybe_span(self.tracer, "harness.seek",
                        message_type=message_type, max_wait=wait) as span:
            try:
                while True:
                    start = self.world.kernel.now
                    try:
                        interrupt = self.world.run_until(deadline)
                    finally:
                        self.ledger.charge(EXECUTION,
                                           self.world.kernel.now - start)
                    if interrupt is None:
                        instance.proxy.disarm()
                        span.set(found=False)
                        return None
                    if interrupt.reason != INJECTION_POINT:
                        continue
                    info = interrupt.payload
                    snapshot = self.take_snapshot()
                    span.set(found=True, time=info["time"])
                    return InjectionPoint(info["message_type"], info["time"],
                                          info["src"], info["dst"], snapshot)
            except BaseException:
                # An exception mid-seek (watchdog trip, snapshot fault...)
                # must not leave the proxy armed or the injection message
                # stranded.
                instance.proxy.abort_injection()
                raise

    # ----------------------------------------------------------- branching

    def branch_measure(self, injection: InjectionPoint,
                       action: Optional[MaliciousAction]) -> PerfSample:
        """Measure one branch: restore, apply ``action``, run the window.

        ``action`` None measures the baseline branch (the held message is
        released unmodified and no policy is installed).
        """
        instance = self._require_instance()
        with maybe_span(self.tracer, "harness.branch",
                        message_type=injection.message_type,
                        action=type(action).__name__ if action else "baseline"):
            try:
                self.restore(injection.snapshot)
                instance.proxy.disarm()
                instance.proxy.clear_policy()
                if action is not None:
                    instance.proxy.set_policy(injection.message_type, action)
                instance.proxy.release_held(action)
                with maybe_span(self.tracer, "harness.measure",
                                window=instance.window):
                    self._run(instance.window)
            finally:
                # Whatever happened — clean restore-and-measure or a platform
                # fault anywhere in the branch — the proxy ends disarmed,
                # with no policy installed and no held message stranded.
                instance.proxy.clear_policy()
                instance.proxy.abort_injection()
            crashed = len(self.world.crashed_nodes())
            return self.monitor.sample(injection.time,
                                       injection.time + instance.window,
                                       crashed_nodes=crashed)

    # -------------------------------------------------------------- measure

    def measure_window(self, window: Optional[float] = None) -> PerfSample:
        """Run and measure a window from 'now' (no branching)."""
        instance = self._require_instance()
        w = window if window is not None else instance.window
        start = self.world.kernel.now
        with maybe_span(self.tracer, "harness.measure", window=w):
            self._run(w)
        crashed = len(self.world.crashed_nodes())
        return self.monitor.sample(start, start + w, crashed_nodes=crashed)
