"""The world: one complete emulated deployment.

A :class:`World` wires together everything one experiment needs — the
simulation kernel, the network emulator, the VM cluster, the per-node
runtimes, the metrics collector, and the RNG registry — and exposes whole-
world save/restore built from each component's own snapshot support.  The
controller's distributed-snapshot procedure (pause ordering, timing charges)
lives in :mod:`repro.controller.branching`; the world provides the raw
state plumbing it orchestrates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.common.ids import NodeId
from repro.common.logging import EventLog
from repro.common.rng import RngRegistry
from repro.metrics.collector import MetricsCollector
from repro.netem.devices import make_device
from repro.netem.emulator import NetworkEmulator
from repro.netem.topology import Topology
from repro.runtime.app import Application
from repro.runtime.cpu import CpuCostModel
from repro.runtime.node import Node
from repro.sim.kernel import SimKernel
from repro.telemetry.instruments import InstrumentRegistry
from repro.vm.manager import VmCluster
from repro.vm.memory import OsImage
from repro.wire.codec import ProtocolCodec


class World:
    """A booted emulated deployment of one distributed system."""

    def __init__(self, codec: ProtocolCodec, topology: Optional[Topology] = None,
                 seed: int = 0, device_kind: str = "BundledDevice",
                 os_image: Optional[OsImage] = None,
                 log_enabled: bool = False,
                 watchdog_limit: Optional[int] = None,
                 telemetry_enabled: bool = False,
                 device_config: Optional[dict] = None) -> None:
        self.codec = codec
        self.rng = RngRegistry(seed)
        self.kernel = SimKernel()
        self.kernel.watchdog_limit = watchdog_limit
        self.log = EventLog(lambda: self.kernel.now, enabled=log_enabled)
        #: platform instruments for this world — disabled by default, the
        #: harness flips ``enabled`` when telemetry is requested; the state
        #: rides in :meth:`save_component_states` so branched executions
        #: resume from consistent pre-branch telemetry.
        self.instruments = InstrumentRegistry(enabled=telemetry_enabled)
        self.kernel.instruments = self.instruments
        self.emulator = NetworkEmulator(self.kernel, topology,
                                        device_kind=device_kind, log=self.log,
                                        instruments=self.instruments)
        # The emulator's fault draws come from a registry stream so the
        # world RNG snapshot covers them (created eagerly for a stable
        # registry layout regardless of whether faults are ever armed).
        self.emulator.fault_rng = self.rng.stream("netem.faults")
        #: per-instance device parameter overrides (process_delay,
        #: tx_latency, queue_capacity) applied to every host's device
        self.device_config = dict(device_config or {})
        self.metrics = MetricsCollector()
        self.nodes: Dict[NodeId, Node] = {}
        self._apps: Dict[NodeId, Application] = {}
        self._app_factories: Dict[NodeId, object] = {}
        self._os_image = os_image or OsImage()
        self.cluster: Optional[VmCluster] = None
        self._booted = False
        #: chaos-layer injector armed by the harness (None: no faults)
        self.fault_injector = None

    # ------------------------------------------------------------- assembly

    def add_node(self, node_id: NodeId, app: Application,
                 cost_model: Optional[CpuCostModel] = None,
                 default_transport: str = "udp",
                 app_factory=None) -> Node:
        if self._booted:
            raise ConfigError("cannot add nodes after boot")
        if node_id in self.nodes:
            raise ConfigError(f"node {node_id} already added")
        device = (make_device(self.emulator.device_kind, **self.device_config)
                  if self.device_config else None)
        self.emulator.register_host(node_id, device)
        node = Node(node_id, self.kernel, self.emulator, self.codec,
                    self.rng.stream(f"node:{node_id}"),
                    cost_model=cost_model,
                    default_transport=default_transport, log=self.log,
                    metric_sink=self.metrics.record)
        node.attach(app)
        self.nodes[node_id] = node
        self._apps[node_id] = app
        if app_factory is not None:
            # Zero-argument callable rebuilding this node's application;
            # needed for fresh-boot recovery after an injected crash.
            self._app_factories[node_id] = app_factory
        return node

    def set_peer_groups(self, group: List[NodeId]) -> None:
        """Make ``group`` the broadcast set of each of its members."""
        for node_id in group:
            self.nodes[node_id].peers = tuple(p for p in group if p != node_id)

    # ----------------------------------------------------------------- boot

    def boot(self) -> float:
        """Create and boot the VMs and start every node's application.

        Returns the modelled boot duration (charged by the search cost
        accounting: a brute-force search pays this for every execution).
        """
        if self._booted:
            raise ConfigError("world already booted")
        self._booted = True
        names = [str(n) for n in sorted(self.nodes)]
        self.cluster = VmCluster(names, image=self._os_image)
        boot_time = self.cluster.boot_all()
        for node_id in sorted(self.nodes):
            self.cluster.vm(str(node_id)).app = self.nodes[node_id]
        for node_id in sorted(self.nodes):
            self.nodes[node_id].start()
        return boot_time

    @property
    def booted(self) -> bool:
        return self._booted

    def node(self, node_id: NodeId) -> Node:
        return self.nodes[node_id]

    def app(self, node_id: NodeId) -> Application:
        return self._apps[node_id]

    def crashed_nodes(self) -> List[NodeId]:
        return sorted(n for n, node in self.nodes.items() if node.crashed)

    def crashed_node_summaries(self) -> List[str]:
        """Human-readable lines for every crashed node, with the cause.

        Distinguishes target-bug crashes (``fault``) from chaos-layer
        crashes (``injected``) so a report can show whether the system
        under test died by its own hand.
        """
        lines = []
        for node_id in self.crashed_nodes():
            node = self.nodes[node_id]
            kind = node.crash_kind or "fault"
            lines.append(f"{node_id} [{kind}] {node.crash_reason}".rstrip())
        return lines

    def restart_node(self, node_id: NodeId, fresh: bool = True,
                     app_state: Optional[dict] = None) -> None:
        """Recover a crashed node (chaos-layer restart).

        ``fresh=True`` rebuilds the application from the factory registered
        at :meth:`add_node` (fresh-boot recovery).  ``fresh=False`` restores
        ``app_state`` into the existing application instance instead
        (durable-state recovery); ``app_state=None`` then just restarts the
        app object as it died, modelling a process that kept its memory.
        """
        node = self.nodes[node_id]
        if not node.crashed:
            return
        if fresh:
            factory = self._app_factories.get(node_id)
            if factory is None:
                raise ConfigError(
                    f"node {node_id} has no app factory; fresh-boot "
                    f"recovery needs add_node(..., app_factory=...)")
            app = factory()
            self._apps[node_id] = app
            node.restart(app=app)
        else:
            node.restart(app_state=app_state)

    def install_fault_injector(self, injector) -> None:
        """Attach (or detach, with None) the chaos-layer fault injector.

        Installed injectors participate in :meth:`save_component_states`,
        so a snapshot taken mid-schedule restores with the same pending
        fault events.
        """
        self.fault_injector = injector

    # ------------------------------------------------------------- watchdog

    def set_watchdog(self, max_events_per_window: Optional[int]) -> None:
        """Cap events one run window may execute (None disables).

        When the cap is exceeded the kernel raises
        :class:`~repro.common.errors.WatchdogTimeout`, which the supervision
        layer treats as a transient platform fault: the offending branch is
        retried on a fresh testbed and, if it keeps tripping, quarantined.
        """
        self.kernel.watchdog_limit = max_events_per_window

    @property
    def watchdog_trips(self) -> int:
        return self.kernel.watchdog_trips

    # ------------------------------------------------------ direct snapshot
    #
    # Raw state plumbing.  The controller's DistributedSnapshotter wraps
    # these with the paper's pause/freeze ordering and cost accounting.

    def save_component_states(self) -> dict:
        state = {
            "kernel": self.kernel.save_state(),
            "netem": self.emulator.save_state(),
            "metrics": self.metrics.save_state(),
            "rng": self.rng.save_state(),
            "telemetry": self.instruments.save_state(),
        }
        if self.fault_injector is not None:
            state["faults"] = self.fault_injector.save_state()
        return state

    def load_component_states(self, state: dict) -> None:
        # Kernel first: clears the event queue and rewinds the clock so the
        # other components can re-schedule against restored time.
        self.kernel.load_state(state["kernel"])
        self.emulator.load_state(state["netem"])
        self.metrics.load_state(state["metrics"])
        self.rng.load_state(state["rng"])
        # Older snapshots predate the instrument registry; .get keeps them
        # loadable (load_state(None) clears to empty).
        self.instruments.load_state(state.get("telemetry"))
        # Fault injector last: it re-schedules pending fault events against
        # the restored clock.
        if self.fault_injector is not None:
            self.fault_injector.load_state(state.get("faults"))

    def run_for(self, duration: float):
        return self.kernel.run_for(duration)

    def run_until(self, deadline: float):
        return self.kernel.run_until(deadline)
