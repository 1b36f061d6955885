"""The node runtime: glue between an application and the platform.

A :class:`Node` gives one :class:`~repro.runtime.app.Application` its
execution environment: message delivery through the emulated network and the
serial CPU, named timers, deterministic per-node randomness, crash
containment (a :class:`~repro.common.errors.TargetSystemFault` raised by app
code marks the node crashed, like a segfault would kill the process in the
guest), and full state serialization for execution branching.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.common.errors import (CodecError, TargetSystemFault,
                                 WireFormatError)
from repro.common.ids import NodeId, node_id
from repro.common.logging import EventLog
from repro.common.rng import RandomStream
from repro.sim.events import PRIORITY_CPU, PRIORITY_TIMER
from repro.sim.kernel import SimKernel
from repro.netem.emulator import NetworkEmulator
from repro.netem.packets import MessageEnvelope
from repro.netem.transport import UDP, HostTransport
from repro.runtime.app import Application
from repro.runtime.cpu import CpuCostModel, SerialCpu
from repro.wire.codec import Message, ProtocolCodec
from repro.wire.schema import MessageSpec

MetricSink = Callable[[float, NodeId, str, float], None]


class Node:
    """Runtime container for one participant of the system under test."""

    def __init__(self, node_id: NodeId, kernel: SimKernel,
                 emulator: NetworkEmulator, codec: ProtocolCodec,
                 rng: RandomStream,
                 cost_model: Optional[CpuCostModel] = None,
                 default_transport: str = UDP,
                 log: Optional[EventLog] = None,
                 metric_sink: Optional[MetricSink] = None) -> None:
        self.node_id = node_id
        self.kernel = kernel
        self.emulator = emulator
        self.codec = codec
        self.rng = rng
        self.default_transport = default_transport
        self.log = log or EventLog(lambda: kernel.now)
        self.metric_sink = metric_sink

        self.transport = HostTransport(emulator, node_id)
        emulator.set_receiver(node_id, self._on_network_message)
        self.cpu = SerialCpu(cost_model)
        #: extra CPU charged when processing specific message types
        #: (e.g. a Status message triggers a log scan)
        self.type_costs: Dict[str, float] = {}

        self.app: Optional[Application] = None
        #: the other members of this node's broadcast group
        self.peers: Tuple[NodeId, ...] = ()
        self.started = False
        self.crashed = False
        self.crash_reason = ""
        #: how the node died: "" (healthy), "fault" (a target-system bug
        #: raised TargetSystemFault), or "injected" (chaos-layer crash)
        self.crash_kind = ""
        self.malformed_dropped = 0
        #: drop exact duplicates of recently seen payloads at admission
        self.ingress_dedup = False
        self.duplicates_dropped = 0
        self._dedup_set: Set[bytes] = set()
        self._dedup_fifo: Deque[bytes] = deque()

        # Timers: name -> (deadline, period); period 0.0 means one-shot.
        self._timers: Dict[str, Tuple[float, float]] = {}
        self._timer_handles: Dict[str, object] = {}
        # CPU work in flight: eid -> (due, src, payload, cause, kernel
        # handle, spec); ``cause`` is the emulator msg_seq of the delivery
        # that queued the work (forensic lineage), None when unknown, and
        # ``spec`` the envelope's type tag (derived, never saved).
        self._pending: Dict[int, Tuple[float, NodeId, bytes, Optional[int],
                                       object, Optional[MessageSpec]]] = {}
        self._pending_seq = 0

    # ------------------------------------------------------------- lifecycle

    def attach(self, app: Application) -> None:
        self.app = app
        app.node = self

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self._guard(self.app.on_start)

    def now(self) -> float:
        return self.kernel.now

    # ----------------------------------------------------------------- crash

    def _halt(self) -> None:
        """Cancel every scheduled activity of this node (it is dead)."""
        for handle in self._timer_handles.values():
            handle.cancel()
        self._timer_handles.clear()
        self._timers.clear()
        self._cancel_pending()

    def _cancel_pending(self) -> None:
        for __, __src, __payload, __cause, handle, __ in self._pending.values():
            if handle is not None:
                handle.cancel()
        self._pending.clear()

    def _crash(self, exc: TargetSystemFault) -> None:
        self.crashed = True
        self.crash_kind = "fault"
        self.crash_reason = f"{type(exc).__name__}: {exc}"
        self._halt()
        self.log.emit(str(self.node_id), "crash", reason=self.crash_reason)

    def inject_crash(self, reason: str = "injected crash") -> None:
        """Kill this node as an *environmental* fault, not a target bug.

        The process dies exactly like a :meth:`_crash` (timers and pending
        CPU work vanish, incoming traffic is ignored) but the crash is
        labelled ``injected`` so reports can distinguish a chaos-schedule
        crash from a bug the attack exposed.  Established TCP flows are
        forgotten: a restarted process must re-connect.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_kind = "injected"
        self.crash_reason = reason
        self._halt()
        self.transport.reset_flows()
        self.log.emit(str(self.node_id), "crash_injected", reason=reason)

    def restart(self, app: Optional[Application] = None,
                app_state: Optional[Dict[str, Any]] = None) -> None:
        """Bring a crashed node back up.

        ``app`` replaces the application instance (fresh-boot recovery: the
        testbed factory built a brand-new app).  ``app_state`` instead
        restores a previously captured ``snapshot_state`` into the existing
        app (durable-state recovery).  Either way ``on_start`` runs again so
        the application re-arms its timers.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.crash_kind = ""
        self.crash_reason = ""
        if app is not None:
            self.attach(app)
        if app_state is not None:
            self.app.restore_state(app_state)
        self.started = False
        self.log.emit(str(self.node_id), "restart")
        self.start()

    def _guard(self, fn: Callable, *args: Any) -> None:
        """Run app code, converting target faults into a crashed node."""
        try:
            fn(*args)
        except TargetSystemFault as exc:
            self._crash(exc)

    # ------------------------------------------------------------------ send

    def send(self, dst: NodeId, message: Message,
             transport: Optional[str] = None) -> None:
        if self.crashed:
            return
        codec = self.codec
        try:
            payload = codec.encode(message)
        except WireFormatError:
            # A value the target computed overflowed its wire type: send
            # what the original's fixed-width field would hold.
            payload = codec.encode_wrapped(message)
        cpu = self.cpu
        cpu.charge(self.kernel.now, cpu.cost_model.send_cost)
        transport = transport or self.default_transport
        # The envelope carries the type tag, so no later hop parses it.
        self.emulator.transmit(
            self.node_id, dst, transport, payload,
            0.0 if transport == UDP
            else self.transport.setup_delay(dst, transport),
            codec.specs[message.type_name])
        if self.log.enabled:
            self.log.emit(str(self.node_id), "send", dst=str(dst),
                          type=message.type_name)

    def broadcast(self, message: Message) -> None:
        for peer in self.peers:
            self.send(peer, message)

    # ---------------------------------------------------------------- timers

    def set_timer(self, name: str, delay: float, periodic: bool = False) -> None:
        if self.crashed:
            return
        self.cancel_timer(name)
        deadline = self.kernel.now + delay
        period = delay if periodic else 0.0
        self._timers[name] = (deadline, period)
        self._timer_handles[name] = self.kernel.schedule(
            delay, self._timer_fired, name, priority=PRIORITY_TIMER)

    def cancel_timer(self, name: str) -> None:
        handle = self._timer_handles.pop(name, None)
        if handle is not None:
            handle.cancel()
        self._timers.pop(name, None)

    def timer_pending(self, name: str) -> bool:
        return name in self._timers

    def _timer_fired(self, name: str) -> None:
        entry = self._timers.get(name)
        if entry is None or self.crashed:
            return
        deadline, period = entry
        if period > 0:
            self._timers[name] = (self.kernel.now + period, period)
            self._timer_handles[name] = self.kernel.schedule(
                period, self._timer_fired, name, priority=PRIORITY_TIMER)
        else:
            self._timers.pop(name, None)
            self._timer_handles.pop(name, None)
        self._guard(self.app.on_timer, name)

    # -------------------------------------------------------------- receive

    #: cost of discarding a message at admission control (a queue drop)
    INGRESS_DROP_COST = 0.000005
    #: size of the duplicate-suppression digest cache (when enabled)
    DEDUP_CACHE_SIZE = 512

    def _on_network_message(self, envelope: MessageEnvelope) -> None:
        """The emulator delivers a message (UDP or TCP alike): admit it and
        queue its handler behind the serial CPU."""
        if self.crashed:
            return
        src, payload, spec = envelope.src, envelope.payload, envelope.spec
        now = self.kernel.now
        if self.ingress_dedup:
            digest = hashlib.blake2b(payload, digest_size=12).digest()
            if digest in self._dedup_set:
                # An exact copy of a recently seen message: discard at the
                # cost of a hash lookup (Aardvark-style redundancy check).
                self.cpu.charge(now, self.INGRESS_DROP_COST)
                self.duplicates_dropped += 1
                return
            self._dedup_set.add(digest)
            self._dedup_fifo.append(digest)
            if len(self._dedup_fifo) > self.DEDUP_CACHE_SIZE:
                self._dedup_set.discard(self._dedup_fifo.popleft())
        size = len(payload)
        if self.app is not None and not self.app.on_ingress(src, size):
            self.cpu.charge(now, self.INGRESS_DROP_COST)
            self.malformed_dropped += 1
            return
        extra = 0.0
        if self.type_costs:
            spec = spec or self.codec.peek_type(payload)
            if spec is not None:
                extra = self.type_costs.get(spec.name, 0.0)
        completion = self.cpu.enqueue(now, size, extra)
        self._pending_seq = eid = self._pending_seq + 1
        # The emulator's msg_seq of the delivery that queued this work, so
        # the handler (and anything it sends) can be causally attributed.
        cause = self.emulator.current_delivery_seq
        self._pending[eid] = (completion, src, payload, cause,
                              self.kernel.schedule_at(
                                  completion, self._dispatch, eid,
                                  priority=PRIORITY_CPU), spec)

    def _dispatch(self, eid: int) -> None:
        entry = self._pending.pop(eid, None)
        if entry is None or self.crashed:
            return
        __, src, payload, cause, __handle, spec = entry
        try:
            message = self.codec.decode(payload, spec)
        except CodecError:
            # A benign implementation discards garbage it cannot parse.
            self.malformed_dropped += 1
            return
        if self.log.enabled:
            self.log.emit(str(self.node_id), "recv", type=message.type_name)
        emulator = self.emulator
        if emulator.causal_tap is not None:
            emulator.causal_tap.on_handle(cause, self.node_id,
                                          message.type_name)
        # Sends made inside the handler inherit this message as their
        # causal parent (handler -> induced-send edges).  A target fault
        # crashes the node, as in :meth:`_guard`.
        emulator.handler_cause = cause
        try:
            self.app.on_message(src, message)
        except TargetSystemFault as exc:
            self._crash(exc)
        finally:
            emulator.handler_cause = None

    # --------------------------------------------------------------- metrics

    def emit_metric(self, name: str, value: float = 1.0) -> None:
        if self.metric_sink is not None:
            self.metric_sink(self.kernel.now, self.node_id, name, value)

    # -------------------------------------------------------------- snapshot

    def snapshot_state(self) -> Dict[str, Any]:
        return {
            "started": self.started,
            "crashed": self.crashed,
            "crash_kind": self.crash_kind,
            "crash_reason": self.crash_reason,
            "malformed_dropped": self.malformed_dropped,
            "timers": dict(self._timers),
            "pending": [
                (eid, due, (src.index, src.role), payload, cause)
                for eid, (due, src, payload, cause, __, __spec)
                in sorted(self._pending.items())
            ],
            "pending_seq": self._pending_seq,
            "dedup_fifo": list(self._dedup_fifo),
            "duplicates_dropped": self.duplicates_dropped,
            "cpu": self.cpu.save_state(),
            "transport": self.transport.save_state(),
            "rng": self.rng.save_state(),
            "app": self.app.snapshot_state() if self.app is not None else None,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        for handle in self._timer_handles.values():
            handle.cancel()
        self._timer_handles.clear()
        self._cancel_pending()

        self.started = state["started"]
        self.crashed = state["crashed"]
        self.crash_kind = state.get("crash_kind",
                                    "fault" if state["crashed"] else "")
        self.crash_reason = state["crash_reason"]
        self.malformed_dropped = state["malformed_dropped"]
        self._timers = dict(state["timers"])
        self._pending_seq = state["pending_seq"]
        self._dedup_fifo = deque(state["dedup_fifo"])
        self._dedup_set = set(self._dedup_fifo)
        self.duplicates_dropped = state["duplicates_dropped"]
        self.cpu.load_state(state["cpu"])
        self.transport.load_state(state["transport"])
        self.rng.load_state(state["rng"])
        if self.app is not None and state["app"] is not None:
            self.app.restore_state(state["app"])

        now = self.kernel.now
        if not self.crashed:
            for name, (deadline, __) in self._timers.items():
                self._timer_handles[name] = self.kernel.schedule_at(
                    max(deadline, now), self._timer_fired, name,
                    priority=PRIORITY_TIMER)
        # Pre-forensics snapshots carry 4-tuples without the lineage cause.
        # A crashed node keeps the queued work its snapshot held, but
        # nothing will run it: no kernel event, so no handle.
        for eid, due, src, payload, *cause in state["pending"]:
            handle = None if self.crashed else self.kernel.schedule_at(
                max(due, now), self._dispatch, eid, priority=PRIORITY_CPU)
            self._pending[eid] = (due, node_id(*src), payload,
                                  cause[0] if cause else None, handle, None)
