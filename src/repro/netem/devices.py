"""Emulated network devices.

NS3's stock CSMA device supports emulation "but performs unnecessary
processing": every packet crosses the full CSMA MAC state machine, capping
throughput near 1000 packets/s in the paper's measurements (Fig. 4).  The
authors implemented a *bundled* device with a slimmer path that reaches
~2500 packets/s.

A device is modelled as a rate server: each packet consumes
``process_delay`` of serial device capacity (which is what caps throughput),
while the latency it adds to an individual packet under light load is only
the small ``tx_latency`` — device processing is pipelined with transmission,
so an unloaded device does not add a full service time to every packet's
path.  When offered load exceeds the service rate, the backlog grows and
packets wait, which is exactly the saturation behaviour Fig. 4 measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import micros
from repro.netem.packets import Packet


@dataclass
class DeviceStats:
    enqueued: int = 0
    processed: int = 0
    dropped_overflow: int = 0


class NetDevice:
    """A rate-limited packet processor with a bounded backlog.

    State is just a busy-until timestamp (plus counters), which makes the
    device trivially serializable for emulator save/load.
    """

    #: seconds of serial device capacity per packet; sets the pps ceiling.
    process_delay: float = micros(400)
    #: latency added to a packet that finds the device idle.
    tx_latency: float = micros(50)
    #: maximum packets of backlog before tail drop.
    queue_capacity: int = 4096

    def __init__(self, process_delay: float = None,
                 tx_latency: float = None,
                 queue_capacity: int = None) -> None:
        # Constructor kwargs shadow the class defaults, so scenarios can
        # model constrained devices per-instance without new subclasses.
        if process_delay is not None:
            if process_delay <= 0:
                raise ValueError("process_delay must be positive")
            self.process_delay = process_delay
        if tx_latency is not None:
            if tx_latency < 0:
                raise ValueError("tx_latency must be non-negative")
            self.tx_latency = tx_latency
        if queue_capacity is not None:
            if queue_capacity < 1:
                raise ValueError("queue_capacity must be at least 1")
            self.queue_capacity = queue_capacity
        self._busy_until = 0.0
        self.stats = DeviceStats()

    @property
    def kind(self) -> str:
        return type(self).__name__

    def backlog(self, now: float) -> int:
        """Packets of work currently queued ahead of a new arrival."""
        pending = max(0.0, self._busy_until - now)
        return int(pending / self.process_delay)

    def admit(self, now: float, packet: Packet):
        """Admit a packet at virtual time ``now``.

        Returns the time the packet is on the wire, or None when the backlog
        exceeded capacity and the packet was tail-dropped.
        """
        busy = self._busy_until      # (``backlog`` inlined: once a packet)
        if (busy - now) / self.process_delay >= self.queue_capacity:
            self.stats.dropped_overflow += 1
            return None
        start = busy if busy > now else now
        self._busy_until = start + self.process_delay
        self.stats.enqueued += 1
        self.stats.processed += 1
        return start + self.tx_latency

    def max_throughput_pps(self) -> float:
        return 1.0 / self.process_delay

    # ------------------------------------------------------------- snapshot

    def save_state(self) -> dict:
        return {
            "busy_until": self._busy_until,
            "stats": (self.stats.enqueued, self.stats.processed,
                      self.stats.dropped_overflow),
        }

    def load_state(self, state: dict) -> None:
        self._busy_until = state["busy_until"]
        enq, proc, drop = state["stats"]
        self.stats = DeviceStats(enq, proc, drop)


class CsmaDevice(NetDevice):
    """NS3's stock CSMA device: full MAC processing, ~1000 packets/s."""

    process_delay = micros(1000)
    tx_latency = micros(120)


class BundledDevice(NetDevice):
    """The paper's slimmed device: minimal processing, ~2500 packets/s."""

    process_delay = micros(400)
    tx_latency = micros(50)


DEVICE_KINDS = {
    "CsmaDevice": CsmaDevice,
    "BundledDevice": BundledDevice,
}


def make_device(kind: str, **overrides) -> NetDevice:
    """Build a device by kind name, with optional per-instance overrides.

    ``overrides`` accepts ``process_delay``, ``tx_latency``, and
    ``queue_capacity``; anything unset keeps the kind's class default.
    """
    try:
        cls = DEVICE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown device kind {kind!r}") from None
    return cls(**overrides)
