"""Host transports: UDP and TCP message services.

The systems under test implement their protocols at the application level
over either UDP (PBFT's implementation) or TCP.  Both transports here are
message-oriented facades over the emulator:

* **UDP** — fire and forget; a message becomes datagram fragments and is
  delivered if all fragments survive.
* **TCP** — connection setup costs one round trip before the first message
  of a flow flows; packets lost to device-queue overflow or to environmental
  faults (bursty link loss, corruption, down links, partitions — see
  :mod:`repro.faults`) are retransmitted after an RTO.  Because the
  paper's malicious proxy *terminates* TCP at the emulated application layer
  (Section IV-B), a message dropped or delayed by the proxy does not stall
  the rest of the stream — delivery order is the proxy's release order.

A transport is the sending half: a host's one receiver (set with
:meth:`NetworkEmulator.set_receiver`) gets both services' messages.  Flow
state participates in emulator save/load via :meth:`HostTransport.save_state`.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import TransportError
from repro.common.ids import NodeId
from repro.netem.emulator import NetworkEmulator

UDP = "udp"
TCP = "tcp"


class HostTransport:
    """Per-host sending endpoint for the UDP and TCP services."""

    #: one round trip of handshake before the first byte of a new TCP flow
    TCP_HANDSHAKE_RTTS = 1.0

    def __init__(self, emulator: NetworkEmulator, node_id: NodeId) -> None:
        self.emulator = emulator
        self.node_id = node_id
        self._tcp_established: Dict[str, bool] = {}

    # ------------------------------------------------------------------ send

    def setup_delay(self, dst: NodeId, transport: str) -> float:
        """What sending to ``dst`` over ``transport`` waits before egress:
        a new TCP flow's handshake, which this call then counts as done."""
        if transport == UDP:
            return 0.0
        if transport != TCP:
            raise TransportError(f"unknown transport {transport!r}")
        key = f"{dst.role}:{dst.index}"
        if self._tcp_established.get(key, False):
            return 0.0
        path = self.emulator.topology.path(self.node_id, dst)
        self._tcp_established[key] = True
        return self.TCP_HANDSHAKE_RTTS * 2 * path.delay

    def send(self, dst: NodeId, data: bytes, transport: str = UDP) -> int:
        return self.emulator.transmit(self.node_id, dst, transport, data,
                                      self.setup_delay(dst, transport))

    def reset_flows(self) -> None:
        """Forget all established TCP flows (the host crashed or rebooted).

        The next message on each flow pays the handshake round trip again,
        as a restarted process re-connecting would.
        """
        self._tcp_established.clear()

    # -------------------------------------------------------------- snapshot

    def save_state(self) -> dict:
        return {"tcp_established": dict(self._tcp_established)}

    def load_state(self, state: dict) -> None:
        self._tcp_established = dict(state["tcp_established"])
