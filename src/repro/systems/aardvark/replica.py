"""Aardvark replica — robust BFT (Clement et al., NSDI 2009).

Aardvark is PBFT hardened against Byzantine performance degradation.  The
properties this reproduction models, on top of the PBFT protocol logic it
inherits:

* **Flooding protection / resource isolation** — each replica meters the
  traffic of every peer (Aardvark dedicates a NIC per peer); a sender whose
  rate exceeds its quota has its excess messages discarded at admission for
  a token cost, so duplication floods cannot consume the victim's CPU.
* **Bounded catch-up service** — a Status whose sender appears implausibly
  far behind is treated as faulty and ignored instead of triggering a
  retransmission storm; the paper observed exactly this muting ("Aardvark's
  flooding protection can mute the attack when the delay becomes too big").

Remaining intentional flaws (the three lying attacks Turret found): the
``PrePrepare.big_reqs`` / ``PrePrepare.ndet_choices`` counts ("the number of
large requests or non-deterministic choices") and ``Status.nmsgs`` are still
trusted before validation — robustness work focused on scheduling, not on
input sanitization.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.ids import NodeId
from repro.systems.common.auth import Authenticator
from repro.systems.common.config import BftConfig
from repro.systems.pbft.replica import PbftReplica
from repro.wire.codec import Message


class AardvarkReplica(PbftReplica):
    """PBFT logic plus Aardvark's robustness mechanisms."""

    #: length of one metering interval (seconds).  Short intervals mean a
    #: burst exhausts only its own slice of time and cannot starve the
    #: sender's legitimate traffic in later slices — approximating
    #: Aardvark's fair per-peer scheduling.
    quota_interval = 0.01
    #: messages accepted per peer per interval before the excess is dropped
    quota_messages = 8
    #: a status gap beyond this is implausible: classify the sender faulty
    catchup_mute_gap = 200

    STATE = PbftReplica.STATE + ("_quota_window_start", "_quota_counts",
                                 "ingress_dropped", "muted_statuses")

    def __init__(self, index: int, config: BftConfig,
                 auth: Optional[Authenticator] = None) -> None:
        super().__init__(index, config, auth)
        self._quota_window_start = 0.0
        self._quota_counts: Dict[int, int] = {}
        self.ingress_dropped = 0
        self.muted_statuses = 0

    # ---------------------------------------------------- flooding protection

    def on_ingress(self, src: NodeId, size: int) -> bool:
        if src.role != "replica":
            return True  # client traffic is verified/regulated separately
        now = self.now()
        if now - self._quota_window_start >= self.quota_interval:
            self._quota_window_start = now
            self._quota_counts = {}
        count = self._quota_counts.get(src.index, 0) + 1
        self._quota_counts[src.index] = count
        if count > self.quota_messages:
            self.ingress_dropped += 1
            return False
        return True

    # ------------------------------------------------- bounded catch-up path

    def _on_status(self, src: NodeId, msg: Message) -> None:
        # The flaw Aardvark retains: the piggybacked count is trusted.
        self.unchecked_alloc(msg["nmsgs"], "piggybacked messages")
        gap = self.last_exec - msg["last_exec"]
        if gap > self.catchup_mute_gap:
            # Implausibly stale: a correct replica cannot be this far behind
            # while the system is making progress.  Classify as faulty and
            # spend nothing on it.
            self.muted_statuses += 1
            return
        super()._on_status(src, msg)
