"""Network topologies.

A topology answers, for an ordered pair of hosts, the propagation delay and
bandwidth of the path between them.  The paper's evaluation uses "a LAN
setting with 1 ms delay between each node"; Steward-style wide-area
experiments group hosts into sites with a larger inter-site delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.common.errors import NetworkError
from repro.common.ids import NodeId
from repro.common.units import mbit_per_sec, millis


@dataclass(frozen=True)
class PathSpec:
    delay: float         # one-way propagation delay, seconds
    bandwidth: float     # bytes/second


class Topology:
    """Base topology: uniform delay/bandwidth with optional overrides."""

    def __init__(self, delay: float = millis(1),
                 bandwidth: float = mbit_per_sec(100)) -> None:
        if delay < 0:
            raise NetworkError("delay must be non-negative")
        if bandwidth <= 0:
            raise NetworkError("bandwidth must be positive")
        self.default = PathSpec(delay, bandwidth)
        #: what a host's path to itself costs (built once, not per packet)
        self.loopback = PathSpec(0.0, bandwidth)
        self._overrides: Dict[Tuple[NodeId, NodeId], PathSpec] = {}
        # Connectivity fault overlay (chaos layer).  Keys are string host
        # names (``str(NodeId)``, e.g. "replica0") so fault schedules can
        # address hosts declaratively without importing NodeId.
        self._down_links: Set[Tuple[str, str]] = set()
        self._partition: Dict[str, int] = {}

    def set_path(self, src: NodeId, dst: NodeId, delay: float,
                 bandwidth: Optional[float] = None) -> None:
        spec = PathSpec(delay, bandwidth or self.default.bandwidth)
        self._overrides[(src, dst)] = spec

    def path(self, src: NodeId, dst: NodeId) -> PathSpec:
        if src.name == dst.name:
            return self.loopback
        if not self._overrides:
            return self.default
        return self._overrides.get((src, dst), self.default)

    # ------------------------------------------- connectivity fault overlay

    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def set_link_down(self, a: str, b: str) -> None:
        """Take the bidirectional link between two hosts down."""
        self._down_links.add(self._link_key(a, b))

    def set_link_up(self, a: str, b: str) -> None:
        self._down_links.discard(self._link_key(a, b))

    def set_partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Partition the network into the given host groups.

        Hosts in different groups cannot reach each other; hosts not
        listed in any group are unaffected (they can still reach every
        group).  A new partition replaces any previous one.
        """
        self._partition = {}
        for index, group in enumerate(groups):
            for host in group:
                self._partition[host] = index

    def heal_partition(self) -> None:
        self._partition = {}

    @property
    def faulted(self) -> bool:
        """Whether any link is down or a partition is in force — the cheap
        test callers make before naming hosts for :meth:`blocked`."""
        return bool(self._down_links or self._partition)

    def blocked(self, src: str, dst: str) -> Optional[str]:
        """Why a packet from ``src`` to ``dst`` cannot be carried, if so.

        Returns ``"down"`` (the link is flapped down), ``"partition"``
        (hosts are in different partition groups), or None.  Loopback is
        never blocked: a host can always talk to itself.
        """
        if src == dst:
            return None
        if self._down_links and self._link_key(src, dst) in self._down_links:
            return "down"
        if self._partition:
            src_group = self._partition.get(src)
            dst_group = self._partition.get(dst)
            if (src_group is not None and dst_group is not None
                    and src_group != dst_group):
                return "partition"
        return None

    def save_link_state(self) -> Dict:
        return {
            "down": sorted(self._down_links),
            "partition": dict(self._partition),
        }

    def load_link_state(self, state: Dict) -> None:
        self._down_links = {tuple(pair) for pair in state.get("down", ())}
        self._partition = dict(state.get("partition", {}))


class LanTopology(Topology):
    """The paper's evaluation network: 1 ms between every pair of hosts."""


class SiteTopology(Topology):
    """Hosts grouped into sites: fast intra-site, slow inter-site paths.

    Used for Steward-style wide-area deployments where each site is a LAN
    and sites are linked by WAN paths.
    """

    def __init__(self, site_of: Dict[NodeId, int],
                 intra_delay: float = millis(1),
                 inter_delay: float = millis(50),
                 bandwidth: float = mbit_per_sec(100),
                 wan_bandwidth: float = mbit_per_sec(10)) -> None:
        super().__init__(intra_delay, bandwidth)
        self.site_of = dict(site_of)
        self.inter = PathSpec(inter_delay, wan_bandwidth)

    def path(self, src: NodeId, dst: NodeId) -> PathSpec:
        if src.name == dst.name:
            return self.loopback
        src_site = self.site_of.get(src)
        dst_site = self.site_of.get(dst)
        if src_site is None or dst_site is None:
            raise NetworkError(f"host {src} or {dst} not assigned to a site")
        if src_site == dst_site:
            return self.default
        return self.inter
