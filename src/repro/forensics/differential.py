"""Benign-vs-attack differential analysis.

Both branches start from the *same* injection-point snapshot, so their
chronologies are identical up to the injected action; everything after
the first divergence is the attack's effect.  :func:`diff_branches`
aligns the two chronologies (FIFO matching on event identity, with a
second content-blind pass that pairs mutated payloads), locates that
first divergence, and attributes the downstream damage: per-node
delivery deltas per message type, suppressed protocol phases, crash
chains, and per-window performance timelines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.forensics.causality import DELIVER, CausalEvent, CausalRecorder

#: virtual-time slack below which two matched events count as simultaneous
TIME_EPSILON = 1e-9

ABSENT = "absent"        # benign event never happened under attack
MUTATED = "mutated"      # same message, different payload content
DELAYED = "delayed"      # same event, shifted in virtual time
EXTRA = "extra"          # attack produced an event with no benign twin
NONE = "none"            # chronologies are identical


@dataclass(frozen=True)
class Divergence:
    """The first point where the attack execution departs the baseline."""

    kind: str                        # absent | mutated | delayed | extra | none
    event_kind: str = ""             # send | egress | deliver | handle
    msg_seq: int = -1
    message_type: str = ""
    src: str = ""
    dst: str = ""
    benign_time: Optional[float] = None
    attack_time: Optional[float] = None

    @property
    def found(self) -> bool:
        return self.kind != NONE

    def describe(self) -> str:
        if not self.found:
            return "no divergence: attack chronology matches baseline"
        when = (f"t={self.benign_time:.4f}" if self.benign_time is not None
                else f"t={self.attack_time:.4f}")
        tail = ""
        if self.kind == DELAYED and self.attack_time is not None \
                and self.benign_time is not None:
            tail = f" (+{self.attack_time - self.benign_time:.4f}s)"
        return (f"{self.kind}: {self.message_type} (seq {self.msg_seq}) "
                f"{self.event_kind} {self.src}->{self.dst} {when}{tail}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "event_kind": self.event_kind,
            "msg_seq": self.msg_seq,
            "message_type": self.message_type,
            "src": self.src,
            "dst": self.dst,
            "benign_time": self.benign_time,
            "attack_time": self.attack_time,
        }


@dataclass(frozen=True)
class DeliveryDelta:
    """Delivery-count change for one (node, message type) pair."""

    node: str
    message_type: str
    benign: int
    attack: int

    @property
    def delta(self) -> int:
        return self.attack - self.benign

    def to_dict(self) -> dict:
        return {"node": self.node, "message_type": self.message_type,
                "benign": self.benign, "attack": self.attack,
                "delta": self.delta}


@dataclass(frozen=True)
class PerfPoint:
    """One bucket of a performance timeline."""

    start: float
    throughput: float
    completed: int
    latency_avg: float

    def to_dict(self) -> dict:
        return {"start": self.start, "throughput": self.throughput,
                "completed": self.completed, "latency_avg": self.latency_avg}


@dataclass
class PerfTimeline:
    """Bucketed throughput/latency series over one observation window."""

    start: float
    end: float
    bucket: float
    overall: List[PerfPoint] = field(default_factory=list)
    per_node: Dict[str, List[PerfPoint]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "start": self.start, "end": self.end, "bucket": self.bucket,
            "overall": [p.to_dict() for p in self.overall],
            "per_node": {node: [p.to_dict() for p in series]
                         for node, series in sorted(self.per_node.items())},
        }


def perf_timeline(metrics, start: float, end: float,
                  buckets: int = 6) -> PerfTimeline:
    """Per-bucket (and per-node) UPDATE_DONE series from the collector."""
    from repro.metrics.collector import UPDATE_DONE
    timeline = PerfTimeline(start, end, 0.0)
    if end <= start or buckets <= 0:
        return timeline
    width = (end - start) / buckets
    timeline.bucket = width
    events = [e for e in metrics.events(UPDATE_DONE) if start <= e.time <= end]
    by_node: Dict[str, List] = {}
    for event in events:
        by_node.setdefault(f"{event.node[1]}{event.node[0]}",
                           []).append(event)

    def series(evts) -> List[PerfPoint]:
        out = []
        for i in range(buckets):
            lo = start + i * width
            hi = end if i == buckets - 1 else lo + width
            hit = [e for e in evts if lo <= e.time <= hi]
            values = [e.value for e in hit]
            out.append(PerfPoint(
                lo, len(hit) / width if width > 0 else 0.0, len(hit),
                sum(values) / len(values) if values else 0.0))
        return out

    timeline.overall = series(events)
    timeline.per_node = {node: series(evts)
                         for node, evts in sorted(by_node.items())}
    return timeline


@dataclass
class DifferentialResult:
    """Everything the benign-vs-attack alignment produced."""

    divergence: Divergence
    delivery_deltas: List[DeliveryDelta] = field(default_factory=list)
    suppressed_types: List[str] = field(default_factory=list)
    #: benign descendants of the divergent message missing under attack
    lost_descendants: int = 0


def _align(benign: List, attack: List) -> Tuple[list, list, list, list]:
    """FIFO-match the chronologies; returns (pairs, mutated, absent, extra).

    ``pairs``/``mutated`` are (benign_index, attack_index) tuples; the
    others are index lists into their own chronology.  Matching is
    deterministic: events pair in first-in-first-out order per identity
    key, so duplicated messages consume matches one copy at a time.
    """
    def queues(key, indices) -> Dict[tuple, list]:
        """``key`` -> its attack indices, last first: ``pop()`` is FIFO
        (a list, not a deque: most keys hold one index)."""
        by_key: Dict[tuple, list] = {}
        for j in reversed(indices):
            by_key.setdefault(key(attack[j]), []).append(j)
        return by_key

    remaining = queues(CausalEvent.identity, range(len(attack)))
    pairs, unmatched_benign = [], []
    taken = [False] * len(attack)
    for i, event in enumerate(benign):
        queue = remaining.get(event.identity())
        if queue:
            j = queue.pop()
            taken[j] = True
            pairs.append((i, j))
        else:
            unmatched_benign.append(i)
    del remaining
    # Second pass, content-blind: a benign event whose twin exists with a
    # different payload digest is a mutation, not an absence.
    loose = queues(CausalEvent.loose_identity,
                   [j for j in range(len(attack)) if not taken[j]])
    mutated, absent = [], []
    for i in unmatched_benign:
        queue = loose.get(benign[i].loose_identity())
        if queue:
            j = queue.pop()
            taken[j] = True
            mutated.append((i, j))
        else:
            absent.append(i)
    extra = [j for j in range(len(attack)) if not taken[j]]
    return pairs, mutated, absent, extra


def first_divergence(benign: CausalRecorder,
                     attack: CausalRecorder) -> Divergence:
    """Locate the first point where the attack chronology departs."""
    pairs, mutated, absent, extra = _align(benign.events, attack.events)
    b, a = benign.events, attack.events
    # Earliest in virtual time wins; ties prefer the benign-side anomaly
    # (something missing explains more than something added), then the
    # earliest position in its own chronology: (time, side, index, kind,
    # the attack twin's index).
    first = min(chain(
        ((b[i].time, 0, i, ABSENT, None) for i in absent),
        ((b[i].time, 0, i, MUTATED, j) for i, j in mutated),
        ((b[i].time, 0, i, DELAYED, j) for i, j in pairs
         if abs(a[j].time - b[i].time) > TIME_EPSILON),
        ((a[j].time, 1, j, EXTRA, None) for j in extra)), default=None)
    if first is None:
        return Divergence(NONE)
    __, side, index, kind, twin = first
    event = (a if side else b)[index]
    times = ((None, event.time) if side else
             (event.time, None if twin is None else a[twin].time))
    return Divergence(kind, event.kind, event.msg_seq, event.message_type,
                      event.src, event.dst, *times)


def _delivery_counts(recorder: CausalRecorder) -> Counter:
    """(node, message type) -> deliveries."""
    return Counter((event.dst, event.message_type)
                   for event in recorder.events if event.kind == DELIVER)


def diff_branches(benign: CausalRecorder,
                  attack: CausalRecorder) -> DifferentialResult:
    """Full differential: divergence plus downstream-effect attribution."""
    divergence = first_divergence(benign, attack)
    result = DifferentialResult(divergence=divergence)

    benign_counts = _delivery_counts(benign)
    attack_counts = _delivery_counts(attack)
    for key in sorted(set(benign_counts) | set(attack_counts)):
        b, a = benign_counts[key], attack_counts[key]
        if b != a:
            result.delivery_deltas.append(
                DeliveryDelta(key[0], key[1], b, a))

    attack_types = {mtype for __, mtype in attack_counts}
    result.suppressed_types = sorted(
        {mtype for __, mtype in benign_counts} - attack_types)

    if divergence.found and divergence.msg_seq >= 0:
        benign_graph = benign.graph()
        attacked_seqs = {e.msg_seq for e in attack.events
                        if e.kind == DELIVER}
        result.lost_descendants = sum(
            1 for seq in benign_graph.descendants(divergence.msg_seq)
            if seq not in attacked_seqs)
    return result
