"""Aggregation of telemetry into a run's summary.

A :class:`TelemetrySummary` is the JSON-safe digest of a traced run, all
of it read off the tracer's spans — which no snapshot restore rewinds, so
every figure is a run total over every branch and prober:

* per-span-kind totals (count, virtual-clock advance, wall-clock cost);
* counters: ``kernel.windows`` and ``kernel.events`` (the ``kernel.window``
  spans and their ``events``), each window's dotted counter deltas
  (``netem.*``, ``proxy.intercepted``, ``faults.injected``) summed,
  ``proxy.injections`` (the ``proxy.action`` instants) and
  ``snapshot.saves_<mode>`` (the completed ``snapshot.save`` spans by
  mode; a save a platform fault cut short has no ``save_cost``);
* exact percentiles of two span arguments, ``kernel.window_events`` and
  ``snapshot.save_cost``.

It carries wall-clock costs, so it is a side channel
(``HuntResult.telemetry``, the ``--stats`` manifest), never part of the
deterministic report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.metrics.collector import percentiles
from repro.telemetry.tracer import Tracer


@dataclass
class SpanKindStats:
    """Totals for one span name across a run."""

    count: int = 0
    virtual_total: float = 0.0
    wall_total: float = 0.0


@dataclass
class HistogramStats:
    """Exact percentile digest of one span argument across a run."""

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0

    @classmethod
    def of(cls, values: List[float]) -> "HistogramStats":
        return cls(len(values), sum(values), min(values), max(values),
                   *percentiles(values))


@dataclass
class TelemetrySummary:
    """Everything observability-related a run hands back to its caller."""

    spans: Dict[str, SpanKindStats] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramStats] = field(default_factory=dict)

    @property
    def total_spans(self) -> int:
        return sum(s.count for s in self.spans.values())

    def span_kind(self, name: str) -> SpanKindStats:
        return self.spans.get(name, SpanKindStats())

    def one_line(self) -> str:
        return (f"telemetry: {self.total_spans} spans over "
                f"{len(self.spans)} kinds, {len(self.counters)} counters")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def summarize(tracer: Optional[Tracer], since: int = 0) -> TelemetrySummary:
    """Digest the tracer's spans from ``since``."""
    summary = TelemetrySummary()
    if tracer is None:
        return summary
    counters = summary.counters
    samples: Dict[str, List[float]] = {}

    def count(name: str, n: float = 1) -> None:
        counters[name] = counters.get(name, 0) + n

    for record in tracer.spans[since:]:
        stats = summary.spans.setdefault(record.name, SpanKindStats())
        stats.count += 1
        stats.virtual_total += record.virtual_duration
        stats.wall_total += record.wall_duration
        args = record.args
        if record.name == "kernel.window":
            count("kernel.windows")
            count("kernel.events", args["events"])
            samples.setdefault("kernel.window_events", []).append(
                args["events"])
            for name, delta in args.items():
                if "." in name:
                    count(name, delta)
        elif record.name == "proxy.action":
            count("proxy.injections")
        elif record.name == "snapshot.save" and "save_cost" in args:
            count(f"snapshot.saves_{args['mode']}")
            samples.setdefault("snapshot.save_cost", []).append(
                args["save_cost"])
    summary.histograms = {name: HistogramStats.of(values)
                          for name, values in samples.items()}
    return summary
