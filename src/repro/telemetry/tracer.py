"""Nested spans over the platform's hot paths.

Each span carries **two** clocks:

* the *virtual* clock — the simulation kernel's ``now``, the only time that
  means anything inside an experiment.  Virtual timestamps are fully
  deterministic: two identical hunts produce identical virtual-time span
  streams (:meth:`Tracer.virtual_records` is the comparison form).
* the *wall* clock — ``time.perf_counter``, which measures what the
  platform actually spent.  Wall time is what the Chrome trace timeline
  shows, because the virtual clock rewinds at every branch restore (a
  branch's virtual duration can legitimately be zero or negative).

The tracer is platform-side state: it is **never** rewound by a snapshot
restore, so the span stream records every save, restore, and retried branch
the platform performed, in the order it performed them — and the run's
counters are read off it (:mod:`repro.telemetry.summary`).

Disabled tracers are free-ish: ``maybe_span`` returns a shared no-op span
after a single flag check, and call sites attach result arguments through
``span.set(...)`` which the null span ignores.

Span names are dotted paths owned by their emitting layer; the parallel
executor's self-healing layer adds ``executor.worker.kill`` /
``executor.worker.respawn`` spans plus ``executor.task.replay`` /
``executor.task.reassign`` / ``executor.pool.degrade`` instants, all
tagged with the worker slot — wall-clock-only by nature, so they ride the
tracer (platform-side state) and never touch the deterministic report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

PHASE_SPAN = "span"
PHASE_INSTANT = "instant"


@dataclass
class SpanRecord:
    """One completed span (or instant event), in completion order."""

    name: str
    phase: str
    depth: int
    t0_virtual: float
    t1_virtual: float
    t0_wall: float
    t1_wall: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def virtual_duration(self) -> float:
        return self.t1_virtual - self.t0_virtual

    @property
    def wall_duration(self) -> float:
        return self.t1_wall - self.t0_wall


class _NullSpan:
    """Shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def set(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """An open span; closing it (context exit) records it on the tracer."""

    __slots__ = ("_tracer", "name", "depth", "t0_virtual", "t0_wall", "args")

    def __init__(self, tracer: "Tracer", name: str, depth: int,
                 t0_virtual: float, t0_wall: float,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.depth = depth
        self.t0_virtual = t0_virtual
        self.t0_wall = t0_wall
        self.args = args

    def set(self, **args: Any) -> None:
        """Attach result arguments (page counts, outcomes) before closing."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self)
        return False


class Tracer:
    """Collects spans and raw begin/end events for export."""

    def __init__(self, enabled: bool = False,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.enabled = enabled
        self._clock = clock or (lambda: 0.0)
        self.epoch = time.perf_counter()
        #: completed spans and instants, in completion order
        self.spans: List[SpanRecord] = []
        #: raw event stream — ("B"|"E"|"I", name, virtual, wall, args) —
        #: balanced and properly nested by construction, for Chrome export
        self.events: List[Tuple[str, str, float, float, Dict[str, Any]]] = []
        self._stack: List[_Span] = []

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Point the virtual clock at the current world's kernel."""
        self._clock = clock

    # ------------------------------------------------------------------ spans

    def span(self, name: str, **args: Any):
        """Open a span; close it via ``with`` (or ``__exit__``)."""
        if not self.enabled:
            return NULL_SPAN
        t0v = self._clock()
        t0w = time.perf_counter()
        span = _Span(self, name, len(self._stack), t0v, t0w, dict(args))
        self._stack.append(span)
        self.events.append(("B", name, t0v, t0w, dict(args)))
        return span

    def _close(self, span: _Span) -> None:
        # Spans close LIFO under normal control flow; tolerate a straggler
        # (an exception that skipped an inner close) by removing it anyway.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)
        t1v = self._clock()
        t1w = time.perf_counter()
        self.events.append(("E", span.name, t1v, t1w, dict(span.args)))
        self.spans.append(SpanRecord(span.name, PHASE_SPAN, span.depth,
                                     span.t0_virtual, t1v,
                                     span.t0_wall, t1w, span.args))

    def instant(self, name: str, **args: Any) -> None:
        """Record a zero-duration event (e.g. one proxy action applied)."""
        if not self.enabled:
            return
        tv = self._clock()
        tw = time.perf_counter()
        self.events.append(("I", name, tv, tw, dict(args)))
        self.spans.append(SpanRecord(name, PHASE_INSTANT, len(self._stack),
                                     tv, tv, tw, tw, dict(args)))

    def adopt(self, spans: List[SpanRecord],
              events: List[Tuple[str, str, float, float, Dict[str, Any]]],
              **tags: Any) -> None:
        """Fold spans recorded by another tracer (a parallel worker) in.

        Each adopted record gets ``tags`` (e.g. ``worker=3``) merged into
        its args, so a Chrome trace of a parallel hunt shows which worker
        performed every harness operation.
        """
        if not self.enabled:
            return
        for record in spans:
            args = dict(record.args)
            args.update(tags)
            self.spans.append(SpanRecord(
                record.name, record.phase, record.depth,
                record.t0_virtual, record.t1_virtual,
                record.t0_wall, record.t1_wall, args))
        for phase, name, tv, tw, args in events:
            merged = dict(args)
            merged.update(tags)
            self.events.append((phase, name, tv, tw, merged))

    # ------------------------------------------------------------------ query

    def mark(self) -> int:
        """Current span count; slice later with ``spans[mark:]``."""
        return len(self.spans)

    def virtual_records(self, since: int = 0) -> List[tuple]:
        """Deterministic projection of the span stream.

        Strips wall-clock fields so two identical experiments compare
        equal; everything left (names, depths, virtual times, args) is a
        pure function of the seeded simulation.
        """
        out = []
        for record in self.spans[since:]:
            args = tuple(sorted(record.args.items()))
            out.append((record.name, record.phase, record.depth,
                        round(record.t0_virtual, 9),
                        round(record.t1_virtual, 9), args))
        return out

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()
        self._stack.clear()


def maybe_span(tracer: Optional[Tracer], name: str, **args: Any):
    """``tracer.span(...)`` when tracing is on; the shared null span if not."""
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return tracer.span(name, **args)
