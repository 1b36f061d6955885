"""Platform-wide observability: spans, exporters, summaries.

The paper's quantitative claims — snapshot save/restore cost (Table II),
search-time breakdowns (Table III), the Δ rule over observed application
performance — all need the *platform* to be measurable, not just the
application.  This package is that measurement substrate:

* :mod:`repro.telemetry.tracer` — nested spans carrying both wall-clock and
  virtual-clock timestamps, recorded by the hot paths (kernel run windows,
  snapshot save/restore, proxy actions, harness phases, search passes).
  The tracer is the one recorder: it lives outside every world, so no
  snapshot restore rewinds it;
* :mod:`repro.telemetry.export` — JSONL event stream and Chrome
  ``chrome://tracing`` trace-event output;
* :mod:`repro.telemetry.summary` — per-span-kind totals, the run's
  counters and exact percentiles, all read off the spans (the ``--stats``
  manifest's ``telemetry``);
* :mod:`repro.telemetry.progress` — the live stderr progress line.

Design rule: telemetry **never perturbs the experiment**.  Nothing here
consumes experiment randomness or schedules kernel events; an untraced run
produces byte-identical scenario results to a traced one, and the overhead
when disabled is a single attribute check per instrumentation point.
"""

from repro.telemetry.progress import ProgressLine  # noqa: F401
from repro.telemetry.summary import TelemetrySummary, summarize  # noqa: F401
from repro.telemetry.tracer import (NULL_SPAN, SpanRecord,  # noqa: F401
                                    Tracer, maybe_span)
