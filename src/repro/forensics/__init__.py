"""Attack forensics: causal tracing and benign-vs-attack explanations.

A confirmed finding says *that* an action degraded performance; this
package answers *why*.  :mod:`repro.forensics.causality` records a
cross-node happens-before graph of one execution via the emulator's
causal tap; :mod:`repro.forensics.differential` aligns the graphs of the
benign and attacked branches, run from the same injection-point snapshot,
to locate the first divergence and its downstream effects;
:mod:`repro.forensics.explain` packages the result as an
:class:`~repro.forensics.explain.AttackExplanation`, and
:mod:`repro.forensics.report` renders explanations as JSON, markdown,
and Chrome traces.

Explanations are a side channel: the engine's probers compute them after
the search, off the books, and they are never serialized into the
deterministic report JSON — a hunt with forensics enabled produces
byte-identical report output to one without.
"""

from repro.forensics.causality import (CausalEdge, CausalEvent, CausalGraph,
                                       CausalRecorder)
from repro.forensics.differential import (DeliveryDelta, DifferentialResult,
                                          Divergence, PerfPoint, PerfTimeline,
                                          diff_branches, perf_timeline)
from repro.forensics.explain import (AttackExplanation, BranchObservation,
                                     explain_branches, observe)
from repro.forensics.report import (explanation_chrome_trace,
                                    explanations_to_json,
                                    render_explanations_markdown,
                                    write_forensics)

__all__ = [
    "CausalEdge", "CausalEvent", "CausalGraph", "CausalRecorder",
    "DeliveryDelta", "DifferentialResult", "Divergence", "PerfPoint",
    "PerfTimeline", "diff_branches", "perf_timeline",
    "AttackExplanation", "BranchObservation", "explain_branches", "observe",
    "explanation_chrome_trace", "explanations_to_json",
    "render_explanations_markdown", "write_forensics",
]
