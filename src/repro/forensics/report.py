"""Rendering attack explanations: JSON, markdown, and Chrome traces.

The JSON and markdown renderers consume only :class:`AttackExplanation`
fields that serialize deterministically (virtual times, counts, action
records), so two identical hunts write byte-identical forensic output.
The Chrome trace renders both branches' causal chronologies side by
side — benign as pid 1, attack as pid 2, one thread per node, with flow
arrows from each message's send to its deliveries — openable in
``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List

from repro.forensics.causality import DELIVER, EGRESS, HANDLE, SEND
from repro.forensics.explain import AttackExplanation

FORENSICS_VERSION = 1

#: event kinds that belong to the source node's track
_SRC_SIDE = (SEND, EGRESS)


def explanations_to_json(explanations: List[AttackExplanation]) -> dict:
    return {
        "version": FORENSICS_VERSION,
        "explanations": [e.to_dict() for e in explanations],
    }


def render_explanations_markdown(
        explanations: List[AttackExplanation]) -> str:
    lines = ["# Attack forensics", ""]
    if not explanations:
        lines.append("_No findings to explain._")
        return "\n".join(lines) + "\n"
    for i, exp in enumerate(explanations, start=1):
        lines.append(f"## {i}. {exp.scenario}")
        lines.append("")
        lines.append(exp.narrative())
        lines.append("")
        if exp.delivery_deltas:
            lines.append("| node | message type | benign | attack | delta |")
            lines.append("|---|---|---:|---:|---:|")
            for d in exp.delivery_deltas:
                lines.append(f"| {d.node} | {d.message_type} | {d.benign} "
                             f"| {d.attack} | {d.delta:+d} |")
            lines.append("")
        if exp.attack_timeline.overall:
            lines.append("Throughput per bucket (benign vs attack, upd/s):")
            lines.append("")
            benign = exp.benign_timeline.overall
            for j, point in enumerate(exp.attack_timeline.overall):
                base = benign[j].throughput if j < len(benign) else 0.0
                lines.append(f"- t={point.start:.2f}: {base:.2f} -> "
                             f"{point.throughput:.2f}")
            lines.append("")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- Chrome trace

def _tracks(events) -> Dict[str, int]:
    nodes = sorted({e.src for e in events if e.src}
                   | {e.dst for e in events if e.dst})
    return {node: tid for tid, node in enumerate(nodes, start=1)}


def _branch_events(recorder, pid: int, label: str) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": label},
    }]
    tracks = _tracks(recorder.events)
    for node, tid in tracks.items():
        out.append({"name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"name": node}})
    for event in recorder.events:
        node = event.src if event.kind in _SRC_SIDE else event.dst
        tid = tracks.get(node, 0)
        ts = event.time * 1e6
        notes = recorder.proxy_notes.get(event.msg_seq, [])
        out.append({
            "name": f"{event.kind} {event.message_type}",
            "ph": "i", "s": "t", "pid": pid, "tid": tid, "ts": ts,
            "args": {"msg_seq": event.msg_seq,
                     "digest": event.digest,
                     "proxy": ", ".join(notes)},
        })
        # Flow arrows: send starts the arrow, each delivery/handling of
        # the same message terminates one (ids are per-pid via msg_seq).
        if event.kind == SEND:
            out.append({"name": event.message_type, "ph": "s", "pid": pid,
                        "tid": tid, "ts": ts, "id": event.msg_seq,
                        "cat": "message"})
        elif event.kind in (DELIVER, HANDLE):
            out.append({"name": event.message_type, "ph": "f", "bp": "e",
                        "pid": pid, "tid": tid, "ts": ts,
                        "id": event.msg_seq, "cat": "message"})
    return out


def explanation_chrome_trace(explanation: AttackExplanation) -> dict:
    """Both branches' causal chronologies (kept on ``explanation``) as one
    Chrome trace."""
    events = (
        _branch_events(explanation.benign_chronology, 1, "benign baseline")
        + _branch_events(explanation.attack_chronology, 2,
                         f"attack: {explanation.scenario}"))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ------------------------------------------------------------------ writing

def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-").lower() or "finding"


def write_forensics(directory: str,
                    explanations: List[AttackExplanation]) -> List[str]:
    """Write the full forensic bundle; returns the paths written.

    ``explanations.json`` (structured), ``explanations.md`` (narratives),
    and one ``trace_NNN_<scenario>.json`` Chrome trace per explanation
    (which must have kept its chronologies).
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []

    path = os.path.join(directory, "explanations.json")
    with open(path, "w") as fh:
        json.dump(explanations_to_json(explanations), fh, indent=2,
                  sort_keys=True)
    written.append(path)

    path = os.path.join(directory, "explanations.md")
    with open(path, "w") as fh:
        fh.write(render_explanations_markdown(explanations))
    written.append(path)

    for i, exp in enumerate(explanations, start=1):
        path = os.path.join(directory,
                            f"trace_{i:03d}_{_slug(exp.scenario)}.json")
        with open(path, "w") as fh:
            json.dump(explanation_chrome_trace(exp), fh)
        written.append(path)
    return written
