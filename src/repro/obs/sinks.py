"""Pluggable sinks for one finished trace.

Three machine-readable forms, all derived from the same exported span
tree so they can never disagree:

* :func:`write_trace_jsonl` — the event log: one JSON object per line,
  spans in deterministic depth-first order (ids assigned at export, so
  the file is byte-stable across job counts modulo the duration
  fields), events attached to their span id;
* :func:`metrics_payload` / :func:`write_metrics_json` — a strict
  superset of ``EngineMetrics.to_dict()`` with an ``obs`` section
  (per-phase totals, event counts, counters, schema version);
* :func:`prometheus_text` — a Prometheus text-format exposition of the
  same numbers, for scraping: the :data:`FAMILIES` declarations rendered
  by :func:`render_prometheus`, the one renderer the daemon's
  ``/metrics`` shares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.engine.metrics import (
    CACHE_KINDS,
    REMOTE_KINDS,
    STORE_KINDS,
    SUPERVISOR_KINDS,
)
from repro.obs.tracer import TRACE_SCHEMA, Tracer


def trace_lines(tracer: Tracer) -> list[dict[str, Any]]:
    """The JSONL records of one trace, in deterministic order.

    The first record is a ``meta`` header; every span gets an id in
    depth-first order (the tree is already deterministically ordered by
    construction); events follow their span immediately.
    """
    lines: list[dict[str, Any]] = [
        {"type": "meta", "schema": TRACE_SCHEMA, "counters": dict(sorted(tracer.counters.items()))}
    ]
    next_id = 0

    def visit(node: dict[str, Any], parent: int | None) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        record: dict[str, Any] = {
            "type": "span",
            "id": span_id,
            "parent": parent,
            "kind": node["kind"],
            "name": node["name"],
            "seconds": node["seconds"],
            "status": node["status"],
        }
        if node.get("attrs"):
            record["attrs"] = node["attrs"]
        lines.append(record)
        for event in node.get("events", ()):
            lines.append({"type": "event", "span": span_id, **event})
        for child in node.get("children", ()):
            visit(child, span_id)

    visit(tracer.export(), None)
    return lines


def write_trace_jsonl(tracer: Tracer, path: str | Path) -> int:
    """Write the JSONL event log; returns the number of lines."""
    lines = trace_lines(tracer)
    text = "\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return len(lines)


def metrics_payload(
    engine_metrics: dict[str, Any] | None, tracer: Tracer | None
) -> dict[str, Any]:
    """The metrics-file payload: ``EngineMetrics.to_dict()`` plus obs.

    Every key of the engine summary survives verbatim (the file is a
    strict superset), so consumers of the old ``--stats`` numbers can
    read the new file without changes.
    """
    payload: dict[str, Any] = dict(engine_metrics or {})
    obs: dict[str, Any] = {"schema": TRACE_SCHEMA}
    if tracer is not None and tracer.enabled:
        obs["phases"] = {
            name: {"seconds": entry["seconds"], "calls": int(entry["calls"])}
            for name, entry in sorted(tracer.phase_aggregate().items())
        }
        obs["counters"] = dict(sorted(tracer.counters.items()))
        obs["spans"] = sum(1 for _ in tracer.root.walk()) - 1  # implicit root
    payload["obs"] = obs
    return payload


def write_metrics_json(payload: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One Prometheus metric family, declared once.

    ``section`` is the payload path the family reads (default: its own
    name); the family appears iff that path is present.  Without a
    ``label`` the section's value is the one sample.  With one, ``keys``
    maps each label value to its key in the section (a missing key reads
    0); ``keys=None`` takes every key of the section in sorted order, and
    ``field`` picks the value out of each entry.  A ``nonzero`` family
    also needs one nonzero sample to appear.
    """

    name: str
    type: str
    help: str
    section: tuple[str, ...] | None = None
    label: str = ""
    keys: Mapping[str, str] | None = None
    field: str = ""
    nonzero: bool = False

    def samples(self, payload: Mapping[str, Any]) -> list[tuple[str, Any]]:
        section: Any = payload
        for key in self.section if self.section is not None else (self.name,):
            if not isinstance(section, Mapping) or key not in section:
                return []
            section = section[key]
        if not self.label:
            return [("", section)]
        keys = self.keys if self.keys is not None else _kinds(sorted(section))
        samples = [
            (f'{{{self.label}="{_escape_label(value)}"}}', section.get(key, 0))
            for value, key in keys.items()
        ]
        if self.field:
            samples = [(labels, entry[self.field]) for labels, entry in samples]
        if self.nonzero and not any(value for _labels, value in samples):
            return []
        return samples


def _kinds(kinds: Iterable[str]) -> dict[str, str]:
    """Label values that are their own section keys."""
    return {kind: kind for kind in kinds}


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(
    families: Iterable[Family], payload: Mapping[str, Any], prefix: str
) -> str:
    """Render ``payload`` as Prometheus text format (version 0.0.4).

    Families without samples are left out; the output ends with a
    newline, as scrapers require.
    """
    lines: list[str] = []
    for family in families:
        samples = family.samples(payload)
        if not samples:
            continue
        name = f"{prefix}_{family.name}"
        lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.type}")
        lines.extend(f"{name}{labels} {value}" for labels, value in samples)
    return "\n".join(lines) + "\n"


#: The families of a run's metrics payload, in exposition order: the run
#: shape and counter groups of ``EngineMetrics.to_dict()``, the ``mine``
#: section of a mining run, and the per-phase totals of the obs section.
FAMILIES = (
    Family("classes", "gauge", "Classes in the verified module."),
    Family("waves", "gauge", "Topological waves in the schedule."),
    Family("jobs", "gauge", "Configured worker count."),
    Family("wall_seconds", "gauge", "Wall time of the run in seconds."),
    Family(
        "cache_events_total", "counter", "Cache events by kind.",
        section=("cache",), label="kind", keys=_kinds(CACHE_KINDS),
    ),
    Family(
        "incremental_classes_total", "counter",
        "Incremental run outcome per class, by kind.",
        section=("incremental",), label="kind", keys=_kinds(("reused", "dirty")),
    ),
    Family(
        "incremental_reuse_ratio", "gauge",
        "Fraction of class verdicts spliced from the project state.",
        section=("incremental", "reuse_ratio"),
    ),
    Family(
        "store_events_total", "counter", "Crash-safe store events by kind.",
        section=("store",), label="kind", keys=_kinds(STORE_KINDS),
    ),
    Family(
        "store_lock_wait_seconds_total", "counter",
        "Total time spent waiting on store write locks.",
        section=("store", "lock_wait_seconds"),
    ),
    Family(
        "store_state_generation", "gauge",
        "Generation counter of the persisted project state.",
        section=("store", "state_generation"),
    ),
    Family(
        "cache_remote_events_total", "counter", "Remote cache tier events by kind.",
        section=("remote",), label="kind", keys=_kinds(REMOTE_KINDS), nonzero=True,
    ),
    Family(
        "mine_classes", "gauge", "Classes mined from monitored runs.",
        section=("mine", "classes"),
    ),
    Family(
        "mine_corpus_total", "counter", "Corpus volume of the mining run, by kind.",
        section=("mine",), label="kind",
        keys=_kinds(("corpus_samples", "corpus_events")),
    ),
    Family(
        "mine_states", "gauge", "Automaton sizes across the mining run, by stage.",
        section=("mine",), label="stage",
        keys={"pta": "pta_states", "mined": "mined_states"},
    ),
    Family(
        "mine_merges_total", "counter",
        "Evidence-gated state merges the learner accepted.",
        section=("mine", "merges_accepted"),
    ),
    Family(
        "mine_findings_total", "counter",
        "Mining findings by kind (divergent includes unsound).",
        section=("mine",), label="kind",
        keys=_kinds(("divergent", "unsound", "notes")),
    ),
    Family(
        "mine_wall_seconds", "gauge",
        "Wall time of the collect/learn/diff phases in seconds.",
        section=("mine", "wall_seconds"),
    ),
    Family(
        "supervisor_events_total", "counter", "Supervisor recovery events by kind.",
        section=("supervisor",), label="kind", keys=_kinds(SUPERVISOR_KINDS),
    ),
    Family(
        "phase_seconds_total", "counter", "Wall time per pipeline phase in seconds.",
        section=("obs", "phases"), label="phase", field="seconds",
    ),
    Family(
        "phase_calls_total", "counter",
        "Phase executions (including cached/skipped records).",
        section=("obs", "phases"), label="phase", field="calls",
    ),
)


def prometheus_text(payload: dict[str, Any], prefix: str = "repro") -> str:
    """Render a metrics payload (:func:`metrics_payload`) as Prometheus
    text: the :data:`FAMILIES` whose payload section is present."""
    return render_prometheus(FAMILIES, payload, prefix)


def write_prometheus(payload: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(prometheus_text(payload), encoding="utf-8")
