"""Span wrappers around each layer's public functions, recorded from
outside the program, and the per-layer metrics derived from them.

The wrappers are installed in-process for the traced run only.  Each
call records a span (name, start, end, parent, op id, thread); spans
are kept in memory and summarised per op.  A span started on a worker
thread with nothing open on that thread is parented to the innermost
span open on the main thread (the engine's ``execute``), so pool work
hangs under the op that caused it.  The traced run writes every span
to a JSONL file at its end.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    op: int = 0
    thread: int = 0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """``id(span) → duration minus the part of it covered by children``
    (children on several threads may overlap; their union counts once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            parent = span.parent
            children[id(parent)].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        id(span): span.duration - _covered(children[id(span)]) for span in spans
    }


# name → (module, attribute path, observer of (args, result) → info)
Observer = Callable[[tuple, Any], dict]


def _states(_args, result) -> dict:
    states = result.n if hasattr(result, "n") else len(result.states)
    return {"states": states, "obj": result}


TARGETS: dict[str, tuple[str, str, Observer | None]] = {
    "frontend.parse_project": (
        "repro.frontend.project", "parse_project",
        lambda _a, r: {"classes": len(r[0].classes)},
    ),
    "frontend.parse_file": ("repro.frontend.parse", "parse_file", None),
    "engine.fingerprint.class_key": ("repro.engine.fingerprint", "class_key", None),
    "engine.cache.open": ("repro.engine.cache", "InferenceCache.__init__", None),
    "engine.cache.get": (
        "repro.engine.cache", "InferenceCache.get",
        lambda _a, r: {"hit": r is not None},
    ),
    "engine.cache.put": ("repro.engine.cache", "InferenceCache.put", None),
    "engine.cache.flush": ("repro.engine.cache", "InferenceCache.flush", None),
    "engine.store.gc_tmp_files": ("repro.engine.store", "gc_tmp_files", None),
    "engine.store.atomic_write_text": ("repro.engine.store", "atomic_write_text", None),
    "engine.state.load_state": ("repro.engine.state", "load_state", None),
    "engine.state.save_state": ("repro.engine.state", "save_state", None),
    "engine.incremental.plan_incremental": (
        "repro.engine.incremental", "plan_incremental",
        lambda _a, r: {"dirty": len(r.dirty), "reused": len(r.reused)},
    ),
    "engine.incremental.snapshot_state": (
        "repro.engine.incremental", "snapshot_state", None,
    ),
    "engine.engine.plan": ("repro.engine.engine", "BatchVerifier.plan", None),
    "engine.engine.execute": (
        "repro.engine.engine", "BatchVerifier.execute",
        lambda _a, r: {
            "jobs": r.metrics.jobs,
            "retries": r.metrics.retries,
            "quarantines": r.metrics.quarantines,
        },
    ),
    "core.checker.check_parsed_class": (
        "repro.core.checker", "check_parsed_class", None,
    ),
    "core.behavior.behavior_nfa": ("repro.core.behavior", "behavior_nfa", _states),
    "automata.kernel.behavior_dfa": (
        "repro.automata.kernel.context", "KernelCheck.behavior_dfa", _states,
    ),
    "automata.kernel.projected_dfa": (
        "repro.automata.kernel.context", "KernelCheck.projected_dfa", None,
    ),
    "automata.kernel.negation_dfa": (
        "repro.automata.kernel.context", "KernelCheck.negation_dfa", None,
    ),
    "core.usage.check_subsystem_usage": (
        "repro.core.usage", "check_subsystem_usage", None,
    ),
    "core.claims.check_claims": ("repro.core.claims", "check_claims", None),
    "core.vacuity.check_claim_vacuity": (
        "repro.core.vacuity", "check_claim_vacuity", None,
    ),
    "ltlf.formula_to_dfa": ("repro.ltlf.translate", "formula_to_dfa", None),
    "ltlf.negation_to_dfa": ("repro.ltlf.translate", "negation_to_dfa", None),
    "core.diagnostics.format": (
        "repro.core.diagnostics", "CheckResult.format", None,
    ),
}


class Recorder:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, observe: Observer | None) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            elif recorder._main_stack:
                parent = recorder._main_stack[-1]
            else:
                parent = None
            span = Span(
                name,
                time.perf_counter(),
                parent=parent,
                op=recorder.op,
                thread=threading.get_ident(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(span)
            if observe is not None:
                span.info = observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target under every name it is looked up by: the
        defining module or class, and every loaded ``repro`` module that
        imported the function by name."""
        importlib.import_module("repro.cli")
        for module_name, _path, _observe in TARGETS.values():
            importlib.import_module(module_name)
        for name, (module_name, path, observe) in TARGETS.items():
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(name, original, observe))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, observe)
            for loaded in list(sys.modules.values()):
                if (
                    getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, path, None) is original
                ):
                    self._set(loaded, path, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        """The recorded spans, emptying the recorder."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def write_jsonl(spans: list[Span], path) -> None:
    """One JSON line per span; ``parent`` is the parent's line number."""
    index = {id(span): number for number, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps({
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": None if span.parent is None else index.get(id(span.parent)),
                "op": span.op,
                "thread": span.thread,
            }) + "\n")


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name."""
    found = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            found.append(span)
    return found


def op_layers(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one op from its spans and its wall time.

    ``*_s`` names ending in a phase (``open_s``, ``load_s`` …) are the
    inclusive time of that call; ``busy_s`` is self time, the span minus
    what its instrumented children cover.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def count(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    def busy(*names: str) -> float:
        return sum(own[id(s)] for n in names for s in by_name[n])

    def incl(name: str) -> float:
        return sum(s.duration for s in _outermost(spans, name))

    def info_sum(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in by_name[name])

    def distinct_states(name: str) -> int:
        seen: dict[int, int] = {}
        for span in by_name[name]:
            if "obj" in span.info:
                seen[id(span.info["obj"])] = span.info["states"]
        return sum(seen.values())

    gets = count("engine.cache.get")
    dirty = info_sum("engine.incremental.plan_incremental", "dirty")
    reused = info_sum("engine.incremental.plan_incremental", "reused")
    execute_s = incl("engine.engine.execute")
    jobs = max(1, int(info_sum("engine.engine.execute", "jobs")))
    top = [s for s in spans if s.parent is None and s.thread == threading.main_thread().ident]
    return {
        "frontend.busy_s": busy("frontend.parse_project", "frontend.parse_file"),
        "frontend.files_parsed": count("frontend.parse_file"),
        "frontend.classes": info_sum("frontend.parse_project", "classes"),
        "engine.fingerprint.calls": count("engine.fingerprint.class_key"),
        "engine.fingerprint.busy_s": busy("engine.fingerprint.class_key"),
        "engine.cache.open_s": incl("engine.cache.open"),
        "engine.cache.get_calls": gets,
        "engine.cache.get_busy_s": incl("engine.cache.get"),
        "engine.cache.hit_ratio": (
            info_sum("engine.cache.get", "hit") / gets if gets else 0.0
        ),
        "engine.store.gc_s": incl("engine.store.gc_tmp_files"),
        "engine.cache.put_calls": count("engine.cache.put"),
        "engine.cache.put_busy_s": incl("engine.cache.put"),
        "engine.store.writes": count("engine.store.atomic_write_text"),
        "engine.state.load_s": incl("engine.state.load_state"),
        "engine.state.save_s": incl("engine.state.save_state"),
        "engine.incremental.plan_s": incl("engine.incremental.plan_incremental"),
        "engine.incremental.snapshot_s": incl("engine.incremental.snapshot_state"),
        "engine.incremental.recheck_ratio": (
            dirty / (dirty + reused) if dirty + reused else 0.0
        ),
        "engine.engine.plan_s": incl("engine.engine.plan"),
        "engine.engine.execute_s": execute_s,
        "engine.engine.pool_busy_frac": (
            sum(s.duration for s in by_name["core.checker.check_parsed_class"])
            / (execute_s * jobs)
            if execute_s
            else 0.0
        ),
        "engine.engine.retries": info_sum("engine.engine.execute", "retries"),
        "engine.engine.quarantined": info_sum("engine.engine.execute", "quarantines"),
        "core.checker.calls": count("core.checker.check_parsed_class"),
        "core.checker.busy_s": busy("core.checker.check_parsed_class"),
        "core.behavior.busy_s": busy("core.behavior.behavior_nfa"),
        "core.behavior.nfa_states": distinct_states("core.behavior.behavior_nfa"),
        "automata.kernel.determinize_s": incl("automata.kernel.behavior_dfa"),
        "automata.kernel.dfa_states": distinct_states("automata.kernel.behavior_dfa"),
        "automata.kernel.projection_s": incl("automata.kernel.projected_dfa"),
        "core.usage.busy_s": busy("core.usage.check_subsystem_usage"),
        "core.claims.busy_s": busy("core.claims.check_claims"),
        "core.vacuity.busy_s": busy("core.vacuity.check_claim_vacuity"),
        "ltlf.translations": count("ltlf.formula_to_dfa", "ltlf.negation_to_dfa"),
        "ltlf.busy_s": busy("ltlf.formula_to_dfa", "ltlf.negation_to_dfa"),
        "core.diagnostics.render_s": incl("core.diagnostics.format"),
        "unattributed_s": wall - sum(s.duration for s in top),
    }
