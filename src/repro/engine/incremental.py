"""Incremental re-verification against persistent project state.

The dominant real workload for a verification service is not the first
run of a project but the *re-run after a small edit*.  The pipeline is
compositional by construction — a class verdict is a pure function of
its own syntax plus the specification structure of the subsystem
classes it names, which is exactly what
:func:`repro.engine.fingerprint.class_key` hashes — so re-checking a
project after an edit should cost O(changed classes + affected
dependents), not O(project).

This module implements that contract on top of the batch engine:

1. :func:`plan_incremental` compares the project's file digests with
   the last run's recorded state (:mod:`repro.engine.state`), parses
   only the files whose bytes changed, takes everything else — class
   fingerprints, spec digests, named subsystems, module-level findings —
   from the state's file and class tables, and computes the **dirty
   set**;
2. :func:`verify_incremental` parses the few further files the engine
   needs (those holding a dirty class or a subsystem one names),
   schedules only the dirty classes through the existing wave executor
   (``BatchVerifier(only=...)``, with the whole project's waves pruned
   in place so indices stay stable) and splices the clean classes'
   stored verdicts back so the merged report is byte-identical to a
   cold run;
3. the run's outcome is snapshotted into a fresh state file for the
   next edit.

An in-memory :class:`ParsedModule` goes through the same planner as a
single file that is already parsed (so every class is fingerprinted).

**The dirtiness rule.**  A class is re-checked iff

* its own full-syntax fingerprint changed (edited, added, renamed,
  rewired — any change to its source, line numbers included), or
* the *spec-structure digest* of any class it names as a subsystem
  changed — including a named class appearing or disappearing, or
* its definition moved into a file whose bytes did not change (an
  earlier duplicate was removed), whose digests the state therefore
  does not hold.

This is deliberately tighter than "any dependent edit": a body-only
edit of a leaf class changes its full fingerprint but not its spec
digest, so no dependent is re-checked and the dirty set is exactly
``{leaf}``.  Propagation runs over the *reverse* dependency edges as a
worklist; a dependent dirtied this way has an unchanged spec digest of
its own (its source did not change), so it propagates no further —
the worklist drains after one layer and terminates on arbitrary graphs,
dependency cycles included.

**Soundness.**  Reusing a stored verdict is sound because "own
fingerprint unchanged and every named subsystem's spec state unchanged"
implies the class's :func:`~repro.engine.fingerprint.class_key` is
unchanged, and the verdict is a pure function of that key (the
engine-parity property pinned by the PR-1 test suite).  Reading a
file's classes from the state instead of parsing it adds one step:
identical bytes parse to identical classes, so their fingerprints, spec
digests and module-level findings are the recorded ones.  See
docs/incremental.md for the full argument.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from repro.core.diagnostics import CheckResult, Diagnostic, from_subset_violation
from repro.engine.cache import InferenceCache
from repro.engine.engine import BatchResult, BatchVerifier, VerificationPlan
from repro.engine.fingerprint import class_fingerprint, spec_fingerprint
from repro.engine.metrics import ClassTiming
from repro.engine.scheduler import prune_waves, topological_waves
from repro.engine.serialize import diagnostics_from_list, diagnostics_to_list
from repro.engine.state import (
    ClassState,
    FileClass,
    FileState,
    ProjectState,
    SaveReport,
    load_state,
    save_state,
)
from repro.frontend.model_ast import (
    FrontendError,
    ParsedClass,
    ParsedModule,
    SubsetViolation,
)
from repro.frontend.parse import parse_file
from repro.frontend.project import ProjectSource, SourceFile, merge_classes
from repro.frontend.subset import validate_class
from repro.obs.tracer import NULL_TRACER, Tracer


def named_subsystems(parsed: ParsedClass) -> tuple[str, ...]:
    """Every class name this class declares as a subsystem type, sorted.

    Unlike :func:`repro.engine.scheduler.subsystem_dependencies` this
    keeps names that are *not* defined in the module: the verdict key
    records missing dependencies too (``(missing X)``), so a class
    appearing under a previously-dangling name must dirty its
    dependents.
    """
    return tuple(sorted({decl.class_name for decl in parsed.subsystems}))


def _stored_verdict(entry: ClassState) -> list[Diagnostic] | None:
    """The stored verdict, deserialized; ``None`` when there is none
    (quarantined last run) or it does not deserialize."""
    if entry.diagnostics is None:
        return None
    try:
        return diagnostics_from_list(list(entry.diagnostics))
    except Exception:  # noqa: BLE001 - any malformed payload means "no"
        return None


# ----------------------------------------------------------------------
# The project as the planner sees it
# ----------------------------------------------------------------------

@dataclass(eq=False)
class _File:
    """One file of the project being planned.

    Either parsed (``classes`` set: a changed file, a file the engine
    needs, or an in-memory module) or known only from its ``recorded``
    file-table entry, whose digest matches the bytes on disk.
    """

    path: str
    source: SourceFile | None = None
    recorded: FileState | None = None
    classes: tuple[ParsedClass, ...] | None = None
    violations: tuple[SubsetViolation, ...] = ()
    #: ``validate_class`` findings, one tuple per parsed class.
    checks: tuple[tuple[SubsetViolation, ...], ...] = ()

    @property
    def parsed(self) -> bool:
        return self.classes is not None

    def set_parse(
        self,
        classes: tuple[ParsedClass, ...],
        violations: list[SubsetViolation] | tuple[SubsetViolation, ...],
    ) -> None:
        self.classes = classes
        self.violations = tuple(violations)
        self.checks = tuple(tuple(validate_class(c)) for c in classes)

    def parse(self, strict: bool) -> None:
        """Parse the file's bytes.  A file that does not parse is a
        ``syntax-error`` finding, or — ``strict``, for a single-file
        target — the :class:`FrontendError` itself."""
        try:
            module, violations = parse_file(self.source.path, self.source.data)
        except FrontendError as error:
            if strict:
                raise
            self.set_parse((), error.violations)
        else:
            self.set_parse(module.classes, violations)

    def entries(self) -> list[tuple[str, int, tuple["_File", int]]]:
        """``(class name, line, (file, position))`` in source order."""
        classes = self.classes if self.parsed else self.recorded.classes
        return [
            (entry.name, entry.lineno, (self, position))
            for position, entry in enumerate(classes)
        ]

    def frontend_violations(self) -> tuple[SubsetViolation, ...]:
        return self.violations if self.parsed else self.recorded.violations

    def class_violations(self, position: int) -> tuple[SubsetViolation, ...]:
        if self.parsed:
            return self.checks[position]
        return self.recorded.classes[position].violations

    def file_state(self) -> FileState | None:
        """The file-table entry to record (none for in-memory modules)."""
        if self.source is None:
            return None
        if self.recorded is not None:
            return self.recorded
        return FileState(
            path=self.source.relative,
            digest=self.source.digest,
            classes=tuple(
                FileClass(parsed.name, parsed.lineno, checks)
                for parsed, checks in zip(self.classes, self.checks)
            ),
            violations=self.violations,
        )


def _open(
    project: ParsedModule | ProjectSource,
    violations: list[SubsetViolation] | None,
) -> tuple[str, list[_File], bool]:
    """(project name, files, directory?) for either kind of input."""
    if isinstance(project, ProjectSource):
        files = [
            _File(path=str(source.path), source=source)
            for source in project.files
        ]
        return project.name, files, project.directory
    memory = _File(path=project.source_name)
    memory.set_parse(project.classes, violations or ())
    return project.source_name, [memory], False


def _merge(
    files: list[_File], directory: bool
) -> tuple[list[tuple[_File, int]], list[SubsetViolation]]:
    """The winning class definitions in report order, and the frontend
    plus ``duplicate-class`` findings in report order.  A directory
    merges its files like :func:`repro.frontend.project.parse_project`;
    a single file (or module) keeps every class it defines."""
    if directory:
        return merge_classes(
            (f.path, f.frontend_violations(), f.entries()) for f in files
        )
    winners: list[tuple[_File, int]] = []
    violations: list[SubsetViolation] = []
    for f in files:
        violations.extend(f.frontend_violations())
        winners.extend(item for _name, _line, item in f.entries())
    return winners, violations


def _class_facts(parsed: ParsedClass) -> ClassState:
    """Digests and named subsystems of a parsed class (no verdict)."""
    return ClassState(
        name=parsed.name,
        fingerprint=class_fingerprint(parsed),
        spec=spec_fingerprint(parsed),
        deps=named_subsystems(parsed),
        diagnostics=None,
    )


def _name_of(winner: tuple[_File, int]) -> str:
    f, position = winner
    return f.classes[position].name if f.parsed else f.recorded.classes[position].name


@dataclass(frozen=True)
class ProjectView:
    """The current project as one incremental run sees it: parsed where
    it had to be, read from the recorded state everywhere else."""

    #: The merged module's ``source_name``.
    name: str
    #: Class names in report (source) order.
    order: tuple[str, ...]
    #: Per class: digests and named subsystems; ``diagnostics`` is the
    #: stored verdict payload for classes read from the state, else
    #: ``None``.
    classes: Mapping[str, ClassState]
    #: Every class this run parsed, in report order — the engine's module.
    module: ParsedModule
    #: Module-level findings in report order: frontend violations,
    #: ``duplicate-class`` findings, then class-level subset checks.
    violations: tuple[SubsetViolation, ...]
    #: The whole project's wave schedule.
    waves: tuple[tuple[str, ...], ...]
    #: The file table to record, in path order.
    files: tuple[FileState, ...]
    #: Paths handed to the parser this run, in path order (an in-memory
    #: module counts as parsed by its caller and is not listed).
    parsed_files: tuple[str, ...]


def _view(
    name: str,
    files: list[_File],
    winners: list[tuple[_File, int]],
    head: list[SubsetViolation],
    facts: Mapping[str, ClassState],
) -> ProjectView:
    """Assemble the view once every class the run needs is parsed."""
    order = tuple(_name_of(winner) for winner in winners)
    violations = list(head)
    for f, position in winners:
        violations.extend(f.class_violations(position))
    known = set(facts)
    waves = topological_waves(
        {
            class_name: frozenset(
                dep for dep in entry.deps if dep in known and dep != class_name
            )
            for class_name, entry in facts.items()
        }
    )
    return ProjectView(
        name=name,
        order=order,
        classes=facts,
        module=ParsedModule(
            classes=tuple(
                f.classes[position] for f, position in winners if f.parsed
            ),
            source_name=name,
        ),
        violations=tuple(violations),
        waves=tuple(waves),
        files=tuple(
            entry for entry in (f.file_state() for f in files) if entry is not None
        ),
        parsed_files=tuple(
            f.path for f in files if f.parsed and f.source is not None
        ),
    )


def _parsed_view(
    name: str, files: list[_File], directory: bool
) -> ProjectView:
    """Parse every file and fingerprint every class (no usable state)."""
    for f in files:
        if not f.parsed:
            f.parse(strict=not directory)
    winners, head = _merge(files, directory)
    facts = {
        parsed.name: _class_facts(parsed)
        for parsed in (f.classes[position] for f, position in winners)
    }
    return _view(name, files, winners, head, facts)


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementalPlan:
    """The diff between the project and the recorded project state."""

    #: No usable state: every class is dirty and ``cold_reason`` says why.
    cold: bool
    cold_reason: str | None
    #: Classes to re-check, sorted (always ⊆ current class names).
    dirty: tuple[str, ...]
    #: Classes whose stored verdict is spliced without re-checking.
    reused: tuple[str, ...]
    #: The raw diff the dirty set was derived from.
    added: tuple[str, ...]
    removed: tuple[str, ...]
    changed: tuple[str, ...]
    #: Classes present in both runs whose spec-structure digest changed.
    spec_changed: tuple[str, ...]
    #: Classes dirty *only* because a named subsystem's spec state
    #: changed (the reverse-edge propagation layer).
    propagated: tuple[str, ...]
    #: Dirty class → human-readable reason (diagnostics and obs events).
    reasons: Mapping[str, str] = field(default_factory=dict)
    #: Propagated class → the spec-event sources that dirtied it.
    propagated_via: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    #: What the run knows about the project (``None`` only for plans
    #: built by hand).
    project: ProjectView | None = None
    #: Reused class → its stored verdict, deserialized once.
    verdicts: Mapping[str, list[Diagnostic]] = field(default_factory=dict)

    @property
    def reuse_ratio(self) -> float:
        total = len(self.dirty) + len(self.reused)
        return len(self.reused) / total if total else 0.0


def _cold_plan(view: ProjectView, reason: str) -> IncrementalPlan:
    names = tuple(sorted(view.classes))
    return IncrementalPlan(
        cold=True,
        cold_reason=reason,
        dirty=names,
        reused=(),
        added=(),
        removed=(),
        changed=(),
        spec_changed=(),
        propagated=(),
        reasons={name: reason for name in names},
        propagated_via={},
        project=view,
    )


def _recorded_owners(state: ProjectState) -> dict[str, str]:
    """Class name → the recorded file whose definition of it won."""
    owners: dict[str, str] = {}
    for entry in state.files:
        for defined in entry.classes:
            owners.setdefault(defined.name, entry.path)
    return owners


def plan_incremental(
    project: ParsedModule | ProjectSource,
    state: ProjectState | None,
    *,
    cold_reason: str | None = None,
    violations: list[SubsetViolation] | None = None,
) -> IncrementalPlan:
    """Diff ``project`` against ``state`` and compute the dirty set.

    ``project`` is a target read by
    :func:`repro.frontend.project.read_project` (only files whose digest
    differs from the recorded one are parsed) or an in-memory module
    with its frontend ``violations`` (fully parsed already).

    With no usable state every class is dirty (a cold run).  Otherwise
    the dirty set is seeded with added classes, classes whose full
    fingerprint changed, classes whose definition moved into an
    unchanged file, and classes whose stored verdict is unusable
    (quarantined last run, or a corrupt entry); it is then propagated
    one layer along reverse dependency edges from every *spec event* —
    a class added, removed, or with a changed spec digest.  The
    worklist never re-enqueues (a propagated class's own spec digest is
    unchanged), so it terminates on cyclic dependency graphs too.

    Finally every unchanged file holding a dirty class, or a subsystem
    a dirty class names, is parsed too: the engine needs those classes.
    """
    name, files, directory = _open(project, violations)
    if state is None:
        return _cold_plan(
            _parsed_view(name, files, directory),
            cold_reason or "no usable project state",
        )
    strict = not directory

    # 1. Parse the files whose bytes the state does not vouch for.
    recorded: dict[str, FileState] = {}
    if state.source_name == name:
        recorded = {entry.path: entry for entry in state.files}
    for f in files:
        if f.parsed:
            continue
        entry = recorded.get(f.source.relative)
        if entry is not None and entry.digest == f.source.digest:
            f.recorded = entry
        else:
            f.parse(strict)

    # 2. Digests per class: computed for parsed files, read from the
    #    state for unchanged ones.  A class whose winning definition now
    #    sits in an unchanged file that did not define it last time has
    #    no recorded digests: parse that file and re-check the class.
    winners, head = _merge(files, directory)
    old = state.classes
    owners = _recorded_owners(state)
    owner_of: dict[str, _File] = {}
    facts: dict[str, ClassState] = {}
    moved: set[str] = set()
    for f, position in winners:
        class_name = _name_of((f, position))
        owner_of[class_name] = f
        if f.parsed:
            continue
        entry = old.get(class_name)
        if entry is not None and owners.get(class_name) == f.recorded.path:
            facts[class_name] = entry
        else:
            moved.add(class_name)
            f.parse(strict)
    for f, position in winners:
        if f.parsed:
            parsed = f.classes[position]
            facts[parsed.name] = _class_facts(parsed)

    added = sorted(n for n in facts if n not in old)
    removed = sorted(n for n in old if n not in facts)
    changed = sorted(
        n for n in facts
        if n in old and facts[n].fingerprint != old[n].fingerprint
    )
    spec_changed = sorted(
        n for n in facts if n in old and facts[n].spec != old[n].spec
    )

    dirty: set[str] = set()
    reasons: dict[str, str] = {}
    for class_name in added:
        dirty.add(class_name)
        reasons[class_name] = "class added"
    for class_name in changed:
        dirty.add(class_name)
        reasons.setdefault(class_name, "class fingerprint changed")
    for class_name in sorted(moved - dirty):
        dirty.add(class_name)
        reasons[class_name] = "definition moved into an unchanged file"
    verdicts: dict[str, list[Diagnostic]] = {}
    for class_name in facts:
        if class_name in dirty:
            continue
        verdict = _stored_verdict(old[class_name])
        if verdict is None:
            dirty.add(class_name)
            reasons[class_name] = "no usable stored verdict"
        else:
            verdicts[class_name] = verdict

    # Reverse-edge propagation from every spec event.  The worklist is
    # seeded once and nothing is ever re-enqueued: a dependent dirtied
    # here has an unchanged spec digest (its own source is unchanged),
    # so its dependents' verdict keys are unaffected.  Termination is
    # therefore immediate — cycles included — and the visited set is
    # belt and braces.
    spec_events = sorted(set(added) | set(removed) | set(spec_changed))
    reverse: dict[str, list[str]] = {}
    for class_name, entry in facts.items():
        for dependency in entry.deps:
            reverse.setdefault(dependency, []).append(class_name)
    propagated: set[str] = set()
    propagated_via: dict[str, list[str]] = {}
    queue = deque(spec_events)
    drained: set[str] = set()
    while queue:
        source = queue.popleft()
        if source in drained:
            continue
        drained.add(source)
        for dependent in sorted(reverse.get(source, ())):
            propagated_via.setdefault(dependent, []).append(source)
            if dependent in dirty:
                continue
            dirty.add(dependent)
            propagated.add(dependent)
            verdicts.pop(dependent, None)
            reasons[dependent] = f"subsystem spec changed: {source}"

    # 3. The engine reads the parsed class of every dirty class and of
    #    every project class a dirty class names.
    for class_name in dirty:
        needed = [class_name, *facts[class_name].deps]
        for needed_name in needed:
            owner = owner_of.get(needed_name)
            if owner is not None and not owner.parsed:
                owner.parse(strict)

    reused = sorted(n for n in facts if n not in dirty)
    return IncrementalPlan(
        cold=False,
        cold_reason=None,
        dirty=tuple(sorted(dirty)),
        reused=tuple(reused),
        added=tuple(added),
        removed=tuple(removed),
        changed=tuple(changed),
        spec_changed=tuple(spec_changed),
        propagated=tuple(sorted(propagated)),
        reasons=reasons,
        propagated_via={
            class_name: tuple(sorted(set(sources)))
            for class_name, sources in sorted(propagated_via.items())
            if class_name in propagated
        },
        project=_view(name, files, winners, head, facts),
        verdicts=verdicts,
    )


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------

def snapshot_state(
    project: ParsedModule | ProjectView,
    outcomes: Mapping[str, CheckResult],
    timings: Mapping[str, ClassTiming] | None = None,
    previous: ProjectState | None = None,
) -> ProjectState:
    """The state to persist after a run whose final verdicts are
    ``outcomes`` (one entry per class, spliced or checked).

    Digests come from the run's :class:`ProjectView` (a bare module is
    fingerprinted).  Quarantined classes (any ``engine-*`` diagnostic)
    are stored with ``diagnostics=None`` — digests known, verdict
    unknown — so the next run re-checks them without dirtying their
    dependents.  Spliced classes keep their stored verdict payload and
    the previous entry's wall time.
    """
    view = (
        project
        if isinstance(project, ProjectView)
        else _parsed_view(*_open(project, None))
    )
    timings = timings or {}
    classes: dict[str, ClassState] = {}
    for name in view.order:
        facts = view.classes[name]
        result = outcomes.get(name)
        timing = timings.get(name)
        wave = timing.wave if timing is not None else 0
        seconds = timing.seconds if timing is not None else 0.0
        if timing is not None and timing.from_state:
            entry = previous.classes.get(name) if previous is not None else None
            seconds = entry.seconds if entry is not None else 0.0
        if timing is not None and timing.from_state and facts.diagnostics is not None:
            diagnostics = facts.diagnostics
        elif result is None or any(
            diagnostic.code.startswith("engine-")
            for diagnostic in result.diagnostics
        ):
            diagnostics = None
        else:
            diagnostics = tuple(diagnostics_to_list(result.diagnostics))
        classes[name] = ClassState(
            name, facts.fingerprint, facts.spec, facts.deps,
            diagnostics, wave, seconds,
        )
    return ProjectState(
        classes=classes, source_name=view.name, files=view.files
    )


# ----------------------------------------------------------------------
# The incremental runner
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementalResult:
    """Everything one incremental run produced."""

    #: The final, spliced batch result — ``merged()`` is byte-identical
    #: to a cold run of the same module.
    batch: BatchResult
    plan: IncrementalPlan
    #: The fresh state snapshot (persisted unless ``write_state=False``).
    state: ProjectState
    state_file: Path
    #: What persisting the snapshot actually did — lock waits, merged
    #: concurrent verdicts, or a reported (never silent) failure; ``None``
    #: when ``write_state=False``.
    save: SaveReport | None = None


def verify_incremental(
    project: ParsedModule | ProjectSource,
    violations: list[SubsetViolation] | None = None,
    *,
    state_file: str | Path,
    write_state: bool = True,
    jobs: int = 1,
    executor: str = "thread",
    cache: InferenceCache | None = None,
    timeout: float | None = None,
    max_states: int | None = None,
    retries: int = 2,
    backoff: float = 0.05,
    fail_fast: bool = False,
    tracer: Tracer | None = None,
) -> IncrementalResult:
    """Re-verify a project incrementally against ``state_file``.

    ``project`` is a target read by
    :func:`repro.frontend.project.read_project` or an in-memory module
    with its frontend ``violations``.  Loads the recorded state (an
    unusable one degrades to a cold run), plans the dirty set — parsing
    only the files it must — runs only the dirty classes through the
    batch engine, splices every clean class's stored verdict back into
    the report, and persists a fresh snapshot.  The merged report is
    byte-identical to a cold run of the same project — the differential
    property pinned by ``tests/engine/test_incremental_differential.py``
    and ``tests/engine/test_incremental_files.py``.

    A single-file target that does not parse raises
    :class:`~repro.frontend.model_ast.FrontendError`, as a cold parse of
    it would.
    """
    state_file = Path(state_file)
    tracer = tracer if tracer is not None else NULL_TRACER

    previous, load_reason = load_state(state_file)
    plan = plan_incremental(
        project, previous, cold_reason=load_reason, violations=violations
    )
    view = plan.project

    with tracer.span(
        "phase",
        "inc-plan",
        dirty=len(plan.dirty),
        reused=len(plan.reused),
        cold=plan.cold,
        files_parsed=len(view.parsed_files),
    ):
        for name in plan.dirty:
            tracer.event(
                "inc-dirty", cls=name, reason=plan.reasons.get(name, "cold")
            )
        for name in plan.propagated:
            for source in plan.propagated_via.get(name, ()):
                tracer.event("inc-propagate", cls=name, via=source)
        for name in plan.reused:
            tracer.event("inc-skip", cls=name)

    # ``view.module`` holds only the parsed classes, so the schedule is
    # the whole project's (from recorded deps), pruned here rather than
    # recomputed from the partial module.
    only = None if plan.cold else frozenset(plan.dirty)
    verifier = BatchVerifier(
        view.module,
        jobs=jobs,
        executor=executor,
        cache=cache,
        timeout=timeout,
        max_states=max_states,
        retries=retries,
        backoff=backoff,
        fail_fast=fail_fast,
        tracer=tracer,
        only=only,
    )
    waves = view.waves if only is None else tuple(prune_waves(list(view.waves), only))
    batch = verifier.execute(VerificationPlan(waves=waves, only=only))

    # Splice: checked verdicts from the engine, clean verdicts from the
    # state, in source order — exactly the cold-run report order.
    wave_of = {
        name: index
        for index, wave in enumerate(view.waves)
        for name in wave
    }
    checked = dict(batch.class_results)
    spliced: list[tuple[str, CheckResult]] = []
    reused_timings: list[ClassTiming] = []
    for name in view.order:
        if name in checked:
            spliced.append((name, checked[name]))
            continue
        spliced.append((name, CheckResult(diagnostics=plan.verdicts[name])))
        reused_timings.append(
            ClassTiming(
                class_name=name,
                seconds=0.0,
                from_cache=False,
                wave=wave_of.get(name, 0),
                from_state=True,
            )
        )

    timings = tuple(
        sorted(
            batch.metrics.timings + tuple(reused_timings),
            key=lambda timing: (timing.wave, timing.class_name),
        )
    )

    snapshot = snapshot_state(
        view,
        dict(spliced),
        timings={timing.class_name: timing for timing in timings},
        previous=previous,
    )
    save: SaveReport | None = None
    if write_state:
        save = save_state(state_file, snapshot, tracer=tracer)

    metrics = replace(
        batch.metrics,
        classes=len(view.order),
        waves=len(view.waves),
        timings=timings,
        incremental=True,
        reused_verdicts=len(reused_timings),
        dirty_classes=len(plan.dirty),
        state_save_failures=(
            1 if save is not None and not save.ok else 0
        ),
        state_merged_entries=save.merged_classes if save is not None else 0,
        state_generation=save.generation if save is not None else 0,
    )
    final = BatchResult(
        module=view.module,
        module_result=CheckResult(
            diagnostics=[from_subset_violation(v) for v in view.violations]
        ),
        class_results=tuple(spliced),
        metrics=metrics,
    )
    return IncrementalResult(
        batch=final, plan=plan, state=snapshot, state_file=state_file,
        save=save,
    )
