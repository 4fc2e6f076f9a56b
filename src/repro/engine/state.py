"""Persistent per-project incremental state (``.repro-cache/state.json``).

One verified project leaves behind a *state file*: for every class, the
fingerprints the incremental planner diffs against (the full-syntax
class fingerprint and the spec-structure digest), the names of the
subsystem classes it declares, and — for classes whose check completed —
the serialized verdict, ready to splice into the next run's report
without re-checking anything (:mod:`repro.engine.incremental`).

The file is versioned twice over: by :data:`STATE_VERSION` (this
module's payload shape) *and* by
:data:`repro.engine.fingerprint.FINGERPRINT_VERSION` (the meaning of the
stored digests).  A mismatch on either — like any unreadable, truncated
or structurally malformed file, or an envelope whose SHA-256 seal does
not match its content (:mod:`repro.engine.store`) — makes
:func:`load_state` report an unusable state, and the caller falls back
to a cold run instead of erroring: stale state can only ever cost a
recomputation, never wrong output.

**Crash-safe, multi-process writes** (docs/robustness.md).  The file is
single-writer across processes: :func:`save_state` takes an advisory
file lock (``state.json.lock``, :mod:`repro.engine.locking`), re-reads
the file on disk, **merges** a concurrent writer's verdicts into the
fresh snapshot (a verified entry with identical digests is never
clobbered by our "unverified"), bumps the envelope's ``generation``
counter, and publishes with a fsynced atomic rename.  Every failure —
lock timeout, full disk, failed rename — degrades to "this run's state
was not recorded" (the next run is colder, never wrong) and comes back
as a structured :class:`SaveReport` instead of vanishing in a silent
``except``.

Next to the class table sits a **file table** (version 3): for every
project file, its path relative to the project root, the SHA-256 of its
bytes, its ``@sys`` classes in source order (with the line of each and
the class-level subset findings of :func:`repro.frontend.subset.validate_class`),
and the file's frontend violations.  A file whose bytes are unchanged
parses to exactly what the table records, so the planner reads
everything it needs about such a file from here instead of parsing it.

Classes the supervisor quarantined are stored with ``diagnostics=None``
("digests known, verdict unknown"): the next incremental run re-checks
them without also dirtying their dependents, whose view of the class —
its spec structure — was computed from the parse and is still valid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from repro.engine import store
from repro.engine.fingerprint import FINGERPRINT_VERSION
from repro.engine.locking import LockTimeout, lock_for
from repro.frontend.model_ast import SubsetViolation
from repro.obs.tracer import NULL_TRACER, Tracer

#: Bump when the state payload shape changes; old files then fall back
#: to a cold run instead of being misread.  Version 2 added the
#: checksum seal and the generation counter; version 3 the file table.
STATE_VERSION = 3

#: Deadline for the state write lock; a timed-out save is skipped (and
#: reported), never forced — state is an optimization, not an output.
STATE_LOCK_TIMEOUT = 5.0

#: File name inside the cache directory (state is co-located with the
#: content-addressed cache; ``repro cache clear`` removes both).
STATE_FILENAME = "state.json"


def state_path(cache_dir: str | Path) -> Path:
    """Default state-file location for a cache directory."""
    return Path(cache_dir) / STATE_FILENAME


@dataclass(frozen=True)
class ClassState:
    """What the last run knew about one class."""

    name: str
    #: Digest of the full syntactic content (line numbers included) —
    #: :func:`repro.engine.fingerprint.class_fingerprint`.
    fingerprint: str
    #: Digest of the specification structure only —
    #: :func:`repro.engine.fingerprint.spec_fingerprint`.
    spec: str
    #: Names of every class this one declares as a subsystem type,
    #: sorted; in-module or not (missing dependencies matter too).
    deps: tuple[str, ...]
    #: Serialized verdict (:mod:`repro.engine.serialize` dicts), or
    #: ``None`` when the last run quarantined the class.
    diagnostics: tuple[dict[str, Any], ...] | None
    #: Wave index and wall time of the recorded check (diagnostics
    #: context for ``repro state show``; not used for planning).
    wave: int = 0
    seconds: float = 0.0

    @property
    def verified(self) -> bool:
        return self.diagnostics is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "spec": self.spec,
            "deps": list(self.deps),
            "diagnostics": (
                None if self.diagnostics is None else list(self.diagnostics)
            ),
            "wave": self.wave,
            "seconds": self.seconds,
        }


def _violation_to_dict(violation: SubsetViolation) -> dict[str, Any]:
    return {
        "code": violation.code,
        "message": violation.message,
        "lineno": violation.lineno,
        "class_name": violation.class_name,
        "severity": violation.severity,
    }


def _violation_from_dict(data: Any) -> SubsetViolation | None:
    """One stored violation, or ``None`` when it is malformed."""
    if not isinstance(data, dict):
        return None
    strings = [data.get(key) for key in ("code", "message", "class_name", "severity")]
    lineno = data.get("lineno")
    if not all(isinstance(value, str) for value in strings) or type(lineno) is not int:
        return None
    code, message, class_name, severity = strings
    return SubsetViolation(
        code=code,
        message=message,
        lineno=lineno,
        class_name=class_name,
        severity=severity,
    )


@dataclass(frozen=True)
class FileClass:
    """One ``@sys`` class as its file defines it."""

    name: str
    lineno: int
    #: :func:`repro.frontend.subset.validate_class` findings.
    violations: tuple[SubsetViolation, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {"name": self.name, "lineno": self.lineno}
        if self.violations:
            entry["violations"] = [_violation_to_dict(v) for v in self.violations]
        return entry


@dataclass(frozen=True)
class FileState:
    """What the last run parsed out of one project file."""

    #: POSIX path relative to the project root.
    path: str
    #: SHA-256 of the file's bytes.
    digest: str
    #: The file's ``@sys`` classes in source order (duplicates included).
    classes: tuple[FileClass, ...]
    #: Frontend violations of the file (a syntax error, subset findings).
    violations: tuple[SubsetViolation, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "path": self.path,
            "digest": self.digest,
            "classes": [defined.to_dict() for defined in self.classes],
        }
        if self.violations:
            entry["violations"] = [_violation_to_dict(v) for v in self.violations]
        return entry


@dataclass(frozen=True)
class ProjectState:
    """The complete recorded outcome of one project run."""

    classes: Mapping[str, ClassState] = field(default_factory=dict)
    source_name: str = ""
    #: Monotonic write counter: every successful :func:`save_state`
    #: stores the on-disk generation + 1, so concurrent writers are
    #: observable and "did someone write since I loaded?" is a compare.
    generation: int = 0
    #: The file table, in project path order (empty for a run on an
    #: in-memory module).
    files: tuple[FileState, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "state_version": STATE_VERSION,
            "fingerprint_version": FINGERPRINT_VERSION,
            "generation": self.generation,
            "source_name": self.source_name,
            "classes": {
                name: entry.to_dict()
                for name, entry in sorted(self.classes.items())
            },
            "files": [entry.to_dict() for entry in self.files],
        }


# ----------------------------------------------------------------------
# Load / save / remove
# ----------------------------------------------------------------------

def _class_state_from_dict(name: str, data: Any) -> ClassState | None:
    """One class entry, or ``None`` when it is structurally malformed.

    Only the *shape* is validated here; whether the stored diagnostics
    deserialize is the planner's concern (it drops unusable verdicts by
    marking the class dirty, so a half-corrupt file still salvages every
    healthy entry).
    """
    if not isinstance(data, dict):
        return None
    fingerprint = data.get("fingerprint")
    spec = data.get("spec")
    deps = data.get("deps")
    diagnostics = data.get("diagnostics")
    if not isinstance(fingerprint, str) or not isinstance(spec, str):
        return None
    if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
        return None
    if diagnostics is not None:
        if not isinstance(diagnostics, list) or not all(
            isinstance(entry, dict) for entry in diagnostics
        ):
            return None
    wave = data.get("wave", 0)
    seconds = data.get("seconds", 0.0)
    if not isinstance(wave, int) or not isinstance(seconds, (int, float)):
        return None
    return ClassState(
        name=name,
        fingerprint=fingerprint,
        spec=spec,
        deps=tuple(deps),
        diagnostics=None if diagnostics is None else tuple(diagnostics),
        wave=wave,
        seconds=float(seconds),
    )


def _violations_from_list(data: Any) -> tuple[SubsetViolation, ...] | None:
    if data is None:  # omitted when empty
        return ()
    if not isinstance(data, list):
        return None
    violations = tuple(_violation_from_dict(entry) for entry in data)
    return None if None in violations else violations


def _file_state_from_dict(data: Any) -> FileState | None:
    """One file-table entry, or ``None`` when it is malformed."""
    if not isinstance(data, dict):
        return None
    path = data.get("path")
    digest = data.get("digest")
    raw_classes = data.get("classes")
    violations = _violations_from_list(data.get("violations"))
    if (
        not isinstance(path, str)
        or not isinstance(digest, str)
        or not isinstance(raw_classes, list)
        or violations is None
    ):
        return None
    classes: list[FileClass] = []
    for entry in raw_classes:
        if not isinstance(entry, dict):
            return None
        name = entry.get("name")
        lineno = entry.get("lineno")
        class_violations = _violations_from_list(entry.get("violations"))
        if (
            not isinstance(name, str)
            or type(lineno) is not int
            or class_violations is None
        ):
            return None
        classes.append(FileClass(name, lineno, class_violations))
    return FileState(path, digest, tuple(classes), violations)


def load_state(path: str | Path) -> tuple[ProjectState | None, str | None]:
    """Read a state file; ``(state, None)`` or ``(None, why-not)``.

    Every failure mode — missing file, unreadable file, invalid JSON,
    version mismatch, malformed structure — comes back as a reason
    string so callers can report *why* the run went cold.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, "no state file (first run?)"
    except OSError as error:
        return None, f"unreadable state file: {error}"
    try:
        envelope = json.loads(text)
    except ValueError:
        return None, "corrupt state file (invalid JSON)"
    if not isinstance(envelope, dict):
        return None, "corrupt state file (not an object)"
    if envelope.get("state_version") != STATE_VERSION:
        return None, (
            f"state version {envelope.get('state_version')!r} "
            f"(this build expects {STATE_VERSION})"
        )
    if envelope.get("fingerprint_version") != FINGERPRINT_VERSION:
        return None, (
            f"stale fingerprint version {envelope.get('fingerprint_version')!r} "
            f"(this build expects {FINGERPRINT_VERSION})"
        )
    if not store.seal_intact(envelope):
        # Valid JSON, right versions, wrong bytes: the torn-but-valid
        # write only the checksum catches.
        return None, "corrupt state file (checksum mismatch)"
    raw_classes = envelope.get("classes")
    if not isinstance(raw_classes, dict):
        return None, "corrupt state file (no class table)"
    classes: dict[str, ClassState] = {}
    for name, data in raw_classes.items():
        entry = _class_state_from_dict(name, data)
        if entry is None:
            # One malformed entry does not spoil the rest: the class
            # simply looks "never seen before" and gets re-checked.
            continue
        classes[name] = entry
    raw_files = envelope.get("files")
    if not isinstance(raw_files, list):
        return None, "corrupt state file (no file table)"
    files = tuple(map(_file_state_from_dict, raw_files))
    if None in files or len({entry.path for entry in files}) != len(files):
        # Which file defined a class is read off the whole table, so a
        # damaged table is dropped as a whole: every file then parses
        # again, and class verdicts are still reused by fingerprint.
        files = ()
    source_name = envelope.get("source_name")
    generation = envelope.get("generation")
    return (
        ProjectState(
            classes=classes,
            source_name=source_name if isinstance(source_name, str) else "",
            generation=generation if isinstance(generation, int) else 0,
            files=files,
        ),
        None,
    )


@dataclass(frozen=True)
class SaveReport:
    """What one :func:`save_state` call actually did.

    ``ok=False`` means the snapshot was *not* published — the next run
    degrades toward cold, nothing worse — and ``reason`` says why.
    """

    ok: bool
    reason: str | None = None
    #: Generation written (or the last one observed when the save failed).
    generation: int = 0
    #: Verdicts preserved from a concurrent writer's on-disk state.
    merged_classes: int = 0
    #: Wall time spent waiting for the state lock.
    waited: float = 0.0
    lock_timeout: bool = False


def merge_states(
    disk: ProjectState, fresh: ProjectState
) -> tuple[ProjectState, int]:
    """Overlay ``fresh`` onto ``disk``; returns (merged, kept-from-disk).

    The fresh snapshot is authoritative for the class *set* (it reflects
    the current parse) and for every class it verified.  The one thing a
    concurrent writer can contribute is a **verdict we lack**: where our
    entry is unverified (quarantined this run) and the on-disk entry has
    identical fingerprints *and* a stored verdict, theirs is kept —
    verdicts are pure functions of those digests, so this can never
    merge in wrong output, only rescue work another process finished.
    """
    kept = 0
    classes: dict[str, ClassState] = {}
    for name, ours in fresh.classes.items():
        theirs = disk.classes.get(name)
        if (
            ours.diagnostics is None
            and theirs is not None
            and theirs.diagnostics is not None
            and theirs.fingerprint == ours.fingerprint
            and theirs.spec == ours.spec
        ):
            classes[name] = theirs
            kept += 1
        else:
            classes[name] = ours
    return (
        ProjectState(
            classes=classes,
            source_name=fresh.source_name,
            generation=fresh.generation,
            files=fresh.files,
        ),
        kept,
    )


def save_state(
    path: str | Path,
    state: ProjectState,
    *,
    lock_timeout: float = STATE_LOCK_TIMEOUT,
    tracer: Tracer | None = None,
) -> SaveReport:
    """Persist ``state`` crash-safely with single-writer semantics.

    Under the ``<path>.lock`` advisory lock: re-read the file on disk,
    merge a concurrent writer's compatible verdicts into the snapshot
    (:func:`merge_states`), bump the generation counter, seal, and
    publish with a fsynced atomic rename.  Every failure mode is
    reported (and traced), never swallowed: a lock timeout skips the
    save entirely (writing without the lock could drop a concurrent
    writer's generation), a failed write leaves the previous state
    intact.
    """
    path = Path(path)
    tracer = tracer if tracer is not None else NULL_TRACER
    path.parent.mkdir(parents=True, exist_ok=True)
    lock = lock_for(path, name="state", timeout=lock_timeout)
    try:
        lock.acquire()
    except LockTimeout as timeout:
        tracer.event("lock-timeout", lock="state")
        tracer.event("state-save-failed", reason="lock timeout")
        return SaveReport(
            ok=False,
            reason=f"state lock timeout: {timeout}",
            waited=timeout.waited,
            lock_timeout=True,
        )
    try:
        if lock.waited > 0.001:
            tracer.event(
                "lock-wait", lock="state", seconds=round(lock.waited, 6)
            )
        disk, _reason = load_state(path)
        merged_classes = 0
        generation = 1
        merged = state
        if disk is not None:
            generation = disk.generation + 1
            if disk.source_name == state.source_name:
                merged, merged_classes = merge_states(disk, state)
                if merged_classes:
                    tracer.event(
                        "state-merge", kept=merged_classes,
                        generation=generation,
                    )
        merged = replace(merged, generation=generation)
        text = json.dumps(store.seal(merged.to_dict()), indent=2, sort_keys=True)
        try:
            store.atomic_write_text(path, text, fault_key="state", fsync=True)
        except OSError as error:
            tracer.event("state-save-failed", reason=str(error))
            return SaveReport(
                ok=False,
                reason=f"state write failed: {error}",
                generation=generation,
                merged_classes=merged_classes,
                waited=lock.waited,
            )
        return SaveReport(
            ok=True,
            generation=generation,
            merged_classes=merged_classes,
            waited=lock.waited,
        )
    finally:
        lock.release()


def remove_state(path: str | Path) -> bool:
    """Delete a state file; ``True`` when one existed and was removed."""
    try:
        Path(path).unlink()
        return True
    except FileNotFoundError:
        return False
    except OSError:
        return False
