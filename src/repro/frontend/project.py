"""Multi-file projects: parse and merge every module of a directory.

Real controllers split their classes across files (drivers in one,
controllers in another); cross-file composition must still resolve —
``Sector`` in ``controller.py`` may use ``Valve`` from ``drivers.py``.
This module walks a directory, parses every ``*.py`` file, and merges
the results into one :class:`ParsedModule` whose class namespace spans
the project (duplicate class names across files are reported).

:func:`read_project` is the digest-first half of loading: it reads each
file's bytes once and hashes them, so the incremental planner
(:mod:`repro.engine.incremental`) can decide which files to parse before
it parses any.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

from repro.frontend.model_ast import (
    FrontendError,
    ParsedClass,
    ParsedModule,
    SubsetViolation,
)
from repro.frontend.parse import parse_file

T = TypeVar("T")


def _listed(root: Path) -> list[tuple[Path, tuple[str, ...]]]:
    """Project files with their path parts relative to ``root``."""
    skipped_directories = {"__pycache__", ".git", ".hg", "venv", ".venv", "node_modules"}
    listed = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if not any(
            part.startswith(".") or part in skipped_directories
            for part in parts[:-1]
        ) and not path.name.startswith("."):
            listed.append((path, parts))
    return listed


def project_files(root: str | Path) -> list[Path]:
    """The Python files of a project directory, deterministically ordered.

    Hidden directories and common non-source trees (``__pycache__``,
    ``.git``, ``venv``-likes) are skipped.
    """
    return [path for path, _parts in _listed(Path(root))]


def merge_classes(
    files: Iterable[tuple[str, Sequence[SubsetViolation], Sequence[tuple[str, int, T]]]],
) -> tuple[list[T], list[SubsetViolation]]:
    """Merge per-file class lists into one project namespace.

    ``files`` yields, in path order, each file's name, its frontend
    violations and its ``(class name, line, item)`` triples in source
    order.  The *first* definition of a name wins; every later one adds
    a ``duplicate-class`` violation right after its file's own
    violations.  Returns the winning items and all violations in report
    order.
    """
    winners: list[T] = []
    seen: dict[str, str] = {}
    violations: list[SubsetViolation] = []
    for path, file_violations, classes in files:
        violations.extend(file_violations)
        for name, lineno, item in classes:
            if name in seen:
                violations.append(
                    SubsetViolation(
                        code="duplicate-class",
                        message=(
                            f"@sys class {name} defined in both "
                            f"{seen[name]} and {path}"
                        ),
                        lineno=lineno,
                        class_name=name,
                    )
                )
                continue
            seen[name] = path
            winners.append(item)
    return winners, violations


def parse_project(root: str | Path) -> tuple[ParsedModule, list[SubsetViolation]]:
    """Parse every module under ``root`` and merge the ``@sys`` classes.

    Syntax errors (and undecodable bytes) in individual files become
    ``syntax-error`` violations rather than aborting the whole project;
    duplicate class names produce a ``duplicate-class`` violation and
    the *first* definition (in path order) wins.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")

    def parsed_files():
        for path in project_files(root):
            try:
                module, file_violations = parse_file(path)
            except FrontendError as error:
                yield str(path), error.violations, ()
                continue
            yield str(path), file_violations, [
                (parsed.name, parsed.lineno, parsed) for parsed in module.classes
            ]

    merged_classes, violations = merge_classes(parsed_files())
    return (
        ParsedModule(classes=tuple(merged_classes), source_name=str(root)),
        violations,
    )


# ----------------------------------------------------------------------
# Digest-first loading
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SourceFile:
    """One project file's bytes, read once, and their SHA-256 digest."""

    #: The path as listed (``root / relative``); its string names the
    #: file in diagnostics.
    path: Path
    #: POSIX path relative to the project root (the file name for a
    #: single-file target) — the key of the incremental file table.
    relative: str
    data: bytes
    digest: str


@dataclass(frozen=True)
class ProjectSource:
    """A check target read from disk but not parsed yet."""

    #: The merged module's ``source_name`` (``str`` of the target).
    name: str
    files: tuple[SourceFile, ...]
    #: ``False`` for a single-file target: its classes are taken as
    #: parsed, without the cross-file duplicate rule, and a file that
    #: does not parse is an error rather than a violation.
    directory: bool


def _read_source(path: Path, relative: str) -> SourceFile:
    data = path.read_bytes()
    return SourceFile(
        path=path,
        relative=relative,
        data=data,
        digest=hashlib.sha256(data).hexdigest(),
    )


def read_project(target: str | Path) -> ProjectSource:
    """Read and hash every file of a check target (file or directory).

    A missing target raises :class:`FileNotFoundError`.
    """
    target = Path(target)
    if target.is_dir():
        files = tuple(
            _read_source(path, "/".join(parts)) for path, parts in _listed(target)
        )
        return ProjectSource(name=str(target), files=files, directory=True)
    return ProjectSource(
        name=str(target),
        files=(_read_source(target, target.name),),
        directory=False,
    )


def check_project(root: str | Path):
    """Parse and verify a whole project directory."""
    from repro.core.checker import Checker

    module, violations = parse_project(root)
    return Checker(module, violations).check()
