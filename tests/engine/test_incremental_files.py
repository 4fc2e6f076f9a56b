"""On-disk differential suite: ``--incremental`` parses only what changed.

``test_incremental_differential.py`` pins the incremental equation on
in-memory modules.  This suite pins it where the content-hash frontend
works: real project directories on disk, edited file by file.  Every
round it asserts two things:

* the incremental report is byte-identical to a cold ``repro check`` of
  the same directory;
* the files handed to ``parse_file`` are exactly the files whose bytes
  changed (or are new) plus the files holding a dirty class or a
  subsystem a dirty class names — with the dirty set predicted
  independently from the project model, not read off the planner.

Edits are file-level: a body edit, a return-list (spec) change, adding,
deleting or renaming a file, moving a class between files, defining a
duplicate class in an earlier file, a syntax error, undecodable bytes,
repairing a broken file, and a touch that rewrites identical bytes.
"""

import contextlib
import io
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro.engine.incremental as incremental_module
from repro.cli import main
from repro.engine import faults
from repro.engine.cache import InferenceCache
from repro.engine.incremental import verify_incremental
from repro.frontend.project import read_project
from tests.engine.test_incremental_differential import (
    BaseModel,
    CompModel,
    named_deps,
    render,
    spec_shape,
)

# ----------------------------------------------------------------------
# The project model: file name → classes in source order
# ----------------------------------------------------------------------


@dataclass
class FileModel:
    classes: list = field(default_factory=list)  # [(name, model), ...]
    #: ``None``, ``"syntax"`` (does not parse) or ``"bytes"`` (not UTF-8).
    broken: str | None = None


def file_bytes(model: FileModel) -> bytes:
    text = "".join(render(name, cls) for name, cls in model.classes)
    if model.broken == "syntax":
        return (text + "def broken(:\n").encode("utf-8")
    if model.broken == "bytes":
        return text.encode("utf-8") + b'x = "\xff"\n'
    return text.encode("utf-8")


def definitions(files):
    """Winning definitions: class name → (file, line offset, model).

    The first file in path order wins; files that do not parse define
    nothing."""
    winners = {}
    for path in sorted(files):
        model = files[path]
        if model.broken:
            continue
        offset = 0
        for name, cls in model.classes:
            winners.setdefault(name, (path, offset, cls))
            offset += render(name, cls).count("\n")
    return winners


def predict(old_files, new_files, first_run):
    """The files a run must parse, from the model diff alone."""
    new_bytes = {path: file_bytes(m) for path, m in new_files.items()}
    old_bytes = {path: file_bytes(m) for path, m in old_files.items()}
    changed = {
        path for path in new_files
        if first_run or old_bytes.get(path) != new_bytes[path]
    }
    new = definitions(new_files)
    old = {} if first_run else definitions(old_files)
    added = {name for name in new if name not in old}
    removed = {name for name in old if name not in new}
    dirty = set(added)
    spec_events = added | removed
    for name, (path, offset, cls) in new.items():
        if name not in old:
            continue
        old_path, old_offset, old_cls = old[name]
        if (offset, cls) != (old_offset, old_cls):
            dirty.add(name)  # fingerprint changed
        elif path not in changed and path != old_path:
            dirty.add(name)  # moved into an unchanged file
        if spec_shape(cls) != spec_shape(old_cls):
            spec_events.add(name)
    for name, (_path, _offset, cls) in new.items():
        if any(dep in spec_events for dep in named_deps(cls)):
            dirty.add(name)
    needed = set(dirty)
    for name in dirty:
        needed.update(dep for dep in named_deps(new[name][2]) if dep in new)
    return changed | {new[name][0] for name in needed}


# ----------------------------------------------------------------------
# Edits
# ----------------------------------------------------------------------

EDIT_KINDS = (
    "body", "returns", "add-file", "delete-file", "rename-file",
    "move-class", "duplicate", "syntax", "bytes", "repair", "touch",
)


def random_class(draw, names):
    if draw(st.booleans()):
        return BaseModel(steps=draw(st.integers(2, 4)))
    dep = draw(st.sampled_from(sorted(names) + ["Ghost"]))
    return CompModel(dep=dep, dep_steps=draw(st.integers(1, 3)))


def apply_edit(draw, files, fresh):
    """Mutate ``files`` with one drawn edit; returns the touched paths
    (rewritten with identical bytes)."""
    kind = draw(st.sampled_from(EDIT_KINDS))
    paths = sorted(files)
    populated = [p for p in paths if files[p].classes]
    names = {name for m in files.values() for name, _ in m.classes}
    if kind in ("body", "returns") and populated:
        path = draw(st.sampled_from(populated))
        index = draw(st.integers(0, len(files[path].classes) - 1))
        name, cls = files[path].classes[index]
        if kind == "body":
            if isinstance(cls, CompModel) and draw(st.booleans()):
                cls = replace(cls, dep_steps=cls.dep_steps + 1)
            else:
                cls = replace(cls, pad=cls.pad + 1)
        elif isinstance(cls, BaseModel):
            cls = replace(cls, back_edge=not cls.back_edge)
        else:
            cls = replace(cls, ops=1 if cls.ops > 1 else 2)
        files[path].classes[index] = (name, cls)
    elif kind == "add-file":
        files[f"m{next(fresh)}.py"] = FileModel(
            [(f"C{next(fresh)}", random_class(draw, names))]
        )
    elif kind == "delete-file" and len(paths) > 1:
        del files[draw(st.sampled_from(paths))]
    elif kind == "rename-file":
        path = draw(st.sampled_from(paths))
        prefix = draw(st.sampled_from(["a", "m", "z"]))
        files[f"{prefix}{next(fresh)}.py"] = files.pop(path)
    elif kind == "move-class" and populated and len(paths) > 1:
        source = draw(st.sampled_from(populated))
        target = draw(st.sampled_from([p for p in paths if p != source]))
        index = draw(st.integers(0, len(files[source].classes) - 1))
        files[target].classes.append(files[source].classes.pop(index))
    elif kind == "duplicate" and names:
        name = draw(st.sampled_from(sorted(names)))
        owner = min(p for p in paths if name in dict(files[p].classes))
        earlier = [p for p in paths if p < owner]
        if earlier and draw(st.booleans()):
            target = draw(st.sampled_from(earlier))
        else:
            target = f"a{next(fresh)}.py"
            files[target] = FileModel()
        files[target].classes.append((name, random_class(draw, names)))
    elif kind in ("syntax", "bytes"):
        files[draw(st.sampled_from(paths))].broken = kind
    elif kind == "repair":
        broken = [p for p in paths if files[p].broken]
        if broken:
            files[draw(st.sampled_from(broken))].broken = None
    elif kind == "touch":
        return {draw(st.sampled_from(paths))}
    return set()


def initial_files(draw):
    files = {"m0.py": FileModel([("Dev0", BaseModel(steps=draw(st.integers(2, 4))))])}
    names = {"Dev0"}
    for index in range(draw(st.integers(1, 3))):
        classes = []
        for _ in range(draw(st.integers(1, 2))):
            name = f"K{index}{len(classes)}"
            classes.append((name, random_class(draw, names)))
            names.add(name)
        files[f"m{index + 1}.py"] = FileModel(classes)
    return files


def sync(root: Path, files, touched):
    """Make the directory hold exactly ``files``; rewrite only changed
    files, plus ``touched`` ones with identical bytes and a new mtime."""
    for path in root.glob("*.py"):
        if path.name not in files:
            path.unlink()
    for name, model in files.items():
        target = root / name
        data = file_bytes(model)
        if not target.exists() or target.read_bytes() != data or name in touched:
            target.write_bytes(data)
            stamp = target.stat().st_mtime_ns + 10_000_000_000
            os.utime(target, ns=(stamp, stamp))


@contextlib.contextmanager
def recorded_parses():
    """Record every path the incremental planner hands to ``parse_file``."""
    parsed = []
    original = incremental_module.parse_file

    def counting(path, data=None):
        parsed.append(Path(path).name)
        return original(path, data)

    incremental_module.parse_file = counting
    try:
        yield parsed
    finally:
        incremental_module.parse_file = original


def cold_report(root: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", str(root)])
    return out.getvalue()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_incremental_on_disk_equals_cold_and_parses_only_what_changed(data):
    faults.install(faults.FaultPlan(()))
    files = initial_files(data.draw)
    fresh = iter(range(100, 10_000))
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "project"
        root.mkdir()
        state_file = Path(scratch) / "state.json"
        cache = InferenceCache(Path(scratch) / "cache")
        previous = {}
        touched = set()
        for round_index in range(data.draw(st.integers(2, 6))):
            sync(root, files, touched)
            with recorded_parses() as parsed:
                outcome = verify_incremental(
                    read_project(root), state_file=state_file, cache=cache
                )
            report = outcome.batch.merged().format() + "\n"
            assert report == cold_report(root)

            expected = predict(previous, files, first_run=round_index == 0)
            assert sorted(parsed) == sorted(expected)
            assert list(outcome.plan.project.parsed_files) == [
                str(root / name) for name in sorted(expected)
            ]

            previous = {
                path: FileModel(list(m.classes), m.broken)
                for path, m in files.items()
            }
            touched = apply_edit(data.draw, files, fresh)


def test_touch_parses_nothing(tmp_path):
    root = tmp_path / "project"
    root.mkdir()
    files = {
        "a.py": FileModel([("Dev", BaseModel(steps=3))]),
        "b.py": FileModel([("Ctl", CompModel(dep="Dev"))]),
    }
    sync(root, files, set())
    state_file = tmp_path / "state.json"
    verify_incremental(read_project(root), state_file=state_file)
    sync(root, files, {"a.py", "b.py"})
    with recorded_parses() as parsed:
        outcome = verify_incremental(read_project(root), state_file=state_file)
    assert parsed == []
    assert outcome.plan.dirty == ()
    assert outcome.batch.merged().format() + "\n" == cold_report(root)


def test_leaf_body_edit_parses_the_leaf_only(tmp_path):
    root = tmp_path / "project"
    root.mkdir()
    files = {
        "a.py": FileModel([("Dev", BaseModel(steps=3))]),
        "b.py": FileModel([("Ctl", CompModel(dep="Dev"))]),
        "c.py": FileModel([("Other", BaseModel(steps=2))]),
    }
    sync(root, files, set())
    state_file = tmp_path / "state.json"
    verify_incremental(read_project(root), state_file=state_file)
    files["b.py"].classes[0] = ("Ctl", CompModel(dep="Dev", dep_steps=3))
    sync(root, files, set())
    with recorded_parses() as parsed:
        outcome = verify_incremental(read_project(root), state_file=state_file)
    # Ctl changed; the engine also needs the spec of Dev, which it names.
    assert sorted(parsed) == ["a.py", "b.py"]
    assert outcome.plan.dirty == ("Ctl",)
    assert outcome.batch.merged().format() + "\n" == cold_report(root)
