"""The incremental re-verification benchmark: one leaf edit on a big grid.

Builds a ``layers × width`` project (default 10 × 20 = 200 classes, one
file per class), runs ``verify_incremental`` cold to record the state,
then applies a *body-only edit* to one layer-0 leaf (blank-line padding:
line numbers shift, the spec structure does not) and re-runs warm.

The run FAILS — exit 1 — unless the acceptance bounds hold:

* the warm report is **byte-identical** to a fresh cold run of the
  edited sources;
* the re-checked set is at most ``--max-dirty-fraction`` of the project
  (default 5%; the edit above dirties exactly one class);
* the reuse ratio meets ``--reuse-floor`` (default 0.95);
* the warm run parses only the edited file (every other file's bytes
  are unchanged, so its classes come from the state).

Cold and warm wall clocks go to stdout and to ``--out`` as JSON — the
CI incremental job uploads that file as an artifact, so the warm/cold
ratio is trackable across runs (docs/incremental.md).

Usage::

    python benchmarks/bench_incremental_edit.py --out BENCH_incremental.json \
        [--layers 10] [--width 20] [--jobs 1]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any(Path(p).resolve() == REPO_ROOT / "src" for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import BatchVerifier, verify_incremental  # noqa: E402
from repro.frontend.project import parse_project, read_project  # noqa: E402
from repro.workloads.hierarchy import (  # noqa: E402
    HierarchyShape,
    grid_project_files,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers", type=int, default=10)
    parser.add_argument("--width", type=int, default=20)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="BENCH_incremental.json")
    parser.add_argument("--max-dirty-fraction", type=float, default=0.05)
    parser.add_argument("--reuse-floor", type=float, default=0.95)
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-incremental-"))
    project_root = scratch / "project"
    state_file = scratch / "state.json"
    shape = HierarchyShape(base_operations=4)
    files = grid_project_files(shape, args.layers, args.width, project_root)
    classes = args.layers * args.width
    print(f"grid project: {classes} classes in {len(files)} files")

    started = time.perf_counter()
    cold = verify_incremental(
        read_project(project_root), state_file=state_file, jobs=args.jobs
    )
    cold_seconds = time.perf_counter() - started
    assert cold.plan.cold and cold.batch.ok, "cold grid run must verify"
    print(f"cold run:  {cold_seconds * 1000:8.1f} ms  ({classes} checked)")

    # The leaf edit: pad one layer-0 class with blank lines.  Line
    # numbers shift (class fingerprint changes), the spec does not —
    # the dirty set must be exactly this one class.
    leaf = project_root / "G0_000.py"
    leaf.write_text("\n\n" + leaf.read_text(encoding="utf-8"), encoding="utf-8")

    started = time.perf_counter()
    warm = verify_incremental(
        read_project(project_root), state_file=state_file, jobs=args.jobs
    )
    warm_seconds = time.perf_counter() - started
    dirty = len(warm.plan.dirty)
    ratio = warm.batch.metrics.reuse_ratio
    parsed = warm.plan.project.parsed_files
    print(
        f"warm run:  {warm_seconds * 1000:8.1f} ms  "
        f"({dirty} re-checked, {len(warm.plan.reused)} spliced, "
        f"{ratio:.1%} reuse, {len(parsed)} file(s) parsed)"
    )

    module, violations = parse_project(project_root)
    assert len(module.classes) == classes
    reference = BatchVerifier(module, violations, jobs=args.jobs).run()
    failures: list[str] = []
    if warm.batch.merged().format() != reference.merged().format():
        failures.append("warm incremental report differs from a cold run")
    if parsed != (str(leaf),):
        failures.append(f"expected only {leaf} parsed, got {parsed}")
    if warm.plan.dirty != ("G0_000",):
        failures.append(f"expected dirty == ('G0_000',), got {warm.plan.dirty}")
    if dirty > args.max_dirty_fraction * classes:
        failures.append(
            f"{dirty} re-checked classes exceed "
            f"{args.max_dirty_fraction:.0%} of {classes}"
        )
    if ratio < args.reuse_floor:
        failures.append(f"reuse ratio {ratio:.3f} below floor {args.reuse_floor}")

    payload = {
        "format": 1,
        "python": sys.version.split()[0],
        "classes": classes,
        "layers": args.layers,
        "width": args.width,
        "jobs": args.jobs,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else None,
        "dirty": dirty,
        "reused": len(warm.plan.reused),
        "reuse_ratio": ratio,
        "files_parsed": len(parsed),
        "ok": not failures,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {args.out} (speedup {payload['speedup']:.1f}x)")

    if failures:
        print("incremental benchmark gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("incremental benchmark gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
