"""The two CLI workloads: a closed loop, one client, one ``repro``
process per op, timed from spawn to exit.

``edit_loop``      one seeded edit, then an incremental cached check
``automata_heavy`` eight kernel-heavy modules, ``--jobs 2``, no cache
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    SETUPS,
    WORK,
    Reference,
    RunResult,
    median,
    percentile,
    repro_argv,
    run_op,
    tail_note,
    user_cpu,
)
from inputs import PRIMER, GridProject, heavy_project, write_files
from oracle import Verdict, WrongVerdict, mismatch


@dataclass
class Planned:
    """One op ready to run: ``repro`` arguments and its known answer."""

    args: list[str]
    expected: Verdict
    classes: int


def _checked(op, planned: Planned, what: str):
    """``None`` when ``op`` is correct, its failure class when it failed;
    raises :class:`WrongVerdict` on a wrong report."""
    reason = op.failure(planned.expected.exit_code)
    if reason is None:
        wrong = mismatch(planned.expected, op.stdout)
        if wrong:
            raise WrongVerdict(f"{what}: {wrong}")
    return reason


def _must_pass(planned: Planned, root: Path, what: str) -> None:
    """Run a set-up op; any failure aborts the run."""
    reason = _checked(run_op(repro_argv(*planned.args), root), planned, what)
    if reason:
        raise RuntimeError(f"{what} failed: {reason}")


def prime(root: Path) -> None:
    """Check one clean listing in a fresh process, so the first timed op
    does not pay for compiling bytecode or a cold page cache."""
    primer = root / "primer.py"
    primer.write_text(PRIMER, encoding="utf-8")
    _must_pass(Planned(["check", str(primer)], Verdict(), 0), root, "priming run")


class CliWorkload:
    """Inputs under ``root``; :meth:`plan` yields the next op."""

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.project = root / "project"

    def setup(self) -> None:
        raise NotImplementedError

    def plan(self, edit: bool = True) -> Planned:
        raise NotImplementedError

    @property
    def cache_dir(self) -> Path | None:
        return None


class EditLoop(CliWorkload):
    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.grid = GridProject(seed)

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    def setup(self) -> None:
        write_files(self.project, self.grid.files)
        _must_pass(self.plan(edit=False), self.root, "priming run")

    def plan(self, edit: bool = True) -> Planned:
        if edit:
            _kind, name = self.grid.edit()
            write_files(self.project, {name: self.grid.files[name]})
        args = [
            "check", str(self.project), "--incremental", "--cache",
            "--cache-dir", str(self.cache_dir),
        ]
        return Planned(args, self.grid.expected(), self.grid.classes)


class AutomataHeavy(CliWorkload):
    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.files, self.expected, self.classes = heavy_project(seed)

    def setup(self) -> None:
        write_files(self.project, self.files)
        prime(self.root)

    def plan(self, edit: bool = True) -> Planned:
        return Planned(
            ["check", str(self.project), "--jobs", "2"], self.expected, self.classes
        )


WORKLOADS = {"edit_loop": EditLoop, "automata_heavy": AutomataHeavy}


def timed_run(name: str, seed: int, seconds: float, work: Path) -> RunResult:
    """Set up :data:`SETUPS` times, then run ops for ``seconds``, each
    after one run of the reference work; user CPU times are reported in
    reference-normalised seconds (see :class:`common.Reference`)."""
    cls = WORKLOADS[name]
    reference = Reference()
    setups = []
    for index in range(SETUPS):
        reference.sample()
        started = user_cpu()
        workload = cls(seed, work / f"setup-{index}")
        workload.setup()
        setups.append(user_cpu() - started)
        if index < SETUPS - 1:
            shutil.rmtree(workload.root)

    cpu: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    classes = 0
    failures: list[str] = []
    # Flush set-up's writes now rather than in the middle of the ops.
    os.sync()
    started = time.perf_counter()
    while not cpu or time.perf_counter() - started < seconds:
        reference.sample_for(cpu[-1] if cpu else 0.0)
        planned = workload.plan()
        op = run_op(repro_argv(*planned.args), workload.root)
        reason = _checked(op, planned, f"{name} op {len(cpu) + len(failures)}")
        if reason:
            failures.append(reason)
            if len(failures) > 3 * len(cpu) + 3:
                break
            continue
        cpu.append(op.user_seconds)
        walls.append(op.seconds)
        rss.append(op.peak_rss_mb)
        classes += planned.classes
    if not cpu:
        raise RuntimeError(f"every {name} op failed: {failures[:3]}")
    reference.sample_for(cpu[-1])
    scale = reference.scale
    return RunResult(
        metrics={
            "setup_s": median(setups) * scale,
            "user_cpu_per_op_s": statistics.fmean(cpu) * scale,
            "classes_per_user_cpu_s": classes / (sum(cpu) * scale),
            "peak_rss_mb": max(rss),
        },
        attempted=len(cpu) + len(failures),
        failed=len(failures),
        notes=[
            f"{len(cpu)} ops",
            reference.note(),
            f"unscaled user CPU: setup {median(setups):.4f} s, op mean {statistics.fmean(cpu):.4f} s",
            f"wall (not a metric): op p50 {median(walls):.4f} s, p90 {percentile(walls, 90):.4f} s",
        ]
        + [f"failed op: {r}" for r in failures],
    )


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def run_inprocess(args: list[str]) -> tuple[str, int, float]:
    """``repro.cli.main(args)`` in this process: report, exit, wall."""
    from repro.cli import main

    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = main(args)
        except SystemExit as exit_:
            code = exit_.code if isinstance(exit_.code, int) else 1
    return out.getvalue(), code, time.perf_counter() - started


def _disk_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def traced_run(name: str, seed: int, seconds: float, work: Path, recorder) -> RunResult:
    """Run the workload's ops in-process, alternating traced and untraced
    ops; returns the per-op median of every layer metric."""
    from repro.engine.state import state_path
    from spans import op_layers, write_jsonl

    started = time.perf_counter()
    workload = WORKLOADS[name](seed, work / "traced")
    workload.setup()

    # One subprocess report, byte-for-byte against a traced in-process one.
    planned = workload.plan()
    op = run_op(repro_argv(*planned.args), workload.root)
    if _checked(op, planned, f"{name} subprocess op"):
        raise RuntimeError(f"{name}: subprocess op failed: {op.stderr[-400:]}")
    recorder.install()
    try:
        report, _code, _wall = run_inprocess(workload.plan(edit=False).args)
    finally:
        recorder.uninstall()
        recorder.take()
    if report != op.stdout:
        raise WrongVerdict(f"{name}: in-process report differs from the subprocess report")

    per_op: list[dict[str, float]] = []
    kept = []
    traced_walls: list[float] = []
    plain_walls: list[float] = []
    process_walls: list[float] = []
    failures: list[str] = []
    while not (per_op and plain_walls) or time.perf_counter() - started < seconds:
        # The wall time a user waits for: one op as a ``repro`` process.
        planned = workload.plan()
        op = run_op(repro_argv(*planned.args), workload.root)
        reason = _checked(op, planned, f"{name} subprocess op")
        if reason:
            failures.append(reason)
        else:
            process_walls.append(op.seconds)
        for traced in (True, False):
            planned = workload.plan()
            if traced:
                recorder.op = len(per_op) + 1
                recorder.install()
            try:
                report, code, wall = run_inprocess(planned.args)
            finally:
                if traced:
                    recorder.uninstall()
            spans = recorder.take()
            if code != planned.expected.exit_code:
                failures.append(f"exit {code}")
                if len(failures) > 3:
                    raise RuntimeError(f"{name}: in-process ops keep failing: {failures}")
                continue
            wrong = mismatch(planned.expected, report)
            if wrong:
                raise WrongVerdict(f"{name} traced op: {wrong}")
            if traced:
                layers = op_layers(spans, wall)
                if layers["unattributed_s"] < 0:
                    raise RuntimeError(f"{name}: top-level spans exceed op wall time")
                layers["engine.cache.bytes_on_disk"] = _disk_bytes(workload.cache_dir)
                layers["engine.state.bytes"] = (
                    0 if workload.cache_dir is None
                    else _disk_bytes(state_path(workload.cache_dir))
                )
                per_op.append(layers)
                for span in spans:
                    span.info.pop("obj", None)
                kept.extend(spans)
                traced_walls.append(wall)
            else:
                plain_walls.append(wall)
    metrics = {key: median([layers[key] for layers in per_op]) for key in per_op[0]}
    metrics["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    if process_walls:
        metrics["wall.latency_p50_s"] = median(process_walls)
        metrics["wall.latency_p90_s"] = percentile(process_walls, 90)
    trace_file = WORK / "traces" / f"{name}-seed{seed}.jsonl"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(kept, trace_file)
    return RunResult(
        metrics=metrics,
        attempted=len(traced_walls) + len(plain_walls) + len(process_walls) + len(failures),
        failed=len(failures),
        notes=[
            f"{len(per_op)} traced ops, {len(plain_walls)} untraced ops",
            f"ops as processes: {tail_note(len(process_walls))}",
            f"{len(kept)} spans written to {trace_file.relative_to(WORK.parent)}",
        ],
    )
