"""The benchmark's own tests: its arithmetic, its oracle, and every
workload at a tiny size.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cli_workloads
import inputs
import serve_workload
from common import (
    REFERENCE_NOMINAL_S,
    REFERENCE_SHARE,
    Reference,
    percentile,
    repro_argv,
    run_op,
    samples_beyond,
    supported,
)
from oracle import PAPER_LISTINGS, mismatch, parse_report
from spans import Recorder, Span, op_layers, self_times

BENCH = Path(__file__).resolve().parent.parent
MAIN = threading.main_thread().ident


# -- statistics --------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10 and supported(100, 90)
    assert not supported(99, 90)
    assert supported(1000, 99) and not supported(999, 99)
    assert not supported(19, 50) and supported(20, 50)


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(list(range(101)), 90) == 90
    assert percentile([7.0], 99) == 7.0


# -- op accounting -----------------------------------------------------

def test_an_ops_peak_rss_is_its_own(tmp_path):
    # A child inherits its parent's peak RSS at exec; the launcher keeps
    # this process's (inflated here) out of the op's number.
    ballast = bytearray(120 << 20)
    ballast[:: 1 << 12] = b"x" * len(ballast[:: 1 << 12])
    op = run_op([sys.executable, "-c", "pass"], tmp_path)
    assert op.exit_code == 0 and op.seconds > 0
    assert op.peak_rss_mb < 60
    del ballast


def test_reference_keeps_its_share_and_scales_by_its_mean():
    reference = Reference()
    reference.sample_for(0.0)
    assert len(reference.samples) == 1 and reference.digest
    reference.sample_for(reference.samples[0] * 2 / REFERENCE_SHARE)
    assert len(reference.samples) >= 2
    reference.samples = [0.1, 0.4, 0.1]
    assert reference.scale == pytest.approx(REFERENCE_NOMINAL_S / 0.2)


def test_serve_segments_keep_every_job_in_order():
    offsets = [0.1, 1.9, 2.0, 2.5, 7.3]
    pieces = serve_workload._segments(offsets, list("abcde"))
    assert [sources for _offsets, sources in pieces] == [["a", "b"], ["c", "d"], ["e"]]
    assert pieces[1][0] == pytest.approx([0.0, 0.5])
    assert pieces[2][0] == pytest.approx([1.3])


# -- self time ---------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    root = Span("root", 0.0, 10.0, thread=MAIN)
    # Two overlapping children on worker threads cover [1, 5) once.
    a = Span("a", 1.0, 3.0, parent=root, thread=1)
    b = Span("b", 2.0, 5.0, parent=root, thread=2)
    c = Span("c", 7.0, 8.0, parent=root, thread=MAIN)
    grandchild = Span("g", 2.5, 3.0, parent=a, thread=1)
    own = self_times([root, a, b, c, grandchild])
    assert own[id(root)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[id(a)] == pytest.approx(1.5)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(grandchild)] == pytest.approx(0.5)


def test_top_level_spans_plus_unattributed_make_the_wall_time():
    spans = [
        Span("frontend.parse_project", 0.5, 2.0, thread=MAIN),
        Span("frontend.parse_file", 0.6, 1.0, thread=MAIN),
        Span("core.diagnostics.format", 3.0, 3.5, thread=MAIN),
    ]
    spans[1].parent = spans[0]
    layers = op_layers(spans, wall=4.0)
    assert layers["unattributed_s"] == pytest.approx(4.0 - 1.5 - 0.5)
    assert layers["frontend.busy_s"] == pytest.approx(1.5)
    assert layers["frontend.files_parsed"] == 1
    assert layers["core.diagnostics.render_s"] == pytest.approx(0.5)


# -- oracle ------------------------------------------------------------

BAD_SECTOR_REPORT = """\
Error in specification: INVALID SUBSYSTEM USAGE
Counter example: open_a, a.test, a.open
Subsystems errors:
  * Valve 'a': test, >open< (not final)

Error in specification: FAIL TO MEET REQUIREMENT
Formula: (!a.open) W b.open
Counter example: a.test, a.open
"""


def test_oracle_accepts_the_papers_report_and_rejects_changes():
    assert mismatch(PAPER_LISTINGS, BAD_SECTOR_REPORT) is None
    assert PAPER_LISTINGS.exit_code == 1
    assert mismatch(PAPER_LISTINGS, BAD_SECTOR_REPORT.replace(">open<", ">test<"))
    assert mismatch(PAPER_LISTINGS, BAD_SECTOR_REPORT + "error [X] odd: line\n")
    assert mismatch(PAPER_LISTINGS, "OK: specification verified\n")
    assert parse_report("OK: specification verified\n").exit_code == 0


def _expected_from_files(grid: inputs.GridProject):
    """The expected verdict recomputed from file contents alone."""
    verdict = PAPER_LISTINGS
    for column in range(grid.width):
        source = grid.files[f"{grid.composite(column)}.py"]
        if f"self.inner.step{grid.steps - 1}()" not in source:
            verdict = verdict + inputs.truncated_lifecycle(
                grid.base(column), "inner", grid.steps
            )
    return verdict


def test_edit_generator_tracks_the_expected_verdict(tmp_path):
    grid = inputs.GridProject(seed=5, layers=3, width=8, bugs=2)
    kinds = set()
    for step in range(40):
        kind, name = grid.edit()
        kinds.add(kind)
        assert grid.expected() == _expected_from_files(grid)
        if step % 10 == 9:
            inputs.write_files(tmp_path, grid.files)
            op = run_op(repro_argv("check", str(tmp_path)), tmp_path)
            assert op.exit_code == grid.expected().exit_code
            assert mismatch(grid.expected(), op.stdout) is None
    assert kinds == {"plant", "revert", "back-edge"}


# -- every workload, tiny ----------------------------------------------

@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(
        cli_workloads, "GridProject",
        functools.partial(inputs.GridProject, layers=3, width=10, bugs=2),
    )
    monkeypatch.setattr(
        cli_workloads, "heavy_project",
        functools.partial(inputs.heavy_project, modules=3),
    )
    monkeypatch.setattr(serve_workload, "LADDER", (20.0, 25.0))


@pytest.mark.parametrize("name", sorted(cli_workloads.WORKLOADS))
def test_cli_workload_tiny(name, tiny, tmp_path):
    timed = cli_workloads.timed_run(name, 3, 0.5, tmp_path / "timed")
    assert timed.failed == 0 and timed.attempted >= 1
    assert all(value > 0 for value in timed.metrics.values())

    traced = cli_workloads.traced_run(name, 3, 0.5, tmp_path / "traced", Recorder())
    layers = traced.metrics
    assert traced.failed == 0
    assert layers["unattributed_s"] >= 0
    assert layers["core.checker.calls"] >= 1
    if name == "edit_loop":
        assert 0 < layers["engine.incremental.recheck_ratio"] < 1
        assert layers["engine.state.bytes"] > 0
    if name == "automata_heavy":
        assert layers["engine.cache.get_calls"] == 0
        assert layers["ltlf.translations"] > 0


def test_serve_workload_tiny(tiny, tmp_path):
    timed = serve_workload.timed_run(4, 2.0, tmp_path)
    assert timed.failed == 0
    assert all(value > 0 for value in timed.metrics.values())
    traced = serve_workload.traced_run(4, 3.0, tmp_path / "traced")
    assert traced.failed == 0
    assert traced.metrics["serve.service_p50_s"] > 0
    assert traced.metrics["serve.max_rate_jobs_per_s"] > 0


# -- the command itself ------------------------------------------------

def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "edit_loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_declared_metrics_are_emitted():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_names = {metric["name"] for metric in spec["per_layer"]}
    emitted = set(op_layers([], 1.0)) | {
        "wall.latency_p50_s", "wall.latency_p90_s", "startup.import_s", "startup.repro_modules", "engine.cache.bytes_on_disk",
        "engine.state.bytes", "trace.overhead_frac",
        "serve.latency_p99_s", "serve.max_rate_jobs_per_s", "serve.queue_wait_p50_s", "serve.queue_wait_p99_s",
        "serve.service_p50_s", "serve.http_overhead_p50_s", "serve.shed", "serve.retries",
        "loadgen.lag_p99_s",
    }
    assert emitted == layer_names
