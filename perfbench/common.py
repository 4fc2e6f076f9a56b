"""Shared plumbing: checkout paths, statistics, and timed ``repro`` processes."""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: A percentile is only reported as measured when at least this many
#: samples lie beyond it (choosing-metrics rule; see NOTES.md).
MIN_BEYOND = 10

#: A CLI op that runs longer than this is killed and counted as failed.
OP_TIMEOUT_S = 60.0

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class RunResult:
    """What one run reports: its metrics and its op accounting."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str]


def repro_env() -> dict[str, str]:
    """The environment every ``repro`` child runs under: this checkout's
    sources first on the path, and no inherited fault or kernel switches."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 < q < 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q``-th
    percentile's rank."""
    return count - math.ceil(count * q / 100.0)


def supported(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least :data:`MIN_BEYOND`
    beyond the ``q``-th percentile, so reporting it is meaningful."""
    return samples_beyond(count, q) >= MIN_BEYOND


def tail_note(count: int) -> str:
    """How far the run's sample count supports its tail percentiles."""
    parts = [
        f"p{q} has {samples_beyond(count, q)} beyond it"
        + ("" if supported(count, q) else f" (fewer than {MIN_BEYOND})")
        for q in (90, 99)
    ]
    return f"{count} samples; " + ", ".join(parts)


def median(values: list[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# one timed child process
# ----------------------------------------------------------------------

@dataclass
class Op:
    """One finished ``repro`` process: wall time, user CPU time, exit
    code, peak RSS."""

    seconds: float
    user_seconds: float
    exit_code: int
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool

    def failure(self, expected_exit: int) -> str | None:
        """Why the op counts as failed for ``error_rate``, or ``None``.
        A wrong verdict is not a failure here: the oracle fails the run."""
        if self.timed_out:
            return "timeout"
        if "Traceback (most recent call last)" in self.stderr:
            return "traceback"
        if self.exit_code != expected_exit:
            return f"exit {self.exit_code} (expected {expected_exit})"
        return None


#: Spawns one op, reaps it with ``os.wait4`` and writes its wall time and
#: rusage to the file named by its first argument.  A process inherits
#: its parent's peak RSS as its own starting ``ru_maxrss`` when it execs,
#: so ops are spawned from this small interpreter rather than from the
#: benchmark process, whose peak RSS is close to a ``repro`` process's.
LAUNCHER = r"""
import json, os, subprocess, sys, time
started = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:])
_pid, status, usage = os.wait4(proc.pid, 0)
seconds = time.perf_counter() - started
with open(sys.argv[1], "w") as report:
    json.dump({"seconds": seconds, "exit": os.waitstatus_to_exitcode(status),
               "user": usage.ru_utime, "maxrss_kb": usage.ru_maxrss}, report)
"""


def run_op(argv: list[str], cwd: Path, timeout: float = OP_TIMEOUT_S) -> Op:
    """Run ``argv`` under :data:`LAUNCHER`, so the rusage (and its peak
    RSS) belongs to this one process.  Wall time runs from just before
    the spawn to the reap.  On timeout the whole process group is killed."""
    WORK.mkdir(parents=True, exist_ok=True)
    with (
        tempfile.TemporaryFile(dir=WORK) as out,
        tempfile.TemporaryFile(dir=WORK) as err,
        tempfile.TemporaryDirectory(dir=WORK) as scratch,
    ):
        report = Path(scratch) / "op.json"
        timed_out = threading.Event()
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, str(report), *argv],
            cwd=cwd, env=repro_env(), stdout=out, stderr=err, start_new_session=True,
        )

        def _kill() -> None:
            timed_out.set()
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, _kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
        if timed_out.is_set() or not report.exists():
            return Op(0.0, 0.0, proc.returncode, 0.0, stdout, stderr, timed_out.is_set())
        usage = json.loads(report.read_text())
        return Op(
            seconds=usage["seconds"],
            user_seconds=usage["user"],
            exit_code=usage["exit"],
            peak_rss_mb=usage["maxrss_kb"] / 1024.0,
            stdout=stdout,
            stderr=stderr,
            timed_out=False,
        )


# ----------------------------------------------------------------------
# the host-speed reference (see reference.py)
# ----------------------------------------------------------------------

#: The reference's CPU time on a calm 2-vCPU host; a run whose reference
#: takes exactly this long reports its CPU times unscaled.
REFERENCE_NOMINAL_S = 0.12

#: Before each op the reference runs until its CPU time reaches this
#: share of the op before it's, so that a long op and the references
#: around it see the host's bursts of load for a similar share of time.
REFERENCE_SHARE = 0.3


class Reference:
    """CPU times of the fixed work in ``reference.py``, each in a fresh
    process, run between a workload's ops, never beside them.

    The end-to-end times are user-mode CPU seconds, not wall seconds.  On
    the shared host an op's wall time also holds stolen vCPU time, time
    slices lost to other processes and disk stalls, and its kernel time
    follows the state of the file system (one cold cached check of the
    1000-class grid spent 0.4 s in the kernel in one directory and up to
    1.0 s in another, minutes apart); no change to the program causes any
    of that.  User time still follows the host's speed, which drifts by
    2x over minutes, and the reference slows down with the program under
    test.  A run therefore reports reference-normalised CPU seconds:
    measured seconds times :data:`REFERENCE_NOMINAL_S` over the run's
    mean reference time.  Means, not medians or quartiles: the load
    comes in bursts of a few seconds, an op's CPU time and a run's serve
    daemon's take in the bursts they meet, and the reference's mean,
    sampled all through the run, takes them in the same way.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.digest: str | None = None

    def sample(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-I", str(Path(__file__).with_name("reference.py"))],
            capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True,
        )
        seconds, digest = proc.stdout.split()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise RuntimeError("the reference work gave a different digest")
        self.samples.append(float(seconds))

    def sample_for(self, cpu_seconds: float) -> None:
        """Sample at least once, and until the samples since this call
        reach :data:`REFERENCE_SHARE` of ``cpu_seconds``."""
        spent = 0.0
        while not spent or spent < REFERENCE_SHARE * cpu_seconds:
            self.sample()
            spent += self.samples[-1]

    @property
    def scale(self) -> float:
        """Factor from measured to reference-normalised CPU seconds."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.samples)

    def note(self) -> str:
        return (
            f"reference: {len(self.samples)} runs, mean {statistics.fmean(self.samples):.4f} s, "
            f"CPU times scaled by {self.scale:.4f}"
        )


def user_cpu() -> float:
    """User-mode CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + children.ru_utime


def process_user_cpu(pid: int) -> float:
    """User-mode CPU seconds a live process has used so far, all threads."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]) / os.sysconf("SC_CLK_TCK")


def measure_startup(pairs: int = 5) -> dict[str, float]:
    """Interpreter start with and without ``import repro.cli``, in fresh
    processes; ``startup.import_s`` is the difference of the medians."""
    bare, loaded = [], []
    for _ in range(pairs):
        bare.append(run_op([sys.executable, "-c", "pass"], ROOT).seconds)
        loaded.append(run_op([sys.executable, "-c", "import repro.cli"], ROOT).seconds)
    count = run_op(
        [
            sys.executable, "-c",
            "import sys, repro.cli; "
            "print(sum(m == 'repro' or m.startswith('repro.') for m in sys.modules))",
        ],
        ROOT,
    )
    return {
        "startup.import_s": median(loaded) - median(bare),
        "startup.repro_modules": int(count.stdout.strip()),
    }
