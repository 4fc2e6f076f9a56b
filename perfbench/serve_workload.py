"""``serve_open``: independent tenants sharing one ``repro serve`` daemon.

An open loop: jobs are sent on a seeded Poisson schedule whatever the
daemon's state, so a stall delays every job due during it.  Each job is
timed from its scheduled send to the ``done`` line of its NDJSON event
stream.
All sending happens on one asyncio loop (one sender thread).

The timed run is one main phase of ``MAIN_RATE`` jobs/s, low enough
that the daemon does not queue even when the host runs at a third of
its best speed, so latency follows the daemon's own cost rather than
the host's momentary load.  The phase is sent in ``SEGMENT_S``
segments with one run of the host-speed reference between them.

The traced run measures the serve layers at the same rate and then
climbs a ladder of offered rates, 25% apart, ``RUNG_SECONDS`` per
rung, until a rung misses the limit: its p99 exceeds
``LATENCY_LIMIT_S`` (a failed or shed job counts as missing it, so
more than 1% of them fails the rung), or more jobs are still running
when its schedule ends than the rate lets finish within the limit (a
growing backlog).  ``serve.max_rate_jobs_per_s`` is the largest
completion rate measured inside one rung.  Short rungs absorb a mild
overload within the limit, so the ladder climbs past the daemon's
capacity before a rung fails, and the top rungs complete jobs at that
capacity.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    SETUPS,
    Reference,
    RunResult,
    median,
    percentile,
    process_user_cpu,
    repro_argv,
    repro_env,
    tail_note,
    user_cpu,
)
from inputs import PRIMER, serve_jobs
from oracle import Verdict, WrongVerdict, mismatch

TENANTS = ("tenant-a", "tenant-b", "tenant-c")
MAIN_RATE = 10.0
MAIN_SHARE = 0.6
LADDER = tuple(30.0 * 1.25**step for step in range(14))
RUNG_SECONDS = 1.0
LATENCY_LIMIT_S = 0.5
#: Admission queue depth.  The default (16) sheds whenever a 0.2 s stall
#: of the shared host meets a burst, which made the ladder's answer
#: depend on when the host stalled; a deep queue lets it measure the
#: throughput at which latency holds.
QUEUE_DEPTH = 256
DRAIN_TIMEOUT_S = 60.0
#: The timed main phase runs in segments of this many seconds of
#: schedule; the reference program runs between them.
SEGMENT_S = 2.0


class Daemon:
    """One ``repro serve --port 0`` process on a fresh cache dir."""

    def __init__(self, cache_dir: Path):
        self._stderr = tempfile.TemporaryFile(dir=cache_dir.parent)
        self.proc = subprocess.Popen(
            repro_argv(
                "serve", "--port", "0", "--cache-dir", str(cache_dir),
                "--queue-depth", str(QUEUE_DEPTH),
            ),
            cwd=cache_dir.parent,
            env=repro_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        ready = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", ready)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not come up: {ready!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> tuple[int, float]:
        """SIGTERM, then reap: exit code and peak RSS.  The peak is the
        daemon's own ``VmHWM``, read before the drain; its ``ru_maxrss``
        would start from this process's peak RSS (see ``common.LAUNCHER``)."""
        status_file = Path(f"/proc/{self.proc.pid}/status").read_text()
        peak_kb = int(re.search(r"^VmHWM:\s+(\d+) kB", status_file, re.M).group(1))
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(DRAIN_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            self.proc.wait()
        finally:
            timer.cancel()
            self.proc.stdout.close()
            self._stderr.close()
        return self.proc.returncode, peak_kb / 1024.0


# ----------------------------------------------------------------------
# HTTP client (one request per connection, as the daemon serves them)
# ----------------------------------------------------------------------

async def _request(host: str, port: int, method: str, path: str, body: bytes = b""):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        return status, reader, writer
    except BaseException:
        writer.close()
        raise


@dataclass
class JobResult:
    due: float
    expected: Verdict
    sent: float = 0.0
    status: int = 0
    done: float = 0.0
    record: dict = field(default_factory=dict)
    error: str = ""

    @property
    def failure(self) -> str | None:
        if self.error:
            return self.error
        if self.status != 202:
            return f"shed {self.status}"
        if self.record.get("state") != "done":
            return f"job {self.record.get('state')}: {self.record.get('kind')}"
        return None

    @property
    def latency(self) -> float:
        return self.done - self.due


async def _job(daemon: Daemon, job: JobResult, tenant: str, source: str) -> None:
    job.sent = time.perf_counter()
    body = json.dumps({"tenant": tenant, "files": {"m.py": source}}).encode("utf-8")
    try:
        status, reader, writer = await _request(daemon.host, daemon.port, "POST", "/v1/jobs", body)
        job.status = status
        payload = await reader.read()
        writer.close()
        if status != 202:
            return
        job_id = json.loads(payload)["id"]
        _status, reader, writer = await _request(
            daemon.host, daemon.port, "GET", f"/v1/jobs/{job_id}/events"
        )
        try:
            async for line in reader:
                record = json.loads(line)
                if record["state"] in ("done", "failed"):
                    job.done = time.perf_counter()
                    job.record = record
                    break
        finally:
            writer.close()
        if not job.record:
            job.error = "event stream closed before the job ended"
    except (OSError, EOFError, ValueError, KeyError, IndexError) as error:
        job.error = f"{type(error).__name__}: {error}"


def arrivals(rng: random.Random, rate: float, duration: float) -> list[float]:
    """A Poisson process of ``rate`` over ``duration``, conditioned on
    its expected count: that many uniform points, sorted."""
    return sorted(rng.uniform(0.0, duration) for _ in range(max(1, round(rate * duration))))


def run_phase(daemon: Daemon, offsets: list[float], sources) -> tuple[list[JobResult], float]:
    """Send one job per offset on the open-loop schedule; wait for all.
    Returns the jobs and the phase wall time up to the last completion."""

    async def phase() -> list[JobResult]:
        start = time.perf_counter() + 0.01
        jobs, tasks = [], []
        for index, (offset, (source, expected)) in enumerate(zip(offsets, sources)):
            job = JobResult(due=start + offset, expected=expected)
            delay = job.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            jobs.append(job)
            tasks.append(asyncio.ensure_future(_job(daemon, job, TENANTS[index % 3], source)))
        await asyncio.gather(*tasks)
        return jobs

    started = time.perf_counter()
    jobs = asyncio.run(phase())
    finished = max([started] + [job.done for job in jobs])
    return jobs, finished - started


def _verify(jobs: list[JobResult], where: str) -> list[str]:
    """Failure reasons of failed jobs; raises on a wrong verdict."""
    failures = []
    for job in jobs:
        reason = job.failure
        if reason:
            failures.append(reason)
            continue
        wrong = mismatch(job.expected, job.record.get("report") or "")
        if wrong or job.record.get("ok") != (not job.expected.has_errors):
            raise WrongVerdict(f"serve {where}: {wrong or 'ok flag disagrees'}")
    return failures


def _setup(work: Path, index: int) -> Daemon:
    """Boot a daemon on a fresh cache dir and warm it with a second of
    priming jobs at ``MAIN_RATE`` (the first jobs after boot pay for
    lazy imports and run measurably slower)."""
    cache = work / f"serve-{index}" / "cache"
    cache.parent.mkdir(parents=True, exist_ok=True)
    daemon = Daemon(cache)
    rng = random.Random(index)
    offsets = arrivals(rng, MAIN_RATE, 1.0)
    sources = [(PRIMER, Verdict())] + serve_jobs(rng.randrange(1 << 30), len(offsets) - 1)
    jobs, _wall = run_phase(daemon, offsets, sources)
    failed = _verify(jobs, "priming jobs")
    if failed:
        daemon.stop()
        raise RuntimeError(f"priming jobs failed: {failed[:3]}")
    return daemon


def _schedule(seed: int, seconds: float):
    """The seeded main phase: arrival offsets and one job source each."""
    rng = random.Random(seed)
    offsets = arrivals(rng, MAIN_RATE, seconds)
    return offsets, serve_jobs(rng.randrange(1 << 30), len(offsets))


def _main_phase(daemon: Daemon, offsets, sources):
    """Run the main phase: all jobs, completed jobs, failure reasons and
    the wall time up to the last completion."""
    jobs, wall = run_phase(daemon, offsets, sources)
    failures = _verify(jobs, "main phase")
    done = [job for job in jobs if job.failure is None]
    if not done:
        raise RuntimeError(f"no job of the main phase completed: {failures[:3]}")
    return jobs, done, failures, wall


def _segments(offsets: list[float], sources) -> list[tuple[list[float], list]]:
    """Cut a schedule into :data:`SEGMENT_S` pieces, each with its
    offsets counted from its own start."""
    pieces: dict[int, tuple[list[float], list]] = {}
    for offset, source in zip(offsets, sources):
        index = int(offset // SEGMENT_S)
        piece = pieces.setdefault(index, ([], []))
        piece[0].append(offset - index * SEGMENT_S)
        piece[1].append(source)
    return [pieces[index] for index in sorted(pieces)]


def timed_run(seed: int, seconds: float, work: Path) -> RunResult:
    """The main phase in :data:`SEGMENT_S` segments, with one run of the
    reference work before each while the daemon is idle.  The daemon's
    user CPU time is read from outside it and reported in
    reference-normalised seconds (see :class:`common.Reference`); it
    cannot be split by job, so ``user_cpu_per_op_s`` is the daemon's user
    CPU time over the phase per job."""
    reference = Reference()
    setups = []
    for index in range(SETUPS):
        reference.sample()
        started = user_cpu()
        offsets, sources = _schedule(seed, seconds)
        daemon = _setup(work, index)
        setups.append(user_cpu() - started + process_user_cpu(daemon.proc.pid))
        if index < SETUPS - 1:
            daemon.stop()

    os.sync()
    jobs: list[JobResult] = []
    failures: list[str] = []
    try:
        daemon_cpu, segment_cpu = 0.0, 0.0
        for segment_offsets, segment_sources in _segments(offsets, sources):
            reference.sample_for(segment_cpu)
            before = process_user_cpu(daemon.proc.pid)
            segment, _wall = run_phase(daemon, segment_offsets, segment_sources)
            segment_cpu = process_user_cpu(daemon.proc.pid) - before
            daemon_cpu += segment_cpu
            failures += _verify(segment, "main phase")
            jobs += segment
        reference.sample_for(segment_cpu)
    finally:
        drain_code, rss = daemon.stop()
    if drain_code != 0:
        failures.append(f"drain exit {drain_code}")
    done = [job for job in jobs if job.failure is None]
    if not done:
        raise RuntimeError(f"no job of the main phase completed: {failures[:3]}")
    latencies = [job.latency for job in done]
    classes = sum(job.record.get("classes") or 0 for job in done)
    scale = reference.scale
    return RunResult(
        metrics={
            "setup_s": median(setups) * scale,
            "user_cpu_per_op_s": daemon_cpu / len(done) * scale,
            "classes_per_user_cpu_s": classes / (daemon_cpu * scale),
            "peak_rss_mb": rss,
        },
        attempted=len(jobs) + 1,
        failed=len(failures),
        notes=[
            f"{len(jobs)} jobs at {MAIN_RATE:g} jobs/s",
            reference.note(),
            f"unscaled user CPU: setup {median(setups):.4f} s, daemon {daemon_cpu:.3f} s",
            f"wall (not a metric): job p50 {median(latencies):.4f} s, "
            f"p90 {percentile(latencies, 90):.4f} s",
        ]
        + [f"failed: {reason}" for reason in failures],
    )


def climb_ladder(daemon: Daemon, seed: int, budget: float) -> tuple[float, list[str]]:
    """Offer each rate of :data:`LADDER` for ``RUNG_SECONDS`` until a rung
    misses the limit or ``budget`` seconds are spent; returns the largest
    completion rate measured inside one rung, and a note per rung."""
    rng = random.Random(seed)
    ends = time.perf_counter() + budget
    max_rate, notes = 0.0, []
    for rate in LADDER:
        if time.perf_counter() > ends:
            notes.append("ladder stopped by the run's time limit")
            break
        rung = arrivals(rng, rate, RUNG_SECONDS)
        jobs, _wall = run_phase(daemon, rung, serve_jobs(rng.randrange(1 << 30), len(rung)))
        missed = _verify(jobs, f"ladder {rate:.1f}/s")
        served = [job for job in jobs if job.failure is None]
        p99 = percentile([job.latency for job in served], 99) if served else float("inf")
        rung_end = jobs[0].due - rung[0] + RUNG_SECONDS
        backlog = sum(job.done > rung_end for job in served)
        done_rate = (len(served) - backlog) / RUNG_SECONDS
        max_rate = max(max_rate, done_rate)
        notes.append(
            f"ladder {rate:.1f}/s: {len(jobs)} jobs, {len(missed)} failed, "
            f"p99 {p99:.4f}s, {backlog} running at the rung's end, {done_rate:.1f} done/s"
        )
        if (
            len(missed) > 0.01 * len(jobs)
            or p99 > LATENCY_LIMIT_S
            or backlog > rate * LATENCY_LIMIT_S
        ):
            break
    return max_rate, notes


def traced_run(seed: int, seconds: float, work: Path) -> RunResult:
    """Serve layers, read from outside the daemon (the job records'
    timestamps and the client's own timings) in a main phase of
    ``MAIN_SHARE`` of ``seconds``, then the rate ladder."""
    offsets, sources = _schedule(seed, seconds * MAIN_SHARE)
    daemon = _setup(work, 0)
    try:
        jobs, done, failures, _wall = _main_phase(daemon, offsets, sources)
        max_rate, notes = climb_ladder(daemon, seed + 1, seconds * (1.0 - MAIN_SHARE))
    finally:
        daemon.stop()
    waits = [job.record["started_at"] - job.record["submitted_at"] for job in done]
    service = [job.record["seconds"] for job in done]
    overhead = [
        (job.done - job.sent) - (job.record["finished_at"] - job.record["submitted_at"])
        for job in done
    ]
    return RunResult(
        metrics={
            "wall.latency_p50_s": median([job.latency for job in done]),
            "wall.latency_p90_s": percentile([job.latency for job in done], 90),
            "serve.latency_p99_s": percentile([job.latency for job in done], 99),
            "serve.max_rate_jobs_per_s": max_rate,
            "serve.queue_wait_p50_s": median(waits),
            "serve.queue_wait_p99_s": percentile(waits, 99),
            "serve.service_p50_s": median(service),
            "serve.http_overhead_p50_s": median(overhead),
            "serve.shed": sum(job.status in (429, 503) for job in jobs),
            "serve.retries": sum(max(0, job.record.get("attempts", 1) - 1) for job in done),
            "loadgen.lag_p99_s": percentile([job.sent - job.due for job in jobs], 99),
        },
        attempted=len(jobs),
        failed=len(failures),
        notes=[f"main phase at {MAIN_RATE:g} jobs/s: {tail_note(len(done))}"] + notes,
    )
