"""Signal discipline of ``repro check``: SIGINT/SIGTERM mid-run must
produce one clean ``ENGINE INTERRUPTED`` diagnostic and exit 130 — no
traceback, no partial report — and a typo'd ``REPRO_FAULTS`` must be a
one-line usage error at startup, not a quarantine deep in a worker.
The CLI's SIGTERM handler stays inside the command: an in-process
``main()`` gives the caller its handler back, and process-pool workers
die on SIGTERM, so a broken pool can always be shut down."""

import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import _install_interrupt_handler, main
from repro.engine import BatchVerifier
from repro.frontend.parse import parse_module
from repro.paper import GOOD_MODULE

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
ENV = {"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR}


@pytest.fixture
def slow_check(tmp_path):
    """A ``repro check`` subprocess held mid-run by an injected delay."""
    target = tmp_path / "good.py"
    target.write_text(GOOD_MODULE, encoding="utf-8")

    def start():
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "check", str(target),
                "--faults", "worker:delay:*:arg=30",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=ENV,
        )
        time.sleep(2.0)  # clear interpreter startup; park in the delay
        assert proc.poll() is None, "check finished before the signal"
        return proc

    return start


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_exits_130_with_clean_diagnostic(slow_check, signum):
    proc = slow_check()
    proc.send_signal(signum)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert "ENGINE INTERRUPTED" in stderr
    assert "Traceback" not in stderr
    assert "Traceback" not in stdout
    # The diagnostic names the guarantee the user cares about.
    assert "remain consistent" in stderr


def test_bad_faults_env_is_a_startup_error(tmp_path):
    target = tmp_path / "good.py"
    target.write_text(GOOD_MODULE, encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "check", str(target)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**ENV, "REPRO_FAULTS": "nonsense:raise:*"},
    )
    assert completed.returncode != 0
    assert "invalid REPRO_FAULTS" in completed.stderr
    assert "unknown fault site" in completed.stderr
    # The error teaches: every valid site is listed.
    assert "serve-dispatch" in completed.stderr
    assert "Traceback" not in completed.stderr


def test_in_process_check_gives_the_sigterm_handler_back(tmp_path, capsys):
    target = tmp_path / "good.py"
    target.write_text(GOOD_MODULE, encoding="utf-8")
    before = signal.getsignal(signal.SIGTERM)
    assert main(["check", str(target)]) == 0
    capsys.readouterr()
    assert signal.getsignal(signal.SIGTERM) is before


def _sigterm_is_default() -> bool:
    return signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


def test_process_pool_workers_die_on_sigterm():
    """A worker forked under the CLI's handler gets the default back:
    otherwise terminating a broken pool only interrupts a busy worker's
    task, and the pool's shutdown waits for it forever."""
    module, violations = parse_module(GOOD_MODULE)
    verifier = BatchVerifier(module, violations, jobs=1, executor="process")
    previous = signal.getsignal(signal.SIGTERM)
    _install_interrupt_handler()
    try:
        pool = verifier._make_pool(1)
        try:
            assert pool.submit(_sigterm_is_default).result(timeout=60)
        finally:
            pool.shutdown()
    finally:
        signal.signal(signal.SIGTERM, previous)
