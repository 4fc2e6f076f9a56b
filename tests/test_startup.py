"""What ``import repro.cli`` and a plain ``repro check`` load.

The HTTP cache client, multiprocessing, the shard coordinator, the
metatheory checker and the runtime monitor load on first use (PEP 562
lazy exports in the package ``__init__`` modules; the process pool is
imported by the ``process`` executor only).  Checked in a fresh
interpreter, since this test process has long imported all of them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

NOT_ON_STARTUP = (
    "urllib.request",
    "http.client",
    "ssl",
    "email",
    "multiprocessing",
    "repro.engine.backends.remote",
    "repro.engine.shard",
    "repro.lang.metatheory",
    "repro.runtime.monitor",
)

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "greenhouse_monitor.py"


def _loaded_after(statements: str) -> list[str]:
    """The :data:`NOT_ON_STARTUP` modules loaded once ``statements`` ran."""
    probe = (
        "import json, sys\n"
        f"{statements}\n"
        f"print(json.dumps([m for m in {list(NOT_ON_STARTUP)!r} if m in sys.modules]))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR},
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_import_cli_skips_modules_check_never_uses():
    assert _loaded_after("import repro.cli") == []


@pytest.mark.parametrize(
    "flags",
    [[], ["--jobs", "2"], ["--incremental", "--cache"]],
    ids=["serial", "threads", "incremental"],
)
def test_check_run_skips_modules_it_never_uses(tmp_path, flags):
    argv = ["check", str(EXAMPLE), *flags]
    if "--cache" in flags:
        argv += ["--cache-dir", str(tmp_path / "cache")]
    run = (
        "from repro.cli import main\n"
        f"main({argv!r})"
    )
    assert _loaded_after(run) == []
