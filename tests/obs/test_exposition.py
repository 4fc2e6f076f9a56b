"""Every Prometheus exposition the project writes obeys the text format.

Covered: a plain ``repro check``, an ``--incremental`` check, a ``repro
mine`` run and the daemon's ``GET /metrics`` body.  Also pinned here: a
family appears only when its payload section is present (a mining run
shows no engine families), and every declared family is listed in the
family table of docs/observability.md.
"""

import asyncio
import re
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import metrics_payload, prometheus_text
from repro.obs.sinks import FAMILIES
from repro.serve.config import ServeConfig
from repro.serve.metrics import SERVE_FAMILIES
from repro.serve.service import VerificationService
from repro.workloads.hierarchy import (
    HierarchyShape,
    layered_project_source,
    module_source,
)

DOCS = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

_SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(\{(?:[^"}]|"(?:[^"\\]|\\.)*")*\})? (\S+)$'
)


def assert_exposition_grammar(text: str) -> dict[str, str]:
    """Check ``text`` against the Prometheus text format; returns the
    family name → type map."""
    assert text.endswith("\n")
    helps: Counter[str] = Counter()
    types: dict[str, str] = {}
    current = None
    for line in text[:-1].split("\n"):
        if line.startswith("# HELP "):
            current = line.split(" ", 3)[2]
            helps[current] += 1
        elif line.startswith("# TYPE "):
            _hash, _type, name, kind = line.split(" ")
            assert name == current, f"TYPE without its HELP: {line}"
            assert name not in types, f"family repeats: {name}"
            types[name] = kind
        else:
            match = _SAMPLE.match(line)
            assert match, f"not a sample line: {line!r}"
            assert match.group(1) == current and current in types, (
                f"sample outside its family's HELP/TYPE: {line}"
            )
            float(match.group(3))
    assert all(count == 1 for count in helps.values()), helps
    assert set(helps) == set(types)
    for name, kind in types.items():
        assert kind in ("counter", "gauge"), (name, kind)
        if kind == "counter":
            assert name.endswith("_total"), name
    return types


@pytest.fixture()
def layered(tmp_path):
    path = tmp_path / "layered.py"
    path.write_text(
        layered_project_source(HierarchyShape(), depth=3), encoding="utf-8"
    )
    return path


class TestGrammar:
    def test_check(self, layered, tmp_path, capsys, no_ambient_faults):
        out = tmp_path / "p.prom"
        main(["check", str(layered), "--jobs", "2", "--prom-out", str(out)])
        capsys.readouterr()
        types = assert_exposition_grammar(out.read_text(encoding="utf-8"))
        assert "repro_classes" in types and "repro_phase_seconds_total" in types

    def test_incremental_check(self, layered, tmp_path, capsys, no_ambient_faults):
        cache = tmp_path / "cache"
        for run in ("cold", "warm"):
            out = tmp_path / f"{run}.prom"
            main([
                "check", str(layered), "--cache", "--cache-dir", str(cache),
                "--incremental", "--prom-out", str(out),
            ])
            capsys.readouterr()
            types = assert_exposition_grammar(out.read_text(encoding="utf-8"))
            assert "repro_incremental_classes_total" in types
            assert "repro_store_events_total" in types

    def test_mine(self, tmp_path, capsys):
        source = tmp_path / "workload.py"
        source.write_text(
            module_source(HierarchyShape(base_operations=3, subsystems=2, seed=31)),
            encoding="utf-8",
        )
        out = tmp_path / "mine.prom"
        main(["mine", str(source), "--diff", "--prom-out", str(out)])
        capsys.readouterr()
        types = assert_exposition_grammar(out.read_text(encoding="utf-8"))
        assert "repro_mine_classes" in types and "repro_classes" not in types

    def test_serve_metrics(self, tmp_path):
        async def scenario():
            service = VerificationService(
                ServeConfig(cache_dir=str(tmp_path / "cache"), workers=1)
            )
            await service.start()
            try:
                before = service.prometheus()
                job = service.submit(
                    "alice",
                    {"m.py": module_source(HierarchyShape(base_operations=2))},
                )
                deadline = time.monotonic() + 60.0
                while not service.jobs[job.id].terminal:
                    assert time.monotonic() < deadline, "job did not finish"
                    await service.updated(0.2)
            finally:
                await service.drain()
            return before, service.prometheus()

        for text in asyncio.run(scenario()):
            types = assert_exposition_grammar(text)
            assert "repro_serve_jobs_total" in types


class TestFamilyPresence:
    def test_mine_payload_shows_no_engine_families(self):
        mine = {
            "classes": 2, "corpus_samples": 5, "corpus_events": 9,
            "pta_states": 4, "mined_states": 3, "merges_accepted": 1,
            "divergent": 0, "unsound": 0, "notes": 0, "wall_seconds": 0.5,
        }
        text = prometheus_text(metrics_payload({"mine": mine}, None))
        assert set(assert_exposition_grammar(text)) == {
            "repro_mine_classes",
            "repro_mine_corpus_total",
            "repro_mine_states",
            "repro_mine_merges_total",
            "repro_mine_findings_total",
            "repro_mine_wall_seconds",
        }

    def test_remote_family_needs_a_nonzero_count(self):
        assert "repro_cache_remote_events_total" not in prometheus_text(
            {"remote": {"hits": 0, "misses": 0}}
        )
        assert 'repro_cache_remote_events_total{kind="misses"} 1' in (
            prometheus_text({"remote": {"hits": 0, "misses": 1}})
        )


def _documented_families() -> set[str]:
    """The names in the first column of the family table."""
    text = DOCS.read_text(encoding="utf-8")
    return set(re.findall(r"^\| `(repro_[a-z_]+)` \|", text, re.MULTILINE))


def test_every_declared_family_is_in_the_docs_table():
    declared = {f"repro_{family.name}" for family in FAMILIES} | {
        f"repro_serve_{family.name}" for family in SERVE_FAMILIES
    }
    assert declared == _documented_families()
