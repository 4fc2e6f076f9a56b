"""Seeded inputs for every workload, each with its known answer.

Everything is generated from ``repro.workloads.hierarchy`` and
``repro.paper.listings``; the expected verdict of every input follows
from what was planted (see :mod:`oracle`).  Class names are unique
across the files of a project.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

from oracle import (
    PAPER_LISTINGS,
    Verdict,
    truncated_lifecycle,
    vacuous_claim,
)
from repro.paper import listings
from repro.workloads.hierarchy import (
    HierarchyShape,
    base_class_source,
    composite_class_source,
    grid_project_sources,
    lifecycle_claim,
    project_source,
)

LISTING_FILES = {
    "Valve.py": listings.VALVE,
    "BadSector.py": listings.BAD_SECTOR,
    "GoodSector.py": listings.GOOD_SECTOR,
}

GRID_SHAPE = HierarchyShape(base_operations=6)
GRID_LAYERS = 10
GRID_WIDTH = 100
GRID_BUGS = 3


def write_files(root: Path, files: dict[str, str]) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name, source in files.items():
        (root / name).write_text(source, encoding="utf-8")


class GridProject:
    """The ``layers × width`` grid plus the paper's listings, with seeded
    truncation bugs in layer-1 composites and an edit generator.

    An edit is one of: plant a truncation bug in a clean layer-1
    composite, revert a planted bug, or add a back-edge to a base
    class's return list (a spec change that keeps every verdict).
    """

    def __init__(
        self,
        seed: int,
        layers: int = GRID_LAYERS,
        width: int = GRID_WIDTH,
        bugs: int = GRID_BUGS,
    ):
        self.rng = random.Random(seed)
        self.width = width
        self.steps = GRID_SHAPE.base_operations
        self.pristine = {
            f"{name}.py": source
            for name, source in grid_project_sources(
                GRID_SHAPE, layers, width
            ).items()
        }
        self.files = dict(self.pristine)
        self.files.update(LISTING_FILES)
        self.classes = layers * width + len(LISTING_FILES)
        self.buggy: set[int] = set()
        self.back_edges: set[tuple[int, int]] = set()
        for column in self.rng.sample(range(width), bugs):
            self._plant(column)

    # -- file names ----------------------------------------------------

    @staticmethod
    def base(column: int) -> str:
        return f"G0_{column:03d}"

    @staticmethod
    def composite(column: int) -> str:
        return f"G1_{column:03d}"

    # -- edits ---------------------------------------------------------

    def _plant(self, column: int) -> str:
        name = f"{self.composite(column)}.py"
        last_call = f"        self.inner.step{self.steps - 1}()\n"
        assert last_call in self.files[name]
        self.files[name] = self.files[name].replace(last_call, "")
        self.buggy.add(column)
        return name

    def _revert(self, column: int) -> str:
        name = f"{self.composite(column)}.py"
        self.files[name] = self.pristine[name]
        self.buggy.discard(column)
        return name

    def _add_back_edge(self, column: int, step: int) -> str:
        name = f"{self.base(column)}.py"
        target = self.rng.randrange(0, step)
        line = f"    def step{step}(self):\n        return ['step{step + 1}'"
        assert line in self.files[name]
        self.files[name] = self.files[name].replace(
            line, f"{line}, 'step{target}'"
        )
        self.back_edges.add((column, step))
        return name

    def edit(self) -> tuple[str, str]:
        """Apply one seeded edit to :attr:`files`; returns the kind and
        the name of the file it changed."""
        kinds = ["back-edge"]
        if len(self.buggy) < self.width:
            kinds.append("plant")
        if self.buggy:
            kinds.append("revert")
        kind = self.rng.choice(kinds)
        if kind == "plant":
            column = self.rng.choice(
                [c for c in range(self.width) if c not in self.buggy]
            )
            return kind, self._plant(column)
        if kind == "revert":
            return kind, self._revert(self.rng.choice(sorted(self.buggy)))
        free = [
            (c, s)
            for c in range(self.width)
            for s in range(1, self.steps - 1)
            if (c, s) not in self.back_edges
        ]
        return kind, self._add_back_edge(*self.rng.choice(free))

    # -- known answer --------------------------------------------------

    def expected(self) -> Verdict:
        verdict = PAPER_LISTINGS
        for column in sorted(self.buggy):
            verdict = verdict + truncated_lifecycle(
                self.base(column), "inner", self.steps
            )
        return verdict


def heavy_project(seed: int, modules: int = 8) -> tuple[dict[str, str], Verdict, int]:
    """Kernel-heavy modules: 24–32 base ops, 10–12 subsystems, 3–4
    composite ops, a ``lifecycle_claim`` on every composite, and a
    planted bug in every third module.  Returns files, the expected
    verdict and the class count.

    The seed shuffles a fixed multiset of sizes over the modules (and
    picks the base classes' back-edges), so every seed asks for about
    the same amount of automata work.
    """
    rng = random.Random(seed)
    spread = max(1, modules - 1)
    sizes = {
        "base_operations": [24 + round(8 * i / spread) for i in range(modules)],
        "subsystems": [10 + i % 3 for i in range(modules)],
        "composite_operations": [3 + i % 2 for i in range(modules)],
    }
    for values in sizes.values():
        rng.shuffle(values)
    files: dict[str, str] = {}
    verdict = Verdict()
    for index in range(modules):
        shape = HierarchyShape(
            **{knob: values[index] for knob, values in sizes.items()},
            seed=rng.randrange(1 << 30),
        )
        correct = index % 3 != 2
        base, composite = f"Dev{index}", f"Ctl{index}"
        files[f"heavy_{index}.py"] = (
            base_class_source(base, shape.base_operations, random.Random(shape.seed))
            + "\n\n"
            + composite_class_source(
                composite, base, shape, correct=correct, claim=lifecycle_claim(shape)
            )
        )
        verdict = verdict + vacuous_claim(composite)
        if not correct:
            verdict = verdict + truncated_lifecycle(
                base, f"s{shape.subsystems - 1}", shape.base_operations
            )
    return files, verdict, 2 * modules


SERVE_PAIRS = 6
SERVE_SHAPE = HierarchyShape()


def serve_jobs(seed: int, count: int) -> list[tuple[str, Verdict]]:
    """``count`` job sources: half of them (in seeded order) resubmit an
    earlier source, a cache hit in the daemon; every fourth fresh source
    carries a planted bug in its last pair."""
    rng = random.Random(seed)
    repeats = [False] * ((count + 1) // 2) + [True] * (count // 2)
    rng.shuffle(repeats)
    repeats[repeats.index(False)], repeats[0] = repeats[0], False
    fresh: list[tuple[str, Verdict]] = []
    jobs: list[tuple[str, Verdict]] = []
    for repeat in repeats:
        if repeat:
            jobs.append(rng.choice(fresh))
            continue
        correct = len(fresh) % 4 != 3
        shape = dataclasses.replace(SERVE_SHAPE, seed=rng.randrange(1 << 30))
        source = project_source(shape, pairs=SERVE_PAIRS, correct=correct)
        verdict = Verdict()
        if not correct:
            verdict = truncated_lifecycle(
                f"Device{SERVE_PAIRS - 1}",
                f"s{SERVE_SHAPE.subsystems - 1}",
                SERVE_SHAPE.base_operations,
            )
        fresh.append((source, verdict))
        jobs.append(fresh[-1])
    return jobs


#: A clean module every workload's priming run checks.
PRIMER = listings.GOOD_MODULE
