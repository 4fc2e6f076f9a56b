"""Known-answer verdicts and the report parser that checks them.

Expected verdicts are derived from what the input generator planted,
never from a ``repro`` run.  A report is reduced to two multisets: its
headings (one per diagnostic) and its ``Subsystems errors`` suffix
lines.  Counter-example lines are not compared; the suffix lines pin
which subsystem failed and where.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

USAGE = "INVALID SUBSYSTEM USAGE"
OK = "OK: specification verified"


class WrongVerdict(Exception):
    """A report disagreed with its known answer: the run is invalid."""


_PLAIN = re.compile(r"^(error|warning)(?: \[(\w+)\])? ([\w-]+): ")
_DETAIL_PREFIXES = ("Counter example: ", "Subsystems errors:")


@dataclass
class Verdict:
    """A report reduced to what the oracle compares."""

    headings: Counter = field(default_factory=Counter)
    subsystem_lines: Counter = field(default_factory=Counter)

    def __add__(self, other: "Verdict") -> "Verdict":
        return Verdict(
            self.headings + other.headings,
            self.subsystem_lines + other.subsystem_lines,
        )

    @property
    def has_errors(self) -> bool:
        return any(
            not key.startswith("warning ") for key in self.headings
        )

    @property
    def exit_code(self) -> int:
        """What ``repro check`` exits with on this verdict."""
        return 1 if self.has_errors else 0


def parse_report(text: str) -> Verdict:
    """Reduce a ``repro check`` report to a :class:`Verdict`.

    Lines the parser does not recognise become headings of their own,
    so an unexpected line always fails the comparison.
    """
    verdict = Verdict()
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if not line.strip() or line == OK or line.startswith(_DETAIL_PREFIXES):
            continue
        if line.startswith("  * "):
            verdict.subsystem_lines[line] += 1
        elif line.startswith("Error in specification: "):
            title = line[len("Error in specification: "):]
            if index < len(lines) and lines[index].startswith("Formula: "):
                title += " on " + lines[index][len("Formula: "):]
                index += 1
            verdict.headings[title] += 1
        elif match := _PLAIN.match(line):
            severity, cls, code = match.groups()
            verdict.headings[f"{severity} {code} [{cls or ''}]"] += 1
        else:
            verdict.headings[f"unrecognised: {line}"] += 1
    return verdict


def mismatch(expected: Verdict, report: str) -> str | None:
    """A one-line description of how ``report`` differs, or ``None``."""
    got = parse_report(report)
    parts = []
    for name, want, have in (
        ("heading", expected.headings, got.headings),
        ("subsystem line", expected.subsystem_lines, got.subsystem_lines),
    ):
        missing = want - have
        extra = have - want
        if missing:
            parts.append(f"missing {name}s {dict(missing)}")
        if extra:
            parts.append(f"unexpected {name}s {dict(extra)}")
    return "; ".join(parts) or None


# ----------------------------------------------------------------------
# expected verdicts, by construction
# ----------------------------------------------------------------------

def truncated_lifecycle(cls: str, field_name: str, operations: int) -> Verdict:
    """A composite whose ``field_name`` (an instance of ``cls``, whose
    linear protocol is ``step0 … step{operations-1}``) stops one step
    short of the final operation."""
    called = [f"step{i}" for i in range(operations - 1)]
    called[-1] = f">{called[-1]}<"
    line = f"  * {cls} '{field_name}': {', '.join(called)} (not final)"
    return Verdict(Counter({USAGE: 1}), Counter({line: 1}))


def vacuous_claim(composite: str) -> Verdict:
    """``lifecycle_claim`` on a generated composite: ``(!s0.last) W
    s0.step0`` is discharged by the composite's first subsystem call,
    ``s0.step0``, so the vacuity screen flags it on every such class."""
    return Verdict(Counter({f"warning vacuous-claim [{composite}]": 1}))


#: The paper's listings, written down from §2.2 of the paper: BadSector
#: leaves valve ``a`` open on one path and opens ``a`` before ``b``;
#: Valve and the repaired GoodSector check clean.
PAPER_LISTINGS = Verdict(
    Counter({USAGE: 1, "FAIL TO MEET REQUIREMENT on (!a.open) W b.open": 1}),
    Counter({"  * Valve 'a': test, >open< (not final)": 1}),
)
