"""The source calculus of Figure 4: syntax, semantics, inference, metatheory.

* :mod:`repro.lang.ast` — ``p ::= f() | skip | return | p;p | if | loop``,
* :mod:`repro.lang.semantics` — the trace judgment ``s ⊢ l ∈ p``,
* :mod:`repro.lang.inference` — ``⟦p⟧ = (r, s)`` and ``infer(p)``,
* :mod:`repro.lang.builder` — fluent constructors,
* :mod:`repro.lang.generator` — bounded-exhaustive and random program spaces,
* :mod:`repro.lang.metatheory` — executable Theorems 1–2 and Corollary 1.
"""

from repro.lang.ast import (
    RETURN,
    SKIP,
    Call,
    If,
    Loop,
    Program,
    Return,
    Seq,
    Skip,
    calls,
    choice_all,
    erase_annotations,
    format_program,
    returns,
    seq_all,
    size,
    walk,
)
from repro.lang.builder import call, if_, loop, paper_example_program, ret, seq, skip
from repro.lang.inference import Behavior, behavior, exit_behaviors, infer
from repro._lazy import lazy_exports

# The executable metatheory and the trace semantics it checks against
# load on first use: checking a project needs neither.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.lang.metatheory": (
            "TheoremReport",
            "check_all_theorems",
            "check_completeness",
            "check_ongoing_lemma",
            "check_regularity",
            "check_returned_lemma",
            "check_soundness",
            "check_theorem",
            "theorem_names",
        ),
        "repro.lang.semantics": (
            "ONGOING",
            "RETURNED",
            "Status",
            "derivable",
            "language",
            "ongoing_traces",
            "returned_traces",
            "traces",
        ),
    },
)

__all__ = [
    "Behavior",
    "Call",
    "If",
    "Loop",
    "ONGOING",
    "Program",
    "RETURN",
    "RETURNED",
    "Return",
    "SKIP",
    "Seq",
    "Skip",
    "Status",
    "TheoremReport",
    "behavior",
    "call",
    "calls",
    "check_all_theorems",
    "check_completeness",
    "check_ongoing_lemma",
    "check_regularity",
    "check_returned_lemma",
    "check_soundness",
    "check_theorem",
    "choice_all",
    "derivable",
    "erase_annotations",
    "exit_behaviors",
    "format_program",
    "if_",
    "infer",
    "language",
    "loop",
    "ongoing_traces",
    "paper_example_program",
    "ret",
    "returned_traces",
    "returns",
    "seq",
    "seq_all",
    "size",
    "skip",
    "theorem_names",
    "traces",
    "walk",
]
