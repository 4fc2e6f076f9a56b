"""Reproduction of *Formalizing Model Inference of MicroPython* (DSN-W 2023).

A Shelley-style model-extraction and call-ordering model-checking
framework for an annotated MicroPython subset, with the paper's
formal core (Figure 4's calculus, trace semantics and behavior
inference) implemented verbatim and its metatheory checked executably.

Quickstart::

    from repro import check_source
    result = check_source(source_code)
    if not result.ok:
        print(result.format())

Package map (details in DESIGN.md):

* :mod:`repro.lang` -- the paper's imperative calculus (Figure 4),
* :mod:`repro.regex` / :mod:`repro.automata` -- regular-language engine,
* :mod:`repro.ltlf` -- temporal claims on finite traces,
* :mod:`repro.frontend` -- annotations and MicroPython parsing,
* :mod:`repro.core` -- extraction + verification pipeline,
* :mod:`repro.engine` -- parallel batch verification + inference cache,
* :mod:`repro.micropython` -- simulated ``machine`` substrate,
* :mod:`repro.runtime` -- dynamic monitoring of the same models,
* :mod:`repro.nusmv` -- NuSMV emission, :mod:`repro.viz` -- diagrams,
* :mod:`repro.paper` -- the paper's listings as reusable fixtures.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.checker": ("Checker", "check_path", "check_source"),
        "repro.core.dependency": ("extract_dependency_graph",),
        "repro.engine": ("BatchVerifier", "InferenceCache", "verify_path"),
        "repro.core.diagnostics": ("CheckResult", "Diagnostic", "Severity"),
        "repro.core.spec": ("ClassSpec",),
        "repro.frontend.decorators": (
            "claim",
            "op",
            "op_final",
            "op_initial",
            "op_initial_final",
            "sys",
        ),
        "repro.frontend.parse": ("parse_file", "parse_module"),
        "repro.lang.inference": ("behavior", "infer"),
        "repro.lang.metatheory": ("check_all_theorems",),
        "repro.ltlf.parser": ("parse_claim",),
        "repro.regex.ast": ("format_regex",),
        "repro.runtime.monitor": ("finalize", "lifecycle", "monitored"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "BatchVerifier",
    "Checker",
    "CheckResult",
    "InferenceCache",
    "ClassSpec",
    "Diagnostic",
    "Severity",
    "__version__",
    "behavior",
    "check_all_theorems",
    "check_path",
    "check_source",
    "claim",
    "extract_dependency_graph",
    "finalize",
    "format_regex",
    "infer",
    "lifecycle",
    "monitored",
    "op",
    "op_final",
    "op_initial",
    "op_initial_final",
    "parse_claim",
    "parse_file",
    "parse_module",
    "sys",
    "verify_path",
]
