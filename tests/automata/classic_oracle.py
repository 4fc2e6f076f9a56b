"""The classic oracle: the checker's decision procedures on object automata.

Production checks run the bitset kernel
(:class:`repro.automata.kernel.KernelCheck`).  The classic automata
modules (:mod:`repro.automata.determinize`, :mod:`repro.automata.product`,
:mod:`repro.automata.shortest`, ...) stay in the tree as its executable
specification.  :class:`ClassicCheck` answers the questions a
``KernelCheck`` answers — the determinized behavior, subsystem-usage
inclusion, claim and vacuity emptiness — by subset construction over
named states, materialized products and a breadth-first shortest-word
search, and :func:`classic_report` runs the public check functions of
:mod:`repro.core` with it.

Two consumers: ``tests/automata/test_kernel_differential.py`` compares
its reports byte for byte with :func:`repro.core.checker.check_source`,
and ``benchmarks/ci_smoke.py`` races the kernel against it.
"""

from __future__ import annotations

from repro.automata.determinize import determinize
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.operations import (
    inclusion_counterexample,
    lift_alphabet,
    project_nfa,
    with_alphabet,
)
from repro.automata.product import intersection
from repro.automata.shortest import shortest_accepted_word
from repro.core.behavior import behavior_nfa
from repro.core.checker import module_diagnostics
from repro.core.claims import check_claims
from repro.core.diagnostics import CheckResult
from repro.core.exhaustiveness import check_invocations, check_match_exhaustiveness
from repro.core.lint import lint_spec
from repro.core.spec import ClassSpec
from repro.core.usage import check_subsystem_usage
from repro.core.vacuity import check_claim_vacuity
from repro.frontend.model_ast import ParsedClass
from repro.frontend.parse import parse_module
from repro.ltlf.ast import Formula
from repro.ltlf.translate import negation_to_dfa


class ClassicCheck:
    """The classic twin of :class:`~repro.automata.kernel.KernelCheck`.

    Only the behavior DFA is kept (the classic checker determinized it
    once per class); every other machine is rebuilt on each call.
    """

    def __init__(self, behavior: NFA):
        self.behavior = behavior
        self._behavior_dfa: DFA | None = None

    def behavior_dfa(self) -> DFA:
        if self._behavior_dfa is None:
            self._behavior_dfa = determinize(self.behavior)
        return self._behavior_dfa

    def spec_dfa(self, spec: ClassSpec, prefix: str = "") -> DFA:
        return spec.dfa(prefix)

    def projected_dfa(self, observed: frozenset[str]) -> DFA:
        return determinize(project_nfa(self.behavior, observed))

    def negation_dfa(self, formula: Formula, observed: frozenset[str]) -> DFA:
        return negation_to_dfa(formula, alphabet=observed)

    def usage_counterexample(
        self, spec: ClassSpec, prefix: str
    ) -> tuple[str, ...] | None:
        behavior = self.behavior_dfa()
        spec_dfa = self.spec_dfa(spec, prefix)
        joint_alphabet = behavior.alphabet | spec_dfa.alphabet
        lifted = lift_alphabet(spec_dfa, joint_alphabet)
        return inclusion_counterexample(
            with_alphabet(behavior, joint_alphabet), lifted
        )

    def claim_counterexample(
        self, formula: Formula, observed: frozenset[str]
    ) -> tuple[str, ...] | None:
        projected = self.projected_dfa(observed)
        violation_dfa = self.negation_dfa(formula, observed)
        joint = projected.alphabet | violation_dfa.alphabet
        bad = intersection(
            with_alphabet(projected, joint),
            with_alphabet(violation_dfa, joint),
        )
        return shortest_accepted_word(bad)

    def holds_on(self, formula: Formula, observed: frozenset[str]) -> bool:
        return self.claim_counterexample(formula, observed) is None


def classic_check_class(
    parsed: ParsedClass, specs: dict[str, ClassSpec]
) -> CheckResult:
    """:func:`repro.core.checker.check_parsed_class`, step for step,
    with a :class:`ClassicCheck` deciding usage, claims and vacuity."""
    result = CheckResult()
    result.extend(lint_spec(parsed))
    structural_errors = not result.ok
    if parsed.is_composite:
        result.extend(check_invocations(parsed, specs))
        result.extend(check_match_exhaustiveness(parsed, specs))
    if structural_errors:
        return result
    behavior = behavior_nfa(parsed)
    classic = ClassicCheck(behavior)
    if parsed.is_composite:
        result.extend(check_subsystem_usage(parsed, specs, kernel=classic))
    result.extend(check_claims(parsed, behavior, specs, kernel=classic))
    result.extend(check_claim_vacuity(parsed, behavior, specs, kernel=classic))
    return result


def classic_report(source: str) -> str:
    """The ``check_source(source).format()`` report, decided classically."""
    module, violations = parse_module(source)
    specs = {parsed.name: ClassSpec.of(parsed) for parsed in module.classes}
    result = module_diagnostics(module, violations)
    for parsed in module.classes:
        result.extend(classic_check_class(parsed, specs))
    return result.format()
