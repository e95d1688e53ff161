"""Static validation of programs: the library's front-door linter.

The engine assumes range-restricted (safe) rules; the optimizer assumes
consistent arities and, for factoring, unit recursions.  This module
collects those checks into structured diagnostics instead of scattered
exceptions, so applications can surface problems before evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dependency import DependencyGraph
from repro.datalog.program import Program
from repro.datalog.rules import Rule


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str
    rule: Optional[Rule] = None

    def __str__(self) -> str:
        location = f" in: {self.rule}" if self.rule is not None else ""
        return f"{self.severity.value}[{self.code}]: {self.message}{location}"


@dataclass
class ValidationReport:
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_error(self) -> None:
        if not self.ok:
            raise ValueError(
                "program validation failed:\n"
                + "\n".join(str(d) for d in self.errors)
            )

    def __str__(self) -> str:
        if not self.diagnostics:
            return "ok (no diagnostics)"
        return "\n".join(str(d) for d in self.diagnostics)


#: Prefixes of generated predicate names (magic / counting / answer
#: predicates).  ``@`` (adornment separator) and ``~`` (kept for
#: generated names) are reserved characters, and ``query`` is the generated
#: answer predicate — user programs may use none of them, otherwise
#: ``split_adorned_name`` mis-splits (a user ``p@bf`` would silently
#: collide with the adorned version of ``p``) and rewrites can capture
#: or shadow user relations.
RESERVED_PREFIXES = ("m_", "cnt_", "ans_")
RESERVED_CHARACTERS = ("@", "~")
RESERVED_NAMES = ("query",)


def reserved_name_reason(predicate: str) -> Optional[str]:
    """Why ``predicate`` is reserved for generated code, or ``None``."""
    for ch in RESERVED_CHARACTERS:
        if ch in predicate:
            return (
                f"contains {ch!r}, the separator used by generated "
                "(adorned/magic) predicate names"
            )
    for prefix in RESERVED_PREFIXES:
        if predicate.startswith(prefix):
            return (
                f"starts with {prefix!r}, the prefix used by generated "
                "(magic/counting) predicate names"
            )
    if predicate in RESERVED_NAMES:
        return "is the generated answer predicate of the magic rewrite"
    return None


def ensure_no_reserved_names(program: Program) -> None:
    """Raise ``ValueError`` if the program uses a reserved predicate name.

    The parser itself accepts these names (the test suite and the
    inspector parse *generated* programs back in); user-facing entry
    points call this before handing a program to the optimizer.
    """
    report = ValidationReport()
    _check_reserved_names(program, report)
    report.raise_on_error()


def validate_program(program: Program) -> ValidationReport:
    """Run every static check; see the individual ``_check_*`` passes."""
    report = ValidationReport()
    _check_reserved_names(program, report)
    _check_safety(program, report)
    _check_arities(program, report)
    _check_unused_body_predicates(program, report)
    _check_trivial_cycles(program, report)
    _check_singleton_variables(program, report)
    return report


def _check_reserved_names(program: Program, report: ValidationReport) -> None:
    """Reject predicate names that collide with generated predicates."""
    flagged: Set[str] = set()
    for rule in program.rules:
        for literal in (rule.head, *rule.body):
            predicate = literal.predicate
            if predicate in flagged:
                continue
            reason = reserved_name_reason(predicate)
            if reason is not None:
                flagged.add(predicate)
                report.diagnostics.append(
                    Diagnostic(
                        Severity.ERROR,
                        "reserved-name",
                        f"predicate {predicate!r} {reason}; rename it — "
                        "these names are reserved for the optimizer's "
                        "rewrites",
                        rule,
                    )
                )


def _check_safety(program: Program, report: ValidationReport) -> None:
    """Every head variable must occur in the body (range restriction).

    An unsafe rule cannot be evaluated bottom-up: the engine raises at
    run time; the paper's ``pmem`` program is intentionally unsafe and
    only evaluable after Magic Sets — the warning text says so.
    """
    for rule in program.rules:
        if not rule.is_range_restricted():
            body_vars = set(rule.body_variables())
            missing = [
                v.name for v in rule.head_variables() if v not in body_vars
            ]
            report.diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "unsafe-rule",
                    f"head variables {missing} not bound by the body; "
                    "bottom-up evaluation requires a binding-propagating "
                    "rewrite (e.g. Magic Sets) first",
                    rule,
                )
            )


def _check_arities(program: Program, report: ValidationReport) -> None:
    """A predicate used with two arities is almost always a typo."""
    arities: Dict[str, Set[int]] = {}
    for rule in program.rules:
        for literal in (rule.head, *rule.body):
            arities.setdefault(literal.predicate, set()).add(literal.arity)
    for predicate, seen in sorted(arities.items()):
        if len(seen) > 1:
            report.diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "arity-conflict",
                    f"predicate {predicate!r} used with arities {sorted(seen)}",
                )
            )


def _check_unused_body_predicates(
    program: Program, report: ValidationReport
) -> None:
    """IDB predicates never used in any body or as a likely query root."""
    used = {lit.signature for rule in program.rules for lit in rule.body}
    heads = {rule.head.signature for rule in program.rules}
    for signature in sorted(heads - used):
        # A sink predicate is a legitimate query root; only note it.
        report.diagnostics.append(
            Diagnostic(
                Severity.WARNING,
                "sink-predicate",
                f"{signature[0]}/{signature[1]} is defined but never used in "
                "a body (fine if it is the query predicate)",
            )
        )


def _check_trivial_cycles(program: Program, report: ValidationReport) -> None:
    """A rule whose head appears in its own body derives nothing new."""
    for rule in program.rules:
        if rule.head in rule.body:
            report.diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "tautological-rule",
                    "head literal appears in the body (Proposition 5.4 "
                    "deletes such rules)",
                    rule,
                )
            )


def _check_singleton_variables(
    program: Program, report: ValidationReport
) -> None:
    """Variables occurring once are either anonymous or typos."""
    for rule in program.rules:
        counts: Dict[str, int] = {}
        for literal in (rule.head, *rule.body):
            for var in literal.iter_variables():
                counts[var.name] = counts.get(var.name, 0) + 1
        singles = [
            name
            for name, count in counts.items()
            if count == 1 and not name.startswith(("_", "ANON"))
        ]
        if singles:
            report.diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "singleton-variable",
                    f"variables {sorted(singles)} occur only once "
                    "(use '_' if intentional)",
                    rule,
                )
            )
