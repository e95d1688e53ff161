"""Substitutions, pattern matching, and unification.

Bottom-up evaluation only ever matches a rule literal (a pattern with
variables) against a *ground* fact, so the hot path is :func:`match`.
Full two-sided unification (:func:`unify`) is used by the tabled
top-down evaluator and by the conjunctive-query machinery.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.datalog.literals import Literal
from repro.datalog.terms import Compound, Constant, Term, Variable


class Substitution:
    """A mapping from variables to terms.

    Substitutions are *applied* eagerly when built by :func:`match`
    (bindings are always ground there), and resolved transitively by
    :meth:`walk` when built by :func:`unify` (triangular form).
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Optional[Dict[Variable, Term]] = None):
        self.mapping: Dict[Variable, Term] = mapping if mapping is not None else {}

    def copy(self) -> "Substitution":
        return Substitution(dict(self.mapping))

    def bind(self, var: Variable, term: Term) -> None:
        self.mapping[var] = term

    def lookup(self, var: Variable) -> Optional[Term]:
        return self.mapping.get(var)

    def walk(self, term: Term) -> Term:
        """Resolve ``term`` through variable chains (no recursion into compounds)."""
        while isinstance(term, Variable):
            bound = self.mapping.get(term)
            if bound is None:
                return term
            term = bound
        return term

    def apply(self, term: Term) -> Term:
        """Fully resolve ``term``, including inside compound terms."""
        term = self.walk(term)
        if isinstance(term, Compound):
            args = tuple(self.apply(a) for a in term.args)
            if args == term.args:
                return term
            return Compound(term.functor, args)
        return term

    def apply_literal(self, literal: Literal) -> Literal:
        args = tuple(self.apply(a) for a in literal.args)
        if args == literal.args:
            return literal
        return Literal(literal.predicate, args)

    def apply_rule(self, rule):
        """``rule`` with the substitution applied to every literal
        (built as ``type(rule)``, so this module needs no import of
        :mod:`repro.datalog.rules`, which imports it)."""
        return type(rule)(
            self.apply_literal(rule.head),
            tuple(self.apply_literal(lit) for lit in rule.body),
        )

    def __contains__(self, var: Variable) -> bool:
        return var in self.mapping

    def __len__(self) -> int:
        return len(self.mapping)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={t}" for v, t in self.mapping.items())
        return f"Substitution({inner})"


def match_term(pattern: Term, fact: Term, bindings: Dict[Variable, Term]) -> bool:
    """One-sided matching: bind pattern variables so pattern == fact.

    ``fact`` must be ground.  Mutates ``bindings``; on failure the
    caller must discard them (the evaluators copy before matching).

    Compound terms are hash-consed, so a ground pattern that is the
    very object stored in the fact matches without a walk (a shared
    n-element list is one comparison, not n frames).  Identity is only
    a *positive* shortcut: distinct objects still fall through to the
    structural comparison below.
    """
    if pattern is fact:
        return True
    if isinstance(pattern, Variable):
        bound = bindings.get(pattern)
        if bound is None:
            bindings[pattern] = fact
            return True
        return bound == fact
    if isinstance(pattern, Constant):
        return pattern == fact
    if isinstance(pattern, Compound):
        if (
            not isinstance(fact, Compound)
            or fact.functor != pattern.functor
            or len(fact.args) != len(pattern.args)
        ):
            return False
        for p_arg, f_arg in zip(pattern.args, fact.args):
            if not match_term(p_arg, f_arg, bindings):
                return False
        return True
    raise TypeError(f"not a term: {pattern!r}")


def match(
    pattern: Literal,
    fact_args: Sequence[Term],
    bindings: Dict[Variable, Term],
) -> Optional[Dict[Variable, Term]]:
    """Match a literal pattern against a ground fact's argument tuple.

    Returns an *extended copy* of ``bindings`` on success, ``None`` on
    failure; the input dict is never mutated.
    """
    new = dict(bindings)
    for p_arg, f_arg in zip(pattern.args, fact_args):
        if not match_term(p_arg, f_arg, new):
            return None
    return new


def _occurs(var: Variable, term: Term, subst: Substitution) -> bool:
    term = subst.walk(term)
    if term == var:
        return True
    if isinstance(term, Compound):
        return any(_occurs(var, a, subst) for a in term.args)
    return False


def unify_terms(a: Term, b: Term, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two terms; returns the extended substitution or ``None``.

    Performs the occurs check — the paper's programs never need
    rational trees, and silent cyclic bindings would corrupt the tabled
    evaluator.
    """
    if subst is None:
        subst = Substitution()
    a = subst.walk(a)
    b = subst.walk(b)
    if a == b:
        return subst
    if isinstance(a, Variable):
        if _occurs(a, b, subst):
            return None
        subst.bind(a, b)
        return subst
    if isinstance(b, Variable):
        if _occurs(b, a, subst):
            return None
        subst.bind(b, a)
        return subst
    if isinstance(a, Constant) or isinstance(b, Constant):
        return None  # distinct constants, or constant vs compound
    if (
        isinstance(a, Compound)
        and isinstance(b, Compound)
        and a.functor == b.functor
        and len(a.args) == len(b.args)
    ):
        for a_arg, b_arg in zip(a.args, b.args):
            if unify_terms(a_arg, b_arg, subst) is None:
                return None
        return subst
    return None


def unify(a: Literal, b: Literal, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two literals (same predicate and arity required)."""
    if a.predicate != b.predicate or a.arity != b.arity:
        return None
    if subst is None:
        subst = Substitution()
    else:
        subst = subst.copy()
    for a_arg, b_arg in zip(a.args, b.args):
        if unify_terms(a_arg, b_arg, subst) is None:
            return None
    return subst


def rename_apart(rule, suffix: str):
    """Return ``rule`` with every variable renamed with ``suffix``.

    Used by the top-down evaluator to standardize rules apart from the
    current goal before unification.
    """
    mapping = {v: Variable(f"{v.name}~{suffix}") for v in rule.variables()}
    return rule.rename_variables(mapping)
