"""Rules and facts.

A :class:`Rule` is a Horn clause ``head :- body``; a :class:`Fact` is a
ground rule with an empty body.  Rules are immutable; transformation
passes build new rules rather than mutating.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.datalog.literals import Literal
from repro.datalog.terms import Term, Variable, term_variables
from repro.datalog.unify import Substitution


class UnsafeRuleError(ValueError):
    """A rule is not range-restricted: evaluating it would bind a head
    variable to nothing, so its answers are not finitely enumerable."""


class Rule:
    """A Horn clause ``head :- b1, ..., bn`` (``n`` may be zero)."""

    __slots__ = ("head", "body", "_hash")

    def __init__(self, head: Literal, body: Iterable[Literal] = ()):
        body = tuple(body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash((head, body)))

    def __setattr__(self, key, value):
        raise AttributeError("Rule is immutable")

    def __reduce__(self):
        # Immutability breaks pickle's slot-state default; rebuild via
        # the constructor.  Structural __eq__/__hash__ survive the trip,
        # so a worker-side PlanCache keyed on shipped rules still hits.
        return (Rule, (self.head, self.body))

    def is_fact(self) -> bool:
        return not self.body and self.head.is_ground()

    def variables(self) -> List[Variable]:
        """All variables in the rule, head first, in first-occurrence order."""
        return term_variables(
            [arg for lit in (self.head, *self.body) for arg in lit.args]
        )

    def body_variables(self) -> List[Variable]:
        return term_variables([arg for lit in self.body for arg in lit.args])

    def head_variables(self) -> List[Variable]:
        return term_variables(self.head.args)

    def is_range_restricted(self) -> bool:
        """True if every head variable also appears in the body.

        Range restriction (safety) guarantees that bottom-up evaluation
        only derives ground facts.
        """
        body_vars = set(self.body_variables())
        return all(v in body_vars for v in self.head_variables())

    def body_literals(self, predicate: Optional[str] = None) -> List[Literal]:
        """Body literals, optionally filtered by predicate name."""
        if predicate is None:
            return list(self.body)
        return [lit for lit in self.body if lit.predicate == predicate]

    def rename_variables(self, mapping: Dict[Variable, Variable]) -> "Rule":
        """Apply a variable-to-variable renaming throughout the rule."""
        return Substitution(dict(mapping)).apply_rule(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Rule) and other.head == self.head and other.body == self.body

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Rule({self.head!r}, {self.body!r})"

    def __str__(self) -> str:
        from repro.datalog.pretty import pretty_rule

        return pretty_rule(self)


def Fact(predicate: str, args: Iterable[Term]) -> Rule:
    """Convenience constructor for a ground fact rule ``p(c1, ..., cn).``"""
    literal = Literal(predicate, args)
    if not literal.is_ground():
        raise ValueError(f"fact {literal} is not ground")
    return Rule(literal, ())
