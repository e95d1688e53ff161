"""Programs: ordered collections of rules with signature-level helpers.

Following the deductive-database convention the paper adopts in
Section 2, a :class:`Program` is the IDB — the rule set — while EDB
facts live in a :class:`repro.engine.database.Database`.  Ground fact
rules are nevertheless permitted inside programs (magic seeds such as
``m_tbf(5).`` are program rules in the paper), and the evaluators load
them into the database before iterating.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datalog.literals import Literal
from repro.datalog.pretty import pretty_program
from repro.datalog.rules import Rule, UnsafeRuleError

Signature = Tuple[str, int]


class Program:
    """An immutable sequence of rules.

    The class carries the derived/extensional split: a predicate is
    *intensional* (IDB) if it appears in some rule head, *extensional*
    (EDB) otherwise.  Callers may also declare EDB signatures explicitly
    (needed when a predicate has both stored facts and rules, which the
    paper never requires but the engine tolerates).
    """

    __slots__ = ("rules", "_idb", "_edb_declared", "_hash")

    def __init__(self, rules: Iterable[Rule], edb: Iterable[Signature] = ()):
        rules = tuple(rules)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_edb_declared", frozenset(edb))
        object.__setattr__(
            self, "_idb", frozenset(rule.head.signature for rule in rules)
        )
        object.__setattr__(self, "_hash", hash(rules))

    def __setattr__(self, key, value):
        raise AttributeError("Program is immutable")

    # ------------------------------------------------------------------
    # Signature queries
    # ------------------------------------------------------------------

    @property
    def idb_signatures(self) -> FrozenSet[Signature]:
        """Signatures defined by at least one rule."""
        return self._idb

    @property
    def edb_signatures(self) -> FrozenSet[Signature]:
        """Signatures referenced in bodies but never defined, plus declared EDBs."""
        referenced = {
            lit.signature for rule in self.rules for lit in rule.body
        }
        return frozenset((referenced - self._idb) | self._edb_declared)

    def is_idb(self, signature: Signature) -> bool:
        return signature in self._idb

    def is_edb_literal(self, literal: Literal) -> bool:
        return literal.signature not in self._idb

    def predicates(self) -> FrozenSet[Signature]:
        sigs: Set[Signature] = set(self._idb)
        for rule in self.rules:
            for lit in rule.body:
                sigs.add(lit.signature)
        return frozenset(sigs)

    # ------------------------------------------------------------------
    # Rule access
    # ------------------------------------------------------------------

    def rules_for(self, predicate: str, arity: Optional[int] = None) -> List[Rule]:
        """All rules whose head predicate is ``predicate`` (and arity, if given)."""
        return [
            rule
            for rule in self.rules
            if rule.head.predicate == predicate
            and (arity is None or rule.head.arity == arity)
        ]

    def facts(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.is_fact()]

    def proper_rules(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.body]

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        return Program(rules, self._edb_declared)

    def add_rules(self, rules: Iterable[Rule]) -> "Program":
        return Program((*self.rules, *rules), self._edb_declared)

    def remove_rule(self, rule: Rule) -> "Program":
        remaining = list(self.rules)
        remaining.remove(rule)
        return Program(remaining, self._edb_declared)

    def replace_rule(self, old: Rule, new: Sequence[Rule]) -> "Program":
        out: List[Rule] = []
        replaced = False
        for rule in self.rules:
            if not replaced and rule == old:
                out.extend(new)
                replaced = True
            else:
                out.append(rule)
        if not replaced:
            raise ValueError(f"rule not in program: {old}")
        return Program(out, self._edb_declared)

    def declare_edb(self, signatures: Iterable[Signature]) -> "Program":
        return Program(self.rules, self._edb_declared | set(signatures))

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self.rules

    def __eq__(self, other) -> bool:
        return isinstance(other, Program) and other.rules == self.rules

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Program({len(self.rules)} rules)"

    def __str__(self) -> str:
        return pretty_program(self)

    # ------------------------------------------------------------------
    # Sanity checks
    # ------------------------------------------------------------------

    def check_range_restricted(self) -> None:
        """Raise ``ValueError`` on the first non-range-restricted rule."""
        for rule in self.rules:
            if not rule.is_range_restricted():
                raise UnsafeRuleError(f"rule is not range-restricted: {rule}")

    def uses_function_symbols(self) -> bool:
        """True if any rule contains a compound term.

        Nested compounds are necessarily wrapped in a top-level
        compound, so checking literal arguments suffices.
        """
        from repro.datalog.terms import Compound

        return any(
            isinstance(arg, Compound)
            for rule in self.rules
            for lit in (rule.head, *rule.body)
            for arg in lit.args
        )
