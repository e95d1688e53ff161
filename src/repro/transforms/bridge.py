"""Stored facts on derived predicates, made visible to the rewrites.

Magic Sets, counting and factoring rename every derived predicate, so
rows an EDB stores under one's own name would be missed.  The compiled
query path (:class:`repro.engine.query.CompiledQuery`) and ``repro run``
rewrite :func:`bridged_program` instead.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable

Signature = Tuple[str, int]

#: Suffix of the derived half of a predicate that also has stored rows.
BRIDGE_SUFFIX = "~idb"


def stored_derived(program: Program, relations: Mapping) -> FrozenSet[Signature]:
    """The derived signatures of ``program`` with rows in ``relations``
    (a database's signature → relation map)."""
    return frozenset(s for s in program.idb_signatures if len(relations.get(s, ())))


def bridged_program(
    program: Program, goal: Literal, bridged: FrozenSet[Signature]
) -> Tuple[Program, Literal]:
    """``(program, goal)`` with each predicate ``p`` of ``bridged``
    renamed to the reserved ``p~idb``, plus one exit rule ``p~idb(V̄) :-
    p(V̄)`` per renamed predicate reading the stored relation, which the
    rewrites then read like any EDB relation.  Unchanged when
    ``bridged`` is empty."""
    if not bridged:
        return program, goal

    def rename(literal: Literal) -> Literal:
        if literal.signature in bridged:
            return literal.with_predicate(literal.predicate + BRIDGE_SUFFIX)
        return literal

    rules = [Rule(rename(r.head), tuple(map(rename, r.body))) for r in program.rules]
    for name, arity in program.idb_signatures:
        if (name, arity) in bridged:
            stored = Literal(name, tuple(Variable(f"V{i}") for i in range(arity)))
            rules.append(Rule(rename(stored), (stored,)))
    return Program(rules), rename(goal)
