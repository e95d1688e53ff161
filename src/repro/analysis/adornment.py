"""Adornment of programs with respect to a query, left-to-right SIP.

An adornment annotates each argument position of a derived predicate
as bound (``b``) or free (``f``) for a given query form.  This module
rewrites a program into its *adorned* version ``P^ad`` (Section 4.1),
renaming each reachable ``(predicate, adornment)`` pair to a fresh
predicate ``p@a`` and ordering nothing — the sideways information
passing strategy is the paper's left-to-right rule evaluation.

A body argument is bound when every variable in it is bound by the
head's bound arguments or by any earlier body literal (EDB literals
bind all their variables; derived literals bind all their variables
once their adorned version is solved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable

Signature = Tuple[str, int]

ADORN_SEPARATOR = "@"


class Adornment(str):
    """A string of ``b``/``f`` markers, one per argument position."""

    def bound_positions(self) -> Tuple[int, ...]:
        return tuple(i for i, ch in enumerate(self) if ch == "b")

    def free_positions(self) -> Tuple[int, ...]:
        return tuple(i for i, ch in enumerate(self) if ch == "f")

    def all_bound(self) -> bool:
        return all(ch == "b" for ch in self)

    def all_free(self) -> bool:
        return all(ch == "f" for ch in self)


def adorned_name(predicate: str, adornment: str) -> str:
    """The generated predicate name ``p@bf``."""
    return f"{predicate}{ADORN_SEPARATOR}{adornment}"


def split_adorned_name(name: str) -> Tuple[str, Optional[Adornment]]:
    """Invert :func:`adorned_name`; adornment is ``None`` for plain names.

    The empty adornment (a zero-arity predicate, ``p@``) is valid.
    User programs cannot contain ``@`` in predicate names (rejected by
    ``datalog.validate``), so the split is unambiguous for generated
    names.
    """
    if ADORN_SEPARATOR in name:
        base, adn = name.rsplit(ADORN_SEPARATOR, 1)
        if base and all(ch in "bf" for ch in adn):
            return base, Adornment(adn)
    return name, None


def adornment_from_query(goal: Literal) -> Adornment:
    """The adornment induced by a query literal: ground arguments are bound."""
    return Adornment("".join("b" if arg.is_ground() else "f" for arg in goal.args))


@dataclass
class AdornedProgram:
    """The result of adorning a program for one query form.

    ``program`` contains the adorned rules (derived predicates renamed
    to ``p@a``); ``goal`` is the adorned query literal; ``adornments``
    records every reachable adornment per original predicate, which
    Definition 4.4 (unit programs: a *single* reachable adornment)
    inspects.
    """

    program: Program
    goal: Literal
    original_goal: Literal
    adornments: Dict[Signature, Set[Adornment]] = field(default_factory=dict)


def _term_bound(term: Term, bound_vars: Set[Variable]) -> bool:
    """A term is bound when all of its variables are bound (ground terms are)."""
    return all(v in bound_vars for v in term.variables())


def adorn_literal(literal: Literal, bound_vars: Set[Variable]) -> Adornment:
    return Adornment(
        "".join("b" if _term_bound(arg, bound_vars) else "f" for arg in literal.args)
    )


def _reorder_body(
    rule: Rule,
    initial_bound: Set[Variable],
    idb: Set[Tuple[str, int]],
    target: Adornment,
    node_budget: int = 4000,
) -> List[Literal]:
    """SIP ordering of a rule body that preserves unit programs.

    The paper treats rules as equal up to body reordering (Section
    4.1); a left-to-right SIP then determines each derived literal's
    adornment by its position.  This search looks for an order in which
    *every* derived literal of the recursive predicate receives the
    head's own adornment — the unit-program invariant of Section 4 —
    trying literals in their written order first, so any body already
    in binding order (all of the paper's examples for their primary
    query form) is returned unchanged.  When no such order exists (a
    genuinely multi-adornment program) the written order is kept.
    """
    body = list(rule.body)
    if not any(lit.signature in idb for lit in body):
        return body
    indices = list(range(len(body)))
    failed: Set[frozenset] = set()
    nodes = [0]

    def search(remaining: List[int], bound: Set[Variable]) -> Optional[List[int]]:
        if not remaining:
            return []
        key = frozenset(remaining)
        if key in failed:
            return None
        nodes[0] += 1
        if nodes[0] > node_budget:
            return None
        for index in remaining:
            literal = body[index]
            # The unit-program invariant constrains only recursive
            # occurrences of the head's own predicate; other derived
            # literals may take any adornment.
            constrained = literal.signature == rule.head.signature
            if constrained and adorn_literal(literal, bound) != target:
                continue
            rest = [i for i in remaining if i != index]
            new_bound = bound | set(literal.iter_variables())
            tail = search(rest, new_bound)
            if tail is not None:
                return [index, *tail]
        failed.add(key)
        return None

    try:
        order = search(indices, set(initial_bound))
    finally:
        del search  # it refers to itself through its cell: a cycle
    if order is None:
        return body
    return [body[i] for i in order]


def adorn(
    program: Program, goal: Literal, adornment: Optional[str] = None
) -> AdornedProgram:
    """Adorn ``program`` for the query ``goal``.

    Returns an :class:`AdornedProgram` whose rules define only the
    reachable adorned predicates.  EDB literals are left untouched.
    Rule bodies are reordered by a stable greedy SIP (see
    :func:`_reorder_body`) so that binding passes forward regardless of
    the order the program was written in.

    ``adornment`` overrides the adornment induced by the goal's ground
    arguments — the query compiler uses this to adorn a *canonical*
    goal (all-fresh variables) with the binding pattern of the actual
    query it stands for.
    """
    idb = set(program.idb_signatures)
    if goal.signature not in idb:
        raise ValueError(f"query predicate {goal.signature} is not defined by the program")

    if adornment is None:
        query_adornment = adornment_from_query(goal)
    else:
        if len(adornment) != len(goal.args) or any(
            ch not in "bf" for ch in adornment
        ):
            raise ValueError(
                f"adornment {adornment!r} does not fit goal {goal} "
                f"(need {len(goal.args)} b/f markers)"
            )
        query_adornment = Adornment(adornment)
    worklist: List[Tuple[Signature, Adornment]] = [(goal.signature, query_adornment)]
    seen: Set[Tuple[Signature, Adornment]] = set(worklist)
    adorned_rules: List[Rule] = []
    adornments: Dict[Signature, Set[Adornment]] = {}

    while worklist:
        signature, adornment = worklist.pop()
        adornments.setdefault(signature, set()).add(adornment)
        predicate, arity = signature
        for rule in program.rules_for(predicate, arity):
            bound_vars: Set[Variable] = set()
            for position in adornment.bound_positions():
                bound_vars.update(rule.head.args[position].variables())
            ordered_body = _reorder_body(rule, bound_vars, idb, adornment)
            new_body: List[Literal] = []
            for literal in ordered_body:
                if literal.signature in idb:
                    body_adornment = adorn_literal(literal, bound_vars)
                    key = (literal.signature, body_adornment)
                    if key not in seen:
                        seen.add(key)
                        worklist.append(key)
                    new_body.append(
                        literal.with_predicate(
                            adorned_name(literal.predicate, body_adornment)
                        )
                    )
                else:
                    new_body.append(literal)
                # After solving the literal, all its variables are bound.
                for var in literal.iter_variables():
                    bound_vars.add(var)
            new_head = rule.head.with_predicate(adorned_name(predicate, adornment))
            adorned_rules.append(Rule(new_head, new_body))

    adorned_goal = goal.with_predicate(adorned_name(goal.predicate, query_adornment))
    return AdornedProgram(
        program=Program(adorned_rules),
        goal=adorned_goal,
        original_goal=goal,
        adornments=adornments,
    )
