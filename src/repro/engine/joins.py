"""Shared join machinery for the bottom-up evaluators.

A rule body is evaluated left to right.  Each literal either scans an
override collection (the semi-naive *delta*/*old* versions of a
recursive predicate) or probes the database relation through a hash
index on the positions that are already bound — the standard
index-nested-loops plan for Datalog engines.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datalog.literals import Literal
from repro.datalog.rules import Rule, UnsafeRuleError
from repro.datalog.terms import Compound, Constant, Term, Variable
from repro.engine.database import Database, FactTuple, Relation
from repro.engine.unify import match_term


def bound_positions(literal: Literal, bound_vars: Dict[Variable, Term]) -> Tuple[Tuple[int, ...], List[Term]]:
    """Argument positions of ``literal`` that are fully determined.

    A position is bound when its term is ground after substituting
    ``bound_vars``.  Returns the sorted positions and the corresponding
    key values (the ground terms).
    """
    positions: List[int] = []
    key: List[Term] = []
    for i, arg in enumerate(literal.args):
        value = _resolve(arg, bound_vars)
        if value is not None:
            positions.append(i)
            key.append(value)
    return tuple(positions), key


def _resolve(term: Term, bindings: Dict[Variable, Term]) -> Optional[Term]:
    """Ground value of ``term`` under ``bindings``, or None if not ground."""
    if isinstance(term, Constant):
        return term
    if isinstance(term, Variable):
        return bindings.get(term)
    if isinstance(term, Compound):
        if term.is_ground():
            return term
        args = []
        for arg in term.args:
            value = _resolve(arg, bindings)
            if value is None:
                return None
            args.append(value)
        return Compound(term.functor, args)
    raise TypeError(f"not a term: {term!r}")


def candidates(
    db: Database,
    literal: Literal,
    bindings: Dict[Variable, Term],
    override: Optional[Relation],
) -> Sequence[FactTuple]:
    """Facts that could match ``literal`` under the current bindings."""
    rel = override if override is not None else db.get(literal.predicate, literal.arity)
    if rel is None:
        return ()
    positions, key = bound_positions(literal, bindings)
    return rel.lookup(positions, tuple(key))


def join_rule(
    db: Database,
    rule: Rule,
    on_match: Callable[[Dict[Variable, Term]], None],
    overrides: Optional[Dict[int, Optional[Relation]]] = None,
) -> None:
    """Enumerate all body instantiations of ``rule`` against ``db``.

    ``overrides`` maps body positions to replacement relations (the
    semi-naive delta/old versions); a ``None`` value means "use the
    database relation" (the default for unlisted positions too).
    ``on_match`` receives the complete variable bindings for each
    instantiation.
    """
    overrides = overrides or {}
    body = rule.body

    def walk(index: int, bindings: Dict[Variable, Term]) -> None:
        if index == len(body):
            on_match(bindings)
            return
        literal = body[index]
        override = overrides.get(index)
        for fact in candidates(db, literal, bindings, override):
            new_bindings = dict(bindings)
            ok = True
            for pattern, value in zip(literal.args, fact):
                if not match_term(pattern, value, new_bindings):
                    ok = False
                    break
            if ok:
                walk(index + 1, new_bindings)

    walk(0, {})


def instantiate_head(rule: Rule, bindings: Dict[Variable, Term]) -> FactTuple:
    """The ground head tuple of ``rule`` under complete ``bindings``."""
    args = []
    for arg in rule.head.args:
        value = _resolve(arg, bindings)
        if value is None:
            raise UnsafeRuleError(
                f"rule is not range-restricted; head variable unbound in {rule}"
            )
        args.append(value)
    return tuple(args)


def relation_from_tuples(
    name: str,
    arity: int,
    tuples: Iterable[FactTuple],
    dictionary=None,
) -> Relation:
    """A throwaway indexed relation over ``tuples`` (semi-naive deltas).

    ``dictionary`` attaches a shared term dictionary so the columnar
    executor accepts the relation as a source (incremental maintenance
    builds its delta relations this way).
    """
    rel = Relation(name, arity, dictionary)
    for fact in tuples:
        rel.add(fact)
    return rel
