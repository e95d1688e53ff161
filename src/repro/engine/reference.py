"""The reference evaluator: the rules as written, naively, over plain sets.

Every other evaluator — the scheduler's modes, the batch kernel,
incremental maintenance, the magic/factored/counting rewrites — is
checked against :func:`naive_fixpoint_reference`, which shares no
storage code with them: facts are a ``dict`` from signature to a
``set`` of term tuples, a body is joined left to right through hash
indexes built for one round, and there is no ``Relation``, plan, term
dictionary, scheduler or copy-on-write bucket.  A ``Database`` is
built only for the value returned.  Evaluation is whole-program naive
rounds over the unrewritten rules — no dependency graph, no strata —
until a round derives nothing new: maximally redundant (the global
quadratic loop of the paper's Section 1), and correct by inspection.
:func:`repro.core.theorems.evaluate_cq` joins through here too.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Collection, Dict, List, Mapping, Optional, Set, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule, UnsafeRuleError
from repro.datalog.terms import Compound, Constant, Term, Variable
from repro.engine.stats import EvalStats, NonTerminationError
from repro.datalog.unify import match_term

if TYPE_CHECKING:  # the storage layer is built only for the returned value
    from repro.engine.database import Database

Signature = Tuple[str, int]
FactTuple = Tuple[Term, ...]
Bindings = Dict[Variable, Term]
#: Facts by signature; any collection of term tuples with ``len`` will do.
Facts = Mapping[Signature, Collection[FactTuple]]


def resolve(term: Term, bindings: Bindings) -> Optional[Term]:
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
            value = resolve(arg, bindings)
            if value is None:
                return None
            args.append(value)
        return Compound(term.functor, args)
    raise TypeError(f"not a term: {term!r}")


def bound_positions(
    literal: Literal, bindings: Bindings
) -> Tuple[Tuple[int, ...], List[Term]]:
    """Positions of ``literal`` whose term is ground under ``bindings``,
    and those ground terms (the probe key)."""
    positions: List[int] = []
    key: List[Term] = []
    for i, arg in enumerate(literal.args):
        value = resolve(arg, bindings)
        if value is not None:
            positions.append(i)
            key.append(value)
    return tuple(positions), key


def join_rule(
    facts: Facts,
    rule: Rule,
    on_match: Callable[[Bindings], None],
    indexes: Optional[dict] = None,
) -> None:
    """Call ``on_match`` with the bindings of every body instantiation.

    ``indexes`` caches the hash index per (signature, bound positions)
    for as long as the caller keeps ``facts`` unchanged — one naive
    round; without it the indexes live for this call only.
    """
    if indexes is None:
        indexes = {}
    body = rule.body

    def walk(i: int, bindings: Bindings) -> None:
        if i == len(body):
            on_match(bindings)
            return
        literal = body[i]
        for fact in _candidates(facts, indexes, literal, bindings):
            extended = dict(bindings)
            if all(
                match_term(pattern, value, extended)
                for pattern, value in zip(literal.args, fact)
            ):
                walk(i + 1, extended)

    walk(0, {})


def _candidates(facts: Facts, indexes: dict, literal: Literal, bindings: Bindings):
    """Facts that could match ``literal`` under the current bindings."""
    sig = literal.signature
    rows = facts.get(sig)
    if not rows:
        return ()
    positions, key = bound_positions(literal, bindings)
    if not positions:
        return rows
    index = indexes.get((sig, positions))
    if index is None:
        index = indexes[sig, positions] = {}
        for fact in rows:
            index.setdefault(tuple(fact[i] for i in positions), []).append(fact)
    return index.get(tuple(key), ())


def instantiate_head(rule: Rule, bindings: Bindings) -> FactTuple:
    """The ground head tuple of ``rule`` under complete ``bindings``."""
    args = []
    for arg in rule.head.args:
        value = resolve(arg, bindings)
        if value is None:
            raise UnsafeRuleError(
                f"rule is not range-restricted; head variable unbound in {rule}"
            )
        args.append(value)
    return tuple(args)


def naive_fixpoint_reference(
    program: Program,
    edb: "Database",
    max_iterations: Optional[int] = None,
    max_facts: Optional[int] = None,
) -> Tuple["Database", EvalStats]:
    """``(database, stats)``: the least model of ``program`` over ``edb``.

    The derived *database* must equal every evaluator's.  The counters
    are this loop's own — ``iterations`` counts global rounds and
    ``inferences`` every body instantiation of every round, including
    the rederivations a stratified schedule avoids — so compare
    fixpoints against it, not counters.  The budgets raise
    :class:`~repro.engine.stats.NonTerminationError` past
    ``max_iterations`` rounds or ``max_facts`` derived facts.
    """
    from repro.engine.database import Database

    start = time.perf_counter()
    stats = EvalStats()
    facts: Dict[Signature, Set[FactTuple]] = {
        sig: set(rel) for sig, rel in edb.relations.items()
    }

    def add(sig: Signature, fact: FactTuple) -> bool:
        rows = facts.setdefault(sig, set())
        if fact in rows:
            return False
        rows.add(fact)
        return True

    for rule in program.rules:
        if rule.is_fact() and add(rule.head.signature, rule.head.args):
            stats.facts += 1
    rules = program.proper_rules()

    while True:
        stats.iterations += 1
        if max_iterations is not None and stats.iterations > max_iterations:
            raise NonTerminationError(
                f"evaluation exceeded {max_iterations} iterations",
                stats.iterations,
                stats.facts,
            )
        derived: List[Tuple[Signature, FactTuple]] = []
        indexes: dict = {}
        for rule in rules:
            sig = rule.head.signature
            join_rule(
                facts,
                rule,
                lambda bindings, rule=rule, sig=sig: derived.append(
                    (sig, instantiate_head(rule, bindings))
                ),
                indexes,
            )
        stats.inferences += len(derived)
        changed = False
        for sig, fact in derived:
            if add(sig, fact):
                stats.facts += 1
                changed = True
                if max_facts is not None and stats.facts > max_facts:
                    raise NonTerminationError(
                        f"evaluation exceeded {max_facts} facts",
                        stats.iterations,
                        stats.facts,
                    )
        if not changed:
            break

    db = Database()  # term-side: add_facts would intern every fact
    for (name, arity), rows in facts.items():
        if rows:
            rel = db.relation(name, arity)
            for fact in rows:
                rel.add(fact)
    stats.seconds = time.perf_counter() - start
    return db, stats
