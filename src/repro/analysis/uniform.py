"""Uniform containment and equivalence of Datalog programs (Sagiv [13]).

Program ``P1`` is *uniformly contained* in ``P2`` when, for every
database ``D`` (over EDB *and* IDB predicates), the least model of
``P1 ∪ D`` is contained in that of ``P2 ∪ D``.  Uniform containment is
decidable by the chase: ``P1 ⊑u P2`` iff for every rule ``H :- B`` of
``P1``, evaluating ``P2`` over the *frozen* body ``B`` (variables
replaced by fresh constants) rederives the frozen head.

The Section 5 simplifier uses the rule-level test (deleting ``r`` from
``P`` is sound when ``P \\ {r} ⊒u P``, i.e. the remaining rules
rederive ``r``); Example 5.3's final step is exactly this.  The module
exposes the program-level relation as well, which makes statements like
"these two rewritings are interchangeable" checkable.

Only Datalog is supported: with function symbols the chase may not
terminate, and callers receive ``UniformUndecidedError`` instead of a
wrong answer.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Compound, Constant
from repro.engine.config import EngineConfig
from repro.engine.database import Database, load_program_facts
from repro.engine.plan import PlanCache
from repro.engine.scheduler import SCCScheduler
from repro.engine.stats import EvalStats, NonTerminationError
from repro.datalog.unify import Substitution


class UniformUndecidedError(RuntimeError):
    """The chase could not run (function symbols or budget exhausted)."""


def _require_datalog(rules: Iterable[Rule]) -> None:
    if any(
        isinstance(arg, Compound)
        for rule in rules
        for literal in (rule.head, *rule.body)
        for arg in literal.args
    ):
        raise UniformUndecidedError(
            "the chase requires pure Datalog (no function symbols)"
        )


def freeze_rule(rule: Rule) -> Tuple[Literal, Database]:
    """Freeze a rule's variables to fresh constants.

    Returns the frozen head and a database holding the frozen body
    atoms (of every predicate — uniform containment quantifies over
    IDB-containing databases).
    """
    mapping = {
        var: Constant(f"~frozen~{i}") for i, var in enumerate(rule.variables())
    }
    subst = Substitution(dict(mapping))
    db = Database()
    for literal in rule.body:
        ground = subst.apply_literal(literal)
        db.relation(ground.predicate, ground.arity).add(ground.args)
    return subst.apply_literal(rule.head), db


class _Chase:
    """One evaluation context for many chases.

    The config is the chase's own budgets and nothing else (serial,
    unpartitioned, no deadline: an analysis of a few frozen facts, not
    the caller's evaluation), and one
    :class:`~repro.engine.plan.PlanCache` compiles each ``(rule,
    roles)`` pair once for every chase: the candidates of one
    :func:`redundant_rules` call are chased through the same
    :class:`Rule` objects.  Each chase still runs its own naive
    scheduler over its own database with a fresh :class:`EvalStats`, so
    the budgets hold per chase.  Callers check for function symbols.
    """

    def __init__(
        self, max_iterations: Optional[int] = 200, max_facts: Optional[int] = 200_000
    ):
        self.config = EngineConfig(max_iterations=max_iterations, max_facts=max_facts)
        self.cache = PlanCache()

    def model(self, program: Program, db: Database) -> Database:
        """``db`` grown to the least model of ``program`` over it."""
        stats = EvalStats()
        stats.facts += load_program_facts(program, db)
        try:
            SCCScheduler(program, self.config, "naive", cache=self.cache).run(db, stats)
        except NonTerminationError as err:
            raise UniformUndecidedError(str(err)) from err
        return db

    def derives(self, program: Program, rule: Rule) -> bool:
        """Does ``program`` rederive ``rule``'s frozen head from its body?"""
        head, db = freeze_rule(rule)
        return head.args in self.model(program, db).facts(head.predicate, head.arity)


def chase_derives(
    program: Program,
    rule: Rule,
    max_iterations: int = 200,
    max_facts: int = 200_000,
) -> bool:
    """Does ``program`` rederive ``rule``'s frozen head from its body?"""
    _require_datalog((rule, *program.rules))
    return _Chase(max_iterations, max_facts).derives(program, rule)


def uniformly_contained(p1: Program, p2: Program, **kwargs) -> bool:
    """``P1 ⊑u P2``: every rule of P1 is chase-derivable from P2.

    Facts of ``P1`` must appear (as facts or be derivable) in ``P2``.
    """
    chase = _Chase(**kwargs)
    model = None  # P2 over the empty database, evaluated on first need
    for rule in p1.rules:
        if rule.body:
            _require_datalog((rule, *p2.rules))
            if not chase.derives(p2, rule):
                return False
            continue
        # A fact is derivable iff P2 ∪ {} produces it.
        if model is None:
            model = chase.model(p2, Database())
        if rule.head.args not in model.facts(rule.head.predicate, rule.head.arity):
            return False
    return True


def uniformly_equivalent(p1: Program, p2: Program, **kwargs) -> bool:
    return uniformly_contained(p1, p2, **kwargs) and uniformly_contained(
        p2, p1, **kwargs
    )


def redundant_rules(program: Program, **kwargs) -> List[Rule]:
    """Rules deletable one at a time under uniform equivalence.

    Returns the rules removed by the greedy left-to-right policy the
    simplifier uses (Section 7.4 notes the outcome can be
    order-dependent; this order is the documented, reproducible one).
    """
    rules = list(program.rules)
    _require_datalog(rules)
    chase = _Chase(**kwargs)
    removed: List[Rule] = []
    changed = True
    while changed:
        changed = False
        for rule in list(rules):
            if not rule.body:
                continue
            rest = Program([r for r in rules if r is not rule])
            if chase.derives(rest, rule):
                rules.remove(rule)
                removed.append(rule)
                changed = True
                break
    return removed


def minimize_program(program: Program, **kwargs) -> Program:
    """Delete every uniformly redundant rule (greedy, reproducible).

    Filtering is by object identity, not equality: a program containing
    a duplicated rule keeps exactly one copy.
    """
    dropped_ids = {id(rule) for rule in redundant_rules(program, **kwargs)}
    return Program([r for r in program.rules if id(r) not in dropped_ids])
