"""Derivation trees (Definition 2.1) and fact explanation.

The paper's proofs are inductions over derivation trees: a fact's tree
has the fact at the root, one subtree per body literal of the rule
instance that derived it, and EDB facts at the leaves.  This module
materializes them: :func:`explain` returns a minimal-height derivation
tree for a derived fact, built from a provenance-recording evaluation.

Provenance evaluation is SCC-stratified semi-naive on compiled plans,
with the counters of :func:`~repro.engine.seminaive.seminaive_eval`,
run by this module's own round loop: a rule ``h :- B`` runs as
``why(V) :- B`` (``V`` its body variables), so a plain plan emits each
ground body instance.  Facts derived in round ``r`` record bodies from
rounds ``< r`` (the synchronous schedule), so recorded derivations are
acyclic and height-minimal round-wise — exactly the trees the paper's
inductions walk.  Recording is *canonical* (per fact: lowest rule,
then lexicographically smallest body instance), so no join order or
schedule can change a tree.

Trees are also how a library user audits an answer ("why is 7
reachable?"), so the module doubles as the provenance feature of the
engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule, UnsafeRuleError
from repro.datalog.terms import Variable
from repro.engine.config import EngineConfig
from repro.engine.database import Database, FactTuple, load_program_facts
from repro.engine.plan import _build as _build_term, _compile_template
from repro.engine.scheduler import (
    _FULL,
    ComponentRun,
    SCCScheduler,
    _TermRows,
    delta_variants,
    window_overrides,
)
from repro.engine.stats import EvalStats

Signature = Tuple[str, int]
FactKey = Tuple[str, int, FactTuple]


@dataclass
class DerivationTree:
    """One node of a derivation tree (Definition 2.1)."""

    fact: Literal
    #: the rule whose instance derived this fact; None for EDB leaves
    rule: Optional[Rule] = None
    children: Tuple["DerivationTree", ...] = ()

    def height(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.height() for child in self.children)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def leaves(self) -> List[Literal]:
        if not self.children:
            return [self.fact]
        out: List[Literal] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def render(self, indent: int = 0) -> str:
        """An ASCII rendering, facts indented by derivation depth."""
        pad = "  " * indent
        label = f"{pad}{self.fact}"
        if self.rule is not None:
            label += f"    [via {self.rule}]"
        lines = [label]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class EdbKeyView:
    """Lazy EDB fact-key membership backed by the relations themselves.

    Behaves like the set of ``(predicate, arity, args)`` keys of every
    EDB fact, but answers ``in`` by probing the relation's fact set
    instead of materializing a flat key set up front — when the EDB
    dominates the database, provenance evaluation no longer pays a
    full copy of every fact key before deriving anything.

    The view is **live**: it reads the wrapped database at lookup
    time.  Mutating the EDB after an evaluation therefore changes
    which facts a stored :class:`ProvenanceResult` treats as leaves —
    pass ``edb.copy()`` to :func:`provenance_eval` if explanations
    must stay stable while the original database keeps evolving.
    """

    __slots__ = ("_db",)

    def __init__(self, db: Database):
        self._db = db

    def __contains__(self, key: FactKey) -> bool:
        predicate, arity, args = key
        rel = self._db.get(predicate, arity)
        return rel is not None and args in rel

    def __iter__(self) -> Iterator[FactKey]:
        for (name, arity), rel in self._db.relations.items():
            for fact in rel:
                yield (name, arity, fact)

    def __len__(self) -> int:
        return sum(len(rel) for rel in self._db.relations.values())


@dataclass
class ProvenanceResult:
    """Database plus one recorded derivation per derived fact."""

    database: Database
    stats: EvalStats
    #: fact -> (rule, body fact keys) for the canonical derivation
    derivations: Dict[FactKey, Tuple[Optional[Rule], Tuple[FactKey, ...]]]
    edb_keys: EdbKeyView

    def explain(self, fact: Literal) -> DerivationTree:
        """A derivation tree for a ground fact (Definition 2.1).

        Raises ``KeyError`` when the fact is not in the least model.
        The recorded derivation is the canonical one from the fact's
        first semi-naive round, which is height-minimal up to ties
        (facts are derived round by round).
        """
        if not fact.is_ground():
            raise ValueError(f"fact {fact} is not ground")
        key = (fact.predicate, fact.arity, fact.args)
        return self._build(key, seen=set())

    def _build(self, key: FactKey, seen: set) -> DerivationTree:
        predicate, arity, args = key
        fact = Literal(predicate, args)
        if key in self.edb_keys:
            return DerivationTree(fact)
        if key in seen:
            raise RuntimeError(f"cyclic derivation record for {fact}")
        entry = self.derivations.get(key)
        if entry is None:
            raise KeyError(f"no derivation recorded for {fact}")
        rule, body_keys = entry
        children = tuple(self._build(k, seen | {key}) for k in body_keys)
        return DerivationTree(fact, rule, children)


def _instantiate(args, slot_of: Dict[Variable, int]):
    """``why`` tuple -> the ground ``args`` it binds."""
    if len(args) > 1 and all(type(arg) is Variable for arg in args):
        return itemgetter(*[slot_of[arg] for arg in args])
    templates = [_compile_template(arg, slot_of) for arg in args]
    return lambda why: tuple([_build_term(node, why) for node in templates])


def _rendered(keys):
    return [(name, arity, list(map(str, args))) for name, arity, args in keys]


def _fixpoint(run: ComponentRun, db: Database, stats: EvalStats, derivations) -> None:
    """One component's rounds as :meth:`ComponentRun._fixpoint` runs
    them in semi-naive mode on term rows, recording in ``derivations``
    the canonical instance of each new fact: the first rule to derive
    it in its round, then the least rendered body.  Equal rules share a
    ``why`` rule (and so a plan) and distinct ones never do, so
    compilations count as the rules' own."""
    task, recursive = run.task, run.task.recursive
    rows = _TermRows(db, stats)
    budget = run._check_facts if run.config.max_facts is not None else None
    rels = {sig: db.relation(*sig) for sig in task.sigs}
    names: Dict[Rule, str] = {}
    firings = []
    for rule in task.rules:
        variables = rule.body_variables()
        slots = {var: slot for slot, var in enumerate(variables)}
        name = names.setdefault(rule, f"why{len(names)}")
        body = [(b.predicate, b.arity, _instantiate(b.args, slots)) for b in rule.body]
        head_of = rule.is_range_restricted() and _instantiate(rule.head.args, slots)
        variants = delta_variants(rule, task.sigs) if recursive else None
        firings.append((
            rule, Rule(Literal(name, variables), rule.body), head_of, body,
            variants or _FULL, bool(variants),
        ))
    delta_start = dict.fromkeys(task.sigs, 0)
    first_round = True
    try:
        while True:
            run.begin_round(stats)
            stop = {sig: len(rel) for sig, rel in rels.items()}
            views: dict = {}
            new: Dict[Signature, set] = {}
            for rule, why, head_of, body, variants, every_round in firings:
                if not (every_round or first_round):
                    continue
                whys: list = []
                for roles, binding in variants:
                    overrides = window_overrides(
                        binding, views, rels, delta_start, stop
                    )
                    plan = run.cache.plan(why, roles, stats)
                    plan.execute(db, overrides or None, whys.append, stats)
                if not whys:
                    continue
                if not head_of:  # at the first match, as RulePlan.execute
                    raise UnsafeRuleError(
                        f"rule is not range-restricted; head variable unbound in {rule}"
                    )
                stats.inferences += len(whys)
                sig = rule.head.signature
                rel = rels[sig]
                known = rel.tuples
                heads = list(map(head_of, whys))
                least: dict = {}  # new fact -> (body keys, rendered once compared)
                for instance, head in zip(whys, heads):
                    if head in known:
                        continue
                    key = (sig[0], sig[1], head)
                    if key in derivations:  # an earlier rule derived it this round
                        continue
                    keys = tuple([(p, n, args(instance)) for p, n, args in body])
                    kept = least.get(key)
                    if kept is None:
                        least[key] = (keys, None)
                        continue
                    rank, kept_rank = _rendered(keys), kept[1] or _rendered(kept[0])
                    if rank < kept_rank:
                        least[key] = (keys, rank)
                    else:
                        least[key] = (kept[0], kept_rank)
                for key, (keys, _) in least.items():
                    derivations[key] = (rule, keys)
                fresh = rows.novel(rel, heads)
                if fresh and not recursive:
                    rows.absorb(rel, fresh, budget)
                elif fresh:
                    new.setdefault(sig, set()).update(fresh)
            delta_start = stop
            for sig, fresh in new.items():
                rows.absorb(rels[sig], fresh)
                if budget is not None:
                    budget(stats)
            first_round = False
            if not new:
                break
    finally:
        for rel in rels.values():
            rel.release_delta_rows()


def provenance_eval(
    program: Program,
    edb: Database,
    config: Optional[EngineConfig] = None,
    **knobs,
) -> ProvenanceResult:
    """SCC-stratified semi-naive fixpoint recording one derivation per fact.

    Facts derived in round ``r`` of their component record bodies from
    rounds ``< r`` (the synchronous schedule), so recorded derivations
    are acyclic and height-minimal round-wise.  Of the
    :class:`~repro.engine.config.EngineConfig` knobs only the budgets
    apply: components run one after another in this process.
    """
    config = EngineConfig.resolve(config, **knobs)
    edb_keys = EdbKeyView(edb)
    derivations: Dict[FactKey, Tuple[Optional[Rule], Tuple[FactKey, ...]]] = {}
    for rule in program.rules:
        if rule.is_fact():
            key = (rule.head.predicate, rule.head.arity, rule.head.args)
            if key not in edb_keys:
                derivations.setdefault(key, (rule, ()))
    db = edb.copy()
    stats = EvalStats()
    start = time.perf_counter()
    stats.facts += load_program_facts(program, db)
    tasks = SCCScheduler(program, config).tasks
    stats.scc_count += len(tasks)
    for task in tasks:
        seconds = config.max_seconds
        deadline = None if seconds is None else time.monotonic() + seconds
        _fixpoint(ComponentRun(task, config, deadline=deadline), db, stats, derivations)
    stats.seconds = time.perf_counter() - start
    return ProvenanceResult(
        database=db, stats=stats, derivations=derivations, edb_keys=edb_keys
    )


def explain(
    program: Program, edb: Database, fact: Literal, **kwargs
) -> DerivationTree:
    """One-shot: evaluate with provenance and explain ``fact``."""
    return provenance_eval(program, edb, **kwargs).explain(fact)
