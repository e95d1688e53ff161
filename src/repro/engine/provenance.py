"""Derivation trees (Definition 2.1) and fact explanation.

The paper's proofs are inductions over derivation trees: a fact's tree
has the fact at the root, one subtree per body literal of the rule
instance that derived it, and EDB facts at the leaves.  This module
materializes them: :func:`explain` returns a minimal-height derivation
tree for a derived fact, built from a provenance-recording evaluation.

Provenance evaluation is SCC-stratified semi-naive on compiled plans:
the shared :class:`~repro.engine.scheduler.SCCScheduler` drives the
same schedule as :func:`~repro.engine.seminaive.seminaive_eval`, and a
:class:`DerivationRecorder` rides along on the
``RulePlan.execute(..., on_match=...)`` hook, which reports the ground
body instance behind every head emission.  Facts derived in round
``r`` record bodies from rounds ``< r`` (the synchronous schedule), so
recorded derivations are acyclic and height-minimal round-wise —
exactly the trees the paper's inductions walk.  Recording is
*canonical* (per fact: lowest rule, then lexicographically smallest
body instance), so every backend and any ``jobs`` count record
identical trees.

Trees are also how a library user audits an answer ("why is 7
reachable?"), so the module doubles as the provenance feature of the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.engine.config import EngineConfig
from repro.engine.database import Database, FactTuple
from repro.engine.scheduler import evaluate
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


class DerivationRecorder:
    """Canonical per-round derivation recording for the scheduler.

    The scheduler calls :meth:`start_round` at the top of every
    fixpoint round, :meth:`observe` for each in-round derivation of a
    not-yet-known fact, and :meth:`commit` when the fact is actually
    added at the round barrier.  Among a round's candidate derivations
    of the same fact the *canonical* one is kept — smallest rule index
    (component rule order), then lexicographically smallest rendered
    body instance — so the recorded tree is independent of join order,
    execution backend, and job count.
    """

    __slots__ = ("derivations", "edb_keys", "_round")

    def __init__(
        self,
        derivations: Dict[FactKey, Tuple[Optional[Rule], Tuple[FactKey, ...]]],
        edb_keys: EdbKeyView,
    ):
        self.derivations = derivations
        self.edb_keys = edb_keys
        self._round: Dict[FactKey, tuple] = {}

    def absorb_derivations(
        self, derivations: Dict[FactKey, Tuple[Optional[Rule], Tuple[FactKey, ...]]]
    ) -> None:
        """Fold in a bare derivations mapping (no recorder around it).

        The process execution backend returns a worker recorder's
        derivations dict across the process boundary; the keys are the
        worker component's own head signatures, hence disjoint from
        every other component's, so a plain update is the merge.
        """
        self.derivations.update(derivations)

    def start_round(self) -> None:
        self._round.clear()

    def observe(
        self,
        sig: Signature,
        head_fact: FactTuple,
        rule_index: int,
        rule: Rule,
        body_keys: Tuple[FactKey, ...],
    ) -> None:
        key = (sig[0], sig[1], head_fact)
        sort_key = (
            rule_index,
            tuple(
                (name, arity, tuple(str(term) for term in args))
                for name, arity, args in body_keys
            ),
        )
        entry = self._round.get(key)
        if entry is None or sort_key < entry[0]:
            self._round[key] = (sort_key, rule, body_keys)

    def commit(self, sig: Signature, fact: FactTuple) -> None:
        key = (sig[0], sig[1], fact)
        entry = self._round.get(key)
        if entry is not None:
            self.derivations[key] = (entry[1], entry[2])


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


def provenance_eval(
    program: Program,
    edb: Database,
    config: Optional[EngineConfig] = None,
    **knobs,
) -> ProvenanceResult:
    """SCC-stratified semi-naive fixpoint recording one derivation per fact.

    Facts derived in round ``r`` of their component record bodies from
    rounds ``< r`` (the synchronous schedule), so recorded derivations
    are acyclic and height-minimal round-wise.  ``config``/keyword
    knobs are those of :func:`~repro.engine.seminaive.seminaive_eval`
    (:class:`~repro.engine.config.EngineConfig`); every combination
    derives the same fixpoint, the same counters, and — because
    recording is canonical — the same derivation trees (under the
    process backend, workers record into private recorders whose
    derivations return with the component results and merge at the
    batch barrier).
    """
    edb_keys = EdbKeyView(edb)
    derivations: Dict[FactKey, Tuple[Optional[Rule], Tuple[FactKey, ...]]] = {}
    for rule in program.rules:
        if rule.is_fact():
            key = (rule.head.predicate, rule.head.arity, rule.head.args)
            if key not in edb_keys:
                derivations.setdefault(key, (rule, ()))
    db, stats = evaluate(
        program,
        edb,
        "seminaive",
        config,
        knobs,
        recorder=DerivationRecorder(derivations, edb_keys),
    )
    return ProvenanceResult(
        database=db, stats=stats, derivations=derivations, edb_keys=edb_keys
    )


def explain(
    program: Program, edb: Database, fact: Literal, **kwargs
) -> DerivationTree:
    """One-shot: evaluate with provenance and explain ``fact``."""
    return provenance_eval(program, edb, **kwargs).explain(fact)
