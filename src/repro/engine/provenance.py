"""Derivation trees (Definition 2.1), read off a least model.

The paper's proofs are inductions over derivation trees: a fact's tree
has the fact at the root, one subtree per body literal of the rule
instance that derived it, and EDB facts at the leaves.  The tree
:func:`derivation_tree` returns is canonical — a function of the
program and the EDB — so it is read off a least model that is already
there, with no evaluation of its own.  For a fact ``f`` the search

1. collects ``f``'s *support cone* in its component (SCC): the rule
   instances in the model deriving ``f``
   (:meth:`~repro.engine.plan.ExistencePlan.witnesses`), then those of
   their same-component body facts, and so on;
2. ranks the cone: EDB facts, program facts and facts of lower
   components rank 0, and ``r(g) = 1 + min`` over ``g``'s instances of
   the largest rank among their same-component body facts — the
   semi-naive round that first derives ``g``;
3. derives each ``g`` by the least ``(rule index, rendered body in
   source order)`` among its instances whose same-component body facts
   all rank below ``g``.

Trees are height-minimal round by round, and no join order, schedule
or maintenance history changes one.  Building and walking are
iterative, so deep trees explain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.dependency import DependencyGraph
from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.engine.config import EngineConfig
from repro.engine.database import Database, FactTuple
from repro.engine.plan import ExistencePlan
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats

Signature = Tuple[str, int]
FactKey = Tuple[str, int, FactTuple]


class NotDerivableError(KeyError):
    """``explain`` of a ground fact outside the least model."""

    def __str__(self) -> str:
        return str(self.args[0])


@dataclass
class DerivationTree:
    """One node of a derivation tree (Definition 2.1)."""

    fact: Literal
    #: the rule whose instance derived this fact; None for EDB leaves
    rule: Optional[Rule] = None
    children: Tuple["DerivationTree", ...] = ()

    def _walk(self) -> Iterator[Tuple["DerivationTree", int]]:
        """``(node, depth)`` in pre-order, without recursion."""
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            stack.extend((child, depth + 1) for child in reversed(node.children))

    def height(self) -> int:
        return 1 + max(depth for _, depth in self._walk())

    def size(self) -> int:
        return sum(1 for _ in self._walk())

    def leaves(self) -> List[Literal]:
        return [node.fact for node, _ in self._walk() if not node.children]

    def render(self, indent: int = 0) -> str:
        """An ASCII rendering, facts indented by derivation depth."""
        lines = []
        for node, depth in self._walk():
            label = f"{'  ' * (indent + depth)}{node.fact}"
            if node.rule is not None:
                label += f"    [via {node.rule}]"
            lines.append(label)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class _Search:
    """Canonical derivations of facts of one least model ``model``
    whose base facts are ``edb`` (see the module docstring)."""

    def __init__(self, program: Program, model: Database, edb: Database):
        self.model = model
        self.edb = edb
        self.graph = DependencyGraph(program)
        self.rules: Dict[Signature, List[Rule]] = {}
        for rule in program.proper_rules():
            same_head = self.rules.setdefault(rule.head.signature, [])
            if rule not in same_head:  # an equal rule derives nothing new
                same_head.append(rule)
        #: Ground program rules: rank-0 facts, their own one-node trees.
        self.program_facts: Dict[FactKey, Rule] = {
            (*rule.head.signature, rule.head.args): rule
            for rule in program.rules if rule.is_fact()
        }
        #: Signatures that have stored or program facts at all.
        self.base_sigs = {sig for sig, rel in edb.relations.items() if len(rel)}
        self.base_sigs.update(key[:2] for key in self.program_facts)
        self._probes: Dict[Signature, list] = {}
        #: fact -> (rule, body fact keys) of its canonical instance
        self.choice: Dict[FactKey, Tuple[Rule, Tuple[FactKey, ...]]] = {}
        self.stats = EvalStats()

    def is_stored(self, key: FactKey) -> bool:
        rel = self.edb.get(key[0], key[1])
        return rel is not None and key[2] in rel

    def is_base(self, key: FactKey) -> bool:
        return key[:2] in self.base_sigs and (
            self.is_stored(key) or key in self.program_facts
        )

    def probes(self, sig: Signature) -> list:
        """Per rule for ``sig``, in rule order: its index, its
        head-bound plan and the containers that plan probes in the
        model, the body signatures, and the positions of the
        same-component body literals."""
        probes = self._probes.get(sig)
        if probes is None:
            probes = self._probes[sig] = []
            for index, rule in enumerate(self.rules.get(sig, ())):
                plan = ExistencePlan(rule)
                sources = plan.bind(self.model)
                if sources is None:
                    continue
                sigs = [lit.signature for lit in rule.body]
                inner = [
                    pos for pos, body_sig in enumerate(sigs)
                    if self.graph.same_scc(sig, body_sig)
                ]
                probes.append((index, plan, sources, sigs, inner))
        return probes

    def derive(self, root: FactKey) -> None:
        """Record the canonical instance of every fact in ``root``'s
        support cone (``root`` is in the model and not a base fact)."""
        is_base, stats = self.is_base, self.stats
        # The cone: per fact, the slots of its instances in rule order;
        # per slot, (head, rule index, body signatures, body, the
        # same-component body facts that are not base facts).
        cone: Dict[FactKey, List[int]] = {}
        instances: list = []
        frontier = [root]
        while frontier:
            key = frontier.pop()
            if key in cone:
                continue
            cone[key] = slots = []
            for index, plan, sources, sigs, inner in self.probes(key[:2]):
                for body in plan.witnesses(sources, key[2], stats):
                    inside = [
                        fact
                        for fact in [(*sigs[pos], body[pos]) for pos in inner]
                        if not is_base(fact)
                    ]
                    slots.append(len(instances))
                    instances.append((key, index, sigs, body, inside))
                    frontier.extend(inside)
        # Rank round by round: an instance fires in the round after its
        # last same-component body fact is ranked, and ranks its head
        # if nothing did before.
        waiting: Dict[FactKey, List[int]] = {}
        pending: List[int] = []
        fired_in: List[Optional[int]] = []
        heads = set()
        for slot, (key, _, _, _, inside) in enumerate(instances):
            pending.append(len(inside))
            fired_in.append(None if inside else 0)
            for fact in inside:
                waiting.setdefault(fact, []).append(slot)
            if not inside:
                heads.add(key)
        rank: Dict[FactKey, int] = {}
        current = 0
        while heads:
            current += 1
            for key in heads:
                rank[key] = current
            ranked, heads = heads, set()
            for fact in ranked:
                for slot in waiting.get(fact, ()):
                    pending[slot] -= 1
                    if not pending[slot]:
                        fired_in[slot] = current
                        head = instances[slot][0]
                        if head not in rank:
                            heads.add(head)
        # The canonical instance: the first rule with one firing before
        # the fact's round, then its least rendered body.
        for key, slots in cone.items():
            below = rank.get(key)
            if below is None:
                continue
            best, best_text = None, None
            for slot in slots:
                fired = fired_in[slot]
                if fired is None or fired >= below:
                    continue
                _, index, sigs, body, _ = instances[slot]
                if best is not None and index > best[1]:
                    break
                keys = tuple([(*sig, args) for sig, args in zip(sigs, body)])
                text = [(*sig, list(map(str, args))) for sig, args in zip(sigs, body)]
                if best is None or text < best_text:
                    best, best_text = (keys, index), text
            keys, index = best
            self.choice[key] = (self.rules[key[:2]][index], keys)

    def entry(self, key: FactKey) -> Tuple[Optional[Rule], Tuple[FactKey, ...]]:
        """The rule and body deriving a fact; ``(None, ())`` for an EDB leaf."""
        if self.is_stored(key):
            return None, ()
        rule = self.program_facts.get(key)
        if rule is not None:
            return rule, ()
        if key not in self.choice:
            self.derive(key)
        if key not in self.choice:
            fact = Literal(key[0], key[2])
            raise RuntimeError(f"{fact} has no well-founded derivation in the model")
        return self.choice[key]

    def tree(self, root: FactKey) -> DerivationTree:
        trees: Dict[FactKey, DerivationTree] = {}
        stack = [root]
        while stack:
            key = stack[-1]
            if key in trees:
                stack.pop()
                continue
            rule, body = self.entry(key)
            missing = [child for child in body if child not in trees]
            if missing:
                stack.extend(missing)
                continue
            children = tuple([trees[child] for child in body])
            trees[key] = DerivationTree(Literal(key[0], key[2]), rule, children)
        return trees[root]


def _check_goal(program: Program, fact: Literal) -> None:
    if not fact.is_ground():
        raise ValueError(f"fact {fact} is not ground")
    program.check_query(fact.signature)


def derivation_tree(
    program: Program, model: Database, edb: Database, fact: Literal
) -> DerivationTree:
    """The canonical derivation tree of a ground ``fact`` in ``model``,
    the least model of ``program`` over ``edb`` (whose facts are the
    leaves).  A wrong-arity goal raises ``ValueError``
    (:meth:`~repro.datalog.program.Program.check_query`), a fact outside
    the model :class:`NotDerivableError`.  Like any read, the search may
    build indexes on, and flush, the model relations it probes."""
    _check_goal(program, fact)
    rel = model.get(fact.predicate, fact.arity)
    if rel is None or fact.args not in rel:
        raise NotDerivableError(f"{fact} is not derivable")
    search = _Search(program, model, edb)
    return search.tree((fact.predicate, fact.arity, fact.args))


def explain(
    program: Program,
    edb: Database,
    fact: Literal,
    config: Optional[EngineConfig] = None,
    **knobs,
) -> DerivationTree:
    """One-shot: evaluate ``program`` over ``edb``, then read ``fact``'s
    tree off the least model (:func:`derivation_tree`)."""
    _check_goal(program, fact)
    model, _ = seminaive_eval(program, edb, config, **knobs)
    return derivation_tree(program, model, edb, fact)
