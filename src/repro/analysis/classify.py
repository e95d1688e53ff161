"""Rule classification: left-linear, right-linear, combined (Defs 4.1-4.3).

Classification operates on an *adorned unit program* — one recursive
predicate ``p`` with one adornment — whose ``p``-literals have been put
in standard form (:mod:`repro.analysis.standard_form`).  Writing a rule
head as ``p(X̄, Ȳ)`` (bound vector, free vector):

* a **left-linear occurrence** is a body literal ``p(X̄, Ū)`` — its
  bound arguments are exactly the head's bound vector;
* a **right-linear occurrence** is a body literal ``p(V̄, Ȳ)`` — its
  free arguments are exactly the head's free vector;
* a rule is **left-linear** when every ``p``-occurrence is left-linear
  and the EDB atoms split into variable-disjoint conjunctions
  ``left(X̄)`` and ``last(Ū₁..Ūₘ, Ȳ)``;
* **right-linear** when its single ``p``-occurrence is right-linear and
  the EDB atoms split into ``first(X̄, V̄)`` and ``right(Ȳ)``;
* **combined** when it has left occurrences plus one right occurrence
  and the EDB atoms split into ``left(X̄)``, ``center(Ū, V̄)``, and
  ``right(Ȳ)``.

The split is computed by connected components of the rule's variable
co-occurrence graph, which also makes classification independent of
body literal order (the paper allows arbitrary reordering).  Global
argument permutations (Example 4.1) are searched when the identity
fails: the same permutation of bound positions and of free positions is
applied to every ``p``-literal.

The conjunctions of Definition 4.5 (``bound``, ``free``,
``bound_first``, ``free_last``, ``middle``, ``bound_exit``,
``free_exit``) are extracted as :class:`ConjunctiveQuery` objects for
the theorem checkers in :mod:`repro.core.theorems`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.adornment import Adornment
from repro.analysis.conjunctive import ConjunctiveQuery
from repro.analysis.standard_form import to_standard_form
from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable


class RuleClass(Enum):
    EXIT = "exit"
    LEFT_LINEAR = "left-linear"
    RIGHT_LINEAR = "right-linear"
    COMBINED = "combined"
    UNCLASSIFIED = "unclassified"


class _UnionFind:
    """Union-find over hashable items, used for variable connectivity."""

    def __init__(self):
        self.parent: Dict = {}

    def find(self, item):
        parent = self.parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self.parent[item] = root
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def same(self, a, b) -> bool:
        return self.find(a) == self.find(b)


#: Sentinel nodes anchoring the bound / middle / free variable groups.
_BOUND = "<bound>"
_MIDDLE = "<middle>"
_FREE = "<free>"


@dataclass
class RuleClassification:
    """One rule's class plus its Definition-4.5 conjunctions."""

    rule: Rule
    rule_class: RuleClass
    #: ``bound(X̄) :- left(X̄)`` for left-linear / combined rules.
    bound: Optional[ConjunctiveQuery] = None
    #: ``free(Ȳ) :- right(Ȳ)`` for right-linear / combined rules.
    free: Optional[ConjunctiveQuery] = None
    #: ``bound_first(X̄) :- first(X̄, V̄)`` for right-linear rules.
    bound_first: Optional[ConjunctiveQuery] = None
    #: ``free_last(Ȳ) :- last(Ū₁..Ūₘ, Ȳ)`` for left-linear rules.
    free_last: Optional[ConjunctiveQuery] = None
    #: ``middle(Ū, V̄) :- center(Ū, V̄)`` for combined rules.
    middle: Optional[ConjunctiveQuery] = None
    #: ``bound_exit(X̄) :- exit(X̄, Ȳ)`` / ``free_exit(Ȳ) :- exit(X̄, Ȳ)``.
    bound_exit: Optional[ConjunctiveQuery] = None
    free_exit: Optional[ConjunctiveQuery] = None
    left_occurrences: Tuple[Literal, ...] = ()
    right_occurrence: Optional[Literal] = None
    #: Body literals outside ``right(Ȳ)`` that the rule, as ordered,
    #: evaluates *after* its right-linear occurrence (filled in by
    #: :func:`classify_program`).  The class itself is order-blind, but
    #: the left-to-right Magic rule for that occurrence is built from
    #: what precedes it, so these are missing from it.
    behind_right: Tuple[Literal, ...] = ()
    reason: str = ""


@dataclass
class ProgramClassification:
    """Classification of a whole adorned unit program."""

    predicate: str
    adornment: Adornment
    rules: List[RuleClassification] = field(default_factory=list)
    permutation: Optional[Tuple[int, ...]] = None
    ok: bool = False
    reason: str = ""

    @property
    def exit_rules(self) -> List[RuleClassification]:
        return [rc for rc in self.rules if rc.rule_class is RuleClass.EXIT]

    @property
    def recursive_rules(self) -> List[RuleClassification]:
        return [
            rc
            for rc in self.rules
            if rc.rule_class
            in (RuleClass.LEFT_LINEAR, RuleClass.RIGHT_LINEAR, RuleClass.COMBINED)
        ]

    def is_rlc_stable(self) -> bool:
        """Definition 4.4: only L/R/C rules plus one exit rule."""
        return (
            self.ok
            and len(self.exit_rules) == 1
            and all(
                rc.rule_class is not RuleClass.UNCLASSIFIED for rc in self.rules
            )
        )


def _vector(literal: Literal, positions: Sequence[int]) -> Tuple[Term, ...]:
    return tuple(literal.args[i] for i in positions)


def _group_atoms(
    atoms: Sequence[Literal],
    anchors: Dict[str, Set[Variable]],
    floating_group: str,
) -> Optional[Dict[str, List[Literal]]]:
    """Partition EDB atoms by variable connectivity to anchor groups.

    ``anchors`` maps group names to their anchor variable sets; all
    anchor variables of one group are unioned with the group sentinel.
    Returns ``None`` when two sentinels collide (the conjunctions would
    share variables, violating disjointness) and the atom partition
    otherwise.  Atoms connected to no anchor join ``floating_group``.
    """
    uf = _UnionFind()
    for group, variables in anchors.items():
        for var in variables:
            uf.union(group, var)
    for atom in atoms:
        atom_vars = atom.variables()
        for first, second in zip(atom_vars, atom_vars[1:]):
            uf.union(first, second)
        if atom_vars:
            # Anchor the atom itself through its first variable.
            uf.union(atom_vars[0], ("atom", id(atom)))
        else:
            uf.parent.setdefault(("atom", id(atom)), ("atom", id(atom)))
    sentinels = list(anchors)
    for a, b in itertools.combinations(sentinels, 2):
        if uf.same(a, b):
            return None
    groups: Dict[str, List[Literal]] = {g: [] for g in anchors}
    groups.setdefault(floating_group, [])
    for atom in atoms:
        root_key = ("atom", id(atom))
        assigned = None
        for group in sentinels:
            if uf.same(group, root_key):
                assigned = group
                break
        if assigned is None:
            assigned = floating_group
        groups[assigned].append(atom)
    return groups


def classify_rule(
    rule: Rule,
    predicate: str,
    adornment: Adornment,
) -> RuleClassification:
    """Classify one standard-form rule of the adorned predicate."""
    bound_pos = adornment.bound_positions()
    free_pos = adornment.free_positions()
    head_bound = _vector(rule.head, bound_pos)
    head_free = _vector(rule.head, free_pos)

    p_literals = [lit for lit in rule.body if lit.predicate == predicate]
    edb_atoms = [lit for lit in rule.body if lit.predicate != predicate]

    if not p_literals:
        body = tuple(edb_atoms)
        return RuleClassification(
            rule=rule,
            rule_class=RuleClass.EXIT,
            bound_exit=ConjunctiveQuery(head_bound, body),
            free_exit=ConjunctiveQuery(head_free, body),
        )

    left_occs = [lit for lit in p_literals if _vector(lit, bound_pos) == head_bound]
    right_occs = [lit for lit in p_literals if _vector(lit, free_pos) == head_free]

    both = [lit for lit in p_literals if lit in left_occs and lit in right_occs]
    if both:
        return RuleClassification(
            rule=rule,
            rule_class=RuleClass.UNCLASSIFIED,
            reason="a p-occurrence repeats both the head's bound and free vectors "
            "(the rule is tautological)",
        )

    unmatched = [
        lit for lit in p_literals if lit not in left_occs and lit not in right_occs
    ]
    if unmatched:
        return RuleClassification(
            rule=rule,
            rule_class=RuleClass.UNCLASSIFIED,
            reason=f"p-occurrence {unmatched[0]} is neither left- nor right-linear",
        )

    x_vars = {v for t in head_bound for v in t.variables()}
    y_vars = {v for t in head_free for v in t.variables()}

    if not right_occs:
        # Candidate left-linear rule (Definition 4.1).
        u_vectors = [_vector(lit, free_pos) for lit in left_occs]
        u_vars = {v for vec in u_vectors for t in vec for v in t.variables()}
        groups = _group_atoms(
            edb_atoms,
            {_BOUND: x_vars, _FREE: u_vars | y_vars},
            floating_group=_BOUND,
        )
        if groups is None:
            return RuleClassification(
                rule=rule,
                rule_class=RuleClass.UNCLASSIFIED,
                reason="left and last conjunctions would share variables",
            )
        return RuleClassification(
            rule=rule,
            rule_class=RuleClass.LEFT_LINEAR,
            bound=ConjunctiveQuery(head_bound, tuple(groups[_BOUND])),
            free_last=ConjunctiveQuery(head_free, tuple(groups[_FREE])),
            left_occurrences=tuple(left_occs),
        )

    if len(right_occs) > 1:
        return RuleClassification(
            rule=rule,
            rule_class=RuleClass.UNCLASSIFIED,
            reason="more than one right-linear p-occurrence",
        )

    right = right_occs[0]
    v_vars = {v for t in _vector(right, bound_pos) for v in t.variables()}

    if not left_occs:
        # Candidate right-linear rule (Definition 4.2).
        groups = _group_atoms(
            edb_atoms,
            {_BOUND: x_vars | v_vars, _FREE: y_vars},
            floating_group=_BOUND,
        )
        if groups is None:
            return RuleClassification(
                rule=rule,
                rule_class=RuleClass.UNCLASSIFIED,
                reason="first and right conjunctions would share variables",
            )
        return RuleClassification(
            rule=rule,
            rule_class=RuleClass.RIGHT_LINEAR,
            bound_first=ConjunctiveQuery(head_bound, tuple(groups[_BOUND])),
            free=ConjunctiveQuery(head_free, tuple(groups[_FREE])),
            right_occurrence=right,
        )

    # Candidate combined rule (Definition 4.3).
    u_vectors = [_vector(lit, free_pos) for lit in left_occs]
    u_vars = {v for vec in u_vectors for t in vec for v in t.variables()}
    groups = _group_atoms(
        edb_atoms,
        {_BOUND: x_vars, _MIDDLE: u_vars | v_vars, _FREE: y_vars},
        floating_group=_MIDDLE,
    )
    if groups is None:
        return RuleClassification(
            rule=rule,
            rule_class=RuleClass.UNCLASSIFIED,
            reason="left / center / right conjunctions would share variables",
        )
    middle_head = tuple(
        term for vec in u_vectors for term in vec
    ) + _vector(right, bound_pos)
    return RuleClassification(
        rule=rule,
        rule_class=RuleClass.COMBINED,
        bound=ConjunctiveQuery(head_bound, tuple(groups[_BOUND])),
        free=ConjunctiveQuery(head_free, tuple(groups[_FREE])),
        middle=ConjunctiveQuery(middle_head, tuple(groups[_MIDDLE])),
        left_occurrences=tuple(left_occs),
        right_occurrence=right,
    )


def _behind_right(rc: RuleClassification, written: int) -> Tuple[Literal, ...]:
    """The bound-side literals ordered after ``rc``'s right-linear occurrence.

    ``written`` is the length of the body before standard form appended
    its ``equal``/``list`` atoms: those restate arguments of the
    ``p``-literals themselves and are behind nothing.
    """
    if rc.right_occurrence is None:
        return ()
    body = rc.rule.body[:written]
    after = body[body.index(rc.right_occurrence) + 1 :]
    return tuple(lit for lit in after if lit not in rc.free.body)


def _permute_literal(literal: Literal, permutation: Sequence[int]) -> Literal:
    return literal.with_args(tuple(literal.args[i] for i in permutation))


def _permute_rule(rule: Rule, predicate: str, permutation: Sequence[int]) -> Rule:
    head = rule.head
    if head.predicate == predicate:
        head = _permute_literal(head, permutation)
    body = tuple(
        _permute_literal(lit, permutation) if lit.predicate == predicate else lit
        for lit in rule.body
    )
    return Rule(head, body)


def _candidate_permutations(
    adornment: Adornment, limit: int
) -> Iterable[Tuple[int, ...]]:
    """Global argument permutations preserving the bound/free split.

    A permutation that moved a bound position to a free one would
    change the query form, so only within-group permutations are
    candidates (the paper's "same permutation for all instances"
    allowance in Section 4.1).  The identity comes first.
    """
    bound = list(adornment.bound_positions())
    free = list(adornment.free_positions())
    count = 0
    for bound_perm in itertools.permutations(bound):
        for free_perm in itertools.permutations(free):
            mapping = dict(zip(bound, bound_perm))
            mapping.update(zip(free, free_perm))
            yield tuple(mapping[i] for i in range(len(adornment)))
            count += 1
            if count >= limit:
                return


def classify_program(
    program: Program,
    predicate: str,
    adornment: Adornment,
    permutation_limit: int = 720,
) -> ProgramClassification:
    """Classify every rule of the adorned predicate, in standard form.

    Rules whose head is not ``predicate`` are ignored (the query rule,
    magic rules).  If the identity permutation fails to classify every
    rule, global bound/free-preserving permutations are searched up to
    ``permutation_limit`` candidates.
    """
    rules = program.rules_for(predicate)
    if not rules:
        return ProgramClassification(
            predicate=predicate,
            adornment=adornment,
            ok=False,
            reason=f"no rules define {predicate}",
        )
    standard = to_standard_form(Program(rules), {predicate}).program

    best: Optional[ProgramClassification] = None
    for permutation in _candidate_permutations(adornment, permutation_limit):
        classifications = [
            classify_rule(
                _permute_rule(rule, predicate, permutation), predicate, adornment
            )
            for rule in standard.rules
        ]
        result = ProgramClassification(
            predicate=predicate,
            adornment=adornment,
            rules=classifications,
            permutation=permutation,
            ok=all(
                rc.rule_class is not RuleClass.UNCLASSIFIED for rc in classifications
            ),
        )
        if result.ok:
            for rc, rule in zip(classifications, rules):
                rc.behind_right = _behind_right(rc, len(rule.body))
            return result
        if best is None:
            best = result  # report the identity permutation's diagnosis
    assert best is not None
    best.reason = "; ".join(
        rc.reason for rc in best.rules if rc.rule_class is RuleClass.UNCLASSIFIED
    )
    return best
