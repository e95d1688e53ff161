"""Factorability recognizers: Theorems 4.1, 4.2, 4.3, 6.2, 6.3.

Each theorem certifies that for a class of adorned unit programs the
Magic program factors into ``bp(X̄)`` / ``fp(Ȳ)``:

* **selection-pushing** (Definition 4.6, Theorem 4.1),
* **symmetric** (Definition 4.7, Theorem 4.2),
* **answer-propagating** (Definition 4.8, Theorem 4.3).

The class conditions are conjunctive-query containments; by default
they are decided *syntactically* (Chandra-Merlin homomorphisms over
uninterpreted EDB predicates — sound for every EDB).  The discussion
closing Example 4.3 observes that the conditions can instead be tested
against a *specific* EDB at run time; passing ``edb=...`` switches the
checks to that instance-level mode, which is how the Example 4.3/4.4/
4.5 programs (whose conditions relate distinct EDB predicates) are
certified in the benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.analysis.classify import (
    ProgramClassification,
    RuleClass,
    RuleClassification,
)
from repro.analysis.conjunctive import (
    ConjunctiveQuery,
    UnsatisfiableQuery,
    cq_contained_in,
    cq_equivalent,
    normalize_equalities,
)
from repro.datalog.literals import Literal
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, term_variables


def evaluate_cq(cq: ConjunctiveQuery, db) -> Set[Tuple[Term, ...]]:
    """Answers of ``cq`` on a :class:`repro.engine.database.Database`.

    Used for the *instance-level* (run-time) versions of the class
    conditions, the strengthening discussed at the end of Example 4.3.
    ``equal`` atoms are normalized away first; other conceptually
    infinite predicates must be materialized in ``db`` by the caller.
    Heads are instantiated like the reference evaluator's, compound
    terms included, so every answer is ground.
    """
    # imported here: syntactic certification never loads the reference
    from repro.engine.reference import instantiate_head, join_rule

    try:
        cq = normalize_equalities(cq)
    except UnsatisfiableQuery:
        return set()
    rule = Rule(Literal("q*", cq.head_terms), cq.body)
    answers: Set[Tuple[Term, ...]] = set()

    # Head variables not bound by the body (unsafe), also inside
    # compound head terms, range over the active domain, mirroring the
    # homomorphism convention that an unconstrained distinguished
    # variable is unconstrained.
    body_vars = {v for lit in cq.body for v in lit.iter_variables()}
    unsafe = [v for v in term_variables(cq.head_terms) if v not in body_vars]
    domain: Set[Term] = set()
    if unsafe:
        for rel in db.relations.values():
            for fact in rel:
                domain.update(fact)

    def on_match(bindings):
        if not unsafe:
            answers.add(instantiate_head(rule, bindings))
            return
        for values in itertools.product(domain, repeat=len(unsafe)):
            extended = dict(bindings)
            extended.update(zip(unsafe, values))
            answers.add(instantiate_head(rule, extended))

    if cq.body:
        join_rule(db.relations, rule, on_match)
    else:
        on_match({})
    return answers


def instance_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery, db) -> bool:
    """True iff answers(q1) ⊆ answers(q2) on the specific database ``db``.

    A trivial (empty-body) ``q2`` contains everything; a trivial ``q1``
    is only contained in a trivial ``q2`` (its answer set is the full
    cross product, which we cannot enumerate).
    """
    if q2.is_trivial():
        return True
    if q1.is_trivial():
        return False
    return evaluate_cq(q1, db) <= evaluate_cq(q2, db)


def _containment_tests(edb):
    """The (contained_in, equivalent) pair for the chosen mode."""
    if edb is None:
        return cq_contained_in, cq_equivalent

    def contained(q1, q2):
        return instance_contained_in(q1, q2, edb)

    def equivalent(q1, q2):
        return contained(q1, q2) and contained(q2, q1)

    return contained, equivalent


@dataclass
class FactorabilityReport:
    """Outcome of the class checks on one classified program."""

    classification: ProgramClassification
    selection_pushing: bool = False
    symmetric: bool = False
    answer_propagating: bool = False
    reasons: List[str] = field(default_factory=list)

    @property
    def factorable(self) -> bool:
        return self.selection_pushing or self.symmetric or self.answer_propagating

    @property
    def certified_by(self) -> Optional[str]:
        if self.selection_pushing:
            return "Theorem 4.1 (selection-pushing)"
        if self.symmetric:
            return "Theorem 4.2 (symmetric)"
        if self.answer_propagating:
            return "Theorem 4.3 (answer-propagating)"
        return None


def _magic_program_is_the_papers(
    classification: ProgramClassification, reasons: List[str]
) -> bool:
    """The precondition all three theorems share.

    The program is RLC-stable (Definition 4.4), and its Magic program
    is the one the theorems speak of: the Magic rule for a right-linear
    occurrence ``p(V̄, Ȳ)`` carries the whole bound side of the rule —
    ``first(X̄, V̄)``, or ``left(X̄)``, the left occurrences and
    ``center(Ū, V̄)``.  With a left-to-right SIP that means nothing but
    ``right(Ȳ)`` is ordered after the occurrence.  A filter on the
    bound arguments left behind it (``p(X, W), e(W, Y), r(Y)`` asked
    with ``Y`` bound) is absent from the Magic rule, the factored
    program turns the extra magic facts into answers, and the query is
    answered for goals the filter rejects.
    """
    if not classification.is_rlc_stable():
        reasons.append("not RLC-stable")
        return False
    for rc in classification.recursive_rules:
        if rc.behind_right:
            behind = ", ".join(str(lit) for lit in rc.behind_right)
            reasons.append(
                f"[{behind}] follows the right-linear occurrence in {rc.rule}: "
                "its Magic rule would omit it"
            )
            return False
    return True


def _single_exit(classification: ProgramClassification) -> Optional[RuleClassification]:
    exits = classification.exit_rules
    if len(exits) != 1:
        return None
    return exits[0]


def is_selection_pushing(
    classification: ProgramClassification, edb=None, reasons: Optional[List[str]] = None
) -> bool:
    """Definition 4.6 on a classified RLC-stable program."""
    reasons = reasons if reasons is not None else []
    contained, equivalent = _containment_tests(edb)
    if not _magic_program_is_the_papers(classification, reasons):
        return False
    exit_rule = _single_exit(classification)
    assert exit_rule is not None
    free_exit = exit_rule.free_exit

    for rc in classification.recursive_rules:
        if rc.rule_class in (RuleClass.COMBINED, RuleClass.RIGHT_LINEAR):
            if not contained(free_exit, rc.free):
                reasons.append(
                    f"free_exit [{free_exit}] not contained in free [{rc.free}] of {rc.rule}"
                )
                return False

    with_left = [
        rc
        for rc in classification.recursive_rules
        if rc.rule_class in (RuleClass.LEFT_LINEAR, RuleClass.COMBINED)
    ]
    with_first = [
        rc
        for rc in classification.recursive_rules
        if rc.rule_class is RuleClass.RIGHT_LINEAR
    ]
    for i, a in enumerate(with_left):
        for b in with_left[i + 1 :]:
            if not equivalent(a.bound, b.bound):
                reasons.append(
                    f"left conjunctions differ: [{a.bound}] vs [{b.bound}]"
                )
                return False
    for rc_first in with_first:
        for rc_left in with_left:
            if not contained(rc_first.bound_first, rc_left.bound):
                reasons.append(
                    f"bound_first [{rc_first.bound_first}] not contained in "
                    f"bound [{rc_left.bound}]"
                )
                return False
    return True


def is_symmetric(
    classification: ProgramClassification, edb=None, reasons: Optional[List[str]] = None
) -> bool:
    """Definition 4.7: only combined recursive rules, shared middles."""
    reasons = reasons if reasons is not None else []
    contained, equivalent = _containment_tests(edb)
    if not _magic_program_is_the_papers(classification, reasons):
        return False
    recursive = classification.recursive_rules
    if not recursive or any(
        rc.rule_class is not RuleClass.COMBINED for rc in recursive
    ):
        reasons.append("not all recursive rules are combined rules")
        return False
    exit_rule = _single_exit(classification)
    assert exit_rule is not None
    for rc in recursive:
        if not contained(exit_rule.free_exit, rc.free):
            reasons.append(
                f"free_exit [{exit_rule.free_exit}] not contained in free [{rc.free}]"
            )
            return False
    for i, a in enumerate(recursive):
        for b in recursive[i + 1 :]:
            if a.middle.arity != b.middle.arity or not equivalent(a.middle, b.middle):
                reasons.append(
                    f"middle conjunctions not equivalent: [{a.middle}] vs [{b.middle}]"
                )
                return False
    return True


def is_answer_propagating(
    classification: ProgramClassification, edb=None, reasons: Optional[List[str]] = None
) -> bool:
    """Definition 4.8: the combination of both previous sets of conditions."""
    reasons = reasons if reasons is not None else []
    contained, equivalent = _containment_tests(edb)
    if not _magic_program_is_the_papers(classification, reasons):
        return False
    exit_rule = _single_exit(classification)
    assert exit_rule is not None
    free_exit = exit_rule.free_exit
    bound_exit = exit_rule.bound_exit

    lefts = [
        rc for rc in classification.recursive_rules
        if rc.rule_class is RuleClass.LEFT_LINEAR
    ]
    rights = [
        rc for rc in classification.recursive_rules
        if rc.rule_class is RuleClass.RIGHT_LINEAR
    ]
    combineds = [
        rc for rc in classification.recursive_rules
        if rc.rule_class is RuleClass.COMBINED
    ]

    for rc in lefts:
        if not contained(bound_exit, rc.bound):
            reasons.append(
                f"bound_exit [{bound_exit}] not contained in bound [{rc.bound}]"
            )
            return False
    for rc in rights:
        if not contained(free_exit, rc.free):
            reasons.append(
                f"free_exit [{free_exit}] not contained in free [{rc.free}]"
            )
            return False
    for rc in combineds:
        if not contained(free_exit, rc.free):
            reasons.append(
                f"free_exit [{free_exit}] not contained in free [{rc.free}]"
            )
            return False
    for i, a in enumerate(combineds):
        for b in combineds[i + 1 :]:
            if a.middle.arity != b.middle.arity or not equivalent(a.middle, b.middle):
                reasons.append("middle conjunctions of combined rules not equivalent")
                return False
    for left in lefts:
        for combined in combineds:
            if not contained(left.bound, combined.bound):
                reasons.append(
                    f"bound of left-linear [{left.bound}] not contained in "
                    f"bound of combined [{combined.bound}]"
                )
                return False
            if not contained(left.free_last, combined.free):
                reasons.append(
                    f"free_last [{left.free_last}] not contained in free "
                    f"[{combined.free}]"
                )
                return False
    for right in rights:
        for combined in combineds:
            if not contained(right.bound_first, combined.bound):
                reasons.append(
                    f"bound_first [{right.bound_first}] not contained in bound "
                    f"[{combined.bound}]"
                )
                return False
    for right in rights:
        for left in lefts:
            if not contained(right.bound_first, left.bound):
                reasons.append(
                    f"bound_first [{right.bound_first}] not contained in bound "
                    f"[{left.bound}]"
                )
                return False
            if not contained(left.free_last, right.free):
                reasons.append(
                    f"free_last [{left.free_last}] not contained in free "
                    f"[{right.free}]"
                )
                return False
    return True


def check_factorability(
    classification: ProgramClassification, edb=None
) -> FactorabilityReport:
    """Run all three recognizers and collect their diagnoses."""
    report = FactorabilityReport(classification=classification)
    report.selection_pushing = is_selection_pushing(
        classification, edb, report.reasons
    )
    report.symmetric = is_symmetric(classification, edb, report.reasons)
    report.answer_propagating = is_answer_propagating(
        classification, edb, report.reasons
    )
    return report
