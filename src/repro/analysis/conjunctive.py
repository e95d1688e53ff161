"""Conjunctive queries, homomorphisms, containment, and equivalence.

Every class condition in Section 4 of the paper ("free-exit must be
contained in free", "the middle conjunctive queries must be
equivalent") is a containment test between conjunctive queries over EDB
predicates.  Containment is decided by the Chandra-Merlin homomorphism
criterion: ``Q1 ⊑ Q2`` iff there is a homomorphism from ``Q2`` to
``Q1`` fixing the distinguished (head) variables positionally.

The special predicate ``equal`` — the conceptually infinite EDB
relation of Section 4.1 — is handled by *normalization*: ``equal``
atoms are eliminated by unifying their arguments before the
homomorphism search, which keeps the test sound and complete in its
presence.  Other conceptually infinite predicates (``list``) are
treated as ordinary EDB predicates, which keeps the test sound (the
theorems only need sufficiency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.datalog.literals import Literal
from repro.datalog.terms import Term, Variable, term_variables
from repro.datalog.unify import Substitution, unify_terms

EQUAL = "equal"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``q(head_terms) :- body``.

    ``head_terms`` are the distinguished arguments (variables or, after
    normalization, constants); ``body`` is a conjunction of positive
    atoms.  An empty body is the query *true* — it contains every query
    of the same head arity (the convention Theorem 6.2 relies on when a
    ``right`` conjunction is empty).
    """

    head_terms: Tuple[Term, ...]
    body: Tuple[Literal, ...]

    @property
    def arity(self) -> int:
        return len(self.head_terms)

    def is_trivial(self) -> bool:
        return not self.body

    def variables(self) -> List[Variable]:
        return term_variables(
            list(self.head_terms) + [arg for lit in self.body for arg in lit.args]
        )

    def __str__(self) -> str:
        from repro.datalog.pretty import pretty_literal, pretty_term

        head = ", ".join(pretty_term(t) for t in self.head_terms)
        if not self.body:
            return f"q({head}) :- true"
        body = ", ".join(pretty_literal(lit) for lit in self.body)
        return f"q({head}) :- {body}"


class UnsatisfiableQuery(Exception):
    """Raised when ``equal`` normalization derives a contradiction.

    An unsatisfiable conjunction (e.g. ``equal(3, 5)``) is contained in
    everything; callers treat this exception accordingly.
    """


def normalize_equalities(cq: ConjunctiveQuery) -> ConjunctiveQuery:
    """Eliminate ``equal`` atoms by unifying their arguments.

    Raises :class:`UnsatisfiableQuery` when two distinct constants are
    equated.
    """
    subst = Substitution()
    rest: List[Literal] = []
    for atom in cq.body:
        if atom.predicate == EQUAL and atom.arity == 2:
            if unify_terms(atom.args[0], atom.args[1], subst) is None:
                raise UnsatisfiableQuery(str(cq))
        else:
            rest.append(atom)
    if not subst.mapping:
        return ConjunctiveQuery(cq.head_terms, tuple(rest))
    return ConjunctiveQuery(
        tuple(subst.apply(t) for t in cq.head_terms),
        tuple(subst.apply_literal(lit) for lit in rest),
    )


def find_homomorphism(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Optional[Dict[Variable, Term]]:
    """A homomorphism from ``source`` into ``target``, or ``None``.

    The mapping sends variables of ``source`` to terms of ``target``,
    is the identity on constants, maps ``source.head_terms[i]`` to
    ``target.head_terms[i]``, and maps every body atom of ``source``
    onto some body atom of ``target``.
    """
    if source.arity != target.arity:
        return None
    mapping: Dict[Variable, Term] = {}

    def assign(term: Term, value: Term, trail: List[Variable]) -> bool:
        if isinstance(term, Variable):
            bound = mapping.get(term)
            if bound is None:
                mapping[term] = value
                trail.append(term)
                return True
            return bound == value
        # Constants (and ground compounds) must map to themselves.
        return term == value

    # Head terms are forced.
    trail0: List[Variable] = []
    for s_term, t_term in zip(source.head_terms, target.head_terms):
        if not assign(s_term, t_term, trail0):
            return None

    atoms = list(source.body)
    # Order atoms by selectivity: most-bound-variables first helps pruning.
    atoms.sort(key=lambda a: -sum(1 for v in a.iter_variables() if v in mapping))

    by_pred: Dict[Tuple[str, int], List[Literal]] = {}
    for atom in target.body:
        by_pred.setdefault(atom.signature, []).append(atom)

    def search(index: int) -> bool:
        if index == len(atoms):
            return True
        atom = atoms[index]
        for candidate in by_pred.get(atom.signature, ()):
            trail: List[Variable] = []
            ok = True
            for s_arg, t_arg in zip(atom.args, candidate.args):
                if not assign(s_arg, t_arg, trail):
                    ok = False
                    break
            if ok and search(index + 1):
                return True
            for var in trail:
                del mapping[var]
        return False

    if search(0):
        return dict(mapping)
    return None


def cq_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """True iff ``q1 ⊑ q2``: on every database, answers(q1) ⊆ answers(q2).

    Decided by finding a homomorphism from ``q2`` into ``q1`` after
    ``equal`` normalization on both sides.
    """
    try:
        q1n = normalize_equalities(q1)
    except UnsatisfiableQuery:
        return True  # the empty result is contained in everything
    try:
        q2n = normalize_equalities(q2)
    except UnsatisfiableQuery:
        return False if q1_satisfiable(q1n) else True
    return find_homomorphism(q2n, q1n) is not None


def q1_satisfiable(q: ConjunctiveQuery) -> bool:
    """A normalized CQ without ``equal`` atoms is always satisfiable."""
    return True


def cq_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Containment in both directions."""
    return cq_contained_in(q1, q2) and cq_contained_in(q2, q1)
