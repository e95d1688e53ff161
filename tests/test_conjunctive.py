"""Tests for conjunctive-query containment (the Chandra-Merlin core)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.conjunctive import (
    ConjunctiveQuery,
    cq_contained_in,
    cq_equivalent,
    evaluate_cq,
    find_homomorphism,
    instance_contained_in,
    normalize_equalities,
)
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_term
from repro.datalog.terms import Constant, Variable
from repro.engine.database import Database


def cq(head_vars, *atoms):
    return ConjunctiveQuery(
        tuple(Variable(v) for v in head_vars),
        tuple(parse_literal(a) for a in atoms),
    )


class TestHomomorphism:
    def test_identity(self):
        q = cq(["X"], "e(X, Y)")
        assert find_homomorphism(q, q) is not None

    def test_into_more_specific(self):
        general = cq(["X"], "e(X, Y)")
        specific = cq(["X"], "e(X, Y)", "e(Y, Z)")
        # general maps into specific (specific ⊑ general)
        assert find_homomorphism(general, specific) is not None
        # but not vice versa: specific needs a 2-path ... via folding!
        # e(X,Y), e(Y,Z) maps into e(X,Y) only if Y can fold — it cannot,
        # since h(X) must be X and e(h(Y), h(Z)) must be an atom of the
        # target; h(Y)=Y forces e(Y, h(Z)) which is absent.
        assert find_homomorphism(specific, general) is None

    def test_folding_homomorphism(self):
        # Self-loop target absorbs a path source.
        loop = cq(["X"], "e(X, X)")
        path = cq(["X"], "e(X, Y)")
        # path maps into loop: Y -> X
        assert find_homomorphism(path, loop) is not None

    def test_constants_must_match(self):
        q1 = cq(["X"], "e(X, 5)")
        q2 = cq(["X"], "e(X, 6)")
        assert find_homomorphism(q1, q2) is None

    def test_arity_mismatch(self):
        assert find_homomorphism(cq(["X"], "a(X)"), cq(["X", "Y"], "a(X)")) is None


class TestContainment:
    def test_specific_in_general(self):
        general = cq(["X"], "e(X, Y)")
        specific = cq(["X"], "e(X, Y)", "e(Y, Z)")
        assert cq_contained_in(specific, general)
        assert not cq_contained_in(general, specific)

    def test_trivial_contains_everything(self):
        true_q = cq(["X"])  # empty body
        anything = cq(["X"], "r1(X)")
        assert cq_contained_in(anything, true_q)
        assert not cq_contained_in(true_q, anything)

    def test_different_predicates_incomparable(self):
        a = cq(["X"], "r1(X)")
        b = cq(["X"], "r2(X)")
        assert not cq_contained_in(a, b)
        assert not cq_contained_in(b, a)

    def test_equivalence_with_redundant_atom(self):
        a = cq(["X"], "e(X, Y)")
        b = cq(["X"], "e(X, Y)", "e(X, Z)")
        assert cq_equivalent(a, b)

    def test_equal_normalization(self):
        with_eq = cq(["X"], "equal(X, Y)", "r(Y)")
        plain = cq(["X"], "r(X)")
        assert cq_equivalent(with_eq, plain)

    def test_unsatisfiable_equal(self):
        bad = ConjunctiveQuery(
            (Variable("X"),),
            (Literal("equal", (Constant(1), Constant(2))), parse_literal("r(X)")),
        )
        anything = cq(["X"], "r(X)")
        assert cq_contained_in(bad, anything)
        assert not cq_contained_in(anything, bad)

    def test_normalize_substitutes_constants(self):
        q = ConjunctiveQuery(
            (Variable("X"),),
            (Literal("equal", (Variable("X"), Constant(5))), parse_literal("r(X)")),
        )
        normalized = normalize_equalities(q)
        assert normalized.head_terms == (Constant(5),)


class TestInstanceMode:
    def test_evaluate_cq(self):
        db = Database.from_dict({"e": [(1, 2), (2, 3)]})
        q = cq(["X"], "e(X, Y)", "e(Y, Z)")
        values = {tuple(t.value for t in row) for row in evaluate_cq(q, db)}
        assert values == {(1,)}

    def test_instance_containment_holds(self):
        db = Database.from_dict({"e": [(1, 2)], "r": [(2,)]})
        exit_targets = cq(["Y"], "e(X, Y)")
        r_filter = cq(["Y"], "r(Y)")
        assert instance_contained_in(exit_targets, r_filter, db)

    def test_instance_containment_fails(self):
        db = Database.from_dict({"e": [(1, 2)], "r": [(9,)]})
        exit_targets = cq(["Y"], "e(X, Y)")
        r_filter = cq(["Y"], "r(Y)")
        assert not instance_contained_in(exit_targets, r_filter, db)

    def test_trivial_target(self):
        db = Database()
        assert instance_contained_in(cq(["Y"], "e(X, Y)"), cq(["Y"]), db)
        assert not instance_contained_in(cq(["Y"]), cq(["Y"], "e(X, Y)"), db)

    def test_compound_head_terms_are_instantiated(self):
        # f(Y) :- e(Y) answers f(1) on e = {1}, not the non-ground f(Y)
        db = Database.from_dict({"e": [(1,)], "r": [(2,)]})
        f_of_y = parse_term("f(Y)")
        q_e = ConjunctiveQuery((f_of_y,), (parse_literal("e(Y)"),))
        q_r = ConjunctiveQuery((f_of_y,), (parse_literal("r(Y)"),))
        assert evaluate_cq(q_e, db) == {(parse_term("f(1)"),)}
        assert not instance_contained_in(q_e, q_r, db)
        assert instance_contained_in(q_e, q_e, db)

    def test_compound_heads_from_equal_normalization_are_instantiated(self):
        # equal(X, f(Y)) turns the head X into f(Y) before evaluation
        db = Database.from_dict({"e": [(1,)], "r": [(2,)]})
        q_e = cq(["X"], "e(Y)", "equal(X, f(Y))")
        q_r = cq(["X"], "r(Y)", "equal(X, f(Y))")
        assert evaluate_cq(q_e, db) == {(parse_term("f(1)"),)}
        assert not instance_contained_in(q_e, q_r, db)

    def test_constant_heads_from_equal_normalization(self):
        db = Database.from_dict({"r": [(5,), (6,)]})
        q = cq(["X"], "equal(X, 5)", "r(X)")
        assert evaluate_cq(q, db) == {(Constant(5),)}

    def test_unsafe_variables_inside_compound_heads_range_over_the_domain(self):
        db = Database.from_dict({"e": [(1,), (2,)]})
        q = ConjunctiveQuery((parse_term("g(Y, Z)"),), (parse_literal("e(Y)"),))
        assert evaluate_cq(q, db) == {
            (parse_term(f"g({y}, {z})"),) for y in (1, 2) for z in (1, 2)
        }


# -- soundness property: syntactic containment implies instance containment


def _random_cq(rng, preds, num_atoms):
    variables = ["X", "Y", "Z", "W"]
    head = (Variable("X"),)
    atoms = []
    for _ in range(num_atoms):
        pred = rng.choice(preds)
        atoms.append(
            Literal(
                pred,
                (Variable(rng.choice(variables)), Variable(rng.choice(variables))),
            )
        )
    return ConjunctiveQuery(head, tuple(atoms))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_containment_sound_on_random_instances(seed):
    rng = random.Random(seed)
    q1 = _random_cq(rng, ["e", "f"], rng.randint(1, 3))
    q2 = _random_cq(rng, ["e", "f"], rng.randint(1, 3))
    db = Database.from_dict(
        {
            "e": [(rng.randrange(4), rng.randrange(4)) for _ in range(6)],
            "f": [(rng.randrange(4), rng.randrange(4)) for _ in range(6)],
        }
    )
    if cq_contained_in(q1, q2):
        assert evaluate_cq(q1, db) <= evaluate_cq(q2, db)
