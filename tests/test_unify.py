"""Unit and property tests for substitutions, matching, unification."""

import pytest
from hypothesis import given, strategies as st

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_term
from repro.datalog.terms import Compound, Constant, Variable, make_list
from repro.datalog.unify import (
    Substitution,
    match,
    match_term,
    rename_apart,
    unify,
    unify_terms,
)


class TestMatch:
    def test_variable_binds(self):
        bindings = {}
        assert match_term(Variable("X"), Constant(1), bindings)
        assert bindings[Variable("X")] == Constant(1)

    def test_repeated_variable_consistent(self):
        lit = parse_literal("p(X, X)")
        assert match(lit, (Constant(1), Constant(1)), {}) is not None
        assert match(lit, (Constant(1), Constant(2)), {}) is None

    def test_constant_mismatch(self):
        assert not match_term(Constant(1), Constant(2), {})

    def test_compound_decomposition(self):
        pattern = parse_term("[H | T]")
        fact = make_list([Constant(1), Constant(2)])
        bindings = {}
        assert match_term(pattern, fact, bindings)
        assert bindings[Variable("H")] == Constant(1)
        assert bindings[Variable("T")] == make_list([Constant(2)])

    def test_input_bindings_not_mutated(self):
        lit = parse_literal("p(X)")
        original = {}
        out = match(lit, (Constant(1),), original)
        assert original == {} and out is not None

    def test_prebound_respected(self):
        lit = parse_literal("p(X)")
        pre = {Variable("X"): Constant(2)}
        assert match(lit, (Constant(1),), pre) is None
        assert match(lit, (Constant(2),), pre) is not None


def _uninterned(functor, args):
    """A compound equal to ``Compound(functor, args)`` but a distinct
    object: built while its hash-consing table entry is set aside."""
    args = tuple(args)
    shared = Compound(functor, args)
    del Compound._intern[(functor, args)]
    try:
        twin = Compound(functor, args)
    finally:
        Compound._intern[(functor, args)] = shared
    assert twin is not shared and twin == shared
    return twin


class TestMatchIdentityFastPath:
    """``pattern is fact`` is a positive shortcut, never a negative one."""

    def test_shared_ground_list_matches_without_a_walk(self):
        # One frame regardless of length: the old structural walk needs
        # a Python frame per cell and dies long before 5000.
        big = make_list([Constant(i) for i in range(5000)])
        bindings = {}
        assert match_term(big, big, bindings)
        assert bindings == {}

    def test_equal_but_distinct_compounds_still_match(self):
        shared = make_list([Constant(1), Constant(2)])
        twin = _uninterned(shared.functor, shared.args)
        assert match_term(shared, twin, {})
        assert match_term(twin, shared, {})

    def test_distinct_unequal_compounds_still_fail(self):
        a = make_list([Constant(1), Constant(2)])
        b = make_list([Constant(1), Constant(3)])
        assert not match_term(a, b, {})
        assert not match_term(a, Constant(1), {})

    def test_identity_inside_a_nonground_pattern(self):
        tail = make_list([Constant(2), Constant(3)])
        pattern = Compound(".", (Variable("H"), tail))
        fact = Compound(".", (Constant(1), tail))
        bindings = {}
        assert match_term(pattern, fact, bindings)
        assert bindings == {Variable("H"): Constant(1)}

    def test_identical_constant(self):
        c = Constant("a")
        assert match_term(c, c, {})
        assert match_term(c, Constant("a"), {})


class TestUnify:
    def test_symmetric_success(self):
        a = parse_literal("p(X, 1)")
        b = parse_literal("p(2, Y)")
        subst = unify(a, b)
        assert subst.apply_literal(a) == subst.apply_literal(b)

    def test_different_predicates(self):
        assert unify(parse_literal("p(X)"), parse_literal("q(X)")) is None

    def test_occurs_check(self):
        x = Variable("X")
        assert unify_terms(x, Compound("f", (x,))) is None

    def test_compound_unification(self):
        a = parse_term("f(X, g(Y))")
        b = parse_term("f(1, g(2))")
        subst = unify_terms(a, b, Substitution())
        assert subst.apply(a) == b

    def test_shared_variable_chains(self):
        subst = Substitution()
        assert unify_terms(Variable("X"), Variable("Y"), subst) is not None
        assert unify_terms(Variable("Y"), Constant(3), subst) is not None
        assert subst.apply(Variable("X")) == Constant(3)

    def test_unify_lists(self):
        a = parse_term("[H | T]")
        b = make_list([Constant(i) for i in range(3)])
        subst = unify_terms(a, b, Substitution())
        assert subst.apply(Variable("H")) == Constant(0)


class TestSubstitution:
    def test_apply_literal_identity_fastpath(self):
        lit = parse_literal("p(a, b)")
        assert Substitution().apply_literal(lit) is lit

    def test_apply_rule(self):
        from repro.datalog.parser import parse_rule

        rule = parse_rule("p(X) :- q(X).")
        subst = Substitution({Variable("X"): Constant(7)})
        applied = subst.apply_rule(rule)
        assert applied.head == parse_literal("p(7)")

    def test_copy_is_independent(self):
        subst = Substitution({Variable("X"): Constant(1)})
        dup = subst.copy()
        dup.bind(Variable("Y"), Constant(2))
        assert Variable("Y") not in subst


class TestRenameApart:
    def test_renames_all_variables(self):
        from repro.datalog.parser import parse_rule

        rule = parse_rule("p(X, Y) :- q(X, Z).")
        renamed = rename_apart(rule, "s")
        assert not set(rule.variables()) & set(renamed.variables())

    def test_preserves_structure(self):
        from repro.datalog.parser import parse_rule

        rule = parse_rule("p(X, X) :- q(X).")
        renamed = rename_apart(rule, "s")
        assert renamed.head.args[0] == renamed.head.args[1]
        assert renamed.head.args[0] == renamed.body[0].args[0]


# -- properties ---------------------------------------------------------

_ground = st.one_of(
    st.integers(-5, 5).map(Constant),
    st.sampled_from(["a", "b"]).map(Constant),
)
_terms = st.one_of(
    _ground,
    st.sampled_from(["X", "Y", "Z"]).map(Variable),
    st.builds(
        Compound,
        st.just("f"),
        st.tuples(
            st.one_of(_ground, st.sampled_from(["X", "Y"]).map(Variable))
        ),
    ),
)


@given(_terms, _terms)
def test_unify_mgu_is_unifier(a, b):
    """Whenever unification succeeds, applying the mgu equalizes terms."""
    subst = unify_terms(a, b, Substitution())
    if subst is not None:
        assert subst.apply(a) == subst.apply(b)


@given(_terms, _terms)
def test_unify_symmetric(a, b):
    """unify(a, b) succeeds iff unify(b, a) does."""
    assert (unify_terms(a, b, Substitution()) is None) == (
        unify_terms(b, a, Substitution()) is None
    )


@given(_terms)
def test_match_against_own_ground_instance(term):
    """Grounding a pattern then matching recovers consistent bindings."""
    grounding = Substitution(
        {v: Constant(f"g{v.name}") for v in term.variables()}
    )
    ground = grounding.apply(term)
    bindings = {}
    assert match_term(term, ground, bindings)
    for var, value in bindings.items():
        assert grounding.apply(var) == value
