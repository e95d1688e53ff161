"""Tests for the naive reference, semi-naive, and top-down evaluators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.parser import parse_literal, parse_program, parse_query
from repro.engine.database import Database
from repro.engine.reference import naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import NonTerminationError
from repro.engine.topdown import topdown_eval
from repro.workloads.graphs import chain_edb, cycle_edb, random_digraph_edb
from repro.workloads.lists import pmem_edb, pmem_program, pmem_query

from tests.conftest import answer_values

TC = parse_program(
    """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, W), t(W, Y).
    """
)


class TestNaive:
    def test_chain_closure(self):
        db, stats = naive_fixpoint_reference(TC, chain_edb(5))
        assert len(db.facts("t")) == 4 + 3 + 2 + 1
        assert stats.facts == 10

    def test_cycle_closure(self):
        db, _ = naive_fixpoint_reference(TC, cycle_edb(4))
        assert len(db.facts("t")) == 16

    def test_empty_edb(self):
        db, stats = naive_fixpoint_reference(TC, Database())
        assert db.facts("t") == set()

    def test_iteration_guard(self):
        diverging = parse_program("p(s(X)) :- p(X).\n")
        edb = Database()
        edb.add_fact("p", (0,))
        with pytest.raises(NonTerminationError):
            naive_fixpoint_reference(diverging, edb, max_iterations=10)

    def test_fact_guard(self):
        diverging = parse_program("p(s(X)) :- p(X).\n")
        edb = Database()
        edb.add_fact("p", (0,))
        with pytest.raises(NonTerminationError):
            naive_fixpoint_reference(diverging, edb, max_facts=50)

    def test_program_facts_loaded(self):
        program = parse_program("m(1).\nr(X) :- m(X).")
        db, _ = naive_fixpoint_reference(program, Database())
        assert db.has_fact("r", (1,))


class TestSemiNaive:
    def test_matches_naive_on_chain(self):
        naive_db, _ = naive_fixpoint_reference(TC, chain_edb(8))
        semi_db, _ = seminaive_eval(TC, chain_edb(8))
        assert naive_db == semi_db

    def test_matches_naive_on_cycle(self):
        naive_db, _ = naive_fixpoint_reference(TC, cycle_edb(6))
        semi_db, _ = seminaive_eval(TC, cycle_edb(6))
        assert naive_db == semi_db

    def test_no_duplicate_inferences_on_chain(self):
        """Semi-naive repeats strictly less work than naive: on a chain
        it does exactly one inference per ``t`` fact."""
        for n in (2, 5, 10, 12):
            _, naive_stats = naive_fixpoint_reference(TC, chain_edb(n))
            _, semi_stats = seminaive_eval(TC, chain_edb(n))
            assert semi_stats.inferences < naive_stats.inferences, n
            assert semi_stats.facts == naive_stats.facts, n
            assert semi_stats.inferences == semi_stats.facts == n * (n - 1) // 2, n

    def test_nonlinear_rules(self):
        nonlinear = parse_program(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y)."
        )
        naive_db, _ = naive_fixpoint_reference(nonlinear, chain_edb(7))
        semi_db, _ = seminaive_eval(nonlinear, chain_edb(7))
        assert naive_db == semi_db

    def test_mutual_recursion(self):
        mutual = parse_program(
            """
            even(X) :- zero(X).
            even(Y) :- odd(X), succ(X, Y).
            odd(Y) :- even(X), succ(X, Y).
            """
        )
        edb = Database.from_dict(
            {"zero": [(0,)], "succ": [(i, i + 1) for i in range(10)]}
        )
        naive_db, _ = naive_fixpoint_reference(mutual, edb)
        semi_db, _ = seminaive_eval(mutual, edb)
        assert naive_db == semi_db
        assert answer_values(semi_db.query(parse_literal("even(X)"))) == {
            (i,) for i in range(0, 11, 2)
        }

    def test_stratified_chain_of_predicates(self):
        layered = parse_program(
            """
            a(X, Y) :- e(X, Y).
            b(X, Y) :- a(X, Y).
            c(X) :- b(X, _).
            """
        )
        db, _ = seminaive_eval(layered, chain_edb(4))
        assert len(db.facts("c")) == 3

    def test_guards(self):
        diverging = parse_program("p(s(X)) :- p(X).\n")
        edb = Database()
        edb.add_fact("p", (0,))
        with pytest.raises(NonTerminationError):
            seminaive_eval(diverging, edb, max_facts=50)

    def test_seed_facts_drive_first_round(self):
        program = parse_program("m(5).\nm(Y) :- m(X), e(X, Y).")
        db, _ = seminaive_eval(program, chain_edb(10, relation="e"))
        assert answer_values(db.query(parse_literal("m(X)"))) == {
            (i,) for i in range(5, 10)
        }


class TestTopDown:
    def test_tc_answers(self):
        result = topdown_eval(TC, chain_edb(6), parse_query("t(0, Y)"))
        assert answer_values(result.answers) == {(i,) for i in range(1, 6)}

    def test_goal_directed_subgoals(self):
        """Only goals reachable from the query get tables."""
        result = topdown_eval(TC, chain_edb(10), parse_query("t(7, Y)"))
        # subgoals: t(7,Y), t(8,Y), t(9,Y) — not the earlier sources
        assert result.subgoals <= 4

    def test_pmem_quadratic_table(self):
        """Example 1.2: the table holds O(n^2) entries."""
        n = 6
        result = topdown_eval(pmem_program(), pmem_edb(n), pmem_query(n))
        assert len(result.answers) == n
        assert result.table_entries == n * (n + 1) // 2

    def test_ground_goal(self):
        result = topdown_eval(TC, chain_edb(4), parse_query("t(0, 3)"))
        assert result.answers == {()}

    def test_budget(self):
        with pytest.raises(NonTerminationError):
            topdown_eval(
                TC, cycle_edb(50), parse_query("t(0, Y)"), max_steps=5
            )


# -- cross-evaluator property ------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 12),
    edges=st.integers(1, 30),
    seed=st.integers(0, 5),
    source=st.integers(0, 11),
)
def test_three_evaluators_agree_on_random_graphs(n, edges, seed, source):
    source = source % n
    edb = random_digraph_edb(n, edges, seed)
    goal = parse_literal(f"t({source}, Y)")
    naive_db, _ = naive_fixpoint_reference(TC, edb)
    semi_db, _ = seminaive_eval(TC, edb)
    assert naive_db == semi_db
    td = topdown_eval(TC, edb, goal)
    assert td.answers == naive_db.query(goal)
