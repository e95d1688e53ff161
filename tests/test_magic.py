"""Tests for the Magic Sets transformation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.adornment import adorn
from repro.datalog.parser import parse_literal, parse_program, parse_query
from repro.engine.database import Database
from repro.engine.seminaive import seminaive_eval
from repro.transforms.magic import magic_name, magic_sets, magic_transform
from repro.workloads.examples import three_rule_tc_program
from repro.workloads.graphs import chain_edb, random_digraph_edb
from repro.workloads.lists import pmem_edb, pmem_program, pmem_query

from tests.conftest import answer_values, oracle_answers

RIGHT_TC = parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).")


class TestMagicStructure:
    def test_seed(self):
        magic = magic_transform(RIGHT_TC, parse_query("t(5, Y)"))
        assert magic.seed == parse_literal("m_t@bf(5)")
        assert any(r.head == magic.seed and not r.body for r in magic.program)

    def test_guards_added(self):
        magic = magic_transform(RIGHT_TC, parse_query("t(5, Y)"))
        modified = [r for r in magic.program.rules_for("t@bf")]
        assert all(r.body[0].predicate == "m_t@bf" for r in modified)

    def test_magic_rules_have_prefix_bodies(self):
        magic = magic_transform(RIGHT_TC, parse_query("t(5, Y)"))
        magic_rules = [
            r for r in magic.program.rules_for("m_t@bf") if r.body
        ]
        assert len(magic_rules) == 1
        body_preds = [l.predicate for l in magic_rules[0].body]
        assert body_preds == ["m_t@bf", "e"]

    def test_three_rule_tc_matches_figure_1(self):
        """Fig. 1: three magic rules (one per recursive occurrence prefix),
        the seed, four modified rules, and the query rule."""
        magic = magic_transform(three_rule_tc_program(), parse_query("t(5, Y)"))
        magic_rules = [r for r in magic.program.rules_for("m_t@bf") if r.body]
        assert len(magic_rules) == 4  # nonlinear rule contributes 2
        assert len(magic.program.rules_for("t@bf")) == 4
        assert len(magic.program.rules_for("query")) == 1

    def test_query_rule(self):
        magic = magic_transform(RIGHT_TC, parse_query("t(5, Y)"))
        query_rule = magic.program.rules_for("query")[0]
        assert query_rule.body[0].predicate == "t@bf"

    def test_nonground_bound_argument_rejected(self):
        program = parse_program("t(X, Y) :- e(X, Y).")
        adorned = adorn(program, parse_query("t(f(Z), Y)"))
        # adornment sees a free arg -> ff; force a fake bound arg instead
        with pytest.raises(ValueError):
            magic_sets(
                type(adorned)(
                    program=adorned.program,
                    goal=parse_literal("t@bf(f(Z), Y)"),
                    original_goal=adorned.original_goal,
                )
            )


class TestMagicSemantics:
    def test_answers_preserved_chain(self):
        magic = magic_transform(RIGHT_TC, parse_query("t(3, Y)"))
        edb = chain_edb(10)
        db, _ = seminaive_eval(magic.program, edb)
        expected = oracle_answers(RIGHT_TC, parse_query("t(3, Y)"), edb)
        assert magic.answers(db) == expected

    def test_relevance_restriction(self):
        """Magic computes fewer t facts than the full closure."""
        magic = magic_transform(RIGHT_TC, parse_query("t(7, Y)"))
        edb = chain_edb(10)
        full_db, _ = seminaive_eval(RIGHT_TC, edb)
        magic_db, _ = seminaive_eval(magic.program, edb)
        assert len(magic_db.facts("t@bf")) < len(full_db.facts("t"))

    def test_pmem_magic(self):
        magic = magic_transform(pmem_program(), pmem_query(5))
        db, _ = seminaive_eval(magic.program, pmem_edb(5))
        assert answer_values(magic.answers(db)) == {(i,) for i in range(5)}

    def test_all_free_query(self):
        magic = magic_transform(RIGHT_TC, parse_query("t(X, Y)"))
        edb = chain_edb(5)
        db, _ = seminaive_eval(magic.program, edb)
        expected = oracle_answers(RIGHT_TC, parse_query("t(X, Y)"), edb)
        assert magic.answers(db) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 10),
        edges=st.integers(1, 25),
        seed=st.integers(0, 20),
        source=st.integers(0, 9),
    )
    def test_answers_preserved_random(self, n, edges, seed, source):
        goal = parse_literal(f"t({source % n}, Y)")
        edb = random_digraph_edb(n, edges, seed)
        magic = magic_transform(three_rule_tc_program(), goal)
        db, _ = seminaive_eval(magic.program, edb)
        assert magic.answers(db) == oracle_answers(
            three_rule_tc_program(), goal, edb
        )


class TestMagicNames:
    def test_magic_name(self):
        assert magic_name("t@bf") == "m_t@bf"
