"""Tests for derivation trees (Definition 2.1) and fact explanation."""

import pytest

from repro.datalog.parser import parse_literal, parse_program
from repro.engine.database import Database
from repro.engine.naive import naive_fixpoint_reference
from repro.engine.provenance import DerivationTree, explain, provenance_eval
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import NonTerminationError
from repro.engine.unify import match
from repro.workloads.graphs import chain_edb

TC = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")


class TestProvenanceEval:
    def test_same_model_as_seminaive(self):
        edb = chain_edb(6)
        prov = provenance_eval(TC, edb)
        semi, _ = seminaive_eval(TC, edb)
        assert prov.database == semi

    def test_every_derived_fact_has_a_record(self):
        edb = chain_edb(5)
        prov = provenance_eval(TC, edb)
        for fact in prov.database.facts("t"):
            tree = prov.explain(parse_literal("t(X, Y)").with_args(fact))
            assert tree.fact.predicate == "t"

    def test_budget(self):
        diverging = parse_program("p(s(X)) :- p(X).")
        edb = Database()
        edb.add_fact("p", (0,))
        with pytest.raises(NonTerminationError):
            provenance_eval(diverging, edb, max_facts=20)


class TestExplain:
    def test_edb_leaf(self):
        edb = chain_edb(4)
        prov = provenance_eval(TC, edb)
        tree = prov.explain(parse_literal("e(0, 1)"))
        assert tree.rule is None and tree.children == ()
        assert tree.height() == 1

    def test_one_step_derivation(self):
        tree = explain(TC, chain_edb(4), parse_literal("t(0, 1)"))
        assert tree.rule is not None
        assert [c.fact for c in tree.children] == [parse_literal("e(0, 1)")]
        assert tree.height() == 2

    def test_deep_derivation_structure(self):
        tree = explain(TC, chain_edb(5), parse_literal("t(0, 4)"))
        # right-linear recursion: leaves are exactly the chain's edges
        leaves = tree.leaves()
        assert set(leaves) == {
            parse_literal(f"e({i}, {i + 1})") for i in range(4)
        }
        assert tree.height() == 5  # one rule application per edge + leaf

    def test_minimal_height_rounds(self):
        """The recorded tree uses the earliest derivation round."""
        # two ways to derive t(0, 2): direct edge or via the chain.
        edb = chain_edb(3)
        edb.add_fact("e", (0, 2))
        tree = explain(TC, edb, parse_literal("t(0, 2)"))
        assert tree.height() == 2  # the direct edge, found in round one

    def test_unknown_fact(self):
        prov = provenance_eval(TC, chain_edb(3))
        with pytest.raises(KeyError):
            prov.explain(parse_literal("t(2, 0)"))

    def test_nonground_fact_rejected(self):
        prov = provenance_eval(TC, chain_edb(3))
        with pytest.raises(ValueError):
            prov.explain(parse_literal("t(0, Y)"))

    def test_render(self):
        tree = explain(TC, chain_edb(3), parse_literal("t(0, 2)"))
        text = tree.render()
        assert "t(0, 2)" in text and "e(" in text and "[via" in text

    def test_tree_size(self):
        tree = explain(TC, chain_edb(4), parse_literal("t(0, 3)"))
        assert tree.size() == tree.render().count("\n") + 1

    def test_seed_fact_rules(self):
        program = parse_program("m(5).\nm(Y) :- m(X), e(X, Y).")
        prov = provenance_eval(program, chain_edb(8))
        tree = prov.explain(parse_literal("m(7)"))
        # the chain of magic derivations bottoms out at the seed rule
        node = tree
        while node.children:
            node = [c for c in node.children if c.fact.predicate == "m"][0]
        assert node.fact == parse_literal("m(5)")
        assert node.rule is not None and not node.rule.body


def assert_derivations_sound(result):
    """Every recorded ``(rule, body keys)`` is a rule instance over the
    database: the body facts hold, in source order, and instantiate the
    head to exactly the recorded fact."""
    for (name, arity, args), (rule, body_keys) in result.derivations.items():
        assert len(body_keys) == len(rule.body)
        bindings = {}
        for literal, (body_name, body_arity, body_args) in zip(rule.body, body_keys):
            assert (body_name, body_arity) == literal.signature
            assert result.database.has_fact(body_name, body_args)
            bindings = match(literal, body_args, bindings)
            assert bindings is not None
        assert rule.head.signature == (name, arity)
        assert match(rule.head, args, bindings) is not None


class TestPlanProvenance:
    """Plan-level provenance: canonical trees on every configuration."""

    def _assert_identical(self, program, edb, **kwargs):
        base = provenance_eval(program, edb, planner="greedy", jobs=1)
        plans = provenance_eval(program, edb, **kwargs)
        # the fixpoint against the scheduler-free, plan-free oracle
        assert plans.database == naive_fixpoint_reference(program, edb)[0]
        # same roots, same per-fact rule + body keys as serial/greedy
        assert plans.derivations == base.derivations
        assert_derivations_sound(plans)
        # recording changes no counter of the tuple-mode evaluator
        _, stats = seminaive_eval(program, edb, exec="tuple")
        assert plans.stats.facts == stats.facts
        assert plans.stats.inferences == stats.inferences
        return base, plans

    def test_identical_trees_on_tc_chain(self):
        self._assert_identical(TC, chain_edb(8))

    def test_identical_trees_on_same_generation(self):
        from repro.workloads.examples import (
            same_generation_edb,
            same_generation_program,
        )

        self._assert_identical(
            same_generation_program(), same_generation_edb(4, 2)
        )

    def test_identical_trees_under_cost_planner_and_jobs(self):
        self._assert_identical(TC, chain_edb(8), planner="cost")
        self._assert_identical(TC, chain_edb(8), jobs=2)

    def test_identical_trees_on_factored_pipeline_output(self):
        from repro.core.pipeline import optimize
        from repro.datalog.parser import parse_query
        from repro.workloads.examples import three_rule_tc_program

        result = optimize(three_rule_tc_program(), parse_query("t(0, Y)"))
        self._assert_identical(result.simplified.program, chain_edb(5))

    def test_edb_keys_are_lazy(self):
        """EDB membership is answered by the relations, not a flat copy."""
        from repro.engine.provenance import EdbKeyView

        edb = chain_edb(6)
        prov = provenance_eval(TC, edb)
        assert isinstance(prov.edb_keys, EdbKeyView)
        some_edge = next(iter(edb.relation("e", 2)))
        assert ("e", 2, some_edge) in prov.edb_keys
        assert ("e", 2, ("nope", "nope")) not in prov.edb_keys
        assert len(prov.edb_keys) == len(edb.relation("e", 2))
        assert ("e", 2, some_edge) in set(iter(prov.edb_keys))


class TestFactoredProvenance:
    def test_explain_factored_answer(self):
        """Provenance composes with the optimizer's output programs."""
        from repro.core.pipeline import optimize
        from repro.datalog.parser import parse_query

        from repro.workloads.examples import three_rule_tc_program

        result = optimize(three_rule_tc_program(), parse_query("t(0, Y)"))
        edb = chain_edb(5)
        prov = provenance_eval(result.simplified.program, edb)
        tree = prov.explain(parse_literal("f_t@bf(3)"))
        assert tree.height() >= 2
        leaf_predicates = {leaf.predicate for leaf in tree.leaves()}
        assert "e" in leaf_predicates
