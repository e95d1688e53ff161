"""Tests for derivation trees (Definition 2.1) and fact explanation."""

import pytest

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_program
from repro.engine.database import Database
from repro.engine.incremental import IncrementalSession
from repro.engine.provenance import (
    DerivationTree,
    NotDerivableError,
    derivation_tree,
    explain,
)
from repro.engine.reference import naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval
from repro.engine.server import DatalogServer, handle_line
from repro.engine.stats import NonTerminationError, determinate
from repro.workloads.graphs import chain_edb

from tests.conftest import assert_derivations_sound, tuple_at_a_time

TC = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
UPPER_TC = parse_program(
    "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\ntop(X, Y) :- t(X, Y), e(Y, Z)."
)
#: Right-linear reachability of one target: a linear model whose trees
#: are as deep as the chain is long.
TO_TARGET = parse_program(
    "t(X, Y) :- e(X, Y), dst(Y).\nt(X, Y) :- e(X, W), t(W, Y)."
)


def derived_facts(model, edb):
    return sorted(
        (
            Literal(name, fact)
            for (name, arity), rel in model.relations.items()
            for fact in rel.tuples
            if not edb.has_fact(name, fact)
        ),
        key=str,
    )


class TestExplain:
    def test_every_derived_fact_has_a_tree(self):
        edb = chain_edb(5)
        model, _ = seminaive_eval(TC, edb)
        for fact in model.facts("t"):
            tree = derivation_tree(TC, model, edb, parse_literal("t(X, Y)").with_args(fact))
            assert tree.fact.predicate == "t"

    def test_budget(self):
        """The one-shot explain evaluates with the config's budgets."""
        diverging = parse_program("p(s(X)) :- p(X).")
        edb = Database()
        edb.add_fact("p", (0,))
        with pytest.raises(NonTerminationError):
            explain(diverging, edb, parse_literal("p(s(0))"), max_facts=20)

    def test_edb_leaf(self):
        tree = explain(TC, chain_edb(4), parse_literal("e(0, 1)"))
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
        """The tree uses the fact's earliest semi-naive round."""
        # two ways to derive t(0, 2): direct edge or via the chain.
        edb = chain_edb(3)
        edb.add_fact("e", (0, 2))
        tree = explain(TC, edb, parse_literal("t(0, 2)"))
        assert tree.height() == 2  # the direct edge, found in round one

    def test_unknown_fact(self):
        with pytest.raises(KeyError) as raised:
            explain(TC, chain_edb(3), parse_literal("t(2, 0)"))
        assert isinstance(raised.value, NotDerivableError)
        assert str(raised.value) == "t(2, 0) is not derivable"

    def test_nonground_fact_rejected(self):
        with pytest.raises(ValueError):
            explain(TC, chain_edb(3), parse_literal("t(0, Y)"))

    def test_wrong_arity_rejected_before_evaluating(self, monkeypatch):
        from repro.engine import provenance

        monkeypatch.setattr(provenance, "seminaive_eval", None)
        with pytest.raises(ValueError, match=r"t/3 is not defined .* arity 2"):
            explain(TC, chain_edb(3), parse_literal("t(0, 1, 2)"))

    def test_render(self):
        tree = explain(TC, chain_edb(3), parse_literal("t(0, 2)"))
        text = tree.render()
        assert "t(0, 2)" in text and "e(" in text and "[via" in text

    def test_tree_size(self):
        tree = explain(TC, chain_edb(4), parse_literal("t(0, 3)"))
        assert tree.size() == tree.render().count("\n") + 1

    def test_seed_fact_rules(self):
        program = parse_program("m(5).\nm(Y) :- m(X), e(X, Y).")
        tree = explain(program, chain_edb(8), parse_literal("m(7)"))
        # the chain of magic derivations bottoms out at the seed rule
        node = tree
        while node.children:
            node = [c for c in node.children if c.fact.predicate == "m"][0]
        assert node.fact == parse_literal("m(5)")
        assert node.rule is not None and not node.rule.body

    def test_stored_fact_on_a_derived_predicate_is_a_leaf(self):
        edb = chain_edb(4)
        edb.add_fact("t", (0, 3))
        tree = explain(TC, edb, parse_literal("t(0, 3)"))
        assert tree == DerivationTree(parse_literal("t(0, 3)"))
        # and it ranks 0 wherever it supports another fact
        program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).")
        edb.add_fact("e", (3, 4))
        tree = explain(program, edb, parse_literal("t(0, 4)"))
        assert [c.fact for c in tree.children] == [
            parse_literal("t(0, 3)"), parse_literal("t(3, 4)"),
        ]
        assert tree.height() == 3


class TestDerivationSearch:
    """Trees read off the least model: sound, the same from every
    caller, and the tuple executor's counters from the one loop."""

    def _assert_sound(self, program, edb):
        model, stats = seminaive_eval(program, edb, partitions=1)
        # the fixpoint against the scheduler-free, plan-free oracle
        assert model == naive_fixpoint_reference(program, edb)[0]
        # the kernel counts what the tuple executor counts
        db, tuple_stats = tuple_at_a_time(program, edb)
        assert db == model
        assert determinate(tuple_stats, "evaluate") == determinate(stats, "evaluate")
        assert tuple_stats.probes == stats.probes
        session = IncrementalSession(program, edb)
        server = DatalogServer(IncrementalSession(program, edb))
        facts = derived_facts(model, edb)
        assert facts
        for fact in facts:
            tree = derivation_tree(program, model, edb, fact)
            assert_derivations_sound(program, model, edb, tree)
            assert session.explain(fact) == server.explain(fact) == tree, fact
        return model

    def test_identical_trees_on_tc_chain(self):
        self._assert_sound(TC, chain_edb(8))

    def test_identical_trees_on_same_generation(self):
        from repro.workloads.examples import (
            same_generation_edb,
            same_generation_program,
        )

        self._assert_sound(
            same_generation_program(), same_generation_edb(4, 2)
        )

    def test_identical_trees_on_factored_pipeline_output(self):
        from repro.core.pipeline import optimize
        from repro.datalog.parser import parse_query
        from repro.workloads.examples import three_rule_tc_program

        result = optimize(three_rule_tc_program(), parse_query("t(0, Y)"))
        self._assert_sound(result.simplified.program, chain_edb(5))

    def test_lower_components_are_explained_in_their_own(self):
        tree = explain(UPPER_TC, chain_edb(6), parse_literal("top(0, 4)"))
        assert tree.height() == 6
        assert tree.children[0] == explain(TC, chain_edb(6), parse_literal("t(0, 4)"))

    def test_explain_enters_no_fixpoint(self, monkeypatch):
        """A maintained session and a served view read trees off the
        model they hold: neither the scheduler, a component's driver,
        the tuple executor nor the batch kernel runs."""
        from repro.engine import scheduler
        from repro.engine.plan import RulePlan

        session = IncrementalSession(UPPER_TC, chain_edb(6))
        server = DatalogServer(IncrementalSession(UPPER_TC, chain_edb(6)))
        entered = []
        for owner, name in (
            (scheduler.SCCScheduler, "run"),
            (scheduler.ComponentRun, "execute"),
            (RulePlan, "execute"),
        ):
            monkeypatch.setattr(
                owner, name, lambda *args, _name=name: entered.append(_name)
            )
        monkeypatch.setattr(
            scheduler, "execute_columnar", lambda *args: entered.append("kernel")
        )
        for reader in (session, server):
            assert reader.explain("top(0, 4)").height() == 6
        assert entered == []


class TestExplainErrors:
    """A wrong-arity goal is refused as ``?`` refuses it, and a fact
    outside the model says so in words."""

    ARITY = "query predicate t/3 is not defined by the program (t has arity 2)"

    def test_session(self):
        session = IncrementalSession(TC, chain_edb(4))
        with pytest.raises(ValueError) as raised:
            session.explain("t(1, 2, 3)")
        assert str(raised.value) == self.ARITY
        with pytest.raises(KeyError) as raised:
            session.explain("t(3, 1)")
        assert str(raised.value) == "t(3, 1) is not derivable"

    def test_server(self):
        server = DatalogServer(IncrementalSession(TC, chain_edb(4)))
        with pytest.raises(ValueError) as raised:
            server.explain("t(1, 2, 3)")
        assert str(raised.value) == self.ARITY
        with pytest.raises(KeyError) as raised:
            server.explain("t(3, 1)")
        assert str(raised.value) == "t(3, 1) is not derivable"

    def test_handle_line(self):
        server = DatalogServer(IncrementalSession(TC, chain_edb(4)))
        _, status, _ = handle_line(server, "explain t(1, 2, 3)")
        assert status == f"error: {self.ARITY}"
        _, asked, _ = handle_line(server, "? t(1, 2, 3)")
        assert asked == status
        _, status, _ = handle_line(server, "explain t(3, 1)")
        assert status == "error: t(3, 1) is not derivable"


class TestDeepTrees:
    """Building a tree and every tree method are iterative: a fact
    3 000 steps deep explains, measures and renders."""

    N = 3000

    @pytest.fixture(scope="class")
    def edb(self):
        edb = chain_edb(self.N + 1)  # 3 000 edges, 0 -> 1 -> ... -> 3000
        edb.add_fact("dst", (self.N - 1,))
        return edb

    def expected_render(self):
        last = self.N - 1
        lines = []
        for i in range(last - 1):  # t(i, last) at depth i, via the chain rule
            pad = "  " * i
            lines.append(f"{pad}t({i}, {last})    [via {TO_TARGET.rules[1]}]")
            lines.append(f"{pad}  e({i}, {i + 1})")
        pad = "  " * (last - 1)
        lines.append(f"{pad}t({last - 1}, {last})    [via {TO_TARGET.rules[0]}]")
        lines.append(f"{pad}  e({last - 1}, {last})")
        lines.append(f"{pad}  dst({last})")
        return "\n".join(lines)

    def test_session(self, edb):
        tree = IncrementalSession(TO_TARGET, edb).explain(f"t(0, {self.N - 1})")
        assert tree.height() == self.N
        assert tree.size() == 2 * self.N - 1
        assert len(tree.leaves()) == self.N
        assert tree.render() == self.expected_render()

    def test_handle_line(self, edb):
        server = DatalogServer(IncrementalSession(TO_TARGET, edb))
        payload, status, _ = handle_line(server, f"explain t(0, {self.N - 1})")
        assert status == "ok"
        assert "\n".join(payload) == self.expected_render()


class TestFactoredProvenance:
    def test_explain_factored_answer(self):
        """Trees compose with the optimizer's output programs."""
        from repro.core.pipeline import optimize
        from repro.datalog.parser import parse_query

        from repro.workloads.examples import three_rule_tc_program

        result = optimize(three_rule_tc_program(), parse_query("t(0, Y)"))
        edb = chain_edb(5)
        tree = explain(result.simplified.program, edb, parse_literal("f_t@bf(3)"))
        assert tree.height() >= 2
        leaf_predicates = {leaf.predicate for leaf in tree.leaves()}
        assert "e" in leaf_predicates
