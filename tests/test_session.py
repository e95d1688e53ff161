"""Tests for the high-level DeductiveDatabase session API."""

import pytest

from repro.engine.query import QueryAnswer
from repro.session import DeductiveDatabase


@pytest.fixture
def reach_db():
    db = DeductiveDatabase()
    db.rules(
        """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- edge(X, W), reach(W, Y).
        """
    )
    db.facts("edge", [(1, 2), (2, 3), (3, 4), (5, 1)])
    return db


class TestAsk:
    def test_basic_query(self, reach_db):
        assert reach_db.ask("reach(1, Y)") == {(2,), (3,), (4,)}

    def test_ground_query(self, reach_db):
        assert reach_db.ask("reach(1, 4)") == {()}
        assert reach_db.ask("reach(4, 1)") == set()

    def test_holds(self, reach_db):
        assert reach_db.holds("reach(5, 4)")
        assert not reach_db.holds("reach(2, 1)")

    def test_explain_reports_factoring(self, reach_db):
        report = reach_db.explain("reach(1, Y)")
        assert isinstance(report, QueryAnswer)
        assert report.strategy == "factored"
        assert report.certified_by == "Theorem 4.1 (selection-pushing)"
        assert report.stats.facts > 0

    def test_all_free_query_falls_back(self, reach_db):
        report = reach_db.explain("reach(X, Y)")
        assert report.strategy == "magic"
        assert len(report.answers) == 4 + 3 + 2 + 1  # closure of the chain 5->1->2->3->4

    def test_plan_cache_reused(self, reach_db):
        reach_db.ask("reach(1, Y)")
        entry_before = reach_db._compiler._entries[("reach", 2, "bf")]
        # A different constant with the same binding pattern reuses the
        # compiled query form — the rewrite is constant-independent.
        reach_db.ask("reach(5, Y)")
        assert reach_db._compiler._entries[("reach", 2, "bf")] is entry_before
        assert reach_db._compiler.cache_hits >= 1

    def test_replan_on_new_constant(self, reach_db):
        assert reach_db.ask("reach(1, Y)") == {(2,), (3,), (4,)}
        assert reach_db.ask("reach(5, Y)") == {(1,), (2,), (3,), (4,)}

    def test_facts_added_after_planning(self, reach_db):
        reach_db.ask("reach(1, Y)")
        reach_db.fact("edge", 4, 9)
        assert (9,) in reach_db.ask("reach(1, Y)")


class TestLoading:
    def test_rules_with_inline_facts(self):
        db = DeductiveDatabase()
        db.rules("edge(1, 2).\nreach(X, Y) :- edge(X, Y).")
        assert db.ask("reach(1, Y)") == {(2,)}

    def test_string_constants(self):
        db = DeductiveDatabase()
        db.rules("likes(X, Z) :- friend(X, Y), likes(Y, Z).")
        db.fact("friend", "ann", "bo")
        db.fact("likes", "bo", "jazz")
        # likes is both EDB and IDB here — engine tolerates it.
        assert ("jazz",) in db.ask("likes(ann, Z)")

    def test_a_user_predicate_named_like_a_bridge_stays_its_own(self):
        """Stored facts on a derived predicate are bridged under a
        reserved name, so a user's ``likes__base`` is never read as
        ``likes``'s stored half, nor the other way round."""
        db = DeductiveDatabase()
        db.rules(
            """
            likes(X, Z) :- friend(X, Y), likes(Y, Z).
            likes__base(X, Y) :- hates(X, Y).
            """
        )
        db.facts("friend", [("ann", "bo"), ("bo", "cy")])
        db.fact("hates", "ann", "rock")
        db.fact("likes", "cy", "jazz")
        assert db.ask("likes(ann, Z)") == {("jazz",)}
        assert db.ask("likes__base(X, Y)") == {("ann", "rock")}
        session = db.materialize()
        assert session.query("likes(ann, Z)") == {("jazz",)}
        assert session.query("likes__base(X, Y)") == {("ann", "rock")}

    def test_adding_rules_clears_plans(self, reach_db):
        reach_db.ask("reach(1, Y)")
        reach_db.rules("reach(X, X) :- edge(X, _).")
        assert (1,) in reach_db.ask("reach(1, Y)")


class TestIntrospection:
    def test_compiled_program_is_unary(self, reach_db):
        program = reach_db.compiled_program("reach(1, Y)")
        for rule in program:
            for lit in (rule.head, *rule.body):
                if lit.predicate.startswith(("m_reach", "f_reach")):
                    assert lit.arity == 1

    def test_plan_summary_mentions_theorem(self, reach_db):
        summary = reach_db.plan_summary("reach(1, Y)")
        assert "Theorem 4.1" in summary
        assert "compiled program" in summary

    def test_plan_summary_non_factorable(self):
        db = DeductiveDatabase()
        db.rules(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
            """
        )
        db.facts("up", [(1, 0)])
        db.facts("down", [(0, 2)])
        db.facts("flat", [(0, 0)])
        summary = db.plan_summary("sg(1, Y)")
        assert "Magic Sets" in summary


class TestExplanationIsOfTheProgramThatRan:
    """``plan_summary``/``compiled_program`` read the compiled entry
    ``ask`` runs for the form — one cache, one compile, one story."""

    @staticmethod
    def strategy_of(summary):
        """(strategy, certificate or None) off the summary's second line."""
        strategy, _, rest = (
            summary.splitlines()[1].removeprefix("strategy: ").partition(" — ")
        )
        gloss = ("Magic Sets only", "read from the stored relation")
        return strategy, None if rest in gloss else rest

    @staticmethod
    def run_compiled(db, query):
        """Evaluate ``compiled_program`` from scratch on the stored facts
        plus the goal's seed fact, and select ``query`` as ``_run`` does."""
        from repro.datalog.literals import Literal
        from repro.datalog.parser import parse_query
        from repro.datalog.terms import NIL
        from repro.engine.seminaive import seminaive_eval
        from tests.conftest import answer_values

        goal = parse_query(query)
        entry, cached = db._serving_compiler().entry(goal, db.edb)
        assert cached
        program = db.compiled_program(query)
        assert list(program) == list(entry.effective_program())
        bound = tuple(goal.args[i] for i in entry.adornment.bound_positions())
        if entry.effective_strategy() == "counting":
            seed, rows = (entry.seed.predicate, (*bound, NIL)), entry.row_positions
        elif entry.effective_strategy() == "counting->magic":
            seed, rows = (entry.plan.magic.seed.predicate, bound), range(goal.arity)
        else:
            seed, rows = (entry.seed.predicate, bound), entry.row_positions
        edb = db.edb.copy()
        edb.add_fact(*seed)
        result, _ = seminaive_eval(program, edb)
        return answer_values(
            result.query(Literal("query", tuple(goal.args[i] for i in rows)))
        )

    def test_summary_names_what_ask_ran_on_every_corpus_form(self):
        from tests.conftest import corpus_instance, decision_corpus

        seen = set()
        for index, (name, program, forms) in enumerate(decision_corpus()):
            facts, queries = corpus_instance(index, program, forms)
            db = DeductiveDatabase()
            db.rules(str(program))
            for predicate, rows in facts.items():
                db.facts(predicate, rows)
            for query in queries:
                before = db.plan_summary(query)
                compiles = db._compiler.compiles
                report = db.ask(query, explain=True)
                assert db._compiler.compiles == compiles, (name, query)
                told = (report.strategy, report.certified_by)
                assert self.strategy_of(db.plan_summary(query)) == told, (name, query)
                # only a divergence discovered by that very ask may
                # separate the earlier summary from it
                if report.strategy != "counting->magic":
                    assert self.strategy_of(before) == told, (name, query)
                assert self.run_compiled(db, query) == report.answers, (name, query)
                seen.add(report.strategy)
        assert seen == {"factored", "counting", "counting->magic", "magic"}

    @pytest.mark.parametrize("example", ["example_51_program", "example_52_program"])
    def test_lemma_51_forms_say_magic_and_why(self, example):
        from repro.workloads import examples

        db = DeductiveDatabase()
        db.rules(str(getattr(examples, example)()))
        summary = db.plan_summary("p(5, 6, U)")
        report = db.ask("p(5, 6, U)", explain=True)
        assert self.strategy_of(summary) == ("magic", None)
        assert (report.strategy, report.certified_by) == ("magic", None)
        assert "  reason: " in summary and "reduction" not in summary
        assert db._compiler.compiles == 1 and db._compiler.cache_hits == 1

    def test_edb_goal(self, reach_db):
        summary = reach_db.plan_summary("edge(1, Y)")
        assert self.strategy_of(summary) == ("edb", None)
        assert reach_db.explain("edge(1, Y)").strategy == "edb"
        assert len(reach_db.compiled_program("edge(1, Y)")) == 0
        with pytest.raises(ValueError, match="arity 2"):
            reach_db.plan_summary("reach(1)")

    def test_bridged_mixed_predicate(self):
        db = DeductiveDatabase()
        db.rules("likes(X, Z) :- friend(X, Y), likes(Y, Z).")
        db.facts("friend", [("ann", "bo"), ("bo", "cy")])
        db.fact("likes", "cy", "jazz")
        summary = db.plan_summary("likes(ann, Z)")
        report = db.ask("likes(ann, Z)", explain=True)
        assert self.strategy_of(summary) == (report.strategy, report.certified_by)
        assert "likes~idb" in summary  # the bridge rule is part of what runs
        assert self.run_compiled(db, "likes(ann, Z)") == report.answers == {("jazz",)}
        assert db._compiler.compiles == 1
