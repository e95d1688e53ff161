"""The goal-directed serving path (PR 7).

Covers the :class:`~repro.engine.query.QueryCompiler` tentpole —
strategy selection, canonical-form caching, invalidation — plus the
satellite regressions: reserved-name collisions, ``evaluate_stage``
validation, and the adornment audit for repeated-variable and
partially-ground function-term goals.
"""

import pytest

from repro.core.pipeline import optimize
from repro.datalog.parser import parse_program, parse_query, parse_rule
from repro.datalog.validate import (
    ensure_no_reserved_names,
    reserved_name_reason,
    validate_program,
)
from repro.engine.database import Database
from repro.engine.incremental import IncrementalSession
from repro.engine.query import QueryCompiler
from repro.engine.seminaive import seminaive_eval
from repro.session import DeductiveDatabase
from repro.workloads.lists import pmem_edb, pmem_program, pmem_query

TC_TEXT = """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, W), t(W, Y).
"""

LEFT_TC_TEXT = """
    lt(X, Y) :- e(X, Y).
    lt(X, Y) :- lt(X, W), e(W, Y).
"""


def chain_edb(n):
    edb = Database()
    for i in range(n):
        edb.add_fact("e", (i, i + 1))
    return edb


@pytest.fixture
def tc_compiler():
    return QueryCompiler(parse_program(TC_TEXT))


class TestStrategySelection:
    def test_bound_first_is_factored(self, tc_compiler):
        answer = tc_compiler.ask("t(0, Y)", chain_edb(4))
        assert answer.strategy == "factored"
        assert answer.certified_by == "Theorem 4.1 (selection-pushing)"
        assert answer.values() == {(1,), (2,), (3,), (4,)}

    def test_all_free_is_magic(self, tc_compiler):
        answer = tc_compiler.ask("t(X, Y)", chain_edb(3))
        assert answer.strategy == "magic"
        assert len(answer.values()) == 3 + 2 + 1

    def test_all_bound_is_counting(self, tc_compiler):
        edb = chain_edb(4)
        hit = tc_compiler.ask("t(0, 3)", edb)
        assert hit.strategy == "counting"
        assert hit.certified_by == "Section 6.4 (counting)"
        assert hit.values() == {()}
        assert tc_compiler.ask("t(3, 0)", edb).values() == set()

    def test_edb_goal_answers_from_relation(self, tc_compiler):
        answer = tc_compiler.ask("e(0, Y)", chain_edb(3))
        assert answer.strategy == "edb"
        assert answer.values() == {(1,)}

    def test_idb_arity_mismatch_is_an_error(self, tc_compiler):
        with pytest.raises(ValueError, match="arity 2"):
            tc_compiler.ask("t(1, 2, 3)", chain_edb(2))

    def test_edb_facts_for_idb_predicate_fall_back(self):
        compiler = QueryCompiler(parse_program(TC_TEXT))
        edb = chain_edb(3)
        edb.add_fact("t", (9, 9))  # base fact for a derived predicate
        answer = compiler.ask("t(9, Y)", edb)
        assert answer.strategy == "materialize"
        assert answer.values() == {(9,)}

    def test_zero_arity_goal(self):
        compiler = QueryCompiler(
            parse_program("ok :- e(X, Y), t(X, Y).\n" + TC_TEXT)
        )
        assert compiler.ask("ok", chain_edb(2)).values() == {()}
        empty_compiler = QueryCompiler(
            parse_program("ok :- e(X, Y), t(X, Y).\n" + TC_TEXT)
        )
        assert empty_compiler.ask("ok", Database()).values() == set()


class TestCountingFallback:
    def test_divergence_falls_back_to_magic(self):
        compiler = QueryCompiler(parse_program(LEFT_TC_TEXT))
        edb = Database()
        for a, b in [(1, 2), (2, 3), (3, 1)]:  # a cycle
            edb.add_fact("e", (a, b))
        answer = compiler.ask("lt(1, 3)", edb)
        assert answer.strategy == "counting->magic"
        assert answer.values() == {()}
        # The divergence is remembered: the next ask goes straight to
        # magic without re-running the counting budget.
        again = compiler.ask("lt(2, 1)", edb)
        assert again.strategy == "counting->magic"
        assert again.from_cache

    def test_edb_change_clears_remembered_divergence(self):
        compiler = QueryCompiler(parse_program(LEFT_TC_TEXT))
        edb = Database()
        for a, b in [(1, 2), (2, 3), (3, 1)]:
            edb.add_fact("e", (a, b))
        compiler.ask("lt(1, 3)", edb)
        compiler.note_edb_change()
        entry = compiler._entries[("lt", 2, "bb")]
        assert not entry.counting_diverged
        edb.remove_fact("e", (3, 1))  # break the cycle
        assert compiler.ask("lt(1, 3)", edb).strategy == "counting"


class TestCaching:
    def test_same_form_reuses_compiled_entry(self, tc_compiler):
        edb = chain_edb(4)
        first = tc_compiler.ask("t(0, Y)", edb)
        second = tc_compiler.ask("t(2, Y)", edb)
        assert not first.from_cache and second.from_cache
        assert tc_compiler.compiles == 1 and tc_compiler.cache_hits == 1
        assert second.values() == {(3,), (4,)}

    def test_distinct_forms_compile_separately(self, tc_compiler):
        edb = chain_edb(3)
        tc_compiler.ask("t(0, Y)", edb)
        tc_compiler.ask("t(X, 3)", edb)
        tc_compiler.ask("t(0, 3)", edb)
        assert set(tc_compiler._entries) == {
            ("t", 2, "bf"),
            ("t", 2, "fb"),
            ("t", 2, "bb"),
        }

    def test_cardinality_drift_recompiles(self, tc_compiler):
        edb = chain_edb(2)
        tc_compiler.ask("t(0, Y)", edb)
        for i in range(2, 40):  # > 4x growth past the hi >= 8 floor
            edb.add_fact("e", (i, i + 1))
        answer = tc_compiler.ask("t(0, Y)", edb)
        assert not answer.from_cache
        assert tc_compiler.compiles == 2
        assert answer.values() == {(i,) for i in range(1, 41)}

    def test_instance_certified_entries_drop_on_edb_change(self):
        compiler = QueryCompiler(
            parse_program(TC_TEXT), use_instance_checks=True
        )
        edb = chain_edb(3)
        compiler.ask("t(0, Y)", edb)
        assert compiler._entries
        compiler.note_edb_change()
        assert not compiler._entries


class TestGoalAudit:
    """Repeated variables and partially-ground compound arguments."""

    def test_repeated_variable_simple_positions(self, tc_compiler):
        edb = Database()
        for a, b in [(1, 2), (2, 3), (3, 1), (4, 5)]:
            edb.add_fact("e", (a, b))
        answer = tc_compiler.ask("t(X, X)", edb)
        full, _ = seminaive_eval(parse_program(TC_TEXT), edb)
        assert answer.answers == full.query(parse_query("t(X, X)"))
        assert answer.values() == {(1,), (2,), (3,)}

    def test_repeated_variable_no_cycles_is_empty(self, tc_compiler):
        assert tc_compiler.ask("t(X, X)", chain_edb(4)).values() == set()

    def test_ground_compound_goal(self):
        compiler = QueryCompiler(pmem_program())
        edb = pmem_edb(4)
        assert compiler.ask("pmem(2, [0, 2, 2])", edb).values() == {()}
        assert compiler.ask("pmem(9, [0, 1, 2])", edb).values() == set()

    def test_bound_list_free_element(self):
        compiler = QueryCompiler(pmem_program())
        answer = compiler.ask(pmem_query(4), pmem_edb(4))
        assert answer.strategy == "factored"
        assert answer.values() == {(i,) for i in range(4)}

    def test_repeated_variable_inside_bound_list(self):
        compiler = QueryCompiler(pmem_program())
        answer = compiler.ask("pmem(X, [3, 0, 3])", pmem_edb(4))
        assert answer.values() == {(0,), (3,)}

    def test_long_bound_list_answers_without_unifying(self, monkeypatch):
        """Regression: ``pmem(X, [0, ..., 999])`` raised RecursionError.

        The answer step re-matched the ground list against itself once
        per answer row, one Python frame per list cell.  The read is a
        selection now: an all-ground-or-variable goal never enters
        ``match_term``, whatever the list length (a count, not a
        timing).
        """
        from importlib import import_module

        from repro.engine import database, joins

        # ``repro.engine.unify`` the attribute is the re-exported function
        unify = import_module("repro.engine.unify")
        entered = []
        original = unify.match_term

        def counting(pattern, fact, bindings):
            entered.append(pattern)
            return original(pattern, fact, bindings)

        for module in (unify, database, joins):
            monkeypatch.setattr(module, "match_term", counting)
        n = 2000
        db = DeductiveDatabase()
        db.rules(str(pmem_program()))
        db.facts("p", [(i,) for i in range(0, n, 2)])
        goal = "pmem(X, [" + ", ".join(map(str, range(n))) + "])"
        assert db.ask(goal) == {(i,) for i in range(0, n, 2)}
        report = db.ask(goal, explain=True)  # the cached form as well
        assert report.strategy == "factored"
        assert len(report.answers) == n // 2
        assert db.ask("pmem(1998, [" + ", ".join(map(str, range(n))) + "])") == {()}
        assert entered == []

    @pytest.mark.parametrize(
        "goal",
        [
            "pmem(1, [0, 1, X])",  # variable inside the list
            "pmem(X, [1, X, 3])",  # repeated var straddling the list
            "pmem(1, L)",  # list entirely free
        ],
    )
    def test_unanswerable_forms_fail_with_goal_level_error(self, goal):
        compiler = QueryCompiler(pmem_program())
        with pytest.raises(ValueError) as err:
            compiler.ask(goal, pmem_edb(4))
        message = str(err.value)
        assert "not answerable" in message
        assert goal.replace(" ", "") in str(message).replace(" ", "")
        # The generated-rule vocabulary must not leak.
        assert "m_" not in message and "f_" not in message


class TestReservedNames:
    @pytest.mark.parametrize(
        "predicate",
        ["m_t", "cnt_path", "ans_t", "query", "we@ird", "od~d"],
    )
    def test_reason_flags_generated_namespace(self, predicate):
        assert reserved_name_reason(predicate) is not None

    def test_plain_names_pass(self):
        for name in ["t", "member", "magic", "mt", "cntx", "answer"]:
            assert reserved_name_reason(name) is None

    def test_validate_reports_reserved_names(self):
        report = validate_program(parse_program("m_t(X) :- e(X, Y)."))
        assert not report.ok
        assert any(d.code == "reserved-name" for d in report.diagnostics)

    def test_parser_still_accepts_generated_names(self):
        # The *parser* must keep reading generated programs (round-trips
        # of optimizer output); rejection lives in validation only.
        program = parse_program("m_t@bf(5).")
        assert program.rules[0].head.predicate == "m_t@bf"
        rule = parse_rule("m_t@bf(X) :- f_t@bf(X).")
        assert rule.head.predicate == "m_t@bf"

    def test_session_rules_reject_collisions(self):
        with pytest.raises(ValueError, match="reserved"):
            DeductiveDatabase().rules("m_t(X) :- e(X, Y).")

    def test_session_fact_rejects_collisions(self):
        with pytest.raises(ValueError, match="m_t"):
            DeductiveDatabase().fact("m_t", 1)
        with pytest.raises(ValueError, match="query"):
            DeductiveDatabase().facts("query", [(1,)])

    def test_incremental_updates_reject_collisions(self):
        session = IncrementalSession(parse_program(TC_TEXT), chain_edb(2))
        with pytest.raises(ValueError, match="cnt_x"):
            session.insert([("cnt_x", (1, 2))])
        with pytest.raises(ValueError, match="ans_t"):
            session.delete([("ans_t", (1,))])

    def test_compiler_rejects_collisions(self):
        with pytest.raises(ValueError, match="reserved"):
            QueryCompiler(parse_program("t(X) :- m_e(X)."))


class TestStageValidation:
    def test_unknown_stage_fails_before_evaluation(self):
        result = optimize(parse_program(TC_TEXT), parse_query("t(1, Y)"))
        with pytest.raises(ValueError, match="unknown stage 'bogus'"):
            result.evaluate_stage("bogus", chain_edb(2))

    def test_unproduced_stage_lists_available(self):
        # An all-free goal is never factored, so those stages are absent.
        result = optimize(parse_program(TC_TEXT), parse_query("t(X, Y)"))
        assert result.available_stages() == ("original", "magic")
        with pytest.raises(ValueError, match="original, magic"):
            result.evaluate_stage("factored", chain_edb(2))

    def test_produced_stages_evaluate(self):
        result = optimize(parse_program(TC_TEXT), parse_query("t(0, Y)"))
        assert result.available_stages() == (
            "original",
            "magic",
            "factored",
            "simplified",
        )
        edb = chain_edb(3)
        expected, _ = result.evaluate_stage("original", edb)
        for stage in ("magic", "factored", "simplified"):
            answers, _ = result.evaluate_stage(stage, edb)
            assert answers == expected


class TestSessionIntegration:
    def test_incremental_query_goal_matches_materialization(self):
        session = IncrementalSession(parse_program(TC_TEXT), chain_edb(4))
        assert session.query_goal("t(0, Y)") == session.query("t(0, Y)")
        answer = session.query_goal("t(0, Y)", explain=True)
        assert answer.strategy == "factored"

    def test_query_goal_sees_maintenance_batches(self):
        session = IncrementalSession(parse_program(TC_TEXT), chain_edb(3))
        before = session.query_goal("t(0, Y)")
        session.apply_batch(inserts=[("e", (3, 4))])
        after = session.query_goal("t(0, Y)")
        assert after == before | {(4,)}
        session.apply_batch(deletes=[("e", (1, 2))])
        assert session.query_goal("t(0, Y)") == {(1,)}

    def test_query_goal_is_read_only(self):
        session = IncrementalSession(parse_program(TC_TEXT), chain_edb(3))
        facts_before = session.database.total_facts()
        session.query_goal("t(0, Y)")
        session.query_goal("t(0, 2)")
        assert session.database.total_facts() == facts_before
        # No generated relations leak into the maintained database.
        assert all(
            not sig[0].startswith(("m_", "cnt_", "ans_"))
            for sig in session.database.relations
        )

    def test_session_ask_strategies(self):
        db = DeductiveDatabase()
        db.rules(TC_TEXT)
        for i in range(3):
            db.fact("e", i, i + 1)
        assert db.explain("t(0, Y)").strategy == "factored"
        assert db.explain("t(X, Y)").strategy == "magic"
        assert db.explain("e(0, Y)").strategy == "edb"
        assert db.ask("t(0, Y)") == {(1,), (2,), (3,)}
