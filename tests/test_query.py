"""The goal-directed serving path (PR 7).

Covers the :class:`~repro.engine.query.QueryCompiler` tentpole —
strategy selection, canonical-form caching, invalidation — plus the
satellite regressions: reserved-name collisions, ``evaluate_stage``
validation, and the adornment audit for repeated-variable and
partially-ground function-term goals.
"""

import gc
import threading
import zlib

import pytest

from repro.analysis.adornment import Adornment
from repro.core.pipeline import optimize
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program, parse_query, parse_rule
from repro.datalog.rules import UnsafeRuleError
from repro.datalog.terms import Variable
from repro.datalog.validate import (
    ensure_no_reserved_names,
    reserved_name_reason,
    validate_program,
)
from repro.engine import arena as arena_module
from repro.engine import faults
from repro.engine.arena import ARENA_MIN_FACTS, arena
from repro.engine.database import Database, Relation
from repro.engine.faults import FaultInjected, parse_faults
from repro.engine.incremental import IncrementalSession
from repro.engine.query import CompiledQuery, QueryCompiler
from repro.engine.scheduler import SCCScheduler
from repro.engine.seminaive import seminaive_eval
from repro.engine.server import DatalogServer
from repro.engine.stats import NonTerminationError
from repro.session import DeductiveDatabase
from repro.workloads.lists import pmem_edb, pmem_program, pmem_query

from tests.conftest import corpus_instance, decision_corpus

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

    def test_unanswerable_form_is_recognised_by_type(self):
        compiler = QueryCompiler(pmem_program())
        with pytest.raises(ValueError, match="not answerable") as err:
            compiler.ask("pmem(1, L)", pmem_edb(4))
        assert isinstance(err.value.__cause__, UnsafeRuleError)
        with pytest.raises(UnsafeRuleError):
            parse_program("p(X, Y) :- q(X).").check_range_restricted()

    def test_other_value_errors_are_not_rewritten(self, tc_compiler, monkeypatch):
        def ask(self, goal, edb, stats):
            raise ValueError("option text mentioning range-restricted rules")

        monkeypatch.setattr(CompiledQuery, "ask", ask)
        with pytest.raises(ValueError, match="option text") as err:
            tc_compiler.ask("t(0, Y)", chain_edb(3))
        assert "not answerable" not in str(err.value)


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


@pytest.fixture
def collector_off():
    """No cyclic collector for the test: what dies, dies by refcount."""
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


class Storage:
    """The ``Database``s and ``Relation``s alive now that were not when
    this was made (``Relation`` has slots and takes no weak reference:
    the collector's own registry is asked instead), and how many were
    constructed since."""

    KINDS = (Database, Relation)

    def __init__(self, monkeypatch):
        self.constructed = 0
        for kind in self.KINDS:
            monkeypatch.setattr(kind, "__init__", self.counting(kind.__init__))
        self.before = self.alive()  # kept referenced: no id is reused

    def counting(self, init):
        def counted(obj, *args, **kwargs):
            self.constructed += 1
            init(obj, *args, **kwargs)

        return counted

    def alive(self):
        return [o for o in gc.get_objects() if type(o) in self.KINDS]

    def survivors(self):
        known = {id(o) for o in self.before}
        return [o for o in self.alive() if id(o) not in known]


@pytest.fixture
def storage(monkeypatch):
    return lambda: Storage(monkeypatch)


class TestAnAskFreesWhatItAllocates:
    """The premise of :func:`repro.engine.arena.arena`: the database an
    ask evaluates into is dead by reference count when ``ask()``
    returns, so pausing the collector meanwhile defers no reclamation.
    A cycle through an overlay would fail here before it turned the
    arena into a leak-until-resume."""

    CYCLE = [(1, 2), (2, 3), (3, 1)]

    @pytest.mark.parametrize(
        "text, goal, edges, strategy",
        [
            (TC_TEXT, "t(0, Y)", [(i, i + 1) for i in range(6)], "factored"),
            (TC_TEXT, "t(0, 3)", [(i, i + 1) for i in range(6)], "counting"),
            (LEFT_TC_TEXT, "lt(1, 3)", CYCLE, "counting->magic"),
            (TC_TEXT, "t(X, Y)", CYCLE, "magic"),
        ],
    )
    def test_overlays_are_dead_when_ask_returns(
        self, collector_off, storage, text, goal, edges, strategy
    ):
        compiler = QueryCompiler(parse_program(text))
        edb = Database.from_dict({"e": edges})
        # compile first: the rewrite front end is not the subject
        compiler.entry(parse_query(goal), edb)
        made = storage()
        answer = compiler.ask(goal, edb)
        assert answer.strategy == strategy and answer.answers
        # an overlay, its seed relation, the query relation at least —
        # twice over when the counting attempt was abandoned
        assert made.constructed >= (6 if strategy == "counting->magic" else 3)
        assert made.survivors() == []

    def test_materialize_fallback_copy_is_dead_when_ask_returns(
        self, collector_off, storage
    ):
        compiler = QueryCompiler(parse_program(TC_TEXT))
        edb = chain_edb(4)
        edb.add_fact("t", (9, 9))  # a base fact on an IDB predicate
        made = storage()
        answer = compiler.ask("t(0, Y)", edb)
        assert answer.strategy == "materialize" and len(answer.answers) == 4
        assert made.constructed >= 3  # the copy, its e and t
        assert made.survivors() == []

    @pytest.mark.parametrize("stage", ["original", "magic", "factored", "simplified"])
    def test_evaluated_stage_is_dead_when_evaluate_stage_returns(
        self, collector_off, storage, stage
    ):
        result = optimize(parse_program(TC_TEXT), parse_query("t(0, Y)"))
        edb = chain_edb(4)
        made = storage()
        answers, _ = result.evaluate_stage(stage, edb)
        assert len(answers) == 4
        assert made.constructed >= 3
        assert made.survivors() == []


def blocks(count, length=3):
    """``count`` disjoint chains of ``length`` edges: an EDB of any size
    whose closure stays linear in it."""
    return [
        (b * (length + 1) + i, b * (length + 1) + i + 1)
        for b in range(count)
        for i in range(length)
    ]


class TestArenaContract:
    """Collection is off exactly while a throwaway evaluation over a
    large EDB runs, and whatever the arena found is what it leaves."""

    LARGE = Database.from_dict({"e": blocks(-(-ARENA_MIN_FACTS // 3))})

    @pytest.fixture
    def switch(self, monkeypatch):
        """Every ``gc.disable``/``gc.enable`` call made during the test."""
        calls = []
        for name in ("disable", "enable"):
            real = getattr(gc, name)

            def spy(name=name, real=real):
                calls.append(name)
                real()

            monkeypatch.setattr(gc, name, spy)
        return calls

    @pytest.fixture
    def inside(self, monkeypatch):
        """``gc.isenabled()`` as every scheduler run of the test saw it,
        the rewrite front end's own little evaluations aside."""
        seen = []
        real_run = SCCScheduler.run
        real_init = CompiledQuery.__init__

        compiling = []

        def run(self, db, stats):
            if not compiling:
                seen.append(gc.isenabled())
            return real_run(self, db, stats)

        def init(self, *args):
            compiling.append(True)
            try:
                real_init(self, *args)
            finally:
                compiling.pop()

        monkeypatch.setattr(SCCScheduler, "run", run)
        monkeypatch.setattr(CompiledQuery, "__init__", init)
        return seen

    def test_off_inside_a_large_ask_and_on_after(self, tc_compiler, switch, inside):
        assert self.LARGE.total_facts() >= ARENA_MIN_FACTS and gc.isenabled()
        for goal in ("t(0, Y)", "t(0, 3)", "t(X, 3)"):  # factored, counting, magic
            assert tc_compiler.ask(goal, self.LARGE).answers
        assert inside == [False] * 3 and gc.isenabled()
        assert switch == ["disable", "enable"] * 3

    def test_materialize_fallback_and_stage_evaluation_are_guarded(
        self, tc_compiler, switch, inside
    ):
        edb = self.LARGE.copy()
        edb.add_fact("t", (9, 9))
        assert tc_compiler.ask("t(0, Y)", edb).strategy == "materialize"
        assert inside == [False] and gc.isenabled()
        result = optimize(parse_program(TC_TEXT), parse_query("t(0, Y)"))
        del inside[:]
        assert len(result.evaluate_stage("simplified", self.LARGE)[0]) == 3
        assert inside == [False] and gc.isenabled()
        assert switch == ["disable", "enable"] * 2

    def test_a_small_ask_never_touches_the_switch(self, tc_compiler, switch, inside):
        small = Database.from_dict({"e": blocks(ARENA_MIN_FACTS // 3 - 1)})
        assert small.total_facts() < ARENA_MIN_FACTS
        for goal in ("t(0, Y)", "t(0, 3)", "t(X, 3)"):
            assert tc_compiler.ask(goal, small).answers
        assert inside == [True] * 3 and switch == []

    def test_a_callers_disable_stays_in_force(self, tc_compiler, switch, inside):
        gc.disable()
        try:
            del switch[:]
            assert tc_compiler.ask("t(0, Y)", self.LARGE).answers
            assert inside == [False] and switch == [] and not gc.isenabled()
        finally:
            gc.enable()

    def test_nested_arenas_restore_once(self, switch):
        with arena(ARENA_MIN_FACTS):
            with arena(ARENA_MIN_FACTS):
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner one found it off
        assert gc.isenabled() and switch == ["disable", "enable"]

    def test_every_exception_path_restores(self, switch, inside):
        # a divergent counting attempt, caught and retried through magic
        cyclic = Database.from_dict({"e": blocks(ARENA_MIN_FACTS // 3) + [(3, 0)]})
        compiler = QueryCompiler(parse_program(LEFT_TC_TEXT))
        assert compiler.ask("lt(0, 3)", cyclic).strategy == "counting->magic"
        assert inside == [False, False] and gc.isenabled()
        # a budget trip that leaves ask()
        capped = QueryCompiler(parse_program(TC_TEXT), max_iterations=1)
        with pytest.raises(NonTerminationError):
            capped.ask("t(0, Y)", self.LARGE)
        assert gc.isenabled()
        # an unsafe rewrite, reported as the goal's
        lists = QueryCompiler(pmem_program())
        facts = Database.from_dict({"p": [(i,) for i in range(ARENA_MIN_FACTS)]})
        with pytest.raises(ValueError, match="not answerable") as caught:
            lists.ask("pmem(1, L)", facts)
        assert isinstance(caught.value.__cause__, UnsafeRuleError) and gc.isenabled()
        # an injected fault at the overlay's first component boundary
        # (compiled beforehand: the simplifier evaluates components too)
        compiler = QueryCompiler(parse_program(TC_TEXT))
        compiler.entry(parse_query("t(0, Y)"), self.LARGE)
        faults.install(parse_faults("component:raise:1"))
        try:
            with pytest.raises(FaultInjected):
                compiler.ask("t(0, Y)", self.LARGE)
        finally:
            faults.clear()
        assert gc.isenabled()
        assert switch == ["disable", "enable"] * 4

    def test_eight_threads_end_with_the_collector_on(self):
        server = DatalogServer(
            IncrementalSession(parse_program(TC_TEXT), self.LARGE.copy())
        )
        goals = [f"t({4 * b}, Y)" for b in range(200)]
        expected = [server.query_goal(goal) for goal in goals]
        assert expected[0] == {(1,), (2,), (3,)}
        wrong = []

        def reader(offset):
            for i in range(len(goals)):
                k = (i + offset) % len(goals)
                if server.query_goal(goals[k]) != expected[k]:
                    wrong.append(goals[k])

        threads = [threading.Thread(target=reader, args=(25 * t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong and gc.isenabled()

    def test_engaged_or_not_the_determinate_outputs_are_the_same(self, monkeypatch):
        """Every corpus form over a random EDB, the constant patched
        under the EDB's size and then to infinity."""
        counters = ("facts", "inferences", "iterations", "probes")
        forms = 0
        for index, (name, program, program_forms) in enumerate(decision_corpus()):
            facts, queries = corpus_instance(index, program, program_forms)
            runs = []
            for constant in (1, float("inf")):
                monkeypatch.setattr(arena_module, "ARENA_MIN_FACTS", constant)
                compiler = QueryCompiler(program)
                # a fresh EDB each time: the cost planner reads the
                # indexes earlier asks left on the relations
                edb = Database.from_dict(facts)
                answers = [compiler.ask(query, edb) for query in queries]
                runs.append(
                    [
                        (a.strategy, a.answers, *(getattr(a.stats, c) for c in counters))
                        for a in answers
                    ]
                )
                assert gc.isenabled()
            assert runs[0] == runs[1], name
            forms += len(queries)
        assert forms == 524


class TestOutcomeNames:
    """``OptimizationResult`` names its own outcome; no caller
    re-derives the label from which stages exist."""

    def test_factored_names_its_theorem(self):
        result = optimize(parse_program(TC_TEXT), parse_query("t(0, Y)"))
        assert result.strategy == "factored"
        assert result.certified_by == "Theorem 4.1 (selection-pushing)"
        assert "factorable: yes — Theorem 4.1" in "\n".join(result.describe())

    def test_certified_but_unfactored_is_magic(self):
        # t@ff passes Theorem 4.1's test, but an all-free goal has
        # nothing to factor: the outcome is magic, with no certificate.
        result = optimize(parse_program(TC_TEXT), parse_query("t(X, Y)"))
        assert result.report.factorable
        assert (result.strategy, result.certified_by) == ("magic", None)

    def test_unfactored_simplify_off_is_still_factored(self):
        result = optimize(
            parse_program(TC_TEXT), parse_query("t(0, Y)"), simplify=False
        )
        assert result.simplified is None and result.strategy == "factored"

    def test_forced_factoring_carries_no_certificate(self):
        from repro.workloads.examples import example_43_program

        result = optimize(
            example_43_program(), parse_query("p(5, Y)"), force_factor=True
        )
        assert result.strategy == "factored" and result.forced
        assert result.certified_by is None
        assert "factorable: no" in result.describe()

    def test_answers_is_the_best_stage(self):
        edb = chain_edb(4)
        for query in ("t(0, Y)", "t(X, Y)"):
            result = optimize(parse_program(TC_TEXT), parse_query(query))
            best = result.available_stages()[-1]
            assert result.answers(edb)[0] == result.evaluate_stage(best, edb)[0]
            assert getattr(result, best).program is result.best_program()


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



#: What each (program, binding pattern) of ``decision_corpus`` compiles
#: to, recorded on the commit before ``CompiledQuery`` handed its
#: strategy decision to ``optimize``: ``F``actored (Theorem 4.1),
#: ``C``ounting or ``M``agic, and the crc32 of the compiled program's
#: text — one entry per form, in the corpus's order.
DECISIONS = {
    "example_43_program": "M:a3b091e1 M:8c915d8f M:c90a4656 M:e4274d00",
    "example_44_program": "M:6a724fc4 M:03f61a2e M:ad2fa0b6 M:0ff69718",
    "example_45_program": "M:2c67d77f M:d7b1cab1 M:194b973e M:4bc53c96",
    "example_51_program": "M:a210fa03 M:3cf3124a M:7e67538c F:644f38b2 "
    "M:7e1a1700 M:7eea211b M:fc54fa59 M:2f324cf4",
    "example_52_program": "C:56b64252 M:dfa7e7cd F:dce70328 M:057c60d5 "
    "M:03358193 F:428bfff6 M:803ea243 M:53e40aac",
    "example_71_program": "M:cc9429ec M:c500a4ac M:019e5423 F:cf634b0e "
    "M:e78c00f8 M:f0b21dff M:5e4cc5e9 M:2bac7e68",
    "same_generation_program": "C:3ae43813 M:2ccfc1fd M:c81733d7 M:1e361e0a",
    "three_rule_tc_program": "M:15afe56e F:11ba59a1 F:ff2c19aa M:79a3072d",
    "rlc0": "M:fff010d3 F:063e4ea4 F:c884c92e M:a1e4e7f6",
    "rnd0": "M:73f9d032 F:9b8d2e4d M:e815cc28 M:51e73255",
    "rlc1": "C:1efc0ff0 F:57106a07 F:b94343be M:a72b8777",
    "rnd1": "C:c205002f M:29e08ce3 M:659143d3 M:6be3cb92",
    "rlc2": "C:caa1cffb F:eac8fd98 F:b77e744f M:4b8c2523",
    "rnd2": "C:8af08684 M:b778d4b9 M:cc8187d1 M:17ca959d",
    "rlc3": "M:0f09a747 F:1ce3020a F:60cedbea M:5ebbffd8",
    "rnd3": "M:a4e68124 M:46df0b26 M:583aafd1 M:43865bde",
    "rlc4": "M:d052f936 F:a1854394 F:dda89a74 M:916dc19e",
    "rnd4": "C:cca6ea96 M:4f1340f6 M:ea6ce778 M:3a792532",
    "rlc5": "M:f2bba708 F:b0f2cde6 F:f0d336aa M:5508e9b8",
    "rnd5": "M:f2bba708 F:b0f2cde6 F:f0d336aa M:5508e9b8",
    "rlc6": "M:e421906a F:33a091cc F:c064caee M:545d0b6d",
    "rnd6": "M:827bd25f F:28c3d909 F:d9e219ad M:7517fe57",
    "rlc7": "M:5d7e661a F:d33b32d8 F:1d81b552 M:8981dc78",
    "rnd7": "M:575f3cb2 M:f27d912d M:edd69e53 M:fec410a3",
    "rlc8": "M:19f477ee F:bc44fca4 F:8426d051 M:3068738c",
    "rnd8": "C:aec32188 M:cc08ac44 M:dbf29e6a M:8b105782",
    "rlc9": "M:08b369e3 F:692da6e9 F:e32bf8d6 M:dcab4344",
    "rnd9": "M:9689983c M:bced880b M:505558da M:24d59213",
    "rlc10": "M:1f527d20 F:58e80cc1 F:96528b4b M:0635d8e9",
    "rnd10": "M:a6dc7259 M:c694af2c M:f7d51257 M:08c72aec",
    "rlc11": "M:a8781b69 F:b68856b6 F:09d9578a M:8ebdad3f",
    "rnd11": "M:a8781b69 F:b68856b6 F:09d9578a M:8ebdad3f",
    "rlc12": "M:b7ed75f5 F:6ae987f6 F:36335613 M:f52d8e25",
    "rnd12": "M:33c3ce89 F:12b9b883 F:9fd1ce2c M:3c06d88a",
    "rlc13": "M:faa2c34d F:52b137f1 F:1290ccbd M:23591db8",
    "rnd13": "M:f7be0aab M:87228333 M:cce437e7 M:c348d592",
    "rlc14": "M:cd7e8089 F:026982d9 F:890384d4 M:7ceddeb6",
    "rnd14": "C:0863545f M:ad402cd4 M:fbb1daf6 M:4f9a5775",
    "rlc15": "C:3950f26f F:64678420 F:8a34ad99 M:643bdb27",
    "rnd15": "C:d9157d37 M:8b1283d8 M:7cb72551 M:dc71d65f",
    "rlc16": "M:40ea28bf F:8c5900a1 F:943f08f1 M:a7ffa45a",
    "rnd16": "M:b9aaa7a6 M:e3ad2be6 M:0c04b6b3 M:d4fb37c1",
    "rlc17": "M:cbf87293 F:f856c7b2 F:a48c1657 M:8bb19a7c",
    "rnd17": "M:dbb7202b F:10be587a F:9dd62ed5 M:85ffe0ce",
    "rlc18": "M:b34cacd1 F:f2c57f67 F:4d947e5b M:44d00bb9",
    "rnd18": "M:5e48c203 M:96b08049 M:5a789591 M:20ec5ea9",
    "rlc19": "C:05f3528b F:6f4b4402 F:81186dbb M:9a7b65df",
    "rnd19": "C:05f3528b F:6f4b4402 F:81186dbb M:9a7b65df",
    "rlc20": "C:0f1f00f5 F:1fd905df F:426f8c08 M:f54fc8f2",
    "rnd20": "C:0f1f00f5 F:1fd905df F:426f8c08 M:f54fc8f2",
    "rlc21": "M:77da1849 F:58ae2bdb F:2483f23b M:1e1da836",
    "rnd21": "M:aa45024c M:75192479 M:65b0525d M:935f7348",
    "rlc22": "M:3b9e8e6c F:6e1b545c F:12368dbc M:41c39dbb",
    "rnd22": "M:6ec485eb M:8a064acc M:89d29806 M:178a1a7f",
    "rlc23": "M:115794c0 F:1bcb2e64 F:177cc47d M:cc8b4a87",
    "rnd23": "M:b8e3cd5c F:04ba2938 F:ee1e440a M:ed7abfba",
    "rlc24": "M:58bd2d93 F:f2c57f67 F:4d947e5b M:bdc35c9c",
    "rnd24": "M:df654b88 M:42fb5259 M:b01dcaeb M:8e68698c",
    "rlc25": "M:42a2afde F:45534a7a F:b7fb496a M:77e792da",
    "rnd25": "M:c0a520d2 M:72e63bd2 M:6c10efd1 M:3760a4a4",
    "rlc26": "C:00350d2f F:2dc34685 F:7075cf52 M:9c032b30",
    "rnd26": "C:74582955 M:a8b7fb36 M:bf728a42 M:1958d34c",
    "rlc27": "M:52c1f0df F:8c5900a1 F:943f08f1 M:86d9da78",
    "rnd27": "M:2a62a35b F:d8fd6c5f F:fafa94eb M:b5611f3b",
    "rlc28": "C:15ddb885 F:1b36c872 F:468041a5 M:e6403f63",
    "rnd28": "C:638cb160 M:43e60acc M:fe53d685 M:8097e8d5",
    "rlc29": "M:e533661b F:a35cb47d F:86446085 M:30720362",
    "rnd29": "M:0a5fbf26 M:41234488 M:0cbdb4fd M:47d86a08",
    "rlc30": "M:b6251b84 F:ff80eca2 F:25eb8961 M:90257ce8",
    "rnd30": "M:fe2320b9 F:e08780a8 M:f74c2dc5 M:b6efbae3",
    "rlc31": "C:fff4ccd1 F:1dc7af52 F:f39486eb M:a323f4f1",
    "rnd31": "C:c6085d35 M:729845db M:734c7afd M:932c7937",
    "rlc32": "C:a9678edd F:b162f85c F:5f31d1e5 M:dd4fede9",
    "rnd32": "C:e6089eb5 M:baccb8fc M:bbc4a63f M:00205d5f",
    "rlc33": "M:0f09a747 F:1ce3020a F:60cedbea M:5ebbffd8",
    "rnd33": "M:5b185bd9 F:308a4d93 F:2adc8989 M:124bb150",
    "rlc34": "M:864c30ad F:7ef85673 F:a49333b0 M:683af232",
    "rnd34": "M:864c30ad F:7ef85673 F:a49333b0 M:683af232",
    "rlc35": "M:1a4736f9 F:a0f1166c F:360c62fa M:e30a6974",
    "rnd35": "M:1a4736f9 F:a0f1166c F:360c62fa M:e30a6974",
    "rlc36": "M:2d0107ba F:925b7588 F:4830104b M:20af8fe0",
    "rnd36": "M:9f6edfb0 M:a63557f5 M:2ed934ed M:be48dad7",
    "rlc37": "M:b1bfb706 F:75e31b40 F:4d6cbd23 M:b28c262c",
    "rnd37": "M:b920652c M:5db56fe9 M:a64eb741 M:01f1969b",
    "rlc38": "M:aec74929 F:58e80cc1 F:96528b4b M:86bbe493",
    "rnd38": "M:11393058 M:ec5fc147 M:0720b81c M:4727cce3",
    "rlc39": "M:0fbe5489 F:58ae2bdb F:2483f23b M:d941d414",
    "rnd39": "C:e58c1687 M:117963cc M:54b91718 M:d011aed7",
    "rlc40": "M:a6bf6bcf F:d33b32d8 F:1d81b552 M:93fa56cb",
    "rnd40": "M:a470daff M:7d1c8407 M:6583a532 M:575082b8",
    "rlc41": "M:8711ed29 F:b4f30f5e F:3ef55161 M:45955f16",
    "rnd41": "M:b9b3eb41 M:ad8e4006 M:fe36f037 M:62911afa",
    "rlc42": "M:a66f2567 F:dc1e4e49 F:2fda156b M:2f4ecc54",
    "rnd42": "C:1c040c0e M:6c026909 M:5e0d3683 M:25400f28",
    "rlc43": "M:24919a71 F:ac566d43 F:273c6b4e M:20ac8d87",
    "rnd43": "M:fae3c74f M:ead52bc2 M:2ef13006 M:9c6f903d",
    "rlc44": "M:8355b46c F:f2c57f67 F:4d947e5b M:68a26e8a",
    "rnd44": "M:445591a0 M:d4b9f791 M:b852695c M:3718e8fd",
    "rlc45": "M:f134ade4 F:96c26b15 F:8ea46345 M:c1702ac6",
    "rnd45": "M:0dfdbd53 M:e80e3b2b M:07a7a67e M:87a6794e",
    "rlc46": "C:d26c4436 F:434b5acf F:1efdd318 M:27457458",
    "rnd46": "C:1e76b6b0 F:d4ac89bd M:a25e7339 M:4e7f2d10",
    "rlc47": "M:fc3acd33 F:8f458ba5 F:23f961cf M:b108c449",
    "rnd47": "M:0921e768 F:d2ea4de5 M:235941e2 M:bd3158af",
    "rlc48": "M:1e426e6f F:61b85559 F:15a1e26f M:35498b4b",
    "rnd48": "M:f64b771e M:1ee0e2d3 M:2141a0b0 M:4d2cd799",
    "rlc49": "M:9b317992 F:063e4ea4 F:c884c92e M:27c7c639",
    "rnd49": "M:b45cf466 M:c9bc3666 M:38028f3e M:9763b425",
    "rlc50": "M:e927a960 F:76c2f4f7 F:b878737d M:1b7dccee",
    "rnd50": "M:00b33194 M:fec5971c M:9d6ea9d5 M:fb221a70",
    "rlc51": "C:c553e527 F:bd8845db F:53db6c62 M:0a82b735",
    "rnd51": "C:3f3ebd87 M:15766b2f M:a0aa54f4 M:934a1d58",
    "rlc52": "M:588381c5 F:8c5900a1 F:943f08f1 M:8f6953cf",
    "rnd52": "M:53f4c323 M:5d34d0bb M:55b4be7b M:51c28a57",
    "rlc53": "M:e8a85253 F:e7b995ac F:ffdf9dfc M:8af4dbe9",
    "rnd53": "M:e8a85253 F:e7b995ac F:ffdf9dfc M:8af4dbe9",
    "rlc54": "M:11b9f795 F:3d5b68af F:820a6993 M:478428af",
    "rnd54": "M:17358fb1 M:d99a7f5f M:f33a4a8b M:4b2df6f1",
    "rlc55": "M:9a606fd0 F:74ae34ad F:ffc432a0 M:629c6086",
    "rnd55": "M:92b2376b M:efa5eaa4 M:4a756a60 M:70dc0ac5",
    "rlc56": "M:a54dc6ba F:d80453a6 F:a4298a46 M:23f4e853",
    "rnd56": "M:a54dc6ba F:d80453a6 F:a4298a46 M:23f4e853",
    "rlc57": "M:344ba473 F:ec2a2cde F:67402ad3 M:ede2952c",
    "rnd57": "M:1943d520 M:92a6184f M:afe89f75 M:c23aaac9",
    "rlc58": "C:297e1861 F:19f6c71e F:f7a5eea7 M:1800819b",
    "rnd58": "C:0714bf30 M:3f902b8d M:c8358d04 M:ab87bd52",
    "rlc59": "M:e47223d3 F:942e125f F:ac4c3eaa M:09ef8831",
    "rnd59": "C:07074f2a M:16fa2d04 M:4a2a5c0c M:02fc460a",
}


class TestDecisionDidNotMove:
    LABELS = {
        "F": ("factored", "Theorem 4.1 (selection-pushing)"),
        "C": ("counting", "Section 6.4 (counting)"),
        "M": ("magic", None),
    }

    def test_every_form_compiles_to_the_pinned_decision(self):
        """...and to what ``optimize`` says about the same canonical,
        seedless goal: factoring has one author, serving adds counting."""
        forms = 0
        for name, program, program_forms in decision_corpus():
            compiler = QueryCompiler(program)
            pinned = DECISIONS[name].split()
            assert len(pinned) == len(program_forms), name
            for (predicate, arity, adornment), want in zip(program_forms, pinned):
                entry = CompiledQuery(
                    compiler, predicate, arity, Adornment(adornment), Database()
                )
                text = str(entry.program)
                assert (
                    entry.strategy,
                    entry.certified_by,
                    f"{zlib.crc32(text.encode()):08x}",
                ) == (*self.LABELS[want[0]], want[2:]), (name, predicate, adornment)

                result = optimize(
                    program,
                    Literal(predicate, tuple(Variable(f"Qv{i}") for i in range(arity))),
                    try_reduction=False,
                    adornment=adornment,
                    include_seed=False,
                )
                if entry.strategy == "counting":
                    assert result.strategy == "magic"
                else:
                    assert (result.strategy, result.certified_by) == (
                        entry.strategy, entry.certified_by,
                    )
                if entry.strategy == "factored":
                    assert str(result.best_program()) == text
                forms += 1
        assert forms == 524
