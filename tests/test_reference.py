"""The reference evaluator: joins over plain sets, naive whole-program rounds.

``repro.engine.reference`` is what every other evaluator is checked
against, so its own contract is pinned here: the join enumerates every
body instantiation (bound positions, missing relations, nullary and
compound literals), heads are ground or the rule is refused, the
fixpoint is the least model, and the budgets stop a diverging program.
That it loads none of the engine's machinery is checked in fresh
interpreters by ``tests/test_cli.py::TestImportHygiene``.
"""

import pytest

from repro.datalog.parser import parse_literal, parse_program, parse_rule, parse_term
from repro.datalog.rules import UnsafeRuleError
from repro.datalog.terms import Compound, Constant, Variable
from repro.engine.database import Database
from repro.engine.reference import (
    bound_positions,
    instantiate_head,
    join_rule,
    naive_fixpoint_reference,
)
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import NonTerminationError, determinate


def c(*values):
    return tuple(Constant(v) for v in values)


def heads(facts, rule):
    out = []
    join_rule(facts, rule, lambda b: out.append(instantiate_head(rule, b)))
    return out


class TestBoundPositions:
    def test_constants_always_bound(self):
        lit = parse_literal("e(1, X)")
        positions, key = bound_positions(lit, {})
        assert positions == (0,)
        assert key == [Constant(1)]

    def test_bound_variables(self):
        lit = parse_literal("e(X, Y)")
        positions, key = bound_positions(lit, {Variable("X"): Constant(7)})
        assert positions == (0,)
        assert key == [Constant(7)]

    def test_compound_partially_bound(self):
        lit = parse_literal("p(f(X, Y))")
        positions, _ = bound_positions(lit, {Variable("X"): Constant(1)})
        assert positions == ()  # Y unbound -> the term is not ground
        positions, key = bound_positions(
            lit, {Variable("X"): Constant(1), Variable("Y"): Constant(2)}
        )
        assert positions == (0,)
        assert key[0] == Compound("f", (Constant(1), Constant(2)))


class TestJoinRule:
    def test_full_enumeration_over_plain_sets(self):
        facts = {("e", 2): {c(1, 2), c(2, 3)}, ("f", 1): {c(2), c(3)}}
        rule = parse_rule("out(X, Y) :- e(X, Y), f(Y).")
        assert sorted(heads(facts, rule), key=str) == [c(1, 2), c(2, 3)]

    def test_bound_positions_probe_the_index(self):
        facts = {("e", 2): {c(1, 2), c(2, 3), c(3, 4)}}
        rule = parse_rule("out(X, Z) :- e(X, Y), e(Y, Z).")
        indexes = {}
        out = []
        join_rule(facts, rule, lambda b: out.append(instantiate_head(rule, b)), indexes)
        assert sorted(out, key=str) == [c(1, 3), c(2, 4)]
        assert list(indexes) == [(("e", 2), (0,))]  # built once, by position

    def test_missing_relation_yields_nothing(self):
        rule = parse_rule("out(X) :- nothing(X).")
        assert heads({}, rule) == []
        assert heads({("nothing", 1): set()}, rule) == []

    def test_unsafe_head_raises(self):
        rule = parse_rule("out(X, Z) :- e(X).")
        with pytest.raises(UnsafeRuleError):
            heads({("e", 1): {c(1)}}, rule)

    def test_zero_arity_literal(self):
        rule = parse_rule("out(X) :- go, e(X).")
        assert heads({("go", 0): {()}, ("e", 1): {c(5)}}, rule) == [c(5)]
        assert heads({("e", 1): {c(5)}}, rule) == []

    def test_compound_literals(self):
        lists = {(parse_term(t),) for t in ("[a, b]", "[c]")}
        member = parse_rule("first(H) :- l([H | T]).")
        assert sorted(heads({("l", 1): lists}, member), key=str) == [
            (parse_term("a"),), (parse_term("c"),),
        ]
        wrap = parse_rule("w(f(X, Y)) :- e(X, Y).")
        assert heads({("e", 2): {c(1, 2)}}, wrap) == [
            (Compound("f", (Constant(1), Constant(2))),)
        ]

    def test_reads_a_databases_relations_as_they_are(self):
        db = Database.from_dict({"e": [(1, 2), (2, 3)]})
        rule = parse_rule("out(Y) :- e(1, Y).")
        assert heads(db.relations, rule) == [c(2)]


TC = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")


def chain(n):
    return Database.from_dict({"e": [(i, i + 1) for i in range(n)]})


class TestFixpoint:
    def test_transitive_closure_is_the_least_model(self):
        edb = chain(4)
        db, stats = naive_fixpoint_reference(TC, edb)
        assert db.relation("t", 2).tuples == {
            c(i, j) for i in range(5) for j in range(i + 1, 5)
        }
        assert db == seminaive_eval(TC, edb)[0]
        assert stats.facts == 10
        # global rounds: paths of length 1..4 arrive one per round, then
        # one round derives nothing new
        assert stats.iterations == 5
        assert (stats.plans_compiled, stats.scc_count, stats.probes) == (0, 0, 0)

    def test_inferences_count_every_instantiation_of_every_round(self):
        _, stats = naive_fixpoint_reference(TC, chain(2))
        # round 1: e(0,1), e(1,2); round 2: those again + t(0,2); round 3:
        # the same three, nothing new
        assert determinate(stats, "evaluate") == dict(
            facts=3, inferences=2 + 3 + 3, iterations=3
        )

    def test_program_facts_are_loaded_and_counted(self):
        program = parse_program("e(7, 8).\n" + str(TC))
        db, stats = naive_fixpoint_reference(program, chain(1))
        assert c(7, 8) in db.relation("t", 2).tuples
        assert stats.facts == 1 + 2  # the program fact, then t(0,1), t(7,8)

    def test_the_input_database_is_not_modified(self):
        edb = chain(3)
        naive_fixpoint_reference(TC, edb)
        assert edb.get("t", 2) is None
        assert len(edb.relation("e", 2)) == 3

    def test_compound_terms_match_the_engine(self):
        program = parse_program(
            """
            suffix(L, L) :- list(L).
            suffix(T, L) :- suffix([H | T], L).
            member(H, L) :- suffix([H | T], L).
            singleton([X]) :- elem(X).
            """
        )
        edb = Database()
        for lst in ("[]", "[a]", "[a, b]", "[b, a, c]"):
            edb.add_fact("list", (parse_term(lst),))
        for atom in ("a", "b"):
            edb.add_fact("elem", (parse_term(atom),))
        db, _ = naive_fixpoint_reference(program, edb)
        assert db == seminaive_eval(program, edb)[0]
        assert (parse_term("c"), parse_term("[b, a, c]")) in db.relation(
            "member", 2
        ).tuples

    def test_nullary_heads_and_program_facts(self):
        program = parse_program("go.\nany :- go, e(X, Y).\nnone :- go, f(X).")
        db, _ = naive_fixpoint_reference(program, chain(2))
        assert db.relation("any", 0).tuples == {()}
        assert db.get("none", 0) is None

    def test_the_result_shares_no_storage_with_the_input(self):
        edb = chain(3)
        edb.ensure_dictionary()
        db, _ = naive_fixpoint_reference(TC, edb)
        assert db.dictionary is None  # no term dictionary was involved
        assert db.relation("e", 2) is not edb.relation("e", 2)
        db.relation("e", 2).add(c(9, 9))
        assert c(9, 9) not in edb.relation("e", 2).tuples

    def test_unsafe_rule_raises(self):
        with pytest.raises(UnsafeRuleError):
            naive_fixpoint_reference(
                parse_program("p(X) :- q(Y)."), Database.from_dict({"q": [(1,)]})
            )


class TestBudgets:
    DIVERGING = parse_program("n(z).\nn(s(X)) :- n(X).")

    def test_max_iterations_raises(self):
        with pytest.raises(NonTerminationError) as info:
            naive_fixpoint_reference(self.DIVERGING, Database(), max_iterations=5)
        assert info.value.iterations == 6

    def test_max_facts_raises(self):
        with pytest.raises(NonTerminationError) as info:
            naive_fixpoint_reference(self.DIVERGING, Database(), max_facts=4)
        assert info.value.facts == 5

    def test_budgets_that_suffice_change_nothing(self):
        edb = chain(4)
        db, stats = naive_fixpoint_reference(TC, edb)
        capped, capped_stats = naive_fixpoint_reference(
            TC, edb, max_iterations=5, max_facts=10
        )
        assert capped == db
        assert determinate(capped_stats, "evaluate") == determinate(stats, "evaluate")


class TestOneHome:
    def test_importable_only_from_the_reference_module(self):
        import repro.engine
        import repro.engine.seminaive

        assert not hasattr(repro.engine.seminaive, "naive_fixpoint_reference")
        with pytest.raises(AttributeError):
            repro.engine.naive_fixpoint_reference
        assert "naive_fixpoint_reference" not in repro.engine.__all__

    @pytest.mark.parametrize("module", ["repro.engine.joins", "repro.engine.naive"])
    def test_the_interpreter_and_naive_frontend_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            __import__(module)
