"""Tests for uniform containment/equivalence (Sagiv's chase)."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import uniform
from repro.analysis.uniform import (
    UniformUndecidedError,
    _Chase,
    chase_derives,
    freeze_rule,
    minimize_program,
    redundant_rules,
    uniformly_contained,
    uniformly_equivalent,
)
from repro.core import simplify
from repro.core.factoring import factor_magic
from repro.core.pipeline import optimize
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program, parse_query, parse_rule
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine import scheduler
from repro.engine.plan import PlanCache, RulePlan
from repro.engine.reference import naive_fixpoint_reference
from repro.transforms.magic import magic_transform
from repro.workloads.examples import three_rule_tc_program

from tests.conftest import decision_corpus


class TestFreeze:
    def test_freeze_grounds_everything(self):
        head, db = freeze_rule(parse_rule("p(X, Y) :- q(X, W), r(W, Y)."))
        assert head.is_ground()
        assert db.total_facts() == 2

    def test_shared_variables_share_constants(self):
        head, db = freeze_rule(parse_rule("p(X) :- q(X), r(X)."))
        q_fact = next(iter(db.facts("q")))
        r_fact = next(iter(db.facts("r")))
        assert q_fact == r_fact == (head.args[0],)


class TestChase:
    def test_derivable_rule(self):
        program = parse_program("p(X) :- a(X).\na(X) :- b(X).")
        # p(X) :- b(X) is implied
        assert chase_derives(program, parse_rule("p(X) :- b(X)."))

    def test_underivable_rule(self):
        program = parse_program("p(X) :- a(X).")
        assert not chase_derives(program, parse_rule("p(X) :- b(X)."))

    def test_function_symbols_rejected(self):
        program = parse_program("p(X) :- a(X).")
        with pytest.raises(UniformUndecidedError):
            chase_derives(program, parse_rule("p(X) :- a(f(X))."))


class TestContainment:
    def test_reflexive(self):
        program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
        assert uniformly_contained(program, program)

    def test_left_vs_right_linear_tc_not_uniform(self):
        """The classic separation: left- and right-linear TC compute the
        same queries over every EDB, but are NOT uniformly equivalent —
        uniform containment also quantifies over databases containing
        arbitrary t facts, where one chaining direction cannot simulate
        the other in a single rule application."""
        left = parse_program(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), e(W, Y)."
        )
        right = parse_program(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y)."
        )
        assert not uniformly_contained(left, right)
        assert not uniformly_contained(right, left)

    def test_linear_contained_in_nonlinear(self):
        """Linear TC ⊑u nonlinear TC, but not conversely: the nonlinear
        rule's frozen body (two t facts) gives the linear program no e
        fact to chain through."""
        nonlinear = parse_program(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y)."
        )
        linear = parse_program(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y)."
        )
        assert uniformly_contained(linear, nonlinear)
        assert not uniformly_contained(nonlinear, linear)

    def test_strict_containment(self):
        one_step = parse_program("t(X, Y) :- e(X, Y).")
        closure = parse_program(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y)."
        )
        assert uniformly_contained(one_step, closure)
        assert not uniformly_contained(closure, one_step)

    def test_facts_considered(self):
        with_fact = parse_program("m(5).\nm(Y) :- m(X), e(X, Y).")
        without = parse_program("m(Y) :- m(X), e(X, Y).")
        assert uniformly_contained(without, with_fact)
        assert not uniformly_contained(with_fact, without)


class TestRedundancy:
    def test_example_53_rules(self):
        """The two rules Example 5.3 deletes are found redundant."""
        program = parse_program(
            """
            m(W) :- f(W).
            m(W) :- m(X), e(X, W).
            m(5).
            f(Y) :- f(W), e(W, Y).
            f(Y) :- m(X), e(X, Y).
            q(Y) :- f(Y).
            """
        )
        removed = {str(r) for r in redundant_rules(program)}
        assert removed == {
            "m(W) :- m(X), e(X, W).",
            "f(Y) :- f(W), e(W, Y).",
        }

    def test_minimize(self):
        program = parse_program(
            """
            m(W) :- f(W).
            m(W) :- m(X), e(X, W).
            m(5).
            f(Y) :- m(X), e(X, Y).
            q(Y) :- f(Y).
            """
        )
        minimal = minimize_program(program)
        assert len(minimal) == 4
        assert uniformly_equivalent(program, minimal)

    def test_facts_never_removed(self):
        program = parse_program("m(5).\nm(6).")
        assert redundant_rules(program) == []

    def test_duplicate_rule_removed(self):
        program = parse_program("p(X) :- e(X).\np(X) :- e(X).")
        assert len(minimize_program(program)) == 1


# ----------------------------------------------------------------------
# One evaluation context per simplification
# ----------------------------------------------------------------------

ARITY = {"p": 2, "q": 1, "e": 2}
VARIABLES = [Variable(name) for name in "XYZ"]
CONSTANTS = [Constant(1), Constant(2)]


@st.composite
def datalog_programs(draw):
    """Pure Datalog, at most five rules (plus a duplicate) of at most
    three body literals: IDB literals in bodies, repeated variables,
    constants, ground facts, safe heads."""
    rules = []
    for _ in range(draw(st.integers(1, 5))):
        head_predicate = draw(st.sampled_from(["p", "q"]))
        if draw(st.integers(0, 5)) == 0:
            args = [draw(st.sampled_from(CONSTANTS)) for _ in range(ARITY[head_predicate])]
            rules.append(Rule(Literal(head_predicate, args)))
            continue
        body = []
        for _ in range(draw(st.integers(1, 3))):
            predicate = draw(st.sampled_from(["p", "q", "e"]))
            body.append(Literal(predicate, [
                draw(st.sampled_from(VARIABLES * 3 + CONSTANTS))
                for _ in range(ARITY[predicate])
            ]))
        bound = [arg for literal in body for arg in literal.args if arg in VARIABLES]
        head = [draw(st.sampled_from(bound + CONSTANTS)) for _ in range(ARITY[head_predicate])]
        rules.append(Rule(Literal(head_predicate, head), body))
    if draw(st.booleans()):  # the same object twice, or an equal copy
        rule = draw(st.sampled_from(rules))
        rules.append(rule if draw(st.booleans()) else Rule(rule.head, rule.body))
    return Program(rules)


def reference_chase(rules, rule) -> bool:
    """A fresh scheduler-free fixpoint over ``rule``'s frozen body."""
    head, db = freeze_rule(rule)
    result, _ = naive_fixpoint_reference(Program(rules), db)
    return head.args in result.facts(head.predicate, head.arity)


def reference_redundant(program):
    """The greedy left-to-right deletion, one fresh chase per candidate."""
    rules = list(program.rules)
    removed = []
    changed = True
    while changed:
        changed = False
        for rule in list(rules):
            if rule.body and reference_chase([r for r in rules if r is not rule], rule):
                rules.remove(rule)
                removed.append(rule)
                changed = True
                break
    return removed


@pytest.fixture
def chase_knobs(monkeypatch):
    """The chase's knobs at their defaults, whatever the environment says."""
    monkeypatch.setenv("REPRO_JOBS", "1")


class TestSharedContextChangesNoVerdict:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(program=datalog_programs())
    def test_agrees_with_a_fresh_reference_per_candidate(self, chase_knobs, program):
        want = reference_redundant(program)
        assert [id(r) for r in redundant_rules(program)] == [id(r) for r in want]
        dropped = {id(r) for r in want}
        assert minimize_program(program).rules == tuple(
            r for r in program.rules if id(r) not in dropped
        )
        for rule in program.rules:
            if rule.body:
                assert chase_derives(program, rule) == reference_chase(program.rules, rule)


def _simplifier_input(monkeypatch, run):
    """The program the Section 5 simplifier hands the chase in ``run()``."""
    seen = []

    def spy(program, **kwargs):
        seen.append(program)
        return redundant_rules(program, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(simplify, "redundant_rules", spy)
        run()
    [program] = seen
    return program


def _example_53():
    magic = magic_transform(three_rule_tc_program(), parse_query("t(5, Y)"))
    simplify.simplify_factored(factor_magic(magic))


def _corpus_form(name, predicate, arity, adornment):
    def run():
        [program] = [p for n, p, _ in decision_corpus() if n == name]
        canonical = Literal(predicate, [Variable(f"Qv{i}") for i in range(arity)])
        optimize(program, canonical, try_reduction=False,
                 adornment=adornment, include_seed=False)
    return run


class TestCompiledOncePinnedCallsKept:
    """One ``redundant_rules`` call compiles each (rule, roles) once, and
    makes the ``PlanCache.plan``/``execute_columnar`` calls recorded on
    the commit before the chase shared its context (where each
    candidate's fresh ``naive_eval`` rebuilt every plan)."""

    CASES = {
        # name: (simplifier run, plan lookups, kernel calls, distinct
        # (rule, roles) pairs); the parent built 20, 20, 12, 12 RulePlans
        "example_53": (_example_53, 34, 8, 5),
        "three_rule_tc t/fb": (_corpus_form("three_rule_tc_program", "t", 2, "fb"), 32, 9, 5),
        "example_51 p/bff": (_corpus_form("example_51_program", "p", 3, "bff"), 14, 7, 4),
        "rlc11 p/bf": (_corpus_form("rlc11", "p", 2, "bf"), 20, 6, 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_counts(self, monkeypatch, case):
        run, lookups, kernel_calls, pairs = self.CASES[case]
        monkeypatch.setenv("REPRO_JOBS", "1")
        program = _simplifier_input(monkeypatch, run)

        calls = Counter()
        built = Counter()
        plan, execute, init = PlanCache.plan, scheduler.execute_columnar, RulePlan.__init__

        def counted_plan(self, *args, **kwargs):
            calls["plan"] += 1
            return plan(self, *args, **kwargs)

        def counted_execute(*args, **kwargs):
            calls["columnar"] += 1
            return execute(*args, **kwargs)

        def counted_init(self, rule, roles=(), *args, **kwargs):
            built[rule, roles] += 1
            init(self, rule, roles, *args, **kwargs)

        monkeypatch.setattr(PlanCache, "plan", counted_plan)
        monkeypatch.setattr(scheduler, "execute_columnar", counted_execute)
        monkeypatch.setattr(RulePlan, "__init__", counted_init)
        redundant_rules(program, max_iterations=100, max_facts=100_000)
        assert (calls["plan"], calls["columnar"]) == (lookups, kernel_calls)
        assert len(built) == pairs and set(built.values()) == {1}


class TestBudgetsPerCandidate:
    LINEAR_TC = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
    # four frozen edges in a row: five naive rounds, ten t facts
    LONG = parse_rule("t(A, E) :- e(A, B), e(B, C), e(C, D), e(D, E).")
    # two edges: three rounds, three t facts
    SHORT = parse_rule("t(A, C) :- e(A, B), e(B, C).")

    @pytest.mark.parametrize("budget", [{"max_iterations": 3}, {"max_facts": 5}])
    def test_a_tripped_chase_does_not_charge_the_next(self, budget):
        chase = _Chase(**{"max_iterations": None, "max_facts": None, **budget})
        with pytest.raises(UniformUndecidedError):
            chase.derives(self.LINEAR_TC, self.LONG)
        assert chase.derives(self.LINEAR_TC, self.SHORT)
        with pytest.raises(UniformUndecidedError):
            chase.derives(self.LINEAR_TC, self.LONG)
        assert chase.derives(self.LINEAR_TC, self.SHORT)

    def test_each_chase_arms_its_own_deadline(self, monkeypatch):
        """A clock that ticks once per read: the long chase's fourth
        round is past its 3.5 s, the short chase's third round is not —
        unless it inherited the long one's deadline."""
        ticks = iter(range(10**6))
        monkeypatch.setattr(scheduler.time, "monotonic", lambda: next(ticks))
        monkeypatch.setenv("REPRO_TIMEOUT", "3.5")
        monkeypatch.setenv("REPRO_JOBS", "1")
        chase = _Chase()
        with pytest.raises(UniformUndecidedError, match="wall-clock"):
            chase.derives(self.LINEAR_TC, self.LONG)
        assert chase.derives(self.LINEAR_TC, self.SHORT)

    @pytest.mark.parametrize("budget", [{"max_iterations": 3}, {"max_facts": 5}])
    def test_redundant_rules_raises_on_a_tripped_candidate(self, budget):
        program = Program([*self.LINEAR_TC.rules, self.LONG])
        with pytest.raises(UniformUndecidedError):
            redundant_rules(program, **budget)
        assert redundant_rules(program) == [self.LONG]

    def test_the_empty_database_is_evaluated_once(self, monkeypatch):
        evaluations = []
        naive_eval = uniform.naive_eval

        def counted(*args, **kwargs):
            evaluations.append(args[0])
            return naive_eval(*args, **kwargs)

        monkeypatch.setattr(uniform, "naive_eval", counted)
        facts = parse_program("m(5).\nm(6).\nm(7).\nm(Y) :- m(X), e(X, Y).")
        assert uniformly_contained(facts, facts)
        assert len(evaluations) == 1
        assert not uniformly_contained(facts, parse_program("m(5).\nm(6)."))
        assert len(evaluations) == 2
