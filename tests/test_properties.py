"""Cross-cutting property-based tests (hypothesis).

These are the empirical versions of the paper's theorems: whenever the
recognizers accept, the factored program must agree with Magic (and the
original program) on randomly generated EDBs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import optimize
from repro.datalog.parser import parse_literal, parse_program, parse_query
from repro.engine.database import Database
from repro.engine.reference import naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval
from repro.workloads.examples import three_rule_tc_program
from repro.workloads.graphs import random_digraph_edb

from tests.conftest import oracle_answers

# A pool of unit programs spanning all three rule classes; all are
# syntactically certified, so Theorem 4.1/4.2/4.3 promises answer
# equality on EVERY database — which we sample randomly.
CERTIFIED_PROGRAMS = [
    three_rule_tc_program(),
    parse_program("t(X, Y) :- t(X, W), e(W, Y).\nt(X, Y) :- e(X, Y)."),
    parse_program("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y)."),
    parse_program(
        "t(X, Y) :- t(X, U), t(U, Y).\nt(X, Y) :- e(X, Y)."
    ),
    # symmetric: combined rule with a middle conjunction over e2
    parse_program(
        "t(X, Y) :- t(X, U), e2(U, V), t(V, Y).\nt(X, Y) :- e(X, Y)."
    ),
    # answer-propagating mix: left-linear + right-linear, empty bounds
    parse_program(
        """
        t(X, Y) :- t(X, W), e(W, Y).
        t(X, Y) :- e(X, W), t(W, Y).
        t(X, Y) :- e(X, Y).
        """
    ),
]


@settings(max_examples=40, deadline=None)
@given(
    program_index=st.integers(0, len(CERTIFIED_PROGRAMS) - 1),
    n=st.integers(2, 9),
    seed=st.integers(0, 50),
    source=st.integers(0, 8),
)
def test_certified_factoring_preserves_answers(program_index, n, seed, source):
    program = CERTIFIED_PROGRAMS[program_index]
    goal = parse_literal(f"t({source % n}, Y)")
    result = optimize(program, goal)
    assert result.report is not None and result.report.factorable
    rng = random.Random(seed)
    edb = Database.from_dict(
        {
            "e": [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)],
            "e2": [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)],
        }
    )
    expected = oracle_answers(program, goal, edb)
    for stage in ("magic", "factored", "simplified"):
        answers, _ = result.evaluate_stage(stage, edb)
        assert answers == expected, stage


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 50),
    source=st.integers(0, 9),
)
def test_simplified_never_more_facts_than_magic(n, seed, source):
    """"Never less efficient than the Magic Sets program" — measured in
    derived facts on random graphs."""
    goal = parse_literal(f"t({source % n}, Y)")
    result = optimize(three_rule_tc_program(), goal)
    edb = random_digraph_edb(n, 3 * n, seed)
    _, magic_stats = result.evaluate_stage("magic", edb)
    _, simplified_stats = result.evaluate_stage("simplified", edb)
    assert simplified_stats.facts <= magic_stats.facts
    assert simplified_stats.inferences <= magic_stats.inferences


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 8),
    extra=st.integers(0, 20),
    seed=st.integers(0, 30),
)
def test_seminaive_equals_naive_on_random_layered_programs(n, extra, seed):
    """Engine invariant: both bottom-up evaluators compute one fixpoint."""
    rng = random.Random(seed)
    program = parse_program(
        """
        a(X, Y) :- e(X, Y).
        a(X, Y) :- e(X, W), a(W, Y).
        b(X) :- a(X, X).
        c(X, Y) :- b(X), a(X, Y).
        """
    )
    edb = Database.from_dict(
        {"e": [(rng.randrange(n), rng.randrange(n)) for _ in range(n + extra)]}
    )
    naive_db, _ = naive_fixpoint_reference(program, edb)
    semi_db, _ = seminaive_eval(program, edb)
    assert naive_db == semi_db


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 30))
def test_magic_subset_property(n, seed):
    """Magic's t@bf relation is always a subset of the full closure
    restricted to reachable sources (relevance)."""
    goal = parse_literal("t(0, Y)")
    result = optimize(three_rule_tc_program(), goal)
    edb = random_digraph_edb(n, 2 * n, seed)
    full_db, _ = seminaive_eval(three_rule_tc_program(), edb)
    magic_db, _ = seminaive_eval(result.magic.program, edb)
    full_t = full_db.facts("t")
    assert magic_db.facts("t@bf") <= full_t
