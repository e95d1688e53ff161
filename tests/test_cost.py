"""The cost model: estimator sanity, guard scheduling, re-planning.

Three layers of defence for the cost-based planner:

* *Property tests* over randomized bodies and randomized statistics:
  guard literals (negation / comparison) are never scheduled before
  every variable they mention is bound — whatever the statistics say —
  and the ordering is a permutation of the body.
* *Estimator edge cases*: empty and singleton relations never produce
  negative, NaN, or >cardinality fanouts, and never divide by zero.
* *Regression*: the versioned ``PlanCache`` recompiles a plan when a
  relation's cardinality drifts past the threshold mid-evaluation, and
  ``EvalStats.replans`` counts exactly those recompilations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.cost import (
    COMPARISON_PREDICATES,
    cost_join_order,
    estimate_fanout,
    is_guard,
)
from repro.engine.database import Database, Relation, RelationStatistics
from repro.engine.plan import PlanCache
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats
from repro.workloads.graphs import chain_edb
from repro.workloads.synthetic import skewed_fanout_edb, skewed_fanout_program

VARS = [Variable(name) for name in ("X", "Y", "Z", "W", "U")]


# ---------------------------------------------------------------------------
# Guard scheduling: a property of the ordering, independent of statistics
# ---------------------------------------------------------------------------

relation_literals = st.lists(
    st.tuples(
        st.sampled_from(["e0", "e1", "e2"]),
        st.lists(st.integers(0, len(VARS) - 1), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=4,
)

guard_literals = st.lists(
    st.tuples(
        st.sampled_from(sorted(COMPARISON_PREDICATES) + ["not_e0", "not_p"]),
        st.lists(st.integers(0, len(VARS) - 1), min_size=1, max_size=2),
    ),
    min_size=1,
    max_size=3,
)

random_stats = st.dictionaries(
    st.sampled_from(["e0", "e1", "e2"]),
    st.integers(0, 10_000),
    min_size=0,
    max_size=3,
)


def _body(relations, guards):
    body = [
        Literal(name, tuple(VARS[i] for i in idxs)) for name, idxs in relations
    ]
    body += [
        Literal(name, tuple(VARS[i] for i in idxs)) for name, idxs in guards
    ]
    return body


@settings(max_examples=200, deadline=None)
@given(relations=relation_literals, guards=guard_literals, cards=random_stats)
def test_guards_never_scheduled_before_bound(relations, guards, cards):
    """Whatever cardinalities the statistics report, a guard literal only
    runs once every one of its variables was bound by an earlier step."""

    def stat_of(idx, literal):
        n = cards.get(literal.predicate)
        return RelationStatistics(n) if n is not None else None

    body = _body(relations, guards)
    order, estimated = cost_join_order(body, {}, stat_of)
    assert sorted(order) == list(range(len(body)))
    assert estimated >= 0.0

    bindable = set()
    for lit in body:
        if not is_guard(lit):
            bindable.update(lit.iter_variables())
    bound = set()
    for idx in order:
        literal = body[idx]
        if is_guard(literal):
            lit_vars = set(literal.iter_variables())
            # A guard whose variables no relation can ever bind is parked
            # at the end; a bindable guard must wait for its variables.
            if lit_vars <= bindable:
                assert lit_vars <= bound, (
                    f"guard {literal} scheduled before {lit_vars - bound} bound"
                )
        bound.update(literal.iter_variables())


@settings(max_examples=100, deadline=None)
@given(relations=relation_literals, cards=random_stats)
def test_cost_order_is_deterministic_permutation(relations, cards):
    def stat_of(idx, literal):
        n = cards.get(literal.predicate)
        return RelationStatistics(n) if n is not None else None

    body = _body(relations, [])
    first, _ = cost_join_order(body, {}, stat_of)
    second, _ = cost_join_order(body, {}, stat_of)
    assert first == second
    assert sorted(first) == list(range(len(body)))


def test_delta_role_breaks_ties():
    x, y, w = Variable("X"), Variable("Y"), Variable("W")
    body = [Literal("e", (x, w)), Literal("t", (w, y))]
    stats = RelationStatistics(100)
    order, _ = cost_join_order(body, {1: "delta"}, lambda i, l: stats)
    assert order[0] == 1  # equal cardinality: the delta drives the join


# ---------------------------------------------------------------------------
# Estimator sanity on degenerate relations
# ---------------------------------------------------------------------------

def test_estimator_on_empty_relation():
    empty = RelationStatistics(0)
    for bound in ((), (0,), (0, 1)):
        assert estimate_fanout(empty, bound, 2) == 0.0


def test_estimator_on_singleton_relation():
    single = RelationStatistics(1, {(0,): 1})
    assert estimate_fanout(single, (), 2) == 1.0
    assert 0.0 < estimate_fanout(single, (0,), 2) <= 1.0
    assert 0.0 < estimate_fanout(single, (0, 1), 2) <= 1.0


def test_estimator_on_unknown_relation():
    assert estimate_fanout(None, (0,), 2) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 10_000),
    distinct=st.integers(0, 10_000),
    arity=st.integers(0, 4),
    bound=st.integers(0, 4),
)
def test_estimator_never_negative_or_above_cardinality(n, distinct, arity, bound):
    positions = tuple(range(min(bound, arity)))
    stats = RelationStatistics(
        n, {positions: min(distinct, n)} if positions else {}
    )
    fanout = estimate_fanout(stats, positions, arity)
    assert fanout >= 0.0
    assert fanout == fanout  # not NaN
    if n == 0:
        assert fanout == 0.0
    else:
        assert fanout <= float(n)


def test_distinct_key_statistics_refine_estimates():
    """With an index, the estimate is the true mean bucket size."""
    stats = RelationStatistics(1000, {(0,): 10})
    assert estimate_fanout(stats, (0,), 2) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# Versioned invalidation: drift triggers a re-plan, and replans counts it
# ---------------------------------------------------------------------------

def _rule():
    program = parse_program("q(X, Z) :- a(X, Y), b(Y, Z).")
    return program.proper_rules()[0]


def test_plan_cache_replans_on_drift():
    rule = _rule()
    db = Database()
    db.add_facts("a", [(i, i + 1) for i in range(100)])
    db.add_facts("b", [(0, 1)])
    cache = PlanCache("cost")
    stats = EvalStats()

    plan = cache.plan(rule, (), stats, db=db)
    assert plan.order == [1, 0]  # b is tiny: drive the join from it
    assert stats.replans == 0 and stats.plans_compiled == 1

    # Within the drift threshold: the cached plan is reused.
    db.add_facts("b", [(1, 2), (2, 3)])
    assert cache.plan(rule, (), stats, db=db) is plan
    assert stats.replans == 0 and stats.plan_cache_hits == 1

    # b grows past the threshold: the cache must recompile ...
    db.add_facts("b", [(i, i + 1) for i in range(5000)])
    replanned = cache.plan(rule, (), stats, db=db)
    assert replanned is not plan
    assert stats.replans == 1 and stats.plans_compiled == 2
    # ... and the new statistics flip the join order.
    assert replanned.order == [0, 1]


def test_plan_cache_greedy_never_replans():
    rule = _rule()
    db = Database()
    db.add_facts("a", [(1, 2)])
    db.add_facts("b", [(2, 3)])
    cache = PlanCache("greedy")
    stats = EvalStats()
    plan = cache.plan(rule, (), stats, db=db)
    db.add_facts("a", [(i, i + 1) for i in range(1000)])
    assert cache.plan(rule, (), stats, db=db) is plan
    assert stats.replans == 0


def test_replans_counted_during_seminaive_evaluation():
    """Mid-evaluation drift: the recursive relation grows from empty to
    thousands of facts, so the cost planner must re-plan between delta
    rounds and record it on the stats it returns."""
    program = parse_program(
        """
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, W), t(W, Y).
        """
    )
    _, greedy = seminaive_eval(program, chain_edb(80), planner="greedy")
    _, cost = seminaive_eval(program, chain_edb(80), planner="cost")
    assert cost.replans > 0
    assert greedy.replans == 0
    assert (cost.facts, cost.inferences) == (greedy.facts, greedy.inferences)
    assert cost.estimated_vs_actual  # accuracy samples were recorded
    assert all(est >= 0 and actual >= 0 for est, actual in cost.estimated_vs_actual)
    assert cost.planner_accuracy() >= 0.0


def test_rejects_unknown_planner():
    with pytest.raises(ValueError):
        PlanCache("selinger")
    with pytest.raises(ValueError):
        seminaive_eval(parse_program("p(1)."), Database(), planner="nope")


def test_skewed_fanout_counters_match_across_planners():
    """The separation workload itself: identical fixpoints and counters,
    far fewer probes under the cost planner."""
    program = skewed_fanout_program()
    edb = skewed_fanout_edb(sources=10, fanout=10, burst=20, selected=20)
    db_g, greedy = seminaive_eval(program, edb, planner="greedy")
    db_c, cost = seminaive_eval(program, edb, planner="cost")
    assert db_g == db_c
    assert (greedy.facts, greedy.inferences) == (cost.facts, cost.inferences)
    assert cost.probes < greedy.probes
