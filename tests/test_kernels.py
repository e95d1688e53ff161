"""The generated batch kernels: one Python function per plan shape.

``repro.engine.columnar`` writes each plan shape out as source — a
comprehension per step, the last one building the head tuple — and runs
plans through the compiled function.  Three oracles pin what it emits:

* a nested loop over the relations in log order, straight from the rule
  text (:func:`reference_rows`): the kernel's rows, **in order**;
* ``RulePlan.execute``, the tuple executor: the same rows as a multiset
  (it scans hash-ordered sets) and the exact ``probes``;
* whole fixpoints against ``tuple_at_a_time``, the one fixpoint loop
  with every plan on the tuple executor: facts and every counter.

The rest pins the generator's housekeeping: functions shared by shape,
source made of generated names and integers only, and id columns that
hand back the dictionary's own int objects.
"""

import importlib
import os
import pickle
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine import columnar
from repro.engine.columnar import (
    _compile_kernel,
    decode_rows,
    execute_columnar,
    kernel_source,
)
from repro.engine.database import Database, Relation, RelationView, load_program_facts
from repro.engine.intern import TermDictionary
from repro.engine.plan import RulePlan
from repro.engine.reference import naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats

from tests.conftest import tuple_at_a_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_db(facts) -> Database:
    db = Database()
    for predicate, rows in facts.items():
        for row in rows:
            db.add_fact(predicate, row)
    db.ensure_dictionary()
    return db


def reference_rows(plan, db, overrides):
    """Head facts by nested loops in plan order over log-ordered sources."""
    rule = plan.rule
    bindings = [{}]
    for idx in plan.order:
        literal = rule.body[idx]
        rel = overrides.get(idx)
        if rel is None:
            rel = db.get(literal.predicate, literal.arity)
        if rel is None:
            return []
        facts = rel.scan() if type(rel) is RelationView else rel._log
        extended = []
        for binding in bindings:
            for fact in facts:
                new = dict(binding)
                for arg, value in zip(literal.args, fact):
                    if type(arg) is Variable:
                        arg = new.setdefault(arg, value)
                    if arg != value:
                        break
                else:
                    extended.append(new)
        bindings = extended
    return [tuple(b.get(arg, arg) for arg in rule.head.args) for b in bindings]


def check_plan(rule, db, overrides=None, order=None):
    """One plan through all three executions; returns the kernel's rows."""
    overrides = overrides or {}
    roles = tuple((pos, "delta") for pos in sorted(overrides))
    plan = RulePlan(rule, roles, order=order)
    assert _compile_kernel(plan) is not False, f"not a kernel shape: {rule}"
    kernel_stats, tuple_stats = EvalStats(), EvalStats()
    rows = execute_columnar(plan, db, overrides, kernel_stats)
    assert rows is not None
    got = decode_rows(db.dictionary.terms, rows, rule.head.arity)
    emitted = []
    plan.execute(db, overrides, emitted.append, tuple_stats)
    assert got == reference_rows(plan, db, overrides), f"rows or order differ: {rule}"
    assert Counter(got) == Counter(emitted), f"multiset differs from RulePlan.execute: {rule}"
    assert kernel_stats.probes == tuple_stats.probes, f"probes differ: {rule}"
    return got


FACTS = {
    "e": [(1, 2), (2, 3), (2, 4), (3, 3), (4, 1), (1, 4)],
    "f": [(2, 5), (3, 5), (3, 6), (4, 4), (1, 2)],
    "g": [(1, 2, 7), (2, 3, 8), (2, 3, 9), ("a", 3, 1), ("a", 4, 2), (1, 4, 4)],
    "u": [(1,), (3,), ("a",)],
    "w": [(5, 5), (5, 6), (6, 6)],
}

#: (name, rule, explicit join order or None) — every step kind and
#: combination the generator emits, with the head forms it builds.
CASES = [
    ("single-step, head is the row", "p(X, Y) :- e(X, Y).", None),
    ("single-step, permuted head", "p(Y, X) :- e(X, Y).", None),
    ("single-column head keeps duplicates", "p(X) :- e(X, Y).", None),
    ("mixed-constant head", "p(X, c, Y, 0) :- e(X, Y).", None),
    ("constant-only head", "p(c) :- e(X, Y).", None),
    ("repeated head variable", "p(Y, X, Y) :- e(X, Y).", None),
    ("nullary head", "p :- e(X, Y), f(Y, Z).", [0, 1]),
    ("entry scan with a repeated variable", "p(X) :- e(X, X).", None),
    ("single-position probe", "p(X, Z) :- e(X, Y), f(Y, Z).", [0, 1]),
    ("probe whose stores are dead", "p(X) :- e(X, Y), f(Y, Z).", [0, 1]),
    ("multi-position probe", "p(X, W) :- e(X, Y), g(X, Y, W).", [0, 1]),
    ("probe with a constant key part", "p(X, W) :- e(X, Y), g(a, Y, W).", [0, 1]),
    ("probe with a repeated variable", "p(X) :- e(X, Y), w(Z, Z), f(Y, X).", [0, 2, 1]),
    ("probe storing two columns", "p(W, Y) :- u(X), g(X, Y, W).", [0, 1]),
    ("constant bucket first", "p(Y, W) :- g(a, Y, W).", None),
    ("constant bucket first, store dead", "p(Z) :- g(a, Y, W), u(Z).", [0, 1]),
    ("constant bucket in the middle", "p(X, Y) :- e(X, Z), g(a, Y, W), f(Z, W).", [0, 1, 2]),
    ("multi-constant bucket", "p(W) :- g(2, 3, W).", None),
    ("ground literal that holds", "p(X) :- u(a), e(X, Y), u(3).", None),
    ("ground literal that fails", "p(X) :- e(X, Y), u(9).", None),
    ("all-ground body", "p(a, b) :- u(a), u(3).", None),
    ("existence check first", "p(X, Z) :- e(X, Y), f(X, Y), e(Y, Z).", [0, 1, 2]),
    ("existence check in the middle", "p(X, Z) :- e(X, Y), e(Y, Z), f(X, Y), u(Z).", [0, 1, 2, 3]),
    ("existence check last", "p(X, Z) :- e(X, Y), e(Y, Z), f(X, Z).", [0, 1, 2]),
    ("existence check with a constant", "p(X) :- e(X, Y), g(a, Y, X).", [0, 1]),
    ("existence check passing rows through", "p(X, Y) :- e(X, Y), u(X).", [0, 1]),
    ("existence check narrowing rows", "p(Z) :- e(X, Y), f(X, Y), e(Y, Z).", [0, 1, 2]),
    ("non-entry scan", "p(X, Z) :- e(X, Y), u(Z).", [0, 1]),
    ("non-entry scan with a repeated variable", "p(X, Z) :- e(X, Y), w(Z, Z).", [0, 1]),
    ("first step stores nothing read later", "p(Z) :- e(A, B), u(Z).", [0, 1]),
    ("scan after a ground literal", "p(X, Y) :- u(a), e(X, Y).", [0, 1]),
    ("three-way join", "p(X, Y) :- e(X, A), e(A, B), f(B, Y).", [1, 0, 2]),
]


@pytest.mark.parametrize("name, text, order", CASES, ids=[c[0] for c in CASES])
def test_generated_kernel_matches_the_oracles(name, text, order):
    rule = parse_program(text).rules[0]
    check_plan(rule, make_db(FACTS), order=order)


def test_probe_checks_a_repeated_variable_in_the_bucket_entry():
    """``g(X, Y, Y)`` probed on ``X``: the entry is ``(y, y')`` and the
    check compares its two halves, as rows and ``probes`` of the tuple
    executor's fixpoint confirm."""
    program = parse_program("p(X, Y) :- u(X), g(X, Y, Y).\nu(Y) :- p(X, Y).")
    plan = RulePlan(program.rules[0], ())
    assert "for i in get1(s0, ()) if i[1] == i[0]]" in kernel_source(_compile_kernel(plan)[0])
    edb = make_db({"u": [(1,)], "g": FACTS["g"] + [(4, 2, 2), (4, 5, 6), (2, 1, 1)]})
    db, stats = seminaive_eval(program, edb, partitions=1)
    tuple_db, tuple_stats = tuple_at_a_time(program, edb)
    assert db == tuple_db
    assert db.relation("p", 2).tuples == {
        tuple(map(Constant, pair)) for pair in [(1, 4), (4, 2), (2, 1)]
    }
    assert stats.columnar_fallbacks == 0
    for counter in ("facts", "inferences", "probes", "iterations"):
        assert getattr(stats, counter) == getattr(tuple_stats, counter), counter


def test_step_kinds_are_all_reached():
    kinds = set()
    for _, text, order in CASES:
        plan = RulePlan(parse_program(text).rules[0], (), order=order)
        kinds.update(kind for kind, _, _ in _compile_kernel(plan)[0][0])
    assert kinds == {
        columnar.S_SCAN, columnar.S_GROUND, columnar.S_EXISTS,
        columnar.S_BUCKET, columnar.S_PROBE,
    }


@pytest.mark.parametrize(
    "text, roles, order",
    [
        # the literal with more bound positions (here a constant) leads
        ("p(X, Y) :- e(X, Z), g(a, Z, Y).", (), [1, 0]),
        # equally bound: the delta occurrence drives the join
        ("t(X, Y) :- e(X, W), t(W, Y).", ((1, "delta"),), [1, 0]),
        # equally bound and no delta: source order
        ("t(X, Y) :- e(X, W), t(W, Y).", (), [0, 1]),
    ],
)
def test_the_join_order_is_greedy_bound_first(text, roles, order):
    assert RulePlan(parse_program(text).rules[0], roles).order == order


def test_delta_windows_cached_span_and_sliced_columns():
    """The entry rows come ready-made: the cached span of the last bulk
    append when the window is exactly that, zipped column slices when
    not — and a window can also be probed or checked, not only scanned."""
    db = make_db(FACTS)
    d = db.dictionary
    t = db.relation("t", 2)
    first = [(d.intern(Constant(a)), d.intern(Constant(b))) for a, b in [(1, 2), (2, 3), (3, 3)]]
    second = [(d.intern(Constant(a)), d.intern(Constant(b))) for a, b in [(2, 4), (4, 1)]]
    t.append_rows(first)
    t.append_rows(second)
    rule = parse_program("t(X, Y) :- e(X, Z), t(Z, Y).").rules[0]
    assert t._last_rows[:2] == (3, 5)
    plan = RulePlan(rule, ((1, "delta"),))
    execute_columnar(plan, db, {1: t.view(3, 5)}, None)
    assert t._pending_rows, "the cached span is read without draining into columns"
    cached = check_plan(rule, db, {1: t.view(3, 5)})
    sliced = check_plan(rule, db, {1: t.view(1, 4)})
    assert cached and sliced and cached != sliced
    check_plan(rule, db, {1: t.view(0, 5)})
    check_plan(rule, db, {1: t.view(2, 2)})  # empty delta: early return
    # the window as a probed, a bucketed and an existence-checked source
    check_plan(rule, db, {1: t.view(1, 4)}, order=[0, 1])
    check_plan(parse_program("p(X) :- e(X, Z), t(2, Z).").rules[0], db, {1: t.view(1, 5)}, order=[1, 0])
    check_plan(parse_program("p(X) :- e(X, Z), t(X, Z).").rules[0], db, {1: t.view(0, 3)}, order=[0, 1])


def test_kernel_never_hands_out_the_cached_span_itself():
    """The scheduler extends the list a batch returns; a single-step
    identity rule must copy the relation's cached rows, not return them."""
    db = make_db({})
    d = db.ensure_dictionary()
    t = db.relation("t", 2)
    rows = [(d.intern(Constant(i)), d.intern(Constant(i + 1))) for i in range(3)]
    t.append_rows(rows)
    plan = RulePlan(parse_program("s(X, Y) :- t(X, Y).").rules[0], ((0, "delta"),))
    out = execute_columnar(plan, db, {0: t.view(0, 3)}, None)
    assert out == rows and out is not rows


def test_missing_and_empty_sources_return_before_the_kernel():
    db = make_db(FACTS)
    db.relation("empty", 1)
    for text in ("p(X) :- e(X, Y), nowhere(Y).", "p(X) :- e(X, Y), empty(Y)."):
        assert check_plan(parse_program(text).rules[0], db, order=[0, 1]) == []


# ---------------------------------------------------------------------------
# Random safe rules × small EDBs
# ---------------------------------------------------------------------------

VARIABLES = [Variable(name) for name in "XYZW"]
ARITIES = {"a": 1, "b": 2, "c": 3}


@st.composite
def rule_and_facts(draw):
    term = st.one_of(st.sampled_from(VARIABLES), st.integers(0, 2).map(Constant))
    body = []
    for _ in range(draw(st.integers(1, 4))):
        predicate = draw(st.sampled_from(sorted(ARITIES)))
        body.append(Literal(predicate, [draw(term) for _ in range(ARITIES[predicate])]))
    bound = sorted({a for lit in body for a in lit.args if type(a) is Variable}, key=str)
    head_term = st.one_of(st.sampled_from(bound), st.integers(0, 2).map(Constant)) if bound else st.integers(0, 2).map(Constant)
    head = Literal("h", [draw(head_term) for _ in range(draw(st.integers(0, 3)))])
    order = draw(st.permutations(list(range(len(body)))))
    facts = {
        predicate: draw(st.lists(st.tuples(*[st.integers(0, 3)] * arity), max_size=8, unique=True))
        for predicate, arity in ARITIES.items()
    }
    window = None
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(body) - 1))
        n = len(facts[body[pos].predicate])
        lo = draw(st.integers(0, n))
        window = (pos, lo, draw(st.integers(lo, n)))
    return Rule(head, body), list(order), facts, window


@given(rule_and_facts())
@settings(max_examples=150, deadline=None)
def test_random_rules_match_the_oracles(case):
    rule, order, facts, window = case
    db = make_db(facts)
    overrides = {}
    if window is not None:
        pos, lo, hi = window
        literal = rule.body[pos]
        overrides[pos] = db.relation(literal.predicate, literal.arity).view(lo, hi)
    check_plan(rule, db, overrides, order)


@given(rule_and_facts())
@settings(max_examples=60, deadline=None)
def test_random_programs_count_alike_on_both_executors(case):
    """Whole fixpoints: the rule, made recursive through its head."""
    rule, _, facts, _ = case
    if rule.head.arity == 0:
        return  # nullary heads stay on term rows
    arity = rule.head.arity
    feed = Rule(Literal("abc"[arity - 1], VARIABLES[:arity]), [Literal("h", VARIABLES[:arity])])
    program = Program([rule, feed])
    edb = make_db(facts)
    # the oracle never partitions: pin the knob that moves probes
    db, stats = seminaive_eval(program, edb, partitions=1)
    tuple_db, tuple_stats = tuple_at_a_time(program, edb)
    assert db == tuple_db
    for counter in ("facts", "inferences", "probes", "iterations"):
        assert getattr(stats, counter) == getattr(tuple_stats, counter), counter
    assert stats.columnar_fallbacks == 0


# ---------------------------------------------------------------------------
# One function per shape
# ---------------------------------------------------------------------------


def test_plans_of_one_shape_share_one_function():
    db = make_db({**FACTS, "reach": [(9, 1)], "hop": [(1, 7)]})

    def executed(text):
        plan = RulePlan(parse_program(text).rules[0], (), order=[0, 1])
        assert plan._kernel is None, "generated at first execution, not at plan compile"
        execute_columnar(plan, db, None, None)
        return plan

    join = executed("t(X, Y) :- e(X, Z), f(Z, Y).")
    renamed = executed("far(A, B) :- reach(A, C), hop(C, B).")
    assert renamed._columnar[0] == join._columnar[0]
    assert renamed._kernel is join._kernel
    # constants are arguments, not part of the shape
    first = executed("p(X, k) :- e(X, Y), g(a, Y, X).")
    second = executed("q(X, 7) :- f(X, Y), g(1, Y, X).")
    assert first._kernel is second._kernel is not join._kernel
    assert first._kernel.__code__.co_filename == "<kernel>"


def test_quick_rewrite_many_compiles_few_functions(monkeypatch):
    """Hundreds of plans, a hundred-odd shapes: the memo is what keeps
    generation off ``rewrite_many``'s bill."""
    from repro.session import DeductiveDatabase

    memo = {}
    monkeypatch.setattr(columnar, "_KERNELS", memo)
    executed = 0
    real = columnar.kernel_function

    def counting(shape):
        nonlocal executed
        executed += 1
        return real(shape)

    monkeypatch.setattr(columnar, "kernel_function", counting)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perf"))
    for case in importlib.import_module("workloads").rewrite_many(0, "quick"):
        db = DeductiveDatabase(jobs=1)
        db.rules(case["text"])
        for predicate, rows in case["facts"].items():
            db.facts(predicate, rows)
        for query in case["queries"]:
            db.ask(query)
    assert 0 < len(memo) <= 150
    assert executed > 2 * len(memo), (executed, len(memo))



# ---------------------------------------------------------------------------
# Source hygiene
# ---------------------------------------------------------------------------

HOSTILE = ["__import__('os')", 'q"uo\'te', "new\nline", "); raise SystemExit #"]
SOURCE = re.compile(r"^[A-Za-z0-9_ ()\[\],.:=+\n]*$")


def test_generated_source_holds_no_program_text(monkeypatch):
    evil, quote, newline, paren = HOSTILE
    X, Y, Z = VARIABLES[:3]
    program = Program(
        [
            Rule(Literal(evil, [X, Y]), [Literal(quote, [X, Y])]),
            Rule(Literal(evil, [X, Y]), [Literal(quote, [X, Z]), Literal(evil, [Z, Y])]),
            Rule(
                Literal(newline, [X, Constant(evil)]),
                [Literal(evil, [X, Constant(quote)]), Literal(quote, [Constant(paren), X])],
            ),
            Rule(Literal(paren, [Constant(newline)]), [Literal(quote, [Constant(paren), Constant(quote)])]),
        ]
    )
    edb = Database()
    for a, b in [(1, 2), (2, quote), (paren, 1), (paren, quote)]:
        edb.add_fact(quote, (a, b))
    memo = {}
    monkeypatch.setattr(columnar, "_KERNELS", memo)
    db, stats = seminaive_eval(program, edb, jobs=1)  # kernels in this process
    oracle, _ = naive_fixpoint_reference(program, edb)
    assert db == oracle and stats.columnar_fallbacks == 0
    assert db.relation(newline, 2).tuples == {(Constant(1), Constant(evil))}
    assert db.relation(paren, 1).tuples == {(Constant(newline),)}
    assert len(memo) >= 3
    for shape in memo:
        source = kernel_source(shape)
        assert SOURCE.match(source), source
        assert not any(text in source or text in repr(shape) for text in HOSTILE)


# ---------------------------------------------------------------------------
# Columns hand back the dictionary's own ints
# ---------------------------------------------------------------------------


def test_ids_are_the_dictionarys_own_objects():
    """No re-boxing: past the small-int cache, an id read from a column
    or found in a derived row *is* the object the dictionary holds."""
    n = 400
    edb = Database()
    for i in range(n):
        edb.add_fact("e", (f"v{i}", f"v{i + 1}"))
    program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).")
    db, _ = seminaive_eval(program, edb, max_iterations=None)
    d = db.dictionary
    assert len(d) > 300
    own = {ident: ident for ident in d._ids.values()}
    t = db.relation("t", 2)
    assert len(t) == n * (n + 1) // 2
    for rel in (db.relation("e", 2), t):
        for col in rel.ensure_columns():
            assert type(col) is list
            assert all(value is own[value] for value in col)
    assert all(value is own[value] for row in t.col_set() for value in row)
    assert all(v is own[v] for col in t.copy().ensure_columns() for v in col)
    # the once=True read scans the list columns in id space, nothing flushed
    assert t._pending_n and len(t.select((Constant("v0"), Variable("Y")), once=True)) == n
    assert t._pending_n


def test_tuple_fallback_rows_join_the_list_columns():
    """A rule the kernel declines inside a fixpoint: its facts are
    interned on the way back, so the round's delta stays in id space."""
    program = parse_program(
        """
        r(X) :- base(X).
        r(f(X)) :- r(X), lim(X).
        seen(X, Y) :- r(X), r(Y), lim(Y).
        """
    )
    edb = Database()
    load_program_facts(parse_program("base(0). lim(0). lim(f(0)). lim(f(f(0)))."), edb)
    db, stats = seminaive_eval(program, edb, partitions=1)
    tuple_db, tuple_stats = tuple_at_a_time(program, edb)
    assert db == tuple_db and len(db.relation("r", 1)) == 4
    assert stats.columnar_fallbacks > 0
    for counter in ("facts", "inferences", "probes", "iterations"):
        assert getattr(stats, counter) == getattr(tuple_stats, counter), counter
    own = {ident: ident for ident in db.dictionary._ids.values()}
    r = db.relation("r", 1)
    assert all(v is own[v] for col in r.ensure_columns() for v in col)


def test_show_kernel_prints_order_shape_and_source():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "show_kernel.py"),
         os.path.join(ROOT, "examples", "tc3.dl"), "t(1, Y)"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "f_t@bf(Y) :- m_t@bf(X), e(X, Y)." in done.stdout
    assert "join order: m_t@bf(X) [delta], e(X, Y)" in done.stdout
    assert "rows = [i for s0 in rows for i in get1(s0, ())]" in done.stdout
    assert "-- 2 kernel shape(s)" in done.stdout


def test_pickled_columns_are_packed():
    """A columnized relation ships 8 bytes an id: the parent commit
    (``array('q')`` columns pickled as they were) produced 250017 bytes
    for this relation."""
    d = TermDictionary()
    rel = Relation("r", 2, d)
    for i in range(10_000):
        rel.add((Constant(i), Constant((i * 7) % 10_000)))
    cols = rel.ensure_columns()
    size = len(pickle.dumps(rel))
    assert abs(size - 250017) <= 0.05 * 250017, size
    clone = pickle.loads(pickle.dumps(rel))
    assert [type(col) for col in clone._cols] == [list, list]
    assert clone._cols == cols and clone.tuples == rel.tuples
