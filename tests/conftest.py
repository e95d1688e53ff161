"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Set, Tuple

import pytest

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.engine.database import Database
from repro.engine.reference import naive_fixpoint_reference
from repro.datalog.unify import match


def answer_values(answers: Set[Tuple]) -> Set[Tuple]:
    """Unwrap Constant values for readable assertions."""
    out = set()
    for row in answers:
        out.add(tuple(getattr(term, "value", term) for term in row))
    return out


def oracle_answers(program: Program, goal: Literal, edb: Database) -> Set[Tuple]:
    """Naive-evaluation ground truth for a query."""
    db, _ = naive_fixpoint_reference(program, edb)
    return db.query(goal)


@pytest.fixture
def tc_program():
    from repro.workloads.examples import three_rule_tc_program

    return three_rule_tc_program()


@pytest.fixture
def tc_goal():
    from repro.datalog.parser import parse_query

    return parse_query("t(0, Y)")


def decision_corpus():
    """The programs the strategy decision is pinned on, each with its
    query forms: every ``*_program`` of ``workloads.examples`` and
    ``random_rlc_program``/``random_program`` seeds 0–59, every IDB
    predicate under every binding pattern — 524 forms.

    Yields ``(name, program, [(predicate, arity, adornment), ...])``.
    """
    import inspect
    from itertools import product

    from repro.workloads import examples, synthetic

    programs = [
        (name, make())
        for name, make in inspect.getmembers(examples, inspect.isfunction)
        if name.endswith("_program") and make.__module__ == examples.__name__
    ]
    for seed in range(60):
        programs.append((f"rlc{seed}", synthetic.random_rlc_program(seed)))
        programs.append((f"rnd{seed}", synthetic.random_program(seed)))
    for name, program in programs:
        yield name, program, [
            (predicate, arity, "".join(pattern))
            for predicate, arity in sorted(program.idb_signatures)
            for pattern in product("bf", repeat=arity)
        ]


def corpus_instance(index, program, forms):
    """A small random EDB for corpus program number ``index`` and one
    query per form, bound positions holding random constants:
    ``({predicate: [rows]}, [query strings])``."""
    import random

    rng = random.Random(index)
    facts = {
        predicate: sorted(
            {tuple(rng.randrange(5) for _ in range(arity)) for _ in range(9)}
        )
        for predicate, arity in sorted(program.edb_signatures)
    }
    queries = [
        "%s(%s)" % (
            predicate,
            ", ".join(
                str(rng.randrange(5)) if mark == "b" else f"V{i}"
                for i, mark in enumerate(adornment)
            ),
        )
        for predicate, arity, adornment in forms
    ]
    return facts, queries


def tuple_at_a_time(program: Program, edb: Database, **budgets):
    """``seminaive_eval`` with the batch kernel declining every call, so
    every plan runs ``RulePlan.execute`` through the one fixpoint loop:
    the tuple executor's counters, the oracle the kernel is held to.

    The config is built from ``budgets`` alone, so the run is the
    serial, unpartitioned one.  Returns ``(database, stats)``.
    """
    from repro.engine import scheduler
    from repro.engine.config import EngineConfig
    from repro.engine.seminaive import seminaive_eval

    declined = []

    def decline(*args, **kwargs):
        declined.append(args)
        return None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "execute_columnar", decline)
        db, stats = seminaive_eval(program, edb, EngineConfig(**budgets))
    assert stats.columnar_fallbacks == len(declined)
    return db, stats


def naive_schedule(program: Program, edb: Database, **knobs):
    """``(database, stats)`` of the scheduler's naive mode, the fixpoint
    the uniform-redundancy chase runs (``analysis/uniform.py``), over a
    copy of ``edb`` under ``EngineConfig(**knobs)``."""
    from repro.engine.config import EngineConfig
    from repro.engine.database import load_program_facts
    from repro.engine.scheduler import SCCScheduler
    from repro.engine.stats import EvalStats

    db, stats = edb.copy(), EvalStats()
    stats.facts += load_program_facts(program, db)
    SCCScheduler(program, EngineConfig(**knobs), "naive").run(db, stats)
    return db, stats


def assert_trees_are_those_of(session, edb: Database, limit=None) -> None:
    """``session.explain`` answers, for every derived fact (the first
    ``limit`` in rendered order when given), the tree a from-scratch
    ``explain`` over ``edb`` returns — the trees of the EDB the caller
    tracks, not of some earlier one."""
    from repro.engine.provenance import explain

    derived = sorted(
        (
            Literal(name, fact)
            for (name, arity), rel in session.database.relations.items()
            for fact in rel.tuples
            if not edb.has_fact(name, fact)
        ),
        key=str,
    )
    for fact in derived[:limit]:
        assert session.explain(fact) == explain(session.program, edb, fact), fact


def assert_derivations_sound(program: Program, model: Database, edb: Database, tree):
    """Every node of ``tree`` is an instance of a program rule over
    ``model`` — its children are the rule's body facts in source order,
    and they instantiate the head to exactly the node's fact — and every
    leaf is an ``edb`` fact or a program fact."""
    stack = [tree]
    while stack:
        node = stack.pop()
        fact = node.fact
        assert model.has_fact(fact.predicate, fact.args), fact
        if node.rule is None:
            assert not node.children and edb.has_fact(fact.predicate, fact.args), fact
            continue
        rule = node.rule
        assert rule in program.rules, rule
        assert len(node.children) == len(rule.body), fact
        bindings = {}
        for literal, child in zip(rule.body, node.children):
            assert child.fact.signature == literal.signature
            bindings = match(literal, child.fact.args, bindings)
            assert bindings is not None, (fact, rule)
        assert rule.head.signature == fact.signature
        assert match(rule.head, fact.args, bindings) is not None, (fact, rule)
        stack.extend(node.children)


def pin_storage(db: Database):
    """A ``Database.pin()`` of ``db`` with a copy of every log, for
    :func:`assert_storage_matches_rebuild` to compare after a batch."""
    pinned = db.pin()
    return pinned, {sig: list(rel._log) for sig, rel in pinned.relations.items()}


def encoded_rows(id_facts, arity):
    """``id_facts`` (one id tuple per fact) as a relation stores its rows:
    a unary relation's row is its bare id, any other row the id tuple."""
    return [fact[0] for fact in id_facts] if arity == 1 else list(id_facts)


def rebuilt_col_index(rows, positions, arity):
    """An int index rebuilt from id ``rows`` in log order: each key (the
    row's projection on ``positions``) lists its rows' values at the
    other positions.  Either projection is a bare id for one position
    and an id tuple otherwise."""
    rest = [p for p in range(arity) if p not in positions]

    def project(row, at):
        return row[at[0]] if len(at) == 1 else tuple(row[p] for p in at)

    index = {}
    for row in rows:
        index.setdefault(project(row, positions), []).append(project(row, rest))
    return index


def assert_storage_matches_rebuild(db: Database, pinned=None) -> None:
    """Every maintained structure of every relation equals a rebuild.

    Per relation: the log is the fact set in some order; the id columns
    decode to the log row for row; the carried row set and every
    carried index — tuple and int, whichever side of a copy-on-write
    share their buckets are on — hold what one built from the log
    would; ``col_set()``, the pending-row buffer and the cached span of
    the last bulk append are the interned log, encoded by
    :func:`encoded_rows`.  ``pinned``
    (:func:`pin_storage`, taken before a batch) must not have moved,
    and must pass the same checks: a batch that appended to a shared
    bucket in place would show there.
    """
    if pinned is not None:
        view, logs = pinned
        moved = {sig for sig, rel in view.relations.items() if rel._log != logs[sig]}
        assert not moved and view.relations.keys() == logs.keys(), moved
        assert_storage_matches_rebuild(view)
    for (name, arity), rel in db.relations.items():
        where = f"{name}/{arity}"
        pending, last = list(rel._pending_rows), rel._last_rows
        drained = 0 if rel._cols is None else len(rel._cols[0])
        log = rel._log  # also decodes rows held only by the columns
        assert len(set(log)) == len(log) and set(log) == rel.tuples, where
        for positions, index in rel._indexes.items():
            rebuilt = {}
            for fact in log:
                rebuilt.setdefault(tuple(fact[p] for p in positions), set()).add(fact)
            assert index.keys() == rebuilt.keys(), (where, positions)
            for key, bucket in index.items():
                assert len(bucket) == len(rebuilt[key]), (where, positions, key)
                assert set(bucket) == rebuilt[key], (where, positions, key)
        cols = rel._cols
        if cols is not None:
            terms = rel.dictionary.terms
            rows = list(zip(*cols))
            assert all(len(col) == len(rows) for col in cols), where
            decoded = [tuple(terms[i] for i in row) for row in rows]
            assert decoded == log[: len(rows)], where
            if rel._colset is not None:
                assert rel._colset == set(encoded_rows(rows[: rel._colset_n], arity)), where
                assert len(rel._colset) == rel._colset_n <= len(rows), where
            tail = rows[drained : drained + len(pending)]
            assert pending == encoded_rows(tail, arity), where
            if last is not None:
                assert last[2] == encoded_rows(rows[last[0] : last[1]], arity), where
            for positions, (index, mark) in rel._col_indexes.items():
                rebuilt = rebuilt_col_index(rows[:mark], positions, rel.arity)
                assert mark <= len(rows) and index == rebuilt, (where, positions)
        interned = rel.col_set()
        if interned is not None:
            ident = rel.dictionary.lookup
            rows = encoded_rows([tuple(map(ident, fact)) for fact in log], arity)
            assert interned == set(rows), where
