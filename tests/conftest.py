"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Set, Tuple

import pytest

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.engine.database import Database
from repro.engine.naive import naive_eval


def answer_values(answers: Set[Tuple]) -> Set[Tuple]:
    """Unwrap Constant values for readable assertions."""
    out = set()
    for row in answers:
        out.add(tuple(getattr(term, "value", term) for term in row))
    return out


def oracle_answers(program: Program, goal: Literal, edb: Database) -> Set[Tuple]:
    """Naive-evaluation ground truth for a query."""
    db, _ = naive_eval(program, edb)
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


def pin_storage(db: Database):
    """A ``Database.pin()`` of ``db`` with a copy of every log, for
    :func:`assert_storage_matches_rebuild` to compare after a batch."""
    pinned = db.pin()
    return pinned, {sig: list(rel._log) for sig, rel in pinned.relations.items()}


def assert_storage_matches_rebuild(db: Database, pinned=None) -> None:
    """Every maintained structure of every relation equals a rebuild.

    Per relation: the log is the fact set in some order; the id columns
    decode to the log row for row; the carried row set and every
    carried index — tuple and int, whichever side of a copy-on-write
    share their buckets are on — hold what one built from the log
    would; ``col_set()`` is the interned log and ``statistics()`` a
    recount (distinct counts of indexes that are live and synced: a
    count carried for a dropped index is an estimate by design).
    ``pinned`` (:func:`pin_storage`, taken before a batch) must not
    have moved, and must pass the same checks: a batch that appended
    to a shared bucket in place would show there.
    """
    if pinned is not None:
        view, logs = pinned
        moved = {sig for sig, rel in view.relations.items() if rel._log != logs[sig]}
        assert not moved and view.relations.keys() == logs.keys(), moved
        assert_storage_matches_rebuild(view)
    for (name, arity), rel in db.relations.items():
        where = f"{name}/{arity}"
        log = rel._log  # also decodes rows held only by the columns
        assert len(set(log)) == len(log) and set(log) == rel.tuples, where
        synced = {}  # positions -> distinct keys recounted, per live synced index
        for positions, index in rel._indexes.items():
            rebuilt = {}
            for fact in log:
                rebuilt.setdefault(tuple(fact[p] for p in positions), set()).add(fact)
            assert index.keys() == rebuilt.keys(), (where, positions)
            for key, bucket in index.items():
                assert len(bucket) == len(rebuilt[key]), (where, positions, key)
                assert set(bucket) == rebuilt[key], (where, positions, key)
            synced[positions] = len(rebuilt)
        cols = rel._cols
        if cols is not None:
            terms = rel.dictionary.terms
            rows = list(zip(*cols))
            assert all(len(col) == len(rows) for col in cols), where
            decoded = [tuple(terms[i] for i in row) for row in rows]
            assert decoded == log[: len(rows)], where
            if rel._colset is not None:
                assert rel._colset == set(rows[: rel._colset_n]), where
                assert len(rel._colset) == rel._colset_n <= len(rows), where
            for positions, (index, mark) in rel._col_indexes.items():
                rebuilt = {}
                for i, row in enumerate(rows[:mark]):
                    key = tuple(row[p] for p in positions)
                    rebuilt.setdefault(key[0] if len(key) == 1 else key, []).append(i)
                assert mark <= len(rows) and index == rebuilt, (where, positions)
                if mark == len(log):
                    synced.setdefault(positions, len(rebuilt))
        interned = rel.col_set()
        if interned is not None:
            ident = rel.dictionary.lookup
            assert interned == {tuple(map(ident, fact)) for fact in log}, where
        stats = rel.statistics()
        assert stats.cardinality == len(log), where
        for positions, distinct in synced.items():
            assert stats.distinct(positions) == distinct, (where, positions)
