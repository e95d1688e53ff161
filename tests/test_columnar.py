"""Columnar execution: interning, column slabs, and the batch kernel.

The differential fuzz (``tests/test_fuzz.py``) holds the big property —
columnar and tuple modes are bit-identical on facts and counters.  This
module pins the columnar machinery's *local* contracts: dictionary
interning round-trips, buffered-column draining, compaction after
deletion, duplicate handling, empty-delta rounds, pickling, and the
query overlay sharing the EDB's columns instead of rebuilding them.
"""

import pickle

import pytest

from repro.datalog.parser import parse_program, parse_term
from repro.datalog.terms import Constant
from repro.engine.columnar import decode_rows
from repro.engine.database import Database, Relation
from repro.engine.intern import TermDictionary
from repro.engine.seminaive import seminaive_eval


def chain_edb(n: int) -> Database:
    db = Database()
    for i in range(n):
        db.add_fact("e", (i, i + 1))
    return db


TC = parse_program(
    """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, Z), t(Z, Y).
    """
)


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------


def test_interning_round_trips_terms():
    d = TermDictionary()
    terms = [
        Constant(7),
        Constant("a"),
        parse_term("[a, b]"),
        parse_term("f(g(1), 2)"),
    ]
    ids = [d.intern(t) for t in terms]
    assert ids == [d.intern(t) for t in terms], "re-interning must be stable"
    assert len(set(ids)) == len(terms)
    assert [d.terms[i] for i in ids] == terms
    rows = [(ids[0], ids[1]), (ids[2], ids[3])]
    assert decode_rows(d.terms, rows) == [
        (terms[0], terms[1]),
        (terms[2], terms[3]),
    ]
    assert decode_rows(d.terms, []) == []


def test_dictionary_survives_pickle_with_ids_intact():
    db = chain_edb(5)
    d = db.ensure_dictionary()
    rel = db.relation("e", 2)
    rel.ensure_columns()
    clone = pickle.loads(pickle.dumps(db))
    assert clone.dictionary is not None
    assert clone.relation("e", 2).tuples == rel.tuples
    # Ids minted before the pickle still decode to the same terms.
    i = d.intern(Constant(0))
    assert clone.dictionary.terms[i] == Constant(0)


# ---------------------------------------------------------------------------
# Buffered columns and lazy mirrors
# ---------------------------------------------------------------------------


def test_append_rows_buffers_then_drains():
    d = TermDictionary()
    rel = Relation("r", 2, d)
    rows = [(d.intern(Constant(i)), d.intern(Constant(i + 1))) for i in range(4)]
    rel.append_rows(rows)
    assert rel._pending_rows, "bulk appends buffer instead of transposing"
    assert len(rel) == 4
    cols = rel.ensure_columns()
    assert not rel._pending_rows
    assert [list(c) for c in cols] == [
        [r[0] for r in rows],
        [r[1] for r in rows],
    ]
    # The tuple mirror decodes lazily and agrees with the columns.
    assert rel.tuples == {(Constant(i), Constant(i + 1)) for i in range(4)}


def test_buffered_relation_snapshot_copy_pickle_drain():
    d = TermDictionary()
    rel = Relation("r", 1, d)
    rel.append_rows([(d.intern(Constant(i)),) for i in range(3)])
    assert rel._pending_rows
    for clone in (rel.copy(), rel.snapshot(), pickle.loads(pickle.dumps(rel))):
        assert clone.tuples == rel.tuples
    assert not rel._pending_rows, "shipping a relation drains its buffer"


def test_views_window_buffered_rows():
    d = TermDictionary()
    rel = Relation("r", 1, d)
    rel.append_rows([(d.intern(Constant(i)),) for i in range(3)])
    rel.append_rows([(d.intern(Constant(i)),) for i in range(3, 5)])
    view = rel.view(3, 5)
    assert set(view) == {(Constant(3),), (Constant(4),)}


# ---------------------------------------------------------------------------
# Compaction after deletion
# ---------------------------------------------------------------------------


def test_columns_compact_after_remove_facts():
    db = chain_edb(6)
    db.ensure_dictionary()
    rel = db.relation("e", 2)
    cols = rel.ensure_columns()
    assert len(cols[0]) == 6
    rel.col_index((0,))
    rel.col_set()
    removed = rel.remove_facts([(Constant(2), Constant(3)), (Constant(4), Constant(5))])
    assert removed == 2
    cols = rel.ensure_columns()
    # Survivors, in their original order, with row i of the columns
    # describing row i of the compacted log.
    survivors = [(0, 1), (1, 2), (3, 4), (5, 6)]
    decoded = decode_rows(db.dictionary.terms, list(zip(*[list(c) for c in cols])))
    assert decoded == [(Constant(a), Constant(b)) for a, b in survivors]
    # Rebuilt row-position structures see only survivors.
    index = rel.col_index((0,))
    key = (db.dictionary.intern(Constant(2)),)
    assert not index.get(key)
    assert len(rel.col_set()) == 4
    # Evaluation over the compacted relation still matches the oracle.
    db_col, _ = seminaive_eval(TC, db, exec="columnar")
    db_tup, _ = seminaive_eval(TC, db, exec="tuple")
    assert db_col == db_tup


def test_remove_facts_invalidates_row_cache():
    db = chain_edb(4)
    db.ensure_dictionary()
    rel = db.relation("e", 2)
    d = db.dictionary
    rel.append_rows([(d.intern(Constant(9)), d.intern(Constant(10)))])
    assert rel._last_rows is not None
    rel.remove_facts([(Constant(9), Constant(10))])
    assert rel._last_rows is None, "compaction shifts the cached span"


def test_finished_fixpoint_releases_row_cache():
    """No relation leaves an evaluation still holding a round's row list.

    The cache serves the *next* round's delta scan; after the last one
    it only pins a young list (the widest round's, on a tree) that every
    later young collection of the cyclic GC has to walk.
    """
    db, _ = seminaive_eval(TC, chain_edb(6), exec="columnar")
    rel = db.relation("t", 2)
    assert rel._pending_n, "rows were bulk-appended, so the cache was in use"
    assert all(r._last_rows is None for r in db.relations.values())


# ---------------------------------------------------------------------------
# Kernel semantics
# ---------------------------------------------------------------------------


def test_duplicate_derivations_count_inferences_once_per_row():
    """Rows reachable through several paths dedup into one fact.

    ``p(Y) :- e(X, Y)`` derives each ``Y`` once per incoming edge;
    the kernel must preserve the duplicates for counter parity
    (``inferences``) while the relation dedups the facts.
    """
    program = parse_program("p(Y) :- e(X, Y).")
    db = Database()
    for x in range(4):
        db.add_fact("e", (x, 99))
    col_db, col_stats = seminaive_eval(program, db, exec="columnar")
    tup_db, tup_stats = seminaive_eval(program, db, exec="tuple")
    assert col_db == tup_db
    assert len(col_db.relation("p", 1)) == 1
    assert col_stats.inferences == tup_stats.inferences == 4


def test_empty_delta_round_terminates_identically():
    """The closing round (delta derives nothing new) matches the oracle."""
    db = chain_edb(8)
    col_db, col_stats = seminaive_eval(TC, db, exec="columnar")
    tup_db, tup_stats = seminaive_eval(TC, db, exec="tuple")
    assert col_db == tup_db
    assert col_stats.iterations == tup_stats.iterations
    assert col_stats.probes == tup_stats.probes
    assert len(col_db.relation("t", 2)) == 8 * 9 // 2


def test_columnar_database_equality_is_mode_blind():
    """A columnar-built database equals a tuple-built one (and vice versa)."""
    db = chain_edb(5)
    col_db, _ = seminaive_eval(TC, db, exec="columnar")
    tup_db, _ = seminaive_eval(TC, db, exec="tuple")
    assert col_db == tup_db
    assert tup_db == col_db
    assert col_db.dictionary is not None


# ---------------------------------------------------------------------------
# The query overlay (satellite: dictionary carry + column sharing)
# ---------------------------------------------------------------------------


def test_query_overlay_shares_edb_columns():
    """Serving a query reuses the EDB's dictionary and column slabs.

    The overlay database the compiled query runs in shares the EDB
    relations *by reference*; with a dictionary attached it must also
    share the dictionary, so the columnar kernel probes the EDB's
    persistent column indexes instead of falling back (foreign
    dictionary) or rebuilding per query.
    """
    from repro.engine.query import QueryCompiler

    edb = chain_edb(12)
    edb.ensure_dictionary()
    compiler = QueryCompiler(TC, planner="greedy", exec="columnar")
    answer = compiler.ask("t(3, Y)", edb)
    assert answer.values() == {(y,) for y in range(4, 13)}
    rel = edb.relation("e", 2)
    built = dict(rel._col_indexes)
    assert built, "the serving pass built column indexes on the EDB relation"
    again = compiler.ask("t(5, Y)", edb)
    assert again.from_cache
    assert again.values() == {(y,) for y in range(6, 13)}
    for positions, (index, watermark) in rel._col_indexes.items():
        if positions in built:
            assert built[positions][0] is index, (
                "repeated queries must reuse the EDB's column indexes"
            )


def test_database_copy_and_snapshot_carry_dictionary():
    db = chain_edb(4)
    d = db.ensure_dictionary()
    assert db.copy().dictionary is d
    assert db.snapshot({("e", 2)}).dictionary is d
    staged = db.copy()
    out, _ = seminaive_eval(TC, staged, exec="columnar")
    ref, _ = seminaive_eval(TC, db, exec="tuple")
    assert out == ref


# ---------------------------------------------------------------------------
# Incremental maintenance under the kernel (deterministic spot checks)
# ---------------------------------------------------------------------------


def test_incremental_columnar_batch_churn_matches_scratch():
    from repro.engine.incremental import IncrementalSession

    session = IncrementalSession(TC, chain_edb(6), exec="columnar")
    session.apply_batch(inserts=[("e", (6, 7)), ("e", (7, 8))])
    session.apply_batch(deletes=[("e", (3, 4))])
    session.apply_batch(
        inserts=[("e", (3, 4))], deletes=[("e", (0, 1)), ("e", (7, 8))]
    )
    ref, _ = seminaive_eval(TC, session.edb, exec="tuple")
    assert session.database == ref
    assert session.query("t(1, Y)") == {(y,) for y in range(2, 8)}


def test_incremental_columnar_keeps_nullary_heads():
    """Kernel rows of a nullary head are ``()``: decoding must keep them."""
    from repro.engine.incremental import IncrementalSession

    assert decode_rows([], [(), ()]) == [(), ()]
    program = parse_program("hop(X, Z) :- e(X, Y), e(Y, Z).\nany :- hop(X, Y).")
    session = IncrementalSession(program, chain_edb(1), exec="columnar")
    assert not session.holds("any")
    session.insert([("e", (1, 2))])
    assert session.holds("any")


# ---------------------------------------------------------------------------
# Concurrent snapshot vs. drain (the serving layer's read-side race)
# ---------------------------------------------------------------------------


def test_snapshot_racing_column_drain_pins_the_watermark():
    """A snapshot/copy/pickle taken while another thread drains the
    pending-row buffer must never capture a partially-buffered slab.

    The serving layer publishes relations by reference and readers
    lazily columnize them, so two readers can race: one triggers the
    ``ensure_columns`` drain while another snapshots the same relation.
    Both run under the dictionary sync lock, which pins the row
    watermark — a torn capture would surface here as a snapshot whose
    columns have unequal lengths (rows lost or garbled by the zip).
    """
    import pickle as _pickle
    import threading

    n = 400
    for trial in range(12):
        d = TermDictionary()
        rel = Relation("r", 2, d)
        expected = set()
        for start in range(0, n, 50):  # several buffered slabs
            rows = []
            for i in range(start, start + 50):
                rows.append((d.intern(Constant(i)), d.intern(Constant(i + 1))))
                expected.add((Constant(i), Constant(i + 1)))
            rel.append_rows(rows)
        assert rel._pending_rows

        captured = {}
        errors = []
        barrier = threading.Barrier(2)

        def drain():
            try:
                barrier.wait()
                rel.ensure_columns()
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        def capture():
            try:
                barrier.wait()
                mode = trial % 3
                if mode == 0:
                    captured["clone"] = rel.snapshot()
                elif mode == 1:
                    captured["clone"] = rel.copy()
                else:
                    captured["clone"] = _pickle.loads(_pickle.dumps(rel))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=drain),
            threading.Thread(target=capture),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "drain/snapshot deadlocked"
        assert not errors, errors

        clone = captured["clone"]
        assert len(clone) == n, f"trial {trial}: torn row count"
        assert clone.tuples == expected, f"trial {trial}: garbled capture"
        cols = rel.ensure_columns()
        assert all(len(col) == n for col in cols)
        assert rel.tuples == expected
