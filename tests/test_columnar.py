"""Columnar execution: interning, column slabs, and the batch kernel.

The differential fuzz (``tests/test_fuzz.py``) holds the big property —
the kernel derives the reference's fixpoint with the tuple executor's
counters.  This module pins the columnar machinery's *local* contracts: dictionary
interning round-trips, buffered-column draining, compaction after
deletion, the int indexes' bucket entries, duplicate handling,
empty-delta rounds, pickling, and the query overlay sharing the EDB's
columns instead of rebuilding them.
"""

import pickle

import pytest

from repro.datalog.parser import parse_program, parse_term
from repro.datalog.terms import Constant
from repro.engine.columnar import decode_rows, execute_columnar
from repro.engine.database import Database, Relation
from repro.engine.intern import TermDictionary, plain_value
from repro.engine.partition import _delta_rows
from repro.engine.plan import RulePlan
from repro.engine.reference import naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval

from tests.conftest import (
    assert_storage_matches_rebuild,
    rebuilt_col_index,
    tuple_at_a_time,
)


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
    assert decode_rows(d.terms, rows, 2) == [
        (terms[0], terms[1]),
        (terms[2], terms[3]),
    ]
    assert decode_rows(d.terms, [], 2) == []
    assert decode_rows(d.terms, ids, 1) == [(term,) for term in terms]


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


def test_values_table_stays_aligned_with_terms():
    """``values[i]`` is what an answer carries for ``terms[i]``: eight
    threads interning at once (four more reading lock-free) never see
    an id without its value, and a pickle round trip rebuilds it."""
    import threading

    d = TermDictionary()
    pool = [Constant(i) for i in range(300)] + [
        parse_term(f"f({i}, [a, {i}])") for i in range(100)
    ]
    barrier = threading.Barrier(12)
    stop = threading.Event()
    errors = []

    def intern(k):
        barrier.wait()
        for i in range(2000):
            d.intern(pool[(i * 7 + k * 31) % len(pool)])

    def read():
        barrier.wait()
        while not stop.is_set():
            for term in pool:
                ident = d.lookup(term)
                if ident is not None and d.values[ident] != plain_value(term):
                    errors.append((term, ident))

    writers = [threading.Thread(target=intern, args=(k,)) for k in range(8)]
    readers = [threading.Thread(target=read) for _ in range(4)]
    for thread in writers + readers:
        thread.start()
    for thread in writers:
        thread.join(timeout=30)
    stop.set()
    for thread in readers:
        thread.join(timeout=30)
    assert not errors, errors[:3]
    assert len(d.terms) == len(d.values) == len(pool)
    assert d.values == [plain_value(term) for term in d.terms]
    assert d.values[d.lookup(Constant(5))] == 5
    assert d.values[d.lookup(pool[300])] == pool[300]  # a compound stays a term
    clone = pickle.loads(pickle.dumps(d))
    assert clone.terms == d.terms and clone.values == d.values
    assert clone.intern(Constant("new")) == len(pool)
    assert clone.values[-1] == "new"


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
    rel.append_rows([d.intern(Constant(i)) for i in range(3)])
    assert rel._pending_rows
    for clone in (rel.copy(), rel.snapshot(), pickle.loads(pickle.dumps(rel))):
        assert clone.tuples == rel.tuples
    assert not rel._pending_rows, "shipping a relation drains its buffer"


def test_views_window_buffered_rows():
    d = TermDictionary()
    rel = Relation("r", 1, d)
    rel.append_rows([d.intern(Constant(i)) for i in range(3)])
    rel.append_rows([d.intern(Constant(i)) for i in range(3, 5)])
    view = rel.view(3, 5)
    assert set(view) == {(Constant(3),), (Constant(4),)}


# ---------------------------------------------------------------------------
# A unary relation's row is its bare id
# ---------------------------------------------------------------------------

#: The shape of a factored recursion: every derived relation is unary.
REACH = parse_program(
    """
    r(Y) :- s(Y).
    r(Y) :- r(X), e(X, Y).
    """
)


def reach_edb(n: int) -> Database:
    """``s(v0)`` and a chain ``v0 → … → v{n}``: ids past the small-int cache."""
    db = Database()
    db.add_fact("s", ("v0",))
    for i in range(n):
        db.add_fact("e", (f"v{i}", f"v{i + 1}"))
    return db


def test_unary_rows_are_the_dictionarys_own_ids():
    """Row set, view row set, delta rows and kernel output of a unary
    relation hold the dictionary's ids themselves, never a 1-tuple."""
    db, _ = seminaive_eval(REACH, reach_edb(400))
    own = {ident: ident for ident in db.dictionary._ids.values()}
    r = db.relation("r", 1)
    assert len(r) == 401

    def owned(rows):
        return bool(rows) and all(own.get(row) is row for row in rows)

    assert owned(r.col_set())
    assert owned(r.view(100, 300).col_set())
    assert owned(_delta_rows(r.view(100, 300)))
    plan = RulePlan(REACH.rules[1], ((0, "delta"),))
    out = execute_columnar(plan, db, {0: r.view(100, 300)}, None)
    assert owned(out) and len(out) == 200
    grow = Relation("r", 1, db.dictionary)
    grow.append_rows(out)
    assert owned(grow._last_rows[2]) and owned(grow._pending_rows)


def _buffered_unary(d: TermDictionary) -> Relation:
    """A unary relation with a tuple-side prefix, synced row set and
    index, and a columnar-only tail still in the pending buffer."""
    rel = Relation("r", 1, d)
    rel.add((Constant("a"),))
    rel.col_set()
    rel.col_index((0,))
    rel.append_rows([d.intern(Constant(f"v{i}")) for i in range(300)])
    assert rel._pending_rows
    return rel


@pytest.mark.parametrize("operation", ["remove_facts", "copy", "snapshot", "pickle"])
def test_unary_buffered_rows_equal_a_rebuild(operation):
    d = TermDictionary()
    rel = _buffered_unary(d)
    facts = {(Constant("a"),)} | {(Constant(f"v{i}"),) for i in range(300)}
    if operation == "remove_facts":
        doomed = [(Constant("a"),), (Constant("v7"),), (Constant("v299"),)]
        assert rel.remove_facts(doomed) == 3
        facts -= set(doomed)
        clone = rel
    elif operation == "pickle":
        clone = pickle.loads(pickle.dumps(rel))
    else:
        clone = getattr(rel, operation)()
    db = Database(clone.dictionary)  # a pickle carries its own copy
    db.relations[("r", 1)] = clone
    assert_storage_matches_rebuild(db)
    assert clone.tuples == facts
    clone.append_rows([clone.dictionary.intern(Constant("b"))])
    assert_storage_matches_rebuild(db)


def test_partitioned_unary_delta_equals_the_unpartitioned_run():
    edb = reach_edb(300)
    for i in range(0, 300, 3):  # fan out so deltas hold several rows
        edb.add_fact("e", (f"v{i}", f"w{i}"))
    db, stats = seminaive_eval(REACH, edb, partitions=1)
    split_db, split = seminaive_eval(REACH, edb, partitions=3)
    assert split.partition_rounds > 0
    assert split_db == db
    for counter in ("facts", "inferences", "iterations"):
        assert getattr(split, counter) == getattr(stats, counter), counter
    assert_storage_matches_rebuild(split_db)


# ---------------------------------------------------------------------------
# Int index buckets hold the rows' unkeyed values
# ---------------------------------------------------------------------------


def test_binary_buckets_hold_the_dictionarys_own_ids():
    d = TermDictionary()
    rel = Relation("e", 2, d)
    for i in range(400):  # ids past the small-int cache
        rel.add((Constant(f"v{i}"), Constant(f"v{(i * 7) % 400}")))
    rows = list(zip(*rel.ensure_columns()))
    own = {ident: ident for ident in d._ids.values()}
    for positions in ((0,), (1,)):
        index = rel.col_index(positions)
        assert index == rebuilt_col_index(rows, positions, 2)
        assert all(v is own[v] for bucket in index.values() for v in bucket)


def test_wider_buckets_hold_id_tuples_of_the_other_positions():
    d = TermDictionary()
    rel = Relation("g", 3, d)
    facts = [(1, 2, 7), (2, 3, 8), (2, 3, 9), (1, 4, 4)]
    for fact in facts:
        rel.add(tuple(map(Constant, fact)))
    i = {v: d.intern(Constant(v)) for fact in facts for v in fact}
    assert rel.col_index((1,)) == {
        i[2]: [(i[1], i[7])], i[3]: [(i[2], i[8]), (i[2], i[9])], i[4]: [(i[1], i[4])],
    }
    assert rel.col_index((0, 1)) == {
        (i[1], i[2]): [i[7]], (i[2], i[3]): [i[8], i[9]], (i[1], i[4]): [i[4]],
    }
    assert rel.col_index((0, 1, 2)) == {tuple(i[v] for v in f): [()] for f in facts}


def test_window_buckets_cover_only_its_slice():
    d = TermDictionary()
    rel = Relation("g", 3, d)
    rel.append_rows([tuple(d.intern(Constant(v)) for v in (k % 2, k, -k)) for k in range(8)])
    rows = list(zip(*rel.ensure_columns()))
    for positions in ((0,), (1, 2), (2,)):
        window = rel.view(3, 6).col_index(positions)
        assert window == rebuilt_col_index(rows[3:6], positions, 3), positions
    assert rel.view(4, 4).col_index((0,)) == {}


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
    decoded = decode_rows(db.dictionary.terms, list(zip(*[list(c) for c in cols])), 2)
    assert decoded == [(Constant(a), Constant(b)) for a, b in survivors]
    # The int index was repaired in place, not dropped, and sees only
    # survivors.
    index, watermark = rel._col_indexes[(0,)]
    assert watermark == 4 and rel.col_index((0,)) is index
    assert index == rebuilt_col_index(list(zip(*cols)), (0,), 2)
    assert db.dictionary.intern(Constant(2)) not in index
    assert len(rel.col_set()) == 4
    # Evaluation over the compacted relation still matches the oracle.
    db_col, _ = seminaive_eval(TC, db)
    assert db_col == naive_fixpoint_reference(TC, db)[0]


def test_remove_facts_repairs_every_int_index():
    """Buckets hold values, not positions, so compaction moves nothing:
    every int index survives a removal — a lagging one at its own
    watermark — equal to a rebuild from the compacted columns, and a
    copy's shared buckets keep what the copy was handed."""
    d = TermDictionary()
    rel = Relation("g", 3, d)
    for i in range(12):
        rel.add((Constant(i % 3), Constant(i % 4), Constant(i)))
    every = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    for positions in every:
        rel.col_index(positions)
    for i in (12, 13):  # past every watermark
        rel.add((Constant(0), Constant(0), Constant(i)))
    rel.col_index((0,))  # only this one catches up
    dup = rel.copy()
    before = {p: {k: list(b) for k, b in dup._col_indexes[p][0].items()} for p in every}
    doomed = [(Constant(i % 3), Constant(i % 4), Constant(i)) for i in (0, 4, 5, 11)]
    doomed.append((Constant(0), Constant(0), Constant(12)))
    assert rel.remove_facts(doomed) == 5
    rows = list(zip(*rel.ensure_columns()))
    assert len(rows) == 14 - 5
    for positions in every:
        index, watermark = rel._col_indexes[positions]
        assert watermark == (14 - 5 if positions == (0,) else 12 - 4), positions
        assert index == rebuilt_col_index(rows[:watermark], positions, 3), positions
        assert dup._col_indexes[positions][0] == before[positions], positions


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
    db, _ = seminaive_eval(TC, chain_edb(6))
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
    col_db, col_stats = seminaive_eval(program, db)
    tuple_db, tuple_stats = tuple_at_a_time(program, db)
    assert col_db == tuple_db
    assert len(col_db.relation("p", 1)) == 1
    assert col_stats.inferences == tuple_stats.inferences == 4


def test_empty_delta_round_terminates_identically():
    """The closing round (delta derives nothing new) matches the tuple
    executor's."""
    db = chain_edb(8)
    col_db, col_stats = seminaive_eval(TC, db, partitions=1)
    tuple_db, tuple_stats = tuple_at_a_time(TC, db)
    assert col_db == tuple_db
    assert col_stats.iterations == tuple_stats.iterations
    assert col_stats.probes == tuple_stats.probes
    assert len(col_db.relation("t", 2)) == 8 * 9 // 2


def test_columnar_database_equality_is_representation_blind():
    """A columnar-built database equals a tuple-built one (and vice versa)."""
    db = chain_edb(5)
    col_db, _ = seminaive_eval(TC, db)
    tup_db, _ = naive_fixpoint_reference(TC, db)
    assert col_db == tup_db
    assert tup_db == col_db
    assert col_db.dictionary is not None and tup_db.dictionary is None


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
    compiler = QueryCompiler(TC)
    answer = compiler.ask("t(3, Y)", edb)
    assert answer.answers == {(y,) for y in range(4, 13)}
    rel = edb.relation("e", 2)
    built = dict(rel._col_indexes)
    assert built, "the serving pass built column indexes on the EDB relation"
    again = compiler.ask("t(5, Y)", edb)
    assert again.from_cache
    assert again.answers == {(y,) for y in range(6, 13)}
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
    out, _ = seminaive_eval(TC, staged)
    ref, _ = naive_fixpoint_reference(TC, db)
    assert out == ref


# ---------------------------------------------------------------------------
# Incremental maintenance under the kernel (deterministic spot checks)
# ---------------------------------------------------------------------------


def test_incremental_columnar_batch_churn_matches_scratch():
    from repro.engine.incremental import IncrementalSession

    session = IncrementalSession(TC, chain_edb(6))
    session.apply_batch(inserts=[("e", (6, 7)), ("e", (7, 8))])
    session.apply_batch(deletes=[("e", (3, 4))])
    session.apply_batch(
        inserts=[("e", (3, 4))], deletes=[("e", (0, 1)), ("e", (7, 8))]
    )
    ref, _ = naive_fixpoint_reference(TC, session.edb)
    assert session.database == ref
    assert session.query("t(1, Y)") == {(y,) for y in range(2, 8)}


def test_incremental_columnar_keeps_nullary_heads():
    """Kernel rows of a nullary head are ``()``: decoding must keep them."""
    from repro.engine.incremental import IncrementalSession

    assert decode_rows([], [(), ()], 0) == [(), ()]
    program = parse_program("hop(X, Z) :- e(X, Y), e(Y, Z).\nany :- hop(X, Y).")
    session = IncrementalSession(program, chain_edb(1))
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
