"""Unit tests for relations and databases."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.terms import Compound, Constant, Variable, make_list
from repro.engine import database as database_module
from repro.engine.database import Database, Relation, columns_of, load_program_facts, rows_of
from repro.engine.intern import TermDictionary
from repro.engine.reference import naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval
from repro.datalog.unify import match
from repro.session import DeductiveDatabase

from tests.conftest import (
    answer_values,
    assert_storage_matches_rebuild,
    counting_constants,
    encoded_rows,
    rebuilt_col_index,
)


class TestRelation:
    def test_add_and_contains(self):
        rel = Relation("e", 2)
        assert rel.add((Constant(1), Constant(2)))
        assert not rel.add((Constant(1), Constant(2)))
        assert (Constant(1), Constant(2)) in rel
        assert len(rel) == 1

    def test_arity_check(self):
        rel = Relation("e", 2)
        with pytest.raises(ValueError):
            rel.add((Constant(1),))

    def test_lookup_full_scan(self):
        rel = Relation("e", 1)
        rel.add((Constant(1),))
        assert set(rel.lookup((), ())) == {(Constant(1),)}

    def test_lookup_indexed(self):
        rel = Relation("e", 2)
        for i in range(10):
            rel.add((Constant(i % 3), Constant(i)))
        hits = rel.lookup((0,), (Constant(1),))
        assert all(t[0] == Constant(1) for t in hits)
        assert len(list(hits)) == len([i for i in range(10) if i % 3 == 1])
        for key in (Constant(1), Constant(3)):  # a hit, a miss
            hits = rel.lookup((0,), (key,))
            scan = [t for t in rel.tuples if t[0] == key]
            assert sorted(hits, key=str) == sorted(scan, key=str)

    def test_index_maintained_after_add(self):
        rel = Relation("e", 2)
        rel.add((Constant(1), Constant(2)))
        rel.lookup((0,), (Constant(1),))  # build index
        rel.add((Constant(1), Constant(3)))  # must update it
        assert len(rel.lookup((0,), (Constant(1),))) == 2

    def test_copy_independent(self):
        rel = Relation("e", 1)
        rel.add((Constant(1),))
        dup = rel.copy()
        dup.add((Constant(2),))
        assert len(rel) == 1 and len(dup) == 2

    def test_copy_carries_reused_indexes_only(self):
        rel = Relation("e", 2)
        for i in range(10):
            rel.add((Constant(i % 5), Constant(i)))
        rel.ensure_index((0,))  # built but never reused: copy drops it
        rel.ensure_index((1,))
        rel.ensure_index((1,))  # reused: copy keeps it live
        dup = rel.copy()
        assert list(dup._indexes) == [(1,)]
        assert set(dup.lookup((0,), (Constant(2),))) == {
            (Constant(2), Constant(2)), (Constant(2), Constant(7)),
        }


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_rows_and_columns_are_inverse(arity, n):
    """A unary row is its bare id, any other an id tuple; no rows are
    still ``arity`` empty columns."""
    cols = [list(range(p * 10, p * 10 + n)) for p in range(arity)]
    rows = list(rows_of(cols, 0, n))
    assert rows == (cols[0] if arity == 1 else list(zip(*cols)))
    assert [list(col) for col in columns_of(rows, arity)] == cols


class TestDatabase:
    def test_add_fact_wraps_values(self):
        db = Database()
        db.add_fact("e", (1, "a"))
        assert db.has_fact("e", (1, "a"))

    def test_rejects_nonground(self):
        db = Database()
        with pytest.raises(ValueError):
            db.add_fact("e", (Variable("X"),))

    def test_from_dict(self):
        db = Database.from_dict({"e": [(1, 2), (2, 3)], "v": [(1,)]})
        assert db.total_facts() == 3

    def test_query_with_variables(self):
        db = Database.from_dict({"e": [(1, 2), (1, 3), (2, 3)]})
        answers = db.query(parse_literal("e(1, Y)"))
        assert answer_values(answers) == {(2,), (3,)}

    def test_query_ground_goal(self):
        db = Database.from_dict({"e": [(1, 2)]})
        assert db.query(parse_literal("e(1, 2)")) == {()}
        assert db.query(parse_literal("e(2, 1)")) == set()

    def test_query_repeated_variable(self):
        db = Database.from_dict({"e": [(1, 1), (1, 2)]})
        assert answer_values(db.query(parse_literal("e(X, X)"))) == {(1,)}

    def test_equality_ignores_empty_relations(self):
        a = Database.from_dict({"e": [(1, 2)]})
        b = Database.from_dict({"e": [(1, 2)]})
        b.relation("unused", 1)
        assert a == b

    def test_copy_independent(self):
        a = Database.from_dict({"e": [(1, 2)]})
        b = a.copy()
        b.add_fact("e", (3, 4))
        assert a.total_facts() == 1


class TestAddFacts:
    def test_counts_only_new_facts(self):
        db = Database()
        assert db.add_facts("e", [(1, 2), (1, 2), (2, 3)]) == 2
        assert db.add_facts("e", [(2, 3), (3, 4)]) == 1
        assert db.total_facts() == 3

    def test_distinct_values_share_one_wrapper(self):
        db = Database()
        db.add_facts("e", [(i, i + 1) for i in range(50)])
        wrappers = {}
        for fact in db.get("e", 2):
            for term in fact:
                assert wrappers.setdefault(term.value, term) is term

    def test_wrapping_keeps_the_value_type(self):
        # 1, 1.0 and True are equal and hash alike: the per-call memo
        # must not hand one's wrapper to another.
        db = Database()
        db.add_facts("v", [(1, 1.0, True)])
        ((a, b, c),) = db.get("v", 3).tuples
        assert (type(a.value), type(b.value), type(c.value)) == (int, float, bool)

    def test_equal_values_of_other_types_stay_distinct_facts(self):
        db = Database.from_dict({"e": [(True,), (1,), (1.0,)]})
        assert db.total_facts() == 3
        dictionary = db.ensure_dictionary()
        assert len({dictionary.intern(term) for (term,) in db.get("e", 1)}) == 3
        assert db.answers(parse_literal("e(1)")) == {()}
        assert db.query(parse_literal("e(X)")) == {
            (Constant(True),), (Constant(1),), (Constant(1.0),)
        }
        assert len(db.query(parse_literal("e(X)"))) == 3

    def test_a_read_matches_only_the_constant_of_its_type(self):
        rows = [(True, "bool"), (1, "int"), (1.0, "float")]
        db = Database.from_dict({"f": rows})
        assert db.answers(parse_literal("f(1, Y)")) == {("int",)}
        ddb = DeductiveDatabase().rules("g(X, Y) :- f(X, Y).").facts("f", rows)
        assert ddb.ask("g(1, Y)") == {("int",)}
        assert ddb.ask("g(X, Y)") == {
            (Constant(True), "bool"), (1, "int"), (Constant(1.0), "float")
        }

    @pytest.mark.parametrize("order", [1, -1], ids=["bool-first", "float-first"])
    def test_an_answer_keeps_equal_values_of_other_types_apart(self, order):
        # True == 1 == 1.0 in Python: decoded to plain values, the three
        # answers would merge into whichever the set saw first.
        rows = [(True,), (1,), (1.0,)][::order]
        ddb = DeductiveDatabase().rules("g(X) :- e(X).").facts("e", rows)
        assert ddb.ask("g(X)") == {(Constant(True),), (1,), (Constant(1.0),)}
        assert ddb.edb.answers(parse_literal("e(X)")) == ddb.ask("g(X)")

    def test_checks_stay_per_row(self):
        db = Database()
        with pytest.raises(ValueError, match="not ground"):
            db.add_facts("e", [(1, 2), (Variable("X"), 3)])
        assert db.total_facts() == 1  # rows before the bad one landed
        db.add_facts("e", [(Constant(7), make_list([Constant(8)]))])
        assert db.has_fact("e", (7, make_list([Constant(8)])))

    @pytest.mark.parametrize(
        "bad, error",
        [(5, TypeError), (([4], 4), TypeError), ((4, [4]), TypeError),
         ((4, Variable("X")), ValueError)],
    )
    def test_a_failing_row_stops_the_load_after_the_rows_before_it(self, bad, error):
        # Not iterable, unhashable, not ground: the rows before land, the failing row and those after do not,
        # and no argument of theirs reaches the dictionary.
        db = Database()
        with pytest.raises(error):
            db.add_facts("e", [(1, 2), (2,), bad, (9, 10)])
        assert db.facts("e") == {(Constant(1), Constant(2)), (Constant(2),)}
        assert sorted(db.dictionary.values) == [1, 2]

    def test_mixed_arities_go_to_their_own_relations(self):
        db = Database()
        assert db.add_facts("p", [(1,), (1, 2), (2,)]) == 3
        assert len(db.get("p", 1)) == 2 and len(db.get("p", 2)) == 1

    def test_a_load_interns_each_value_once_and_builds_no_term_tuple(self, monkeypatch):
        asked = []  # every term a dictionary was asked to intern
        minted = []  # every value column it was asked to mint ids for
        intern, mint = TermDictionary.intern, TermDictionary.mint
        monkeypatch.setattr(
            TermDictionary, "intern",
            lambda self, term: asked.append(term) or intern(self, term),
        )
        monkeypatch.setattr(
            TermDictionary, "mint",
            lambda self, col: minted.append(list(col)) or mint(self, col),
        )
        db = Database()
        # one memo spans the columns that are not all int/str; 1, 1.0
        # and True are three values; an all-int column mints from its
        # values in one call
        rows = [(i % 5, i % 3, i % 4) for i in range(30)] + [(1, 1.0, 7), (True, "a", 8)]
        assert db.add_facts("e", rows) == 32
        values = [*range(5), True, 1.0, "a"]
        assert sorted(map(repr, asked)) == sorted(repr(Constant(v)) for v in values)
        assert minted == [[row[2] for row in rows]]
        # each value minted once, in first-occurrence order
        assert db.dictionary.values == [*range(5), Constant(True), Constant(1.0), "a", 7, 8]
        rel = db.get("e", 3)
        assert not rel._tuples and not rel._logrows and rel._pending_n == 32
        assert rel.tuples == {tuple(map(Constant, row)) for row in rows}

class TestLoadedRelation:
    """A relation filled by ``add_facts`` holds id columns only; every
    operation on it sees the facts, and those that need no term tuple
    decode none."""

    EDGES = [(i, i + 1) for i in range(20)]

    def loaded(self):
        db = Database()
        db.add_facts("e", self.EDGES + self.EDGES[:3])
        rel = db.get("e", 2)
        assert rel._pending_n == 20 and not rel._logrows
        return db, rel

    def facts(self, rows):
        return {(Constant(a), Constant(b)) for a, b in rows}

    def test_copy(self):
        db, rel = self.loaded()
        dup = db.copy()
        assert dup.get("e", 2)._pending_n == 20  # nothing decoded to copy
        dup.add_fact("e", (99, 100))
        assert rel.tuples == self.facts(self.EDGES)
        assert dup.get("e", 2).tuples == self.facts(self.EDGES + [(99, 100)])
        assert_storage_matches_rebuild(db)
        assert_storage_matches_rebuild(dup)

    def test_snapshot(self):
        db, rel = self.loaded()
        out = db.snapshot([("e", 2), ("f", 1)])
        assert out.get("e", 2) is not rel and out.get("e", 2)._pending_n == 20
        assert out == db and out.dictionary is db.dictionary
        assert_storage_matches_rebuild(out)

    def test_pickle(self):
        db, rel = self.loaded()
        back = pickle.loads(pickle.dumps(db))
        assert back.get("e", 2)._pending_n == 20  # the columns-only form
        assert back == db
        assert_storage_matches_rebuild(back)
        assert_storage_matches_rebuild(db)

    def test_remove_facts(self):
        db, rel = self.loaded()
        rel.col_index((0,))
        assert rel.remove_facts(self.facts([(3, 4), (50, 51)])) == 1
        assert db.remove_fact("e", (0, 1)) and not db.remove_fact("e", (0, 1))
        assert rel.tuples == self.facts(self.EDGES[1:3] + self.EDGES[4:])
        assert_reads_equal_a_rebuild(rel)

    def test_a_removal_finds_its_rows_by_id(self, monkeypatch):
        # DRed's prune on a loaded relation: the doomed rows are found by
        # id, and columns, row set, int indexes and the pending span
        # shrink with no term or term tuple built.
        db, rel = self.loaded()
        rel.col_set()
        rel.col_index((0,))
        rel.col_index((1,))
        doomed = self.facts([(3, 4), (50, 51), (19, 20)]) | {(Constant("3"), Constant(4))}
        built = counting_constants(monkeypatch)
        assert rel.remove_facts(doomed) == 2
        assert built == []
        assert not rel._logrows and not rel._tuples and rel._pending_n == 18
        assert (Constant(3), Constant(4)) not in rel and (Constant(4), Constant(5)) in rel
        assert rel.tuples == self.facts(self.EDGES[:3] + self.EDGES[4:19])
        assert_storage_matches_rebuild(db)
        assert_reads_equal_a_rebuild(rel)

    def test_add_fact_after_a_load(self):
        db, rel = self.loaded()
        assert not db.add_fact("e", (0, 1))
        assert db.add_fact("e", (50, 51))
        assert db.has_fact("e", (50, 51)) and not db.has_fact("e", (51, 50))
        assert not db.has_fact("e", (0, "a new value"))
        # a single insert and a membership test stay on the ids
        assert not rel._logrows and rel._pending_n == 21
        assert rel.tuples == self.facts(self.EDGES + [(50, 51)])
        assert_reads_equal_a_rebuild(rel)

    def test_a_fact_after_facts_decodes_nothing(self):
        ddb = DeductiveDatabase().facts("e", self.EDGES).facts("v", [(1,), (2,)])
        ddb.fact("e", 0, 1).fact("e", 20, 21).fact("v", 2).fact("v", 3)
        e, v = ddb.edb.get("e", 2), ddb.edb.get("v", 1)
        assert not e._logrows and e._pending_n == 21
        assert not v._logrows and v._pending_n == 3
        assert ddb.edb.has_fact("v", (3,)) and not ddb.edb.has_fact("v", (4,))
        assert (Constant(2), Constant(3)) not in v  # a fact of another arity
        assert not v._logrows
        assert e.tuples == self.facts(self.EDGES + [(20, 21)])
        assert v.tuples == {(Constant(1),), (Constant(2),), (Constant(3),)}
        assert_storage_matches_rebuild(ddb.edb)

    def test_rows_derived_into_a_loaded_relation(self):
        db, rel = self.loaded()
        ids = tuple(db.dictionary.intern(Constant(v)) for v in (70, 71))
        rel.append_rows([ids])  # buffered behind the loaded rows
        assert rel.tuples == self.facts(self.EDGES + [(70, 71)])
        assert_reads_equal_a_rebuild(rel)
        db, _ = self.loaded()
        symmetric = parse_program("e(X, Y) :- e(Y, X).")
        out, _ = seminaive_eval(symmetric, db)
        assert out == naive_fixpoint_reference(symmetric, db)[0]
        assert out.get("e", 2).tuples == self.facts(
            self.EDGES + [(b, a) for a, b in self.EDGES]
        )

    def test_a_second_load_into_the_same_relation(self):
        db, rel = self.loaded()
        assert db.add_facts("e", [(0, 1), (30, 31), (30, 31)]) == 1
        assert rel._pending_n == 21 and not rel._logrows
        rel.col_index((1,))  # a live int index, then a third load past it
        assert db.add_facts("e", [(31, 32), (19, 20)]) == 1
        assert rel.tuples == self.facts(self.EDGES + [(30, 31), (31, 32)])
        assert_reads_equal_a_rebuild(rel)
        assert db.add_facts("e", [(40, 41)]) == 1  # and one after the flush
        assert_reads_equal_a_rebuild(rel)


# ----------------------------------------------------------------------
# Relation.select against the per-row match loop it replaced
# ----------------------------------------------------------------------

_ATOMS = [Constant(v) for v in (0, 1, 2, "a")]
_GROUND = _ATOMS + [
    Compound("f", (_ATOMS[0],)),
    Compound("f", (_ATOMS[1],)),
    make_list([_ATOMS[0], _ATOMS[1]]),
    make_list([_ATOMS[1]]),
    Compound("g", (Compound("f", (_ATOMS[0],)), _ATOMS[3])),
]
_X, _Y, _T = Variable("X"), Variable("Y"), Variable("T")
_PARTIAL = [
    Compound("f", (_X,)),
    Compound("g", (_Y, _ATOMS[3])),
    Compound("g", (Compound("f", (_X,)), _X)),
    make_list([_X], _T),
    make_list([_ATOMS[0], _Y]),
]
#: constants no stored fact ever mentions
_ABSENT = [Constant("nowhere"), Compound("f", (Constant("nowhere"),))]

_pattern_arg = st.one_of(
    st.sampled_from(_GROUND),
    st.sampled_from(_GROUND + _ABSENT),
    st.sampled_from([_X, _Y]),
    st.sampled_from([_X, _Y, _T]),
    st.sampled_from(_PARTIAL),
)


def match_loop(facts, pattern):
    """The read as it was before ``select``: unify every row."""
    goal = Literal("r", pattern)
    goal_vars = goal.variables()
    answers = set()
    for fact in facts:
        bindings = match(goal, fact, {})
        if bindings is not None:
            answers.add(tuple(bindings[v] for v in goal_vars))
    return answers


def build_relation(arity, facts, layout):
    """``facts`` stored the way ``layout`` names.

    ``plain``: no dictionary (the tuple world only).  ``tuples``: a
    dictionary attached, every row added tuple-side.  ``pending``:
    every row columnar-only, as a columnar fixpoint leaves a derived
    relation.  ``mixed``: a tuple-side prefix, a columnar-only rest.
    ``loaded``: filled by :meth:`Database.add_facts`, columnar-only too.
    """
    facts = sorted(facts, key=str)
    if layout == "plain" or arity == 0:
        rel = Relation("r", arity, None if layout == "plain" else TermDictionary())
        for fact in facts:
            rel.add(fact)
        return rel
    if layout == "loaded":
        db = Database(TermDictionary())
        db.add_facts("r", facts)
        return db.relation("r", arity)
    dictionary = TermDictionary()
    rel = Relation("r", arity, dictionary)
    split = {"tuples": len(facts), "pending": 0, "mixed": len(facts) // 2}[layout]
    for fact in facts[:split]:
        rel.add(fact)
    ids = [tuple(map(dictionary.intern, fact)) for fact in facts[split:]]
    rel.append_rows(encoded_rows(ids, arity))
    return rel


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_select_equals_the_match_loop(data):
    arity = data.draw(st.integers(0, 3), label="arity")
    facts = data.draw(
        st.sets(
            st.tuples(*[st.sampled_from(_GROUND)] * arity), max_size=12
        ),
        label="facts",
    )
    pattern = data.draw(st.tuples(*[_pattern_arg] * arity), label="pattern")
    expected = match_loop(facts, pattern)
    for layout in ("plain", "tuples", "pending", "mixed", "loaded"):
        for once in (False, True):
            where = f"{layout}, once={once}"
            rel = build_relation(arity, facts, layout)
            interned = len(rel.dictionary) if rel.dictionary is not None else 0
            pending = rel._pending_n
            assert rel.select(pattern, once) == expected, where
            if rel.dictionary is not None:
                # reads never allocate ids
                assert len(rel.dictionary) == interned, where
            if once:
                assert rel._pending_n == pending, where  # nothing flushed
                assert not rel._indexes and not rel._col_indexes, where
            assert rel.tuples == facts, where  # the relation is unharmed
            assert rel.select(pattern) == expected, where  # and reads again

            db = Database(rel.dictionary)
            db.relations[("r", arity)] = build_relation(arity, facts, layout)
            assert db.query(Literal("r", pattern), once) == expected, where
    assert Database().query(Literal("missing", pattern)) == set()


class TestSelect:
    def test_ground_and_repeated_patterns_never_unify(self, monkeypatch):
        def boom(*args):
            raise AssertionError("match_term entered")

        monkeypatch.setattr(database_module, "match_term", boom)
        for layout in ("plain", "tuples", "pending", "mixed", "loaded"):
            for once in (False, True):
                rel = build_relation(
                    2, {(a, b) for a in _GROUND[:5] for b in _GROUND[3:7]}, layout
                )
                assert len(rel.select((_X, _Y), once)) == 20
                assert rel.select((_X, _X), once) == {(_GROUND[3],), (_GROUND[4],)}
                assert rel.select((_GROUND[4], _Y), once) == {
                    (b,) for b in _GROUND[3:7]
                }
                assert rel.select((_GROUND[4], _GROUND[6]), once) == {()}
                assert rel.select((_GROUND[6], _GROUND[4]), once) == set()

    def test_stored_reads_flush_once_and_reuse_the_index(self):
        rel = build_relation(2, {(a, b) for a in _ATOMS for b in _ATOMS}, "pending")
        assert rel._pending_n == 16
        assert len(rel.select((_ATOMS[0], _Y))) == 4
        assert rel._pending_n == 0 and (0,) in rel._indexes
        assert len(rel.select((_ATOMS[1], _Y))) == 4
        assert rel._index_hits[(0,)] == 1  # second read probed, not rebuilt

    def test_once_reads_sync_columns_exactly_where_a_flush_would(self, monkeypatch):
        calls = []
        original = Relation.ensure_columns
        monkeypatch.setattr(
            Relation, "ensure_columns",
            lambda self: calls.append(self.name) or original(self),
        )
        monkeypatch.setattr(
            Relation, "col_set", lambda self: pytest.fail("col_set on a read")
        )
        monkeypatch.setattr(
            Relation, "col_index", lambda self, p: pytest.fail("col_index on a read")
        )
        pending = build_relation(2, {(a, b) for a in _ATOMS for b in _ATOMS}, "pending")
        settled = build_relation(2, {(a, b) for a in _ATOMS for b in _ATOMS}, "tuples")
        calls.clear()
        pending.select((_ATOMS[0], _Y), once=True)
        assert calls == ["r"]  # as _flush did: once, because rows were pending
        calls.clear()
        settled.select((_ATOMS[0], _Y), once=True)
        settled.select((_ATOMS[0], _Y))
        assert calls == []  # nothing pending: the columns are not touched

    def test_racing_first_reads_of_a_shared_relation(self):
        """Readers of one frozen relation (a pinned view) race its first
        read: the flush and the index builds must not tear an answer."""
        import sys
        import threading

        values = [Constant(i) for i in range(40)]
        facts = {(a, b) for a in values for b in values if a != b}
        expected = {v: {(b,) for a, b in facts if a == v} for v in values}
        failures = []

        def reader(rel, offset):
            try:
                for k in range(len(values)):
                    v = values[(k + offset) % len(values)]
                    if rel.select((v, _Y)) != expected[v]:
                        failures.append(("bound-first", v))
                    if rel.select((_X, v)) != expected[v]:  # symmetric facts
                        failures.append(("bound-second", v))
                if len(rel.select((_X, _Y))) != len(facts):
                    failures.append(("free", offset))
            except Exception as exc:  # a torn structure shows as any error
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                rel = build_relation(2, facts, "pending")
                threads = [
                    threading.Thread(target=reader, args=(rel, 5 * i), daemon=True)
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_nullary_relation(self):
        rel = Relation("flag", 0)
        assert rel.select(()) == set() and rel.select((), once=True) == set()
        rel.add(())
        assert rel.select(()) == {()} and rel.select((), once=True) == {()}


class TestLoadProgramFacts:
    def test_loads_seed_facts(self):
        program = parse_program("m(5).\nt(X) :- m(X).")
        db = Database()
        assert load_program_facts(program, db) == 1
        assert db.has_fact("m", (5,))

    def test_skips_rules(self):
        program = parse_program("t(X) :- m(X).")
        db = Database()
        assert load_program_facts(program, db) == 0


# ---------------------------------------------------------------------------
# Copy-on-write index buckets (Relation.copy shares them; see _fill_buckets)
# ---------------------------------------------------------------------------

#: The int and tuple indexes the copy-on-write checks build, per arity.
INDEXED = {1: ((0,),), 2: ((0,), (1,), (0, 1)), 3: ((0,), (1, 2), (0, 1, 2))}


def rebuilt(keyed):
    index = {}
    for item, key in keyed:
        index.setdefault(key, []).append(item)
    return index


def assert_equals_a_rebuild(rel, where=""):
    """Every index, the columns, the row set, the pending-row buffer and
    the cached span of the last bulk append of ``rel`` say what a
    rebuild from ``rel``'s own log says — without syncing anything, so
    lagging watermarks are checked as they are.  Rows held columnar-side
    only are checked against their own ids, decoded: a row the encoding
    rule does not write (a unary 1-tuple) decodes to no term."""
    log = list(rel._logrows)
    assert rel._tuples == set(log) and len(log) == len(rel._tuples), where
    for positions, index in rel._indexes.items():
        want = rebuilt((f, tuple(f[p] for p in positions)) for f in log)
        assert index.keys() == want.keys(), (where, positions)
        for key, bucket in index.items():  # built from a set: any order
            assert sorted(bucket, key=str) == sorted(want[key], key=str), (where, key)
    cols = rel._cols
    if cols is None:
        assert not rel._col_indexes and rel._colset is None, where
        return
    arity, pending = rel.arity, rel._pending_rows
    rows = list(zip(*cols)) + ([(row,) for row in pending] if arity == 1 else pending)
    terms = rel.dictionary.terms
    buffered = {tuple(terms[i] for i in row) for row in rows[len(cols[0]) :]}
    assert not buffered & rel._tuples, where
    if rel._last_rows is not None:
        lo, hi, last = rel._last_rows
        assert last == encoded_rows(rows[lo:hi], arity), where
    assert len(rows) == len(set(rows)), where
    if rel._pending_n:  # columnar-only rows: the columns run ahead of the log
        assert len(rows) == len(log) + rel._pending_n, where
    else:  # or lag it, until the next sync
        assert len(rows) <= len(log), where
    ident = rel.dictionary.intern
    covered = min(len(rows), len(log))
    assert rows[:covered] == [tuple(map(ident, f)) for f in log[:covered]], where
    if rel._colset is not None:
        assert rel._colset == set(encoded_rows(rows[: rel._colset_n], arity)), where
    for positions, (index, watermark) in rel._col_indexes.items():
        want = rebuilt_col_index(rows[:watermark], positions, rel.arity)
        assert index == want, (where, positions, watermark)


def assert_reads_equal_a_rebuild(rel, where=""):
    """The same through the public readers, which sync as they go."""
    log = list(rel._log)
    for positions in INDEXED[rel.arity]:
        want = rebuilt((f, tuple(f[p] for p in positions)) for f in log)
        for key, bucket in want.items():
            assert sorted(rel.lookup(positions, key), key=str) == sorted(bucket, key=str), where
    if rel.dictionary is not None:  # else: the tuple world only
        rows = [tuple(map(rel.dictionary.intern, f)) for f in log]
        for positions in INDEXED[rel.arity]:
            want = rebuilt_col_index(rows, positions, rel.arity)
            assert rel.col_index(positions) == want, (where, positions)
        assert rel.col_set() == set(encoded_rows(rows, rel.arity)), where
    assert_equals_a_rebuild(rel, where)


def _facts(arity, max_size):
    fact = st.tuples(*[st.integers(0, 4)] * arity).map(
        lambda values: tuple(Constant(v) for v in values)
    )
    return st.lists(fact, max_size=max_size)


@settings(max_examples=300, deadline=None)
@given(arity=st.sampled_from([1, 2, 3]),
       layout=st.sampled_from(["tuples", "pending", "mixed", "loaded"]),
       data=st.data())
def test_copies_share_buckets_but_never_each_others_writes(arity, layout, data):
    """Whatever the sides of a ``copy()`` do afterwards — the copy, the
    copy's copy, the original that keeps being written, the original
    that is frozen — each one's indexes stay a function of its own log."""
    initial = data.draw(_facts(arity, 15), label="initial")
    warm = data.draw(st.lists(st.sampled_from(INDEXED[arity]), max_size=3), label="warm")
    step = st.one_of(
        st.tuples(st.sampled_from(["add", "add_row", "append_rows", "remove_facts"]),
                  st.integers(0, 5), _facts(arity, 6)),
        st.tuples(st.sampled_from(["copy", "read"]), st.integers(0, 5), st.just([])),
    )
    steps = data.draw(st.lists(step, max_size=25), label="steps")
    frozen = build_relation(arity, set(initial), layout)
    for positions in warm:  # live, hot tuple indexes and int indexes
        frozen.lookup(positions, ())
        frozen.lookup(positions, ())
        frozen.col_index(positions)
    if warm:
        frozen.col_set()
    frozen_log = None
    sides = [frozen.copy()]
    sides.append(sides[0].copy())
    dictionary = frozen.dictionary
    for n, (kind, target, facts) in enumerate(steps):
        side = sides[target % len(sides)]
        where = f"step {n}: {kind} on side {target % len(sides)}"
        if kind == "copy":
            if len(sides) < 5:
                sides.append(side.copy())
        elif kind == "read":
            assert_reads_equal_a_rebuild(side, where)
            assert_reads_equal_a_rebuild(frozen, where)  # a pinned view reads too
        elif kind == "add":
            for fact in facts:
                side.add(fact)
        elif kind == "add_row":
            for fact in facts:
                if fact not in side.tuples:
                    ids = tuple(map(dictionary.intern, fact))
                    side.add_row(fact, encoded_rows([ids], arity)[0])
        elif kind == "append_rows":
            ids = [tuple(map(dictionary.intern, f)) for f in facts]
            rows = dict.fromkeys(encoded_rows(ids, arity))
            side.append_rows([row for row in rows if row not in side.col_set()])
        else:
            side.remove_facts(facts)
        for i, each in enumerate(sides):
            assert_equals_a_rebuild(each, f"{where}, checking side {i}")
        assert_equals_a_rebuild(frozen, f"{where}, checking the frozen original")
        if frozen_log is None:
            frozen_log = list(frozen._log)
        assert frozen._log == frozen_log, where
    for i, each in enumerate([frozen, *sides]):
        assert_reads_equal_a_rebuild(each, f"at the end, side {i - 1}")
    assert frozen.tuples == set(initial)


@pytest.mark.parametrize(
    "batch, nth",
    [
        # 1st component boundary: over-delete; 2nd: the forward delta of
        # _rederive, after the prune and the restorations
        ({"deletes": [("e", (2, 3)), ("e", (0, 4))]}, 2),
        # the forward delta of an insert, after the new facts went into
        # the detached base relations' live indexes
        ({"inserts": [("e", (2, 9)), ("e", (9, 3))]}, 1),
    ],
    ids=["mid-rederive", "mid-insert"],
)
def test_rollback_leaves_indexes_equal_to_a_rebuild(batch, nth):
    """A batch that dies half way has written only to its detached
    copies — buckets replaced, never appended to in place — so the
    originals rollback swaps back in still index exactly their facts."""
    from repro.engine import faults
    from repro.engine.incremental import IncrementalSession
    from repro.engine.seminaive import seminaive_eval
    from repro.engine.stats import MaintenanceError

    program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
    edb = Database.from_dict({"e": [(i, i + 1) for i in range(8)] + [(0, 4), (2, 6)]})
    session = IncrementalSession(program, edb)
    session.insert([("e", (8, 9))])  # indexes are live and hot before the batch
    session.delete([("e", (8, 9))])
    before = {sig: set(rel.tuples) for sig, rel in session.database.relations.items()}
    originals = dict(session.database.relations)
    faults.install(faults.parse_faults(f"component:raise:{nth}"))
    try:
        with pytest.raises(MaintenanceError):
            session.apply_batch(**batch)
    finally:
        faults.clear()
    assert session.database.relations == originals  # the same objects
    for db in (session.database, session.edb):
        for sig, rel in db.relations.items():
            assert_reads_equal_a_rebuild(rel, f"{sig} after rollback")
    assert {sig: rel.tuples for sig, rel in session.database.relations.items()} == before
    session.apply_batch(**batch)  # and the batch still applies
    scratch, _ = seminaive_eval(program, session.edb)
    assert session.database == scratch
