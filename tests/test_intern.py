"""The term dictionary's two ways in: a load's value columns and ``intern``.

A load mints the ids of ``int``/``str`` constants straight from their
values (:meth:`TermDictionary.mint`) and builds no term; ``intern`` and
``lookup`` take terms.  Both must number one bijection, in the order
eager interning (every argument wrapped as a term, a column at a time)
would give, and the term view ``terms`` must read the same however
late it is built.
"""

import pickle
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_term
from repro.datalog.terms import Constant, Term, make_list
from repro.engine.database import Database
from repro.engine.intern import TermDictionary, plain_value
from repro.session import DeductiveDatabase

from tests.conftest import assert_storage_matches_rebuild, counting_constants

# Equal Python values of four types, and terms that are not constants.
VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1", "a", "b", True, False, 1.0, 2.5]),
    st.sampled_from([
        parse_term("f(1, a)"), parse_term("[1, 2]"), make_list([]),
        Constant(1), Constant("a"), Constant(True), Constant(1.0),
    ]),
)
ROW = st.tuples(VALUES, VALUES)
TEXT_ROW = st.tuples(st.integers(0, 9), st.text("ab1", max_size=2))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("load"), st.lists(ROW, max_size=8)),
        # int and str columns only: the load's bulk mint
        st.tuples(st.just("load"), st.lists(TEXT_ROW, max_size=8)),
        st.tuples(st.just("intern"), VALUES),
        st.tuples(st.just("lookup"), VALUES),
        st.tuples(st.just("terms"), st.none()),
    ),
    max_size=12,
)


def as_term(value) -> Term:
    return value if isinstance(value, Term) else Constant(value)


def typed(seq):
    """``seq`` with each item's type: ``1``, ``True`` and ``1.0`` are
    equal Python values and must not compare equal here."""
    return [(type(item), item) for item in seq]


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_loads_and_interns_number_one_bijection(ops):
    db = Database()
    d = db.ensure_dictionary()
    eager = {}  # term -> id, interned one argument at a time

    def intern_eagerly(term):
        return eager.setdefault(term, len(eager))

    for op, arg in ops:
        if op == "load":
            db.add_facts("e", arg)
            for p in range(2):
                for row in arg:
                    intern_eagerly(as_term(row[p]))
        elif op == "intern":
            assert d.intern(as_term(arg)) == intern_eagerly(as_term(arg))
        elif op == "lookup":
            before = len(d)
            assert d.lookup(as_term(arg)) == eager.get(as_term(arg))
            assert len(d) == before, "lookup minted an id"
        else:
            assert d.terms == list(eager)
        assert len(d) == len(eager)
    assert d.terms == list(eager)
    assert typed(d.values) == typed(map(plain_value, eager))
    assert [d.lookup(term) for term in eager] == list(range(len(eager)))
    assert {tuple(map(as_term, row)) for op, rows in ops if op == "load" for row in rows} == (
        db.get("e", 2).tuples if db.get("e", 2) else set()
    )
    clone = pickle.loads(pickle.dumps(d))
    assert [clone.lookup(term) for term in eager] == list(range(len(eager)))
    assert typed(clone.values) == typed(d.values) and clone.terms == d.terms


def test_readers_of_terms_race_a_loader():
    """Reader threads decode through ``terms`` while a loader mints:
    every id a reader finds decodes, each term is built once, and the
    view ends aligned with the value table."""
    db = Database()
    d = db.ensure_dictionary()
    barrier = threading.Barrier(5)
    stop = threading.Event()
    errors = []
    seen = {}  # id -> the term object a reader first got for it

    def load():
        barrier.wait()
        for batch in range(40):
            base = batch * 50
            db.add_facts("e", [(i, f"v{i + 1}") for i in range(base, base + 50)])

    def read(k):
        barrier.wait()
        while not stop.is_set():
            n = len(d)
            terms = d.terms
            for ident in range(k, n, 7):
                term = terms[ident]
                if plain_value(term) != d.values[ident]:
                    errors.append((ident, term))
                if seen.setdefault(ident, term) is not term:
                    errors.append(("rebuilt", ident))

    loader = threading.Thread(target=load)
    readers = [threading.Thread(target=read, args=(k,)) for k in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in [loader, *readers]:
            thread.start()
        loader.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in [loader, *readers])
    assert not errors, errors[:3]
    assert len(d) == 4000 and len(d.terms) == len(d.values)
    assert d.values == [plain_value(term) for term in d.terms]
    assert all(d.terms[ident] is term for ident, term in seen.items())
    assert len(db.get("e", 2)) == 2000


def test_an_int_and_str_load_constructs_no_constant(monkeypatch):
    built = counting_constants(monkeypatch)
    db = Database()
    assert db.add_facts("e", [(i, f"v{i}") for i in range(500)]) == 500
    assert db.add_facts("e", [(i, f"v{i}") for i in range(250, 750)]) == 250
    ddb = DeductiveDatabase().facts("v", [(i,) for i in range(100)])
    assert built == []
    assert len(db.dictionary) == 1500 and len(ddb.edb.dictionary) == 100
    assert db.has_fact("e", (3, "v3")) and not db.has_fact("e", (3, "v4"))
    assert_storage_matches_rebuild(db)  # reads the tuple world: builds them now
    assert len(built) == 1500 + 4


def test_a_factored_ask_over_int_edges_builds_no_term_for_a_stored_value(monkeypatch):
    """Theorem 4.1's ``tc3`` over a loaded chain: the ask parses its
    constant and the rewrite its seed, but no stored value is ever
    wrapped as a term — the kernel reads ids, the answers decode
    through ``values``."""
    text = """
    t(X, Y) :- t(X, W), t(W, Y).
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- t(X, W), e(W, Y).
    t(X, Y) :- e(X, Y).
    """
    n = 300
    ddb = DeductiveDatabase().rules(text).facts("e", ((i, i + 1) for i in range(n)))
    built = counting_constants(monkeypatch)
    cold = ddb.ask("t(0, Y)", explain=True)
    warm = ddb.ask("t(7, Y)", explain=True)
    assert cold.strategy == "factored" and warm.from_cache
    assert cold.answers == {(y,) for y in range(1, n + 1)}
    assert warm.answers == {(y,) for y in range(8, n + 1)}
    assert set(built) & set(range(n + 1)) <= {0, 7}, set(built)
