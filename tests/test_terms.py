"""Unit tests for repro.datalog.terms."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.datalog.terms import (
    NIL,
    Compound,
    Constant,
    Variable,
    cons,
    constants_in,
    fresh_variable,
    is_ground,
    is_list_term,
    list_elements,
    make_list,
    term_variables,
)
from repro.session import DeductiveDatabase
from repro.workloads.lists import PMEM_TEXT


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_hashable(self):
        assert len({Variable("X"), Variable("X"), Variable("Y")}) == 2

    def test_not_ground(self):
        assert not Variable("X").is_ground()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Variable("X").name = "Y"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_str(self):
        assert str(Variable("Abc")) == "Abc"


class TestConstant:
    def test_equality_by_value(self):
        assert Constant(5) == Constant(5)
        assert Constant(5) != Constant("5")

    def test_ground(self):
        assert Constant("a").is_ground()

    def test_no_variables(self):
        assert list(Constant(1).variables()) == []

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Constant(1).value = 2

    def test_distinct_from_variable(self):
        assert Constant("X") != Variable("X")


class TestCompound:
    def test_interning(self):
        a = Compound("f", (Constant(1), Variable("X")))
        b = Compound("f", (Constant(1), Variable("X")))
        assert a is b

    def test_distinct_functors_not_interned_together(self):
        a = Compound("f", (Constant(1),))
        b = Compound("g", (Constant(1),))
        assert a is not b and a != b

    def test_groundness(self):
        assert Compound("f", (Constant(1),)).is_ground()
        assert not Compound("f", (Variable("X"),)).is_ground()

    def test_variables_nested(self):
        term = Compound("f", (Compound("g", (Variable("X"),)), Variable("Y")))
        assert [v.name for v in term_variables(term)] == ["X", "Y"]

    def test_immutable(self):
        term = Compound("f", (Constant(1),))
        with pytest.raises(AttributeError):
            term.functor = "g"

    def test_unreferenced_compounds_leave_the_table(self):
        """The hash-consing table does not keep a compound alive: after a
        database that asked ``pmem`` over 20 distinct lists is dropped,
        the table is back to its starting size (it kept 1 002 compounds
        when it held them strongly)."""
        gc.collect()
        before = len(Compound._intern)
        db = DeductiveDatabase()
        db.rules(PMEM_TEXT)
        db.facts("p", [(i,) for i in range(1000)])
        for k in range(20):
            elements = [1000 * (k + 1) + i for i in range(50)]
            assert db.ask(f"pmem(X, {elements})") == set()
        assert len(Compound._intern) > before
        del db
        gc.collect()
        assert len(Compound._intern) == before


class TestLists:
    def test_make_and_decompose(self):
        elements = [Constant(i) for i in range(3)]
        lst = make_list(elements)
        back, tail = list_elements(lst)
        assert back == elements
        assert tail == NIL

    def test_partial_list(self):
        tail = Variable("T")
        lst = make_list([Constant(1)], tail)
        back, got_tail = list_elements(lst)
        assert back == [Constant(1)]
        assert got_tail == tail

    def test_empty_list(self):
        assert make_list([]) == NIL
        assert list_elements(NIL) == ([], NIL)

    def test_is_list_term(self):
        assert is_list_term(NIL)
        assert is_list_term(cons(Constant(1), NIL))
        assert not is_list_term(Constant(1))

    def test_suffix_sharing(self):
        """Structure sharing: building [0|t] twice reuses one object."""
        suffix = make_list([Constant(i) for i in range(5)])
        a = cons(Constant(0), suffix)
        b = cons(Constant(0), suffix)
        assert a is b
        assert a.args[1] is suffix


class TestHelpers:
    def test_fresh_variables_distinct(self):
        assert fresh_variable() != fresh_variable()

    def test_fresh_variable_prefix(self):
        assert fresh_variable("Q").name.startswith("Q#")

    def test_term_variables_dedup_order(self):
        x, y = Variable("X"), Variable("Y")
        term = Compound("f", (x, y, x))
        assert term_variables(term) == [x, y]

    def test_constants_in(self):
        term = Compound("f", (Constant(1), Compound("g", (Constant(2),))))
        assert set(constants_in(term)) == {Constant(1), Constant(2)}

    def test_is_ground_helper(self):
        assert is_ground(Constant(1))
        assert not is_ground(Variable("X"))


@given(st.lists(st.integers(), max_size=8))
def test_list_roundtrip_property(values):
    """make_list / list_elements are inverse on proper lists."""
    terms = [Constant(v) for v in values]
    lst = make_list(terms)
    back, tail = list_elements(lst)
    assert back == terms and tail == NIL
    assert lst.is_ground() if values else lst == NIL
