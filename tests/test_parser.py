"""Unit tests for the parser and pretty-printer (round-trip included)."""

import pytest
from hypothesis import given, strategies as st

from repro.datalog.literals import Literal
from repro.datalog.parser import (
    ParseError,
    parse_literal,
    parse_program,
    parse_query,
    parse_rule,
    parse_term,
)
from repro.datalog.pretty import is_text_term, pretty_program, pretty_rule, pretty_term
from repro.datalog.rules import Rule
from repro.datalog.terms import NIL, Compound, Constant, Variable, make_list


class TestTermParsing:
    def test_variable(self):
        assert parse_term("X") == Variable("X")
        assert parse_term("Xyz_1") == Variable("Xyz_1")

    def test_anonymous_variables_fresh(self):
        rule = parse_rule("p(X) :- q(_, _), r(X).")
        args = rule.body[0].args
        assert args[0] != args[1]

    def test_integer(self):
        assert parse_term("42") == Constant(42)
        assert parse_term("-3") == Constant(-3)

    def test_atom(self):
        assert parse_term("abc") == Constant("abc")

    def test_quoted_atom(self):
        assert parse_term("'Hello world'") == Constant("Hello world")

    def test_compound(self):
        assert parse_term("f(X, 1)") == Compound("f", (Variable("X"), Constant(1)))

    def test_nested_compound(self):
        term = parse_term("f(g(X), h(1, a))")
        assert term.functor == "f"
        assert term.args[0] == Compound("g", (Variable("X"),))

    def test_list(self):
        assert parse_term("[]") == NIL
        assert parse_term("[1, 2]") == make_list([Constant(1), Constant(2)])

    def test_list_with_tail(self):
        term = parse_term("[H | T]")
        assert term == Compound(".", (Variable("H"), Variable("T")))

    def test_bad_term(self):
        with pytest.raises(ParseError):
            parse_term(")")


class TestRuleParsing:
    def test_fact(self):
        rule = parse_rule("e(1, 2).")
        assert rule.is_fact()
        assert rule.head == Literal("e", (Constant(1), Constant(2)))

    def test_rule(self):
        rule = parse_rule("t(X, Y) :- e(X, Y).")
        assert rule.head.predicate == "t"
        assert len(rule.body) == 1

    def test_propositional(self):
        rule = parse_rule("go :- ready.")
        assert rule.head.arity == 0

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_rule("t(X, Y) :- e(X, Y)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_rule("a. b")

    def test_comment_handling(self):
        program = parse_program("% comment\ne(1, 2). % inline\n")
        assert len(program) == 1

    def test_generated_names_parse(self):
        rule = parse_rule("m_t@bf(X) :- f_t@bf(X).")
        assert rule.head.predicate == "m_t@bf"


class TestQueryParsing:
    def test_query_with_question_mark(self):
        assert parse_query("t(5, Y)?") == Literal("t", (Constant(5), Variable("Y")))

    def test_query_plain(self):
        assert parse_query("t(5, Y)") == parse_query("t(5, Y).")


class TestRoundTrip:
    CASES = [
        "t(X, Y) :- t(X, W), t(W, Y).",
        "e(1, 2).",
        "pmem(X, [X | T]) :- p(X).",
        "q(X) :- pmem(X, [1, 2, 3]).",
        "go :- ready, steady.",
        "p(X) :- f(g(X), [a, b | T]).",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        rule = parse_rule(text)
        assert parse_rule(pretty_rule(rule)) == rule

    @pytest.mark.parametrize(
        "value",
        ["x\\y", "it's", "Hello World", "Capital", "two\nlines", "\\'", "_x", "-1"],
    )
    def test_quoted_atom_roundtrip(self, value):
        """A constant that is not a bare atom is quoted, ``\\`` and
        ``'`` escaped inside, so it parses back as the same constant —
        as a predicate name too."""
        args = (Constant(value), make_list([Constant(value)]))
        rule = Rule(Literal(value, args), ())
        assert parse_rule(pretty_rule(rule)) == rule

    def test_program_roundtrip(self):
        from repro.workloads.examples import three_rule_tc_program

        program = three_rule_tc_program()
        assert parse_program(pretty_program(program)) == program

    @pytest.mark.parametrize(
        "value",
        [0, -7, 10**20, "a", "It's", "[]", True, False, 1.5, 2.0, float("inf"), None],
    )
    def test_a_term_round_trips_exactly_when_it_is_a_text_term(self, value):
        """The printer's contract: ``p(1.5)`` does not parse and ``True``
        parses as a variable, so only ``is_text_term`` terms come back."""
        for term in (Constant(value), Compound("f", (Constant(value), Constant("a")))):
            try:
                back = parse_term(pretty_term(term))
            except ParseError:
                back = None
            assert (back == term) == is_text_term(term), (term, back)


# -- property-based round trip over generated terms --------------------

_atoms = st.sampled_from(["a", "b", "edge", "node1"])
_variables = st.sampled_from(["X", "Y", "Z", "Long_name"])


def _terms(depth=2):
    base = st.one_of(
        _atoms.map(Constant),
        st.integers(-50, 50).map(Constant),
        _variables.map(Variable),
    )
    if depth == 0:
        return base
    return st.one_of(
        base,
        st.builds(
            Compound,
            st.sampled_from(["f", "g"]),
            st.lists(_terms(depth - 1), min_size=1, max_size=3).map(tuple),
        ),
        st.lists(_terms(depth - 1), max_size=3).map(make_list),
    )


@given(_terms())
def test_term_roundtrip_property(term):
    assert parse_term(pretty_term(term)) == term


@given(
    st.lists(
        st.builds(
            Literal,
            st.sampled_from(["p", "q", "r"]),
            st.lists(_terms(1), max_size=3).map(tuple),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_rule_roundtrip_property(literals):
    rule = Rule(literals[0], literals[1:])
    assert parse_rule(pretty_rule(rule)) == rule
