"""Tests for the factorability recognizers (Theorems 4.1-4.3)."""

import pytest

from repro.analysis.adornment import Adornment, adorn
from repro.analysis.classify import classify_program
from repro.core.theorems import (
    check_factorability,
    is_answer_propagating,
    is_selection_pushing,
    is_symmetric,
)
from repro.datalog.parser import parse_program, parse_query
from repro.workloads.examples import (
    example_43_edb,
    example_43_program,
    example_44_edb,
    example_44_program,
    example_45_edb,
    example_45_program,
    same_generation_program,
    three_rule_tc_program,
)
from repro.workloads.lists import pmem_program, pmem_query


def classify(program, goal):
    adorned = adorn(program, goal)
    from repro.analysis.adornment import split_adorned_name

    base, adn = split_adorned_name(adorned.goal.predicate)
    return classify_program(adorned.program, adorned.goal.predicate, adn)


class TestSelectionPushing:
    def test_three_rule_tc_syntactic(self):
        classification = classify(three_rule_tc_program(), parse_query("t(5, Y)"))
        assert is_selection_pushing(classification)

    def test_pmem_syntactic(self):
        classification = classify(pmem_program(), pmem_query(4))
        assert is_selection_pushing(classification)

    def test_example_43_needs_instance(self):
        classification = classify(example_43_program(), parse_query("p(5, Y)"))
        assert not is_selection_pushing(classification)
        assert is_selection_pushing(classification, edb=example_43_edb())

    def test_free_exit_violation_detected(self):
        # exit targets constrained by r1 only in rule 1: without the
        # EDB promise, containment fails.
        program = parse_program(
            """
            p(X, Y) :- f(X, V), p(V, Y), r1(Y).
            p(X, Y) :- e(X, Y).
            """
        )
        classification = classify(program, parse_query("p(5, Y)"))
        reasons = []
        assert not is_selection_pushing(classification, reasons=reasons)
        assert any("free_exit" in r for r in reasons)

    def test_syntactic_free_exit_containment(self):
        # right = exit's own relation: containment holds syntactically.
        program = parse_program(
            """
            p(X, Y) :- f(X, V), p(V, Y), e(W, Y).
            p(X, Y) :- e(X, Y).
            """
        )
        classification = classify(program, parse_query("p(5, Y)"))
        assert is_selection_pushing(classification)

    def test_left_conjunction_mismatch(self):
        program = parse_program(
            """
            p(X, Y) :- l1(X), p(X, U), e(U, Y).
            p(X, Y) :- l2(X), p(X, U), e(U, Y).
            p(X, Y) :- e(X, Y).
            """
        )
        classification = classify(program, parse_query("p(5, Y)"))
        reasons = []
        assert not is_selection_pushing(classification, reasons=reasons)
        assert any("left conjunctions differ" in r for r in reasons)

    def test_not_rlc_stable_rejected(self):
        classification = classify(same_generation_program(), parse_query("sg(1, Y)"))
        assert not is_selection_pushing(classification)


class TestSymmetric:
    def test_example_44_instance(self):
        classification = classify(example_44_program(), parse_query("p(5, Y)"))
        assert is_symmetric(classification, edb=example_44_edb())

    def test_rejects_right_linear_mix(self):
        classification = classify(example_45_program(), parse_query("p(5, Y)"))
        assert not is_symmetric(classification, edb=example_45_edb())

    def test_middle_equivalence_required(self):
        program = parse_program(
            """
            p(X, Y) :- p(X, U), c1(U, V), p(V, Y), e(W, Y).
            p(X, Y) :- p(X, U), c2(U, V), p(V, Y), e(W, Y).
            p(X, Y) :- e(X, Y).
            """
        )
        classification = classify(program, parse_query("p(5, Y)"))
        reasons = []
        assert not is_symmetric(classification, reasons=reasons)
        assert any("middle" in r for r in reasons)

    def test_syntactic_symmetric(self):
        program = parse_program(
            """
            p(X, Y) :- p(X, U), c(U, V), p(V, Y), e(W, Y).
            p(X, Y) :- e(X, Y).
            """
        )
        classification = classify(program, parse_query("p(5, Y)"))
        assert is_symmetric(classification)


class TestAnswerPropagating:
    def test_example_45_instance(self):
        classification = classify(example_45_program(), parse_query("p(5, Y)"))
        assert is_answer_propagating(classification, edb=example_45_edb())

    def test_includes_symmetric_programs(self):
        program = parse_program(
            """
            p(X, Y) :- p(X, U), c(U, V), p(V, Y), e(W, Y).
            p(X, Y) :- e(X, Y).
            """
        )
        classification = classify(program, parse_query("p(5, Y)"))
        assert is_answer_propagating(classification)

    def test_left_linear_bound_exit_condition(self):
        # bound_exit(X) :- e(X, Y); bound of the left-linear rule is
        # l(X): containment fails syntactically.
        program = parse_program(
            """
            p(X, Y) :- l(X), p(X, U), d(U, Y).
            p(X, Y) :- e(X, Y).
            """
        )
        classification = classify(program, parse_query("p(5, Y)"))
        reasons = []
        assert not is_answer_propagating(classification, reasons=reasons)
        assert any("bound_exit" in r for r in reasons)


class TestReport:
    def test_tc_report(self):
        classification = classify(three_rule_tc_program(), parse_query("t(5, Y)"))
        report = check_factorability(classification)
        assert report.factorable
        assert report.certified_by == "Theorem 4.1 (selection-pushing)"

    def test_same_generation_report(self):
        classification = classify(same_generation_program(), parse_query("sg(1, Y)"))
        report = check_factorability(classification)
        assert not report.factorable
        assert report.certified_by is None
        assert report.reasons


class TestBoundSideFilterBehindTheRecursiveCall:
    """A wrong answer the benchmark's oracle found (perf/README.md).

    ``rewrite_many`` seed 0, case ``random_105``: asked with only the
    last argument bound, the second rule is right-linear with
    ``first = e0(W, Y), r0(Y)`` — but its body, as the SIP orders it,
    is ``e0(W, Y), p(X, W), r0(Y)``: the filter ``r0(Y)`` on the *bound*
    argument sits behind the recursive call, so the Magic rule
    ``m_p(W) :- m_p(Y), e0(W, Y)`` omits it.  "Theorem 4.1" certified
    the program all the same, and the factored program — where every
    magic fact's answers are the query's — answered ``{0, 2, 3, 6}``
    although ``r0(2)`` fails and the program derives no ``p(_, 2)``.
    """

    TEXT = """
        p(X, Y) :- p(X, U), e2(U, V), p(V, Y).
        p(X, Y) :- p(X, W), e0(W, Y), r0(Y).
        p(X, Y) :- p(X, U), e2(U, V), p(V, Y).
        p(X, Y) :- e2(X, Y), r2(Y).
    """
    EDB = {
        "e0": [(0, 2), (0, 4), (0, 6), (0, 7), (2, 1), (2, 7), (3, 2), (3, 7),
               (4, 0), (4, 5), (4, 6), (4, 7), (6, 4), (7, 1)],
        "e2": [(0, 4), (0, 6), (0, 7), (2, 1), (2, 6), (2, 7), (3, 5), (3, 6),
               (5, 5), (5, 7), (6, 3), (6, 4)],
        "r0": [(0,), (1,), (4,), (5,), (6,), (7,)],
        "r2": [(0,), (1,), (3,), (4,), (5,), (6,), (7,)],
    }

    def ask(self, query):
        from repro.session import DeductiveDatabase

        db = DeductiveDatabase()
        db.rules(self.TEXT)
        for predicate, rows in self.EDB.items():
            db.facts(predicate, rows)
        return db.ask(query, explain=True)

    def unrewritten(self, query):
        from repro.engine.database import Database, unwrap_rows
        from repro.engine.naive import naive_fixpoint_reference

        db, _ = naive_fixpoint_reference(
            parse_program(self.TEXT), Database.from_dict(self.EDB)
        )
        return unwrap_rows(db.query(parse_query(query)))

    def test_ask_equals_the_unrewritten_program(self):
        assert self.unrewritten("p(V0, 2)") == set()
        for query in ("p(V0, 2)", "p(V0, 7)", "p(V0, 5)", "p(3, V1)", "p(3, 2)"):
            assert self.ask(query).answers == self.unrewritten(query), query

    def test_last_bound_form_is_not_certified(self):
        report = self.ask("p(V0, 2)")
        assert report.strategy == "magic" and report.certified_by is None
        classification = classify(parse_program(self.TEXT), parse_query("p(V0, 2)"))
        reasons = []
        assert classification.is_rlc_stable()
        assert not is_selection_pushing(classification, reasons=reasons)
        assert any("r0(Y)" in r and "Magic rule" in r for r in reasons)

    def test_first_bound_form_still_factors(self):
        # bound first, the same rule is left-linear and r0(Y) belongs to
        # last(U, Y): nothing is behind a right-linear occurrence
        assert self.ask("p(3, V1)").certified_by == "Theorem 4.1 (selection-pushing)"

    def test_filter_written_first_keeps_the_certificate(self):
        program = parse_program(
            """
            p(X, Y) :- r0(X), e0(X, W), p(W, Y).
            p(X, Y) :- e2(X, Y).
            """
        )
        classification = classify(program, parse_query("p(5, Y)"))
        assert is_selection_pushing(classification)
        behind = parse_program(
            """
            p(X, Y) :- e0(X, W), p(W, Y), r0(X).
            p(X, Y) :- e2(X, Y).
            """
        )
        classification = classify(behind, parse_query("p(5, Y)"))
        assert not is_selection_pushing(classification)
