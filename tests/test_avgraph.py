"""Tests for A/V graphs and one-sided recursions (Section 6.1)."""

import pytest

from repro.analysis.avgraph import (
    build_av_graph,
    expand_rule,
    is_one_sided,
    is_simple_one_sided,
)
from repro.datalog.parser import parse_rule
from repro.engine.database import Database
from repro.engine.seminaive import seminaive_eval
from repro.datalog.program import Program
from repro.datalog.parser import parse_program, parse_literal


class TestAVGraph:
    def test_left_linear_tc(self):
        rule = parse_rule("t(X, Y) :- t(X, W), e(W, Y).")
        graph = build_av_graph(rule, "t")
        assert (0, 0) in graph.edges  # X fixed: weight-1 self-loop
        assert len(graph.components) == 2

    def test_right_linear_tc(self):
        rule = parse_rule("t(X, Y) :- e(X, U), t(U, Y).")
        graph = build_av_graph(rule, "t")
        assert (1, 1) in graph.edges

    def test_swap_rule_weight_two_cycle(self):
        rule = parse_rule("t(X, Y) :- t(Y, X).")
        graph = build_av_graph(rule, "t")
        component = graph.component_of(0)
        assert graph.cycle_weights(component) == {2}

    def test_nonlinear_rejected(self):
        rule = parse_rule("t(X, Y) :- t(X, W), t(W, Y).")
        with pytest.raises(ValueError):
            build_av_graph(rule, "t")


class TestOneSided:
    def test_tc_rules_one_sided(self):
        assert is_one_sided(parse_rule("t(X, Y) :- t(X, W), e(W, Y)."), "t")
        assert is_one_sided(parse_rule("t(X, Y) :- e(X, U), t(U, Y)."), "t")

    def test_swap_not_one_sided(self):
        assert not is_one_sided(parse_rule("t(X, Y) :- t(Y, X)."), "t")

    def test_both_sides_moving_not_one_sided(self):
        # both argument components carry nonzero cycles
        rule = parse_rule("t(X, Y) :- a(X, U), t(U, V), b(V, Y).")
        assert not is_one_sided(rule, "t")

    def test_example_71_one_sided(self):
        rule = parse_rule("t(X, Y, Z) :- t(X, U, W), b(U, Y), d(Z).")
        assert is_one_sided(rule, "t")
        assert is_simple_one_sided(rule, "t")

    def test_multi_fixed_positions(self):
        rule = parse_rule("t(X, Y, Z) :- t(X, Y, W), e(W, Z).")
        assert is_one_sided(rule, "t")


class TestExpansion:
    def test_expansion_preserves_semantics(self):
        """rule ∪ expanded computes the same closure as rule twice-unrolled."""
        rule = parse_rule("t(X, Y) :- t(X, W), e(W, Y).")
        exit_rule = parse_rule("t(X, Y) :- e(X, Y).")
        expanded = expand_rule(rule, "t", 1)
        # expanded should have two e literals and one t literal
        assert len(expanded.body_literals("e")) == 2
        assert len(expanded.body_literals("t")) == 1

        edb = Database.from_dict({"e": [(i, i + 1) for i in range(6)]})
        base, _ = seminaive_eval(Program([rule, exit_rule]), edb)
        # Expanded program: the expansion plus the originals (it skips
        # odd path lengths on its own, so compare combined fixpoints).
        both, _ = seminaive_eval(Program([rule, exit_rule, expanded]), edb)
        assert base.facts("t") == both.facts("t")

    def test_expand_zero_is_identity(self):
        rule = parse_rule("t(X, Y) :- t(X, W), e(W, Y).")
        assert expand_rule(rule, "t", 0) == rule

    def test_expand_nonlinear_raises(self):
        rule = parse_rule("t(X, Y) :- t(X, W), t(W, Y).")
        with pytest.raises(ValueError):
            expand_rule(rule, "t")
