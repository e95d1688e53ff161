"""Ablations of the design choices DESIGN.md calls out.

A1 — Section 5 passes: how much of the E1 speedup does each stage of
the simplifier contribute?  (raw factored → +tautology/projection
passes → +uniform-equivalence deletion.)

A3 — SIP body ordering: the unit-preserving reorder in `adorn` versus
naive left-to-right on a program written "backwards".
"""

from __future__ import annotations

from repro.analysis.adornment import adorn
from repro.bench.harness import Measurement, Series
from repro.core.factoring import factor_magic
from repro.core.pipeline import optimize
from repro.core.simplify import simplify_factored
from repro.datalog.parser import parse_program, parse_query
from repro.engine.seminaive import seminaive_eval
from repro.transforms.magic import magic_sets
from repro.workloads.examples import three_rule_tc_program
from repro.workloads.graphs import chain_edb

from benchmarks.conftest import scaled


def test_a1_simplifier_pass_ablation():
    series = Series("A1: Section 5 pass ablation (3-rule TC, chain)")
    goal = parse_query("t(0, Y)")
    magic = magic_sets(adorn(three_rule_tc_program(), goal))
    factored = factor_magic(magic)
    with_props, _ = simplify_factored(factored, use_uniform_equivalence=False)
    with_uniform, _ = simplify_factored(factored, use_uniform_equivalence=True)

    n = scaled(40)
    edb = chain_edb(n)
    stages = [
        ("factored-raw", factored.program),
        ("+props-5.1..5.4", with_props.program),
        ("+uniform-equiv", with_uniform.program),
    ]
    baseline = None
    for label, program in stages:
        db, stats = seminaive_eval(program, edb)
        answers = db.query(magic.query_head)
        if baseline is None:
            baseline = answers
        assert answers == baseline  # every stage preserves answers
        series.add(
            Measurement(
                label=label, n=n, facts=stats.facts,
                inferences=stats.inferences, seconds=stats.seconds,
                answers=len(answers),
                extra={"rules": len(program)},
            )
        )
    series.note("each pass both shrinks the program and cuts evaluation cost")
    series.show()
    # the full simplifier must be the cheapest of the three
    rows = series.measurements
    assert rows[2].inferences <= rows[1].inferences <= rows[0].inferences


def test_a3_sip_ordering():
    series = Series("A3: unit-preserving SIP reorder vs written order")
    # written "backwards": the recursive literal precedes its binder,
    # so a naive left-to-right SIP would adorn it t@ff and explode.
    backwards = parse_program(
        """
        t(X, Y) :- t(W, Y), e(X, W).
        t(X, Y) :- e(X, Y).
        """
    )
    goal = parse_query("t(X, 5)")  # binds the second argument
    result = optimize(backwards, goal)
    assert result.report is not None and result.report.factorable
    n = scaled(40)
    edb = chain_edb(n)
    answers, stats = result.answers(edb)
    series.add(
        Measurement(
            label="reordered", n=n, facts=stats.facts,
            inferences=stats.inferences, seconds=stats.seconds,
            answers=len(answers),
        )
    )
    from tests.conftest import oracle_answers

    assert answers == oracle_answers(backwards, goal, edb)
    # single reachable adornment == unit program preserved
    assert len(result.adorned.adornments.get(("t", 2), {"x"})) <= 1
    series.note("the reorder keeps the program unit and factorable")
    series.show()
