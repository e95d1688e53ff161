"""E15 — engine microbenchmarks: the substrate sanity check.

The paper's separations are asymptotic claims about *evaluation cost*;
they are only observable if the engine's per-inference cost is roughly
constant.  This bench measures (a) semi-naive vs naive redundancy,
(b) index effectiveness on joins, (c) per-inference wall-time stability
across input sizes.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import Measurement, Series
from repro.datalog.parser import parse_program
from repro.engine.database import Database, Relation
from repro.engine.reference import naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval
from repro.workloads.graphs import chain_edb, grid_edb

from benchmarks.conftest import scaled

TC = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")


def test_e15_seminaive_vs_naive():
    series = Series("E15a: semi-naive vs the naive reference on chains")
    for n in (scaled(10), scaled(20), scaled(40)):
        edb = chain_edb(n)
        _, naive_stats = naive_fixpoint_reference(TC, edb)
        _, semi_stats = seminaive_eval(TC, edb)
        series.add(
            Measurement(
                label="naive", n=n, facts=naive_stats.facts,
                inferences=naive_stats.inferences, seconds=naive_stats.seconds,
            )
        )
        series.add(
            Measurement(
                label="semi-naive", n=n, facts=semi_stats.facts,
                inferences=semi_stats.inferences, seconds=semi_stats.seconds,
            )
        )
        assert semi_stats.facts == naive_stats.facts
        # naive rederives every fact every round: Θ(n) redundancy factor.
        assert naive_stats.inferences > semi_stats.inferences
    series.note("semi-naive inference count is exactly the distinct-derivation count")
    series.show()


def test_e15_seminaive_inferences_linear_on_chain():
    """On a chain, semi-naive TC does exactly one inference per t fact."""
    n = scaled(50)
    _, stats = seminaive_eval(TC, chain_edb(n))
    t_facts = n * (n - 1) // 2
    assert stats.facts == t_facts
    assert stats.inferences == t_facts


def test_e15_index_lookup():
    series = Series("E15b: indexed vs scan lookup on a relation")
    import time

    for n in (scaled(2000), scaled(8000)):
        rel = Relation("e", 2)
        from repro.datalog.terms import Constant

        for i in range(n):
            rel.add((Constant(i % 100), Constant(i)))
        key = (Constant(7),)
        start = time.perf_counter()
        for _ in range(200):
            rel.lookup((0,), key)
        indexed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(200):
            [t for t in rel.tuples if t[0] == key[0]]
        scanned = time.perf_counter() - start
        series.add(
            Measurement(
                label="lookup", n=n, seconds=indexed,
                extra={"scan_ms": f"{scanned * 1000:.2f}"},
            )
        )
        assert indexed < scanned
    series.show()


def test_e15_grid_workload():
    series = Series("E15c: TC on grids (branching joins)")
    for side in (scaled(4), scaled(6), scaled(8)):
        edb = grid_edb(side, side)
        _, stats = seminaive_eval(TC, edb)
        series.add(
            Measurement(
                label="semi-naive", n=side * side, facts=stats.facts,
                inferences=stats.inferences, seconds=stats.seconds,
            )
        )
    series.show()


@pytest.mark.benchmark(group="E15-engine")
def test_e15_timing_seminaive(benchmark):
    edb = chain_edb(scaled(60))
    benchmark(lambda: seminaive_eval(TC, edb))


@pytest.mark.benchmark(group="E15-engine")
def test_e15_timing_naive(benchmark):
    edb = chain_edb(scaled(60))
    benchmark(lambda: naive_fixpoint_reference(TC, edb))
