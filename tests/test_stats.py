"""Unit tests for evaluation statistics."""

from repro.datalog.parser import parse_program
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats
from repro.workloads import chain_edb


class TestEvalStats:
    def test_facts_count_distinct_derived_facts(self):
        program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
        db, stats = seminaive_eval(program, chain_edb(4))
        assert stats.facts == len(db.relation("t", 2)) == 3 + 2 + 1

    def test_merge(self):
        a = EvalStats(facts=2, inferences=5, iterations=1, seconds=0.5)
        b = EvalStats(facts=1, inferences=3, iterations=2, seconds=0.25)
        merged = a.merge(b)
        assert merged.facts == 3
        assert merged.inferences == 8
        assert a.facts == 2  # inputs untouched

    def test_str(self):
        assert "facts=0" in str(EvalStats())
