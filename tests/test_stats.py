"""Unit tests for evaluation statistics and their counter table."""

from dataclasses import fields

import pytest

from repro.datalog.parser import parse_program
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import PASS_KINDS, EvalStats, determinate
from repro.workloads import chain_edb


def built(value):
    """Stats whose ``i``-th field holds ``value(i)``, in the field's type."""
    return EvalStats(
        **{c.name: type(c.default)(value(i)) for i, c in enumerate(fields(EvalStats))}
    )


class TestEvalStats:
    def test_facts_count_distinct_derived_facts(self):
        program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
        db, stats = seminaive_eval(program, chain_edb(4))
        assert stats.facts == len(db.relation("t", 2)) == 3 + 2 + 1

    def test_str(self):
        assert "facts=0" in str(EvalStats())

    def test_every_counter_is_classified(self):
        """A new counter needs a row: a merge rule and the kinds of pass
        that determine it (none: mechanical)."""
        for counter in fields(EvalStats):
            assert callable(counter.metadata.get("merge")), counter.name
            kinds = counter.metadata.get("determined_by")
            assert isinstance(kinds, frozenset) and kinds <= set(PASS_KINDS), counter.name

    def test_absorb_adds_every_counter_and_maxes_skew(self):
        skew = [c.name for c in fields(EvalStats)].index("partition_skew")
        up, down = (lambda i: i + 1), (lambda i: 100 - i)
        for a, b in ((up, down), (down, up)):
            left, right = built(a), built(b)
            want = built(lambda i: max(a(i), b(i)) if i == skew else a(i) + b(i))
            assert left.merge(right) == want and (left, right) == (built(a), built(b))
            left.absorb(right)
            assert left == want

    def test_determinate_reads_the_rows_of_a_kind_of_pass(self):
        stats = built(lambda i: i + 1)
        kinds = {kind: set(determinate(stats, kind)) for kind in PASS_KINDS}
        assert kinds == {
            "evaluate": {"facts", "inferences", "iterations"},
            "ask": {"facts", "inferences", "iterations"},
            "insert": {"facts", "inferences", "incr_rounds"},
            "delete": {"facts", "rederived"},
            "batch": kinds["insert"] & kinds["delete"],
        }
        assert determinate(stats, "delete") == dict(facts=1, rederived=stats.rederived)
        with pytest.raises(ValueError, match="unknown pass kind"):
            determinate(stats, "evalute")
