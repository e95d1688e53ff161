"""Unit tests for evaluation statistics and the bench harness."""

import pytest

from repro.bench.harness import Measurement, Series, bench_scale, render_table, speedup
from repro.engine.stats import EvalStats


class TestEvalStats:
    def test_record_and_per_predicate(self):
        stats = EvalStats()
        stats.record_fact(("t", 2))
        stats.record_fact(("t", 2))
        stats.record_fact(("m", 1))
        assert stats.facts == 3
        assert stats.per_predicate[("t", 2)] == 2

    def test_merge(self):
        a = EvalStats(facts=2, inferences=5, iterations=1, seconds=0.5)
        a.per_predicate[("t", 2)] = 2
        b = EvalStats(facts=1, inferences=3, iterations=2, seconds=0.25)
        b.per_predicate[("t", 2)] = 1
        merged = a.merge(b)
        assert merged.facts == 3
        assert merged.inferences == 8
        assert merged.per_predicate[("t", 2)] == 3
        assert a.facts == 2  # inputs untouched

    def test_str(self):
        assert "facts=0" in str(EvalStats())


class TestHarness:
    def test_measurement_rows_align_with_header(self):
        m = Measurement(label="x", n=5, extra={"k": "v"})
        assert len(m.row()) == len(m.header())
        assert "k" in m.header()

    def test_series_render(self):
        series = Series("demo")
        series.add(Measurement(label="a", n=1, facts=10))
        series.note("a note")
        text = series.render()
        assert "demo" in text and "a note" in text and "10" in text

    def test_empty_series(self):
        assert "no measurements" in Series("empty").render()

    def test_render_table_alignment(self):
        table = render_table(["col", "n"], [["a", "1"], ["long-label", "22"]])
        lines = table.splitlines()
        assert len({len(line) for line in lines if line.strip()}) <= 2

    def test_speedup(self):
        base = Measurement(label="b", n=1, inferences=100)
        fast = Measurement(label="f", n=1, inferences=10)
        assert speedup(base, fast) == 10.0
        zero = Measurement(label="z", n=1, inferences=0)
        assert speedup(base, zero) == float("inf")

    def test_bench_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5
        for raw in ("junk", "nan", "inf", "-inf", "0", "-2"):
            monkeypatch.setenv("REPRO_BENCH_SCALE", raw)
            with pytest.warns(RuntimeWarning, match=f"REPRO_BENCH_SCALE='{raw}'"):
                assert bench_scale() == 1.0
