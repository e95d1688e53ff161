"""Tests for intra-component hash-partitioned delta execution.

Covers the partitioning satellite checklist: the disjoint-cover
property of :func:`~repro.engine.partition.split_indices` (every delta
row lands in exactly one partition, equal keys co-locate), safe
fallback on keyless / constant-bound / tiny-delta plans, the
``partitions=`` / ``--partitions`` / ``REPRO_PARTITIONS`` validation
mirroring the backend knobs, process-group failure degradation, the
``partition_rounds`` / ``partition_skew`` counters, and the
``repro run --stats`` report.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.datalog.parser import parse_program
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.partition import (
    ProcessPartitionExecutor,
    SerialPartitionExecutor,
    make_partition_executor,
    split_indices,
)
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats


class TestEvaluatorValidatesPartitions:
    # value/environment parsing itself lives in tests/test_config.py
    def test_evaluator_validates(self):
        program = parse_program("t(X, Y) :- e(X, Y).")
        with pytest.raises(ValueError, match="partitions"):
            seminaive_eval(program, Database(), partitions=0)

    def test_evaluator_validates_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARTITIONS", "junk")
        program = parse_program("t(X, Y) :- e(X, Y).")
        with pytest.raises(ValueError, match="REPRO_PARTITIONS"):
            seminaive_eval(program, Database())


class TestSplitIndices:
    """Every delta row lands in exactly one partition."""

    @settings(max_examples=200, deadline=None)
    @given(
        items=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40
        ),
        nparts=st.integers(1, 6),
        cols=st.sampled_from([None, (0,), (1,), (0, 1)]),
    )
    def test_disjoint_exact_cover(self, items, nparts, cols):
        buckets = split_indices(items, cols, nparts)
        assert len(buckets) == nparts
        flat = [i for bucket in buckets for i in bucket]
        assert sorted(flat) == list(range(len(items)))
        for bucket in buckets:  # log order survives inside a bucket
            assert bucket == sorted(bucket)

    @settings(max_examples=200, deadline=None)
    @given(
        items=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40
        ),
        nparts=st.integers(1, 6),
        cols=st.sampled_from([None, (0,), (1,), (0, 1)]),
    )
    def test_equal_keys_colocate(self, items, nparts, cols):
        buckets = split_indices(items, cols, nparts)
        owner = {}
        for part, bucket in enumerate(buckets):
            for i in bucket:
                key = (
                    items[i]
                    if cols is None
                    else tuple(items[i][c] for c in cols)
                )
                assert owner.setdefault(key, part) == part, (
                    "one join key split across partitions"
                )


def _run_matrix(program, edb, **base):
    """The unpartitioned reference next to a partitions=3 run."""
    ref_db, ref_stats = seminaive_eval(program, edb, partitions=1, **base)
    part_db, part_stats = seminaive_eval(program, edb, partitions=3, **base)
    assert part_db == ref_db
    for counter in ("facts", "inferences", "iterations"):
        assert getattr(part_stats, counter) == getattr(ref_stats, counter)
    return ref_stats, part_stats


class TestFallbacks:
    """Keyless, constant-bound, and tiny-delta plans stay safe."""

    def test_cross_product_recursion_whole_row_hash(self):
        # The recursive join reads nothing from the delta, so there is
        # no join key; whole-row hashing must still partition safely.
        program = parse_program(
            """
            g(X, Y) :- e(X, Y).
            g(X, Y) :- g(X, Z), h(Y).
            """
        )
        edb = Database()
        for i in range(6):
            edb.add_fact("e", (i, i + 1))
            edb.add_fact("h", (i,))
        _run_matrix(program, edb)

    def test_constant_bound_probe_whole_row_hash(self):
        # The only later step probes on a constant, never a delta slot.
        program = parse_program(
            """
            q(X) :- s(X).
            q(Y) :- q(X), f(0, Y).
            """
        )
        edb = Database()
        for i in range(5):
            edb.add_fact("s", (i,))
            edb.add_fact("f", (0, i + 10))
        _run_matrix(program, edb)

    def test_single_fact_deltas_decline(self):
        # A frontier of one fact per round never splits: partitioning
        # declines (len(delta) < 2) and the counters stay untouched.
        program = parse_program(
            """
            r(X) :- start(X).
            r(Y) :- r(X), e(X, Y).
            """
        )
        edb = Database()
        edb.add_fact("start", (0,))
        for i in range(6):
            edb.add_fact("e", (i, i + 1))
        _, part_stats = _run_matrix(program, edb)
        assert part_stats.partition_rounds == 0
        assert part_stats.partition_skew == 0.0

    def test_nonrecursive_components_never_partition(self):
        program = parse_program("t(X, Y) :- e(X, Y), e(Y, X).")
        edb = Database()
        for i in range(8):
            edb.add_fact("e", (i, (i + 1) % 8))
            edb.add_fact("e", ((i + 1) % 8, i))
        _, part_stats = _run_matrix(program, edb)
        assert part_stats.partition_rounds == 0


class TestExecutorSelection:
    def test_one_partition_is_none(self):
        assert make_partition_executor(EngineConfig(backend="process")) is None

    def test_family_follows_backend_name(self):
        assert type(make_partition_executor(EngineConfig(partitions=2))) is SerialPartitionExecutor
        ex = make_partition_executor(EngineConfig(partitions=2, backend="process"))
        assert type(ex) is ProcessPartitionExecutor
        ex.close()


class TestProcessGroup:
    def test_worker_failure_degrades_and_counts(self):
        # A reply the parent cannot accept breaks the group: the run
        # returns None (caller re-executes unpartitioned), the failure
        # counts one backend_fallbacks, and the executor declines every
        # later round instead of respawning mid-fixpoint.
        db = Database()
        rel = db.relation("d", 1)
        rel.add(("a",))
        rel.add(("b",))
        view = rel.view(0, 2)
        ex = ProcessPartitionExecutor(EngineConfig(partitions=2, exec="tuple"))

        class BadPlan:
            steps = ()
            rule = "not a rule"
            roles = None

        stats = EvalStats()
        out = ex._execute(
            BadPlan, db, {0: view}, 0, view, view.scan(),
            [[0], [1]], stats, False,
        )
        assert out is None
        assert ex._failed
        assert stats.backend_fallbacks == 1
        assert ex._declines(db, {0: view})
        ex.close()

    def test_ad_hoc_overrides_decline(self):
        # Only windows over live database relations have a wire form.
        db = Database()
        rel = db.relation("d", 1)
        rel.add(("a",))
        ex = ProcessPartitionExecutor(EngineConfig(partitions=2, exec="tuple"))
        try:
            assert ex._declines(db, {0: rel})  # bare Relation, not a view
            from repro.engine.database import Relation

            stray = Relation("d", 1)
            stray.add(("b",))
            assert ex._declines(db, {0: stray.view(0, 1)})  # not live
            assert not ex._declines(db, {0: rel.view(0, 1)})
        finally:
            ex.close()


class TestPartitionCounters:
    def _tc(self, n=12):
        program = parse_program(
            """
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            """
        )
        edb = Database()
        for i in range(n):
            edb.add_fact("e", (i, i + 1))
        return program, edb

    def test_counters_engage_on_partitioned_rounds(self):
        program, edb = self._tc()
        _, stats = seminaive_eval(program, edb, partitions=2)
        assert stats.partition_rounds > 0
        assert stats.partition_skew >= 1.0

    def test_counters_stay_zero_unpartitioned(self):
        program, edb = self._tc()
        _, stats = seminaive_eval(program, edb, partitions=1)
        assert stats.partition_rounds == 0
        assert stats.partition_skew == 0.0

    def test_absorb_sums_rounds_and_maxes_skew(self):
        a = EvalStats()
        a.partition_rounds, a.partition_skew = 3, 2.0
        b = EvalStats()
        b.partition_rounds, b.partition_skew = 4, 1.5
        a.absorb(b)
        assert a.partition_rounds == 7
        assert a.partition_skew == 2.0
        b.partition_skew = 2.5
        a.absorb(b)
        assert a.partition_rounds == 11
        assert a.partition_skew == 2.5

    def test_counters_identical_across_partition_backends(self):
        program, edb = self._tc()
        _, ref = seminaive_eval(program, edb, partitions=2, backend="serial")
        _, stats = seminaive_eval(program, edb, partitions=2, backend="process")
        assert stats.partition_rounds == ref.partition_rounds
        assert stats.partition_skew == ref.partition_skew
        assert stats.probes == ref.probes  # same split, same work


class TestPartitionsCLI:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "tc.dl"
        path.write_text(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, Z), e(Z, Y).\n"
        )
        return str(path)

    @pytest.fixture
    def facts_file(self, tmp_path):
        # A binary tree from node 0: the reachability frontier holds
        # several facts per round, so partitioned rounds actually occur
        # even under the goal-directed (magic) rewrite.
        path = tmp_path / "facts.dl"
        path.write_text(
            "".join(
                f"e({i}, {2 * i + 1}).\ne({i}, {2 * i + 2}).\n"
                for i in range(7)
            )
        )
        return str(path)

    def test_run_with_partitions(self, program_file, facts_file, capsys):
        for parts in ("1", "2", "4"):
            code = main(
                ["run", program_file, "t(0, Y)", "--facts", facts_file,
                 "--partitions", parts]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert set(out.split()) == {str(i) for i in range(1, 15)}

    def test_stats_flag_reports_partition_counters(
        self, program_file, facts_file, capsys
    ):
        code = main(
            ["run", program_file, "t(0, Y)", "--facts", facts_file,
             "--stats", "--partitions", "2"]
        )
        assert code == 0
        err = capsys.readouterr().err
        for name in ("facts", "inferences", "partition_rounds",
                     "partition_skew"):
            assert name in err
        rounds = int(
            next(
                line.split(":")[1]
                for line in err.splitlines()
                if "partition_rounds" in line
            )
        )
        assert rounds > 0

    def test_bad_partitions_flag_is_a_clean_error(
        self, program_file, facts_file, capsys
    ):
        code = main(
            ["run", program_file, "t(0, Y)", "--facts", facts_file,
             "--partitions", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "partitions" in err

    def test_bad_partitions_env_is_a_clean_error(
        self, program_file, facts_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PARTITIONS", "gobs")
        code = main(["run", program_file, "t(0, Y)", "--facts", facts_file])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "REPRO_PARTITIONS" in err
