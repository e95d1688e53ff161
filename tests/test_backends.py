"""Tests for the pluggable execution backends and their wire formats.

Covers the satellite checklist for the backend layer: round-tripping
the compact ``Relation``/``ComponentSpec`` snapshot forms (statistics
and index distinct-key counts preserved), spawn-safe worker
initialization, parallel determinism across ``backend=process`` at
``jobs ∈ {1, 2, 4}``, error propagation across the process boundary,
and the ``--backend``/``REPRO_BACKEND`` validation mirroring the
``--jobs``/``REPRO_JOBS`` handling.
"""

import pickle

import pytest

from repro.cli import main
from repro.datalog.parser import parse_literal, parse_program, parse_term
from repro.engine.backends import (
    ComponentSpec,
    ProcessBackend,
    SerialBackend,
    evaluate_component,
    make_backend,
)
from repro.engine.config import EngineConfig
from repro.engine.database import Database, Relation
from repro.engine.naive import naive_eval
from repro.engine.provenance import provenance_eval
from repro.engine.scheduler import SCCScheduler
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats, NonTerminationError
from repro.workloads.synthetic import (
    coarse_components_edb,
    coarse_components_program,
    wide_dag_edb,
    wide_dag_program,
)


def test_make_backend_follows_the_config():
    # name parsing/validation lives in tests/test_config.py
    assert isinstance(make_backend(EngineConfig()), SerialBackend)
    assert isinstance(make_backend(EngineConfig(backend="serial")), SerialBackend)
    assert isinstance(make_backend(EngineConfig(backend="process")), ProcessBackend)


class TestCliBackendValidation:
    """--backend / $REPRO_BACKEND fail cleanly, mirroring --jobs."""

    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "tc.dl"
        path.write_text("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n")
        return str(path)

    @pytest.fixture
    def facts_file(self, tmp_path):
        path = tmp_path / "facts.dl"
        path.write_text("e(1, 2).\ne(2, 3).\n")
        return str(path)

    def test_run_with_explicit_backend(self, program_file, facts_file, capsys):
        for backend in ("serial", "process"):
            code = main(
                ["run", program_file, "t(1, Y)", "--facts", facts_file,
                 "--backend", backend]
            )
            assert code == 0
            assert set(capsys.readouterr().out.split()) == {"2", "3"}

    def test_bad_backend_flag_is_a_clean_error(
        self, program_file, facts_file, capsys
    ):
        code = main(
            ["run", program_file, "t(1, Y)", "--facts", facts_file,
             "--backend", "bogus"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bogus" in err

    def test_bad_backend_env_is_a_clean_error(
        self, program_file, facts_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        code = main(["run", program_file, "t(1, Y)", "--facts", facts_file])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "REPRO_BACKEND" in err

    def test_removed_thread_backend_flag_is_a_clean_error(
        self, program_file, facts_file, capsys
    ):
        code = main(
            ["run", program_file, "t(1, Y)", "--facts", facts_file,
             "--backend", "thread"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "one of serial, process" in err

    def test_removed_thread_backend_env_is_a_clean_error(
        self, program_file, facts_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        code = main(["run", program_file, "t(1, Y)", "--facts", facts_file])
        assert code == 2
        err = capsys.readouterr().err
        assert "REPRO_BACKEND='thread'" in err and "one of serial, process" in err

    def test_explain_validates_backend_too(
        self, program_file, facts_file, capsys
    ):
        code = main(
            ["explain", program_file, "t(1, 2)", "--facts", facts_file,
             "--backend", "bogus"]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err


class TestRelationSnapshotRoundTrip:
    def _relation_with_stats(self) -> Relation:
        db = Database()
        db.add_facts("e", [(1, 2), (1, 3), (2, 3), (4, 4)])
        rel = db.relation("e", 2)
        rel.ensure_index((0,))
        rel.ensure_index((0,))  # a second use marks the index hot
        rel.ensure_index((1,))
        return rel

    def test_pickle_preserves_facts_log_and_statistics(self):
        rel = self._relation_with_stats()
        dup = pickle.loads(pickle.dumps(rel))
        assert dup.tuples == rel.tuples
        assert dup._log == rel._log  # insertion order is part of the form
        # Index *contents* do not travel; their statistics do.
        assert dup._indexes == {}
        assert dup.distinct_count((0,)) == rel.distinct_count((0,)) == 3
        assert dup.distinct_count((1,)) == rel.distinct_count((1,)) == 3
        assert dup.statistics() == rel.statistics()
        # The restored relation is live: inserts and probes work.
        assert dup.add(rel._log[0]) is False
        assert len(dup.lookup((0,), rel._log[0][:1])) == 2

    def test_snapshot_method_matches_pickle_form(self):
        rel = self._relation_with_stats()
        snap = rel.snapshot()
        assert snap.tuples == rel.tuples
        assert snap._log == rel._log
        assert snap._indexes == {}
        assert snap.statistics() == rel.statistics()
        # Independent: mutating the snapshot leaves the original alone.
        snap.add((parse_term("9"), parse_term("9")))
        assert len(snap) == len(rel) + 1

    def test_view_pickles_compactly(self):
        rel = self._relation_with_stats()
        view = rel.view(1, 3)
        view.ensure_index((0,))
        dup = pickle.loads(pickle.dumps(view))
        assert list(dup) == list(view)
        assert dup.fact_set() == view.fact_set()
        assert dup._indexes is None  # slice-local indexes are rebuilt lazily

    def test_database_snapshot_restricts_to_signatures(self):
        db = Database()
        db.add_facts("e", [(1, 2)])
        db.add_facts("f", [(3,)])
        snap = db.snapshot([("e", 2), ("missing", 1)])
        assert set(snap.relations) == {("e", 2), ("missing", 1)}
        assert len(snap.relation("missing", 1)) == 0
        assert snap.relation("e", 2).tuples == db.relation("e", 2).tuples


class TestComponentSpecRoundTrip:
    def _spec(self):
        program = wide_dag_program(2)
        edb = wide_dag_edb(2, 6)
        scheduler = SCCScheduler(
            program, EngineConfig(jobs=2, backend="process")
        )
        db = edb.copy()
        task = next(t for t in scheduler.tasks if t.recursive)
        return ComponentSpec.from_task(scheduler, task, db, fact_base=0), task

    def test_spec_pickles_and_evaluates_identically(self):
        spec, task = self._spec()
        dup = pickle.loads(pickle.dumps(spec))
        assert dup.sigs == spec.sigs
        assert dup.rules == spec.rules  # structural Rule equality survives
        assert set(dup.relations) == set(spec.relations)
        for sig, rel in spec.relations.items():
            assert dup.relations[sig].tuples == rel.tuples
            assert dup.relations[sig].statistics() == rel.statistics()
        result = evaluate_component(dup)
        direct = evaluate_component(spec)
        assert result.deltas == direct.deltas
        assert result.stats.facts == direct.stats.facts
        assert result.stats.inferences == direct.stats.inferences
        assert set(result.deltas) == set(task.sigs)
        assert all(facts for facts in result.deltas.values())

    def test_spec_carries_only_needed_signatures(self):
        spec, task = self._spec()
        expected = set(task.sigs)
        for rule in task.rules:
            expected |= {lit.signature for lit in rule.body}
        assert set(spec.relations) == expected

    def test_terms_reintern_across_pickle(self):
        term = parse_term("[a, b, c]")
        assert pickle.loads(pickle.dumps(term)) is term  # hash-consing holds


class TestProcessBackendDeterminism:
    def test_process_jobs_counter_identical(self):
        program, edb = wide_dag_program(4), wide_dag_edb(4, 15)
        base_db, base = seminaive_eval(program, edb, jobs=1)
        for jobs in (1, 2, 4):
            db, stats = seminaive_eval(
                program, edb, jobs=jobs, backend="process"
            )
            assert db == base_db, f"jobs={jobs}"
            assert (stats.facts, stats.inferences, stats.iterations) == (
                base.facts, base.inferences, base.iterations,
            ), f"jobs={jobs}"

    def test_all_backends_agree_on_coarse_components(self):
        program = coarse_components_program(3)
        edb = coarse_components_edb(3, 10)
        base_db, base = seminaive_eval(program, edb, jobs=1)
        for backend in ("serial", "process"):
            db, stats = seminaive_eval(program, edb, jobs=3, backend=backend)
            assert db == base_db, backend
            assert (stats.facts, stats.inferences, stats.iterations) == (
                base.facts, base.inferences, base.iterations,
            ), backend

    def test_naive_mode_through_process_backend(self):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        base_db, base = naive_eval(program, edb, jobs=1)
        db, stats = naive_eval(program, edb, jobs=3, backend="process")
        assert db == base_db
        assert (stats.facts, stats.inferences) == (base.facts, base.inferences)

    def test_columnar_fallbacks_cross_the_process_boundary(self):
        """Kernel declines counted inside workers come back summed."""
        program = parse_program(
            """
            sa(L, L) :- list(L).
            sa(T, L) :- sa([H | T], L).
            sb(L, L) :- list(L).
            sb(T, L) :- sb([H | T], L).
            """
        )
        edb = Database()
        for text in ("[a]", "[a, b]", "[b, a, c]"):
            edb.add_fact("list", (parse_term(text),))
        base_db, base = seminaive_eval(program, edb, jobs=1, exec="columnar")
        db, stats = seminaive_eval(
            program, edb, jobs=2, backend="process", exec="columnar"
        )
        assert db == base_db
        assert stats.scc_parallel_batches >= 1
        assert stats.columnar_fallbacks == base.columnar_fallbacks > 0

    def test_cost_planner_through_process_backend(self):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 10)
        base_db, base = seminaive_eval(program, edb, planner="cost", jobs=1)
        db, stats = seminaive_eval(
            program, edb, planner="cost", jobs=3, backend="process"
        )
        assert db == base_db
        assert (stats.facts, stats.inferences, stats.iterations) == (
            base.facts, base.inferences, base.iterations,
        )

    def test_provenance_trees_identical_through_process_backend(self):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        base = provenance_eval(program, edb, jobs=1)
        proc = provenance_eval(program, edb, jobs=3, backend="process")
        assert proc.database == base.database
        assert proc.derivations == base.derivations
        fact = parse_literal("reach(0, 4)")
        assert proc.explain(fact).render() == base.explain(fact).render()

    def test_spawn_context_worker_init_is_safe(self):
        """Workers must bootstrap under spawn (no inherited state)."""
        program, edb = wide_dag_program(2), wide_dag_edb(2, 6)
        base_db, base = seminaive_eval(program, edb, jobs=1)
        backend = ProcessBackend(start_method="spawn")
        db, stats = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert db == base_db
        assert (stats.facts, stats.inferences, stats.iterations) == (
            base.facts, base.inferences, base.iterations,
        )

    def test_nontermination_crosses_the_process_boundary(self):
        program, edb = wide_dag_program(4), wide_dag_edb(4, 15)
        with pytest.raises(NonTerminationError) as exc_info:
            seminaive_eval(
                program, edb, max_facts=30, jobs=2, backend="process"
            )
        assert exc_info.value.facts > 30

    def test_nontermination_error_pickles_with_counters(self):
        err = pickle.loads(pickle.dumps(NonTerminationError("over", 7, 42)))
        assert isinstance(err, NonTerminationError)
        assert (err.iterations, err.facts) == (7, 42)
        assert "over" in str(err)

    def test_backend_pool_is_reusable_after_close(self):
        backend = ProcessBackend()
        program, edb = wide_dag_program(2), wide_dag_edb(2, 5)
        db1, s1 = seminaive_eval(program, edb, jobs=2, backend=backend)
        # scheduler.run closed the pool; a second run must reopen it
        db2, s2 = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert db1 == db2
        assert (s1.facts, s1.inferences) == (s2.facts, s2.inferences)

    def test_serial_backend_ignores_jobs(self):
        program, edb = wide_dag_program(4), wide_dag_edb(4, 10)
        db1, s1 = seminaive_eval(program, edb, jobs=1)
        db2, s2 = seminaive_eval(program, edb, jobs=8, backend="serial")
        assert db1 == db2
        assert (s1.facts, s1.inferences, s1.iterations) == (
            s2.facts, s2.inferences, s2.iterations,
        )


class TestSerialProcessParity:
    """The two backends are interchangeable at every job and partition
    count: same fixpoint, same counters, same derivation trees."""

    @pytest.mark.parametrize("partitions", [1, 2])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_facts_counters_and_trees_identical(self, jobs, partitions):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        base_db, base = seminaive_eval(program, edb, jobs=1, partitions=1)
        base_trees = provenance_eval(program, edb, jobs=1, partitions=1)
        knobs = dict(jobs=jobs, partitions=partitions)
        rounds = {}
        for backend in ("serial", "process"):
            db, stats = seminaive_eval(program, edb, backend=backend, **knobs)
            assert db == base_db, backend
            assert (stats.facts, stats.inferences, stats.iterations) == (
                base.facts, base.inferences, base.iterations,
            ), backend
            assert stats.backend_fallbacks == 0, backend
            rounds[backend] = stats.partition_rounds
            # recording declines partitioning, so the trees are checked
            # on their own run at the same knobs
            run = provenance_eval(program, edb, backend=backend, **knobs)
            assert run.database == base_db, backend
            assert run.derivations == base_trees.derivations, backend
        assert rounds["serial"] == rounds["process"]
        assert (rounds["serial"] > 0) == (partitions > 1)


class TestSessionBackend:
    def test_deductive_database_accepts_backend(self):
        from repro.session import DeductiveDatabase

        answers = {}
        for backend in ("serial", "process"):
            db = DeductiveDatabase(jobs=2, backend=backend)
            db.rules(
                """
                reach(X, Y) :- edge(X, Y).
                reach(X, Y) :- edge(X, W), reach(W, Y).
                """
            )
            for edge in ((1, 2), (2, 3), (3, 4)):
                db.fact("edge", *edge)
            answers[backend] = db.ask("reach(1, Y)")
        assert answers["serial"] == answers["process"]
        assert answers["serial"] == {(2,), (3,), (4,)}
