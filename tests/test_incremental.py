"""Incremental view maintenance: the churn path.

Every test holds the one invariant that matters: after any script of
inserts and deletes, the incrementally maintained database must be
*bit-identical* to a from-scratch ``seminaive_eval`` on the final EDB
(and, with provenance on, the recorded derivations must match a
from-scratch ``provenance_eval``).  The least model is unique, so this
is both necessary and sufficient.
"""

import random

import pytest

from repro.datalog.parser import parse_program
from repro.engine.database import Database, Relation
from repro.engine.incremental import IncrementalSession
from repro.engine.naive import naive_fixpoint_reference
from repro.engine.provenance import provenance_eval
from repro.engine.seminaive import seminaive_eval
from repro.session import DeductiveDatabase
from repro.workloads.synthetic import churn_edb, churn_program, churn_script

TC = parse_program(
    """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, W), t(W, Y).
    """
)

LAYERED = parse_program(
    """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, W), t(W, Y).
    r(X, Y) :- t(X, Y), sel(Y).
    s(X) :- r(X, Y).
    """
)


def chain(n):
    db = Database()
    db.add_facts("e", ((i, i + 1) for i in range(n)))
    return db


def assert_matches_scratch(session, edb, program=None):
    ref, _ = seminaive_eval(program or TC, edb)
    assert session.database == ref


class TestInsert:
    def test_insert_extends_closure(self):
        edb = chain(5)
        session = IncrementalSession(TC, edb)
        stats = session.insert([("e", (5, 6)), ("e", (6, 7))])
        edb.add_facts("e", [(5, 6), (6, 7)])
        assert_matches_scratch(session, edb)
        assert stats.facts > 2  # the EDB facts plus derived closure
        assert stats.incr_rounds >= 1
        assert (7,) in session.query("t(0, Y)")

    def test_insert_only_script(self):
        edb = chain(4)
        session = IncrementalSession(LAYERED, edb)
        rng = random.Random(0)
        for _ in range(25):
            if rng.random() < 0.7:
                fact = (rng.randrange(12), rng.randrange(12))
                session.insert([("e", fact)])
                edb.add_fact("e", fact)
            else:
                fact = (rng.randrange(12),)
                session.insert([("sel", fact)])
                edb.add_fact("sel", fact)
            assert_matches_scratch(session, edb, LAYERED)

    def test_duplicate_insert_is_noop(self):
        edb = chain(4)
        session = IncrementalSession(TC, edb)
        stats = session.insert([("e", (0, 1))])
        assert stats.facts == 0
        assert_matches_scratch(session, edb)

    def test_insert_accepts_datalog_text_and_mapping(self):
        edb = chain(3)
        session = IncrementalSession(TC, edb)
        session.insert("e(3, 4). e(4, 5).")
        session.insert({"e": [(5, 6)]})
        edb.add_facts("e", [(3, 4), (4, 5), (5, 6)])
        assert_matches_scratch(session, edb)

    def test_insert_rejects_non_ground(self):
        session = IncrementalSession(TC, chain(2))
        with pytest.raises(ValueError):
            session.insert("e(1, X).")


class TestDelete:
    def test_delete_shrinks_closure(self):
        edb = chain(6)
        session = IncrementalSession(TC, edb)
        session.delete([("e", (2, 3))])
        edb.remove_fact("e", (2, 3))
        assert_matches_scratch(session, edb)
        assert (5,) not in session.query("t(0, Y)")
        assert (2,) in session.query("t(0, Y)")

    def test_delete_only_script(self):
        edb = churn_edb(36, width=3)
        session = IncrementalSession(TC, edb)
        edges = sorted(
            tuple(t.value for t in fact) for fact in edb.get("e", 2).tuples
        )
        rng = random.Random(1)
        for _ in range(12):
            edge = edges.pop(rng.randrange(len(edges)))
            session.delete([("e", edge)])
            edb.remove_fact("e", edge)
            assert_matches_scratch(session, edb)

    def test_alternate_derivation_survives(self):
        # 0->1->2 plus the shortcut 0->2: deleting (1, 2) must keep
        # t(0, 2) alive through the shortcut (DRed's re-derivation).
        edb = chain(3)
        edb.add_fact("e", (0, 2))
        session = IncrementalSession(TC, edb)
        stats = session.delete([("e", (1, 2))])
        edb.remove_fact("e", (1, 2))
        assert_matches_scratch(session, edb)
        assert session.holds("t(0, 2)")
        assert not session.holds("t(1, 2)")
        assert stats.rederived >= 1

    def test_delete_of_unknown_fact_is_noop(self):
        edb = chain(3)
        session = IncrementalSession(TC, edb)
        stats = session.delete([("e", (7, 8)), ("nope", (1,))])
        assert stats.incr_rounds == 0
        assert_matches_scratch(session, edb)

    def test_saturated_delete_falls_back_to_recompute(self):
        # Deleting most of the EDB trips the over-delete saturation
        # path and the component-recompute re-derivation fallback;
        # the result must still match from scratch.
        edb = chain(12)
        session = IncrementalSession(TC, edb)
        doomed = [("e", (i, i + 1)) for i in range(1, 12)]
        session.delete(doomed)
        for _, args in doomed:
            edb.remove_fact("e", args)
        assert_matches_scratch(session, edb)
        assert session.query("t(0, Y)") == {(1,)}

    def test_program_fact_is_never_deleted(self):
        program = parse_program("p(X, Y) :- q(X, Y).\nq(1, 2).\n")
        edb = Database()
        edb.add_fact("q", (2, 3))
        session = IncrementalSession(program, edb)
        session.delete([("q", (1, 2))])  # not an EDB fact: protected
        assert session.database.has_fact("q", (1, 2))
        assert session.database.has_fact("p", (1, 2))
        session.delete([("q", (2, 3))])
        edb2 = Database()
        ref, _ = seminaive_eval(program, edb2)
        assert session.database == ref


class TestMixedScripts:
    @pytest.mark.parametrize("exec_mode", ["columnar", "tuple"])
    def test_mixed_script_matches_scratch(self, exec_mode):
        edb = churn_edb(24, width=2)
        session = IncrementalSession(LAYERED, edb, exec=exec_mode)
        rng = random.Random(5)
        for step in range(30):
            if rng.random() < 0.5:
                fact = (rng.randrange(24), rng.randrange(24))
                session.insert([("e", fact)])
                edb.add_fact("e", fact)
            else:
                rel = edb.get("e", 2)
                edges = sorted(
                    tuple(t.value for t in fact) for fact in rel.tuples
                )
                if not edges:
                    continue
                edge = edges[rng.randrange(len(edges))]
                session.delete([("e", edge)])
                edb.remove_fact("e", edge)
            assert_matches_scratch(session, edb, LAYERED)
        # ... and the end state equals the scheduler-free, plan-free oracle.
        assert session.database == naive_fixpoint_reference(LAYERED, edb)[0]

    def test_churn_script_generator_round_trip(self):
        # The benchmark's script generator against the benchmark's EDB.
        n = 30
        session = IncrementalSession(TC, churn_edb(n))
        edb = churn_edb(n)
        for op, pred, args in churn_script(seed=3, updates=20, n=n):
            if op == "+":
                session.insert([(pred, args)])
                edb.add_fact(pred, args)
            else:
                session.delete([(pred, args)])
                edb.remove_fact(pred, args)
        assert_matches_scratch(session, edb)
        assert churn_script(seed=3, updates=20, n=n) == churn_script(
            seed=3, updates=20, n=n
        )


class TestKnobDeterminism:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"planner": "greedy"},
            {"planner": "cost"},
            {"exec": "tuple"},
            {"jobs": 2, "backend": "serial"},
            {"jobs": 2, "backend": "thread"},
            {"jobs": 2, "backend": "process"},
        ],
    )
    def test_final_database_identical_across_knobs(self, kwargs):
        """Cross-backend/job-count determinism for the churn path."""
        edb = churn_edb(18, width=2)
        session = IncrementalSession(LAYERED, edb, **kwargs)
        final_edb = churn_edb(18, width=2)
        for op, pred, args in churn_script(seed=9, updates=14, n=18, width=2):
            if op == "+":
                session.insert([(pred, args)])
                final_edb.add_fact(pred, args)
            else:
                session.delete([(pred, args)])
                final_edb.remove_fact(pred, args)
        ref, _ = naive_fixpoint_reference(LAYERED, final_edb)
        assert session.database == ref, f"diverged under {kwargs}"


class TestProvenance:
    def test_derivations_match_scratch_after_churn(self):
        edb = chain(5)
        session = IncrementalSession(LAYERED, edb, record_provenance=True)
        edb.add_fact("sel", (3,))
        session.insert([("sel", (3,))])
        edb.add_fact("e", (0, 3))
        session.insert([("e", (0, 3))])
        edb.remove_fact("e", (1, 2))
        session.delete([("e", (1, 2))])
        ref = provenance_eval(LAYERED, edb)
        assert session.database == ref.database
        assert session._derivations == ref.derivations

    def test_explain_after_maintenance(self):
        edb = chain(4)
        session = IncrementalSession(TC, edb, record_provenance=True)
        session.insert([("e", (4, 5))])
        tree = session.explain("t(0, 5)")
        leaves = {str(leaf) for leaf in tree.leaves()}
        assert "e(4, 5)" in leaves
        session.delete([("e", (4, 5))])
        with pytest.raises(KeyError):
            session.explain("t(0, 5)")

    def test_inserted_edb_fact_becomes_leaf(self):
        # t(0, 2) is derived; asserting it directly as an EDB fact
        # turns it into a leaf, exactly as a from-scratch run records.
        edb = chain(3)
        session = IncrementalSession(TC, edb, record_provenance=True)
        assert session.explain("t(0, 2)").height() > 1
        session.insert([("t", (0, 2))])
        edb.add_fact("t", (0, 2))
        ref = provenance_eval(TC, edb)
        assert session.database == ref.database
        assert session._derivations == ref.derivations
        assert session.explain("t(0, 2)").height() == 1

    def test_explain_requires_provenance_mode(self):
        session = IncrementalSession(TC, chain(3))
        with pytest.raises(RuntimeError):
            session.explain("t(0, 1)")

    def test_support_index_skips_unrelated_components(self):
        # Two disjoint closures: deleting in one must not recompute
        # the other (observable through the pass's facts counter —
        # component recomputation re-derives, fact-level passes don't).
        program = parse_program(
            """
            a(X, Y) :- ea(X, Y).
            a(X, Y) :- ea(X, W), a(W, Y).
            b(X, Y) :- eb(X, Y).
            b(X, Y) :- eb(X, W), b(W, Y).
            """
        )
        edb = Database()
        edb.add_facts("ea", ((i, i + 1) for i in range(3)))
        edb.add_facts("eb", ((i, i + 1) for i in range(30)))
        session = IncrementalSession(program, edb, record_provenance=True)
        stats = session.delete([("ea", (2, 3))])
        edb.remove_fact("ea", (2, 3))
        ref = provenance_eval(program, edb)
        assert session.database == ref.database
        assert session._derivations == ref.derivations
        # Only the small component recomputed: nowhere near the ~465
        # facts re-deriving the eb closure would have cost.
        assert stats.facts < 20


class TestDeltaHooks:
    def test_remove_facts_repairs_indexes(self):
        rel = Relation("e", 2)
        facts = [tuple(map(str, (i, i % 3))) for i in range(9)]
        for fact in facts:
            rel.add(fact)
        index = rel.ensure_index((1,))
        assert sum(len(b) for b in index.values()) == 9
        removed = rel.remove_facts([facts[0], facts[3], ("zz", "zz")])
        assert removed == 2
        assert len(rel) == 7
        # The live index was repaired in place, not dropped.
        assert rel._indexes, "index should survive removal"
        assert sum(len(b) for b in rel._indexes[(1,)].values()) == 7
        assert facts[0] not in rel.lookup((1,), (facts[0][1],))

    def test_remove_facts_compacts_log_for_views(self):
        rel = Relation("e", 1)
        for i in range(6):
            rel.add((str(i),))
        rel.remove_facts([("2",), ("4",)])
        assert list(rel.view(0, len(rel))) == [
            ("0",), ("1",), ("3",), ("5",)
        ]

    def test_database_remove_fact_wraps_values(self):
        db = Database()
        db.add_fact("e", (1, 2))
        assert db.remove_fact("e", (1, 2))
        assert not db.remove_fact("e", (1, 2))
        assert not db.has_fact("e", (1, 2))


class TestSessionIntegration:
    def test_materialize_round_trip(self):
        db = DeductiveDatabase()
        db.rules(
            """
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- edge(X, W), reach(W, Y).
            """
        )
        db.facts("edge", [(1, 2), (2, 3)])
        session = db.materialize()
        assert session.query("reach(1, Y)") == {(2,), (3,)}
        session.insert([("edge", (3, 4))])
        assert (4,) in session.query("reach(1, Y)")
        session.delete([("edge", (2, 3))])
        assert session.query("reach(1, Y)") == {(2,)}

    def test_materialize_bridges_mixed_predicates(self):
        db = DeductiveDatabase()
        db.rules(
            """
            likes(X, Z) :- likes(X, Y), likes(Y, Z).
            likes(a, b).
            """
        )
        db.fact("likes", "b", "c")
        session = db.materialize()
        assert ("c",) in session.query("likes(a, Z)")
        # Updates under the user-facing name reach the bridged base.
        session.insert([("likes", ("c", "d"))])
        assert ("d",) in session.query("likes(a, Z)")
        session.delete([("likes", ("c", "d"))])
        assert ("d",) not in session.query("likes(a, Z)")

    def test_stats_accumulate(self):
        session = IncrementalSession(TC, chain(4))
        before = session.stats.facts
        session.insert([("e", (4, 5))])
        session.delete([("e", (4, 5))])
        assert session.stats.facts > before
        assert session.stats.incr_rounds > 0


class TestApplyBatch:
    """Atomic mixed batches: one maintenance pass, all-or-nothing."""

    def test_mixed_batch_matches_scratch(self):
        edb = chain(5)
        session = IncrementalSession(LAYERED, edb)
        session.apply_batch(
            inserts=[("e", (5, 6)), ("sel", (3,))],
            deletes=[("e", (0, 1))],
        )
        edb.add_facts("e", [(5, 6)])
        edb.add_fact("sel", (3,))
        edb.remove_fact("e", (0, 1))
        assert_matches_scratch(session, edb, LAYERED)

    def test_batch_equals_sequential_application(self):
        """One batched pass lands on the same state as per-call passes
        (deletes first, then inserts — the documented order)."""
        batched = IncrementalSession(LAYERED, chain(6))
        stepped = IncrementalSession(LAYERED, chain(6))
        inserts = [("e", (6, 7)), ("sel", (2,))]
        deletes = [("e", (1, 2))]
        batched.apply_batch(inserts=inserts, deletes=deletes)
        stepped.delete(deletes)
        stepped.insert(inserts)
        assert batched.database == stepped.database
        assert batched.edb == stepped.edb

    def test_fact_in_both_sides_ends_present(self):
        """Delete-then-insert order means +x/-x overlap keeps x."""
        edb = chain(4)
        session = IncrementalSession(TC, edb)
        session.apply_batch(
            inserts=[("e", (0, 1))], deletes=[("e", (0, 1))]
        )
        assert_matches_scratch(session, edb)  # unchanged overall
        assert (1,) in session.query("t(0, Y)")

    def test_empty_batch_is_a_noop(self):
        session = IncrementalSession(TC, chain(3))
        before = session.database.total_facts()
        stats = session.apply_batch()
        assert session.database.total_facts() == before
        assert stats.facts == 0

    @pytest.mark.parametrize("provenance", [False, True])
    def test_rollback_restores_everything(self, provenance):
        """A batch that dies mid-flight (round-budget blowout in the
        insert phase, after the delete phase already mutated state)
        leaves database, EDB, statistics, and derivations exactly as
        they were."""
        from repro.engine.stats import MaintenanceError, NonTerminationError

        session = IncrementalSession(
            TC, chain(5), record_provenance=provenance, max_iterations=8
        )
        db_before = {
            sig: set(rel.tuples)
            for sig, rel in session.database.relations.items()
        }
        edb_before = {
            sig: set(rel.tuples)
            for sig, rel in session.edb.relations.items()
        }
        stats_before = (session.stats.facts, session.stats.inferences)
        derivs_before = (
            dict(session._derivations) if provenance else None
        )
        poison = [("e", (100 + i, 101 + i)) for i in range(20)]
        with pytest.raises(MaintenanceError) as exc_info:
            session.apply_batch(inserts=poison, deletes=[("e", (0, 1))])
        assert exc_info.value.phase == "insert"
        assert isinstance(exc_info.value.__cause__, NonTerminationError)
        assert {
            sig: set(rel.tuples)
            for sig, rel in session.database.relations.items()
        } == db_before
        assert {
            sig: set(rel.tuples)
            for sig, rel in session.edb.relations.items()
        } == edb_before
        assert (session.stats.facts, session.stats.inferences) == stats_before
        if provenance:
            assert dict(session._derivations) == derivs_before
        # The session still works: the delete alone goes through.
        session.delete([("e", (0, 1))])
        edb = chain(5)
        edb.remove_fact("e", (0, 1))
        assert_matches_scratch(session, edb)

    def test_malformed_batch_raises_without_wrapping(self):
        """Input errors are the caller's problem, not a maintenance
        failure — no rollback machinery, no MaintenanceError."""
        session = IncrementalSession(TC, chain(3))
        with pytest.raises(TypeError):
            session.apply_batch(inserts=[42])  # not a (predicate, args) pair
