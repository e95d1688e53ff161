"""Incremental view maintenance: the churn path.

Every test holds the one invariant that matters: after any script of
inserts and deletes, the incrementally maintained database must be
*bit-identical* to a from-scratch ``seminaive_eval`` on the final EDB
(and ``explain`` must answer the trees a from-scratch
``provenance_eval`` of that EDB records).  The least model is unique,
so this is both necessary and sufficient.
"""

import random

import pytest

from repro.datalog.parser import parse_program
from repro.engine.database import Database, Relation
from repro.engine.incremental import IncrementalSession
from repro.engine.provenance import provenance_eval
from repro.engine.reference import naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval
from repro.session import DeductiveDatabase
from repro.workloads.synthetic import churn_edb, churn_program, churn_script
from tests.conftest import assert_trees_are_those_of

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
    def test_mixed_script_matches_scratch(self):
        edb = churn_edb(24, width=2)
        session = IncrementalSession(LAYERED, edb)
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
        assert_trees_are_those_of(session, edb, limit=40)

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
            {},
            {"jobs": 2, "partitions": 2, "backend": "serial"},
            {"jobs": 2, "partitions": 2, "backend": "process"},
            {"jobs": 2, "backend": "serial"},
            {"jobs": 2, "backend": "process"},
            {"partitions": 2, "backend": "serial"},
            {"partitions": 2, "backend": "process"},
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
    """``explain`` is computed from the current EDB on demand, so after
    churn it answers that EDB's canonical trees (after a rollback:
    ``TestApplyBatch``; after recovery: ``tests/test_journal.py``)."""

    def test_derivations_match_scratch_after_churn(self):
        edb = chain(5)
        session = IncrementalSession(LAYERED, edb)
        edb.add_fact("sel", (3,))
        session.insert([("sel", (3,))])
        edb.add_fact("e", (0, 3))
        session.insert([("e", (0, 3))])
        edb.remove_fact("e", (1, 2))
        session.delete([("e", (1, 2))])
        assert session.database == provenance_eval(LAYERED, edb).database
        assert_trees_are_those_of(session, edb)

    def test_explain_after_maintenance(self):
        edb = chain(4)
        session = IncrementalSession(TC, edb)
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
        session = IncrementalSession(TC, edb)
        assert session.explain("t(0, 2)").height() > 1
        session.insert([("t", (0, 2))])
        edb.add_fact("t", (0, 2))
        assert session.database == provenance_eval(TC, edb).database
        assert_trees_are_those_of(session, edb)
        assert session.explain("t(0, 2)").height() == 1


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

    def test_rollback_restores_everything(self):
        """A batch that dies mid-flight (round-budget blowout in the
        insert phase, after the delete phase already mutated state)
        leaves database, EDB, statistics, and explained trees exactly
        as they were."""
        from repro.engine.stats import MaintenanceError, NonTerminationError

        session = IncrementalSession(TC, chain(5), max_iterations=8)
        db_before = {
            sig: set(rel.tuples)
            for sig, rel in session.database.relations.items()
        }
        edb_before = {
            sig: set(rel.tuples)
            for sig, rel in session.edb.relations.items()
        }
        stats_before = (session.stats.facts, session.stats.inferences)
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
        assert_trees_are_those_of(session, chain(5))
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


class TestFactBudget:
    """``max_facts`` binds maintenance as it binds the evaluator: what
    counts is every fact the database holds beyond its EDB."""

    def test_insert_past_the_cap_rolls_back(self):
        from repro.engine.stats import MaintenanceError, NonTerminationError

        edb = chain(1)
        session = IncrementalSession(TC, edb, max_facts=20)
        grown = [("e", (i, i + 1)) for i in range(1, 30)]
        with pytest.raises(NonTerminationError):
            seminaive_eval(TC, chain(30), max_facts=20)  # 465 facts
        facts_before = session.stats.facts
        with pytest.raises(MaintenanceError) as exc_info:
            session.insert(grown)
        assert exc_info.value.phase == "insert"
        assert isinstance(exc_info.value.__cause__, NonTerminationError)
        assert_matches_scratch(session, edb)
        assert session.edb == edb
        assert session.stats.facts == facts_before
        # The session still answers, and takes a batch that fits: five
        # edges close to 15 facts, a sixth would make it 21.
        assert session.query("t(0, Y)") == {(1,)}
        session.insert(grown[:4])
        edb.add_facts("e", [args for _, args in grown[:4]])
        assert_matches_scratch(session, edb)
        with pytest.raises(MaintenanceError):
            session.insert(grown[4:5])
        assert_matches_scratch(session, edb)

    def test_delete_whose_restorations_fit_succeeds(self):
        """36 facts under a cap of 40: the delete over-deletes 14 and
        restores 12 — counting restorations on top of the pre-batch 36
        would refuse a batch that ends on 34."""
        edb = chain(8)
        edb.add_fact("e", (5, 7))
        session = IncrementalSession(TC, edb, max_facts=40)
        stats = session.delete([("e", (6, 7))])
        edb.remove_fact("e", (6, 7))
        assert (stats.facts, stats.rederived) == (12, 12)
        assert session.database == seminaive_eval(TC, edb, max_facts=40)[0]
        # ... as does one that recomputes the component from its base.
        doomed = [("e", (i, i + 1)) for i in range(1, 8)]
        session.delete(doomed)
        for _, args in doomed:
            edb.remove_fact("e", args)
        assert_matches_scratch(session, edb)

    def test_cap_binds_a_non_recursive_stratum(self):
        from repro.engine.stats import MaintenanceError, NonTerminationError

        edb = chain(4)  # 10 t facts; r and s start empty
        session = IncrementalSession(LAYERED, edb, max_facts=12)
        wide = [("sel", (i,)) for i in range(1, 5)]  # 10 r facts
        with pytest.raises(MaintenanceError) as exc_info:
            session.insert(wide)
        assert isinstance(exc_info.value.__cause__, NonTerminationError)
        assert_matches_scratch(session, edb, LAYERED)
        session.insert(wide[:1])  # r(0, 1) and s(0): 12 facts
        edb.add_fact("sel", (1,))
        assert session.database == seminaive_eval(LAYERED, edb, max_facts=12)[0]


SG = parse_program(
    """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, Z), sg(Z, W), down(W, Y).
    """
)


def shortcut_chain(sel=()):
    db = chain(8)
    db.add_facts("e", [(0, 4), (2, 6)])
    db.add_facts("sel", [(v,) for v in sel])
    return db


def tree(flat):
    """A binary tree of depth 3 as up(child, parent)/down(parent, child)."""
    db = Database()
    for child in range(1, 15):
        db.add_fact("up", (child, (child - 1) // 2))
        db.add_fact("down", ((child - 1) // 2, child))
    db.add_facts("flat", flat)
    return db


def blocks(sel=()):
    db = churn_edb(24, width=3)
    db.add_facts("sel", [(v,) for v in sel])
    return db


def pairs(pred, *rows):
    return [(pred, row) for row in rows]


#: name -> (program, EDB and insert-only script, EDB and delete script,
#: per insert pass (facts, inferences, incr_rounds) and its
#: partition_rounds under partitions=2, per delete pass (facts,
#: rederived)) — the counters a maintenance pass *determines*, recorded
#: on the commit before maintenance moved onto the evaluator's driver.
PINNED = {
    "tc": (
        TC,
        shortcut_chain,
        [
            pairs("e", (8, 9), (9, 10)),
            pairs("e", (1, 5)),
            pairs("e", (10, 0)),
            pairs("e", (20, 21), (21, 22), (22, 20)),
            pairs("e", (0, 1)),
        ],
        blocks,
        [
            pairs("e", (1, 2)),
            pairs("e", (3, 5), (9, 10)),
            pairs("e", (17, 18), (18, 19)),
            pairs("e", *[(i, i + 1) for i in range(10, 15)], (8, 9)),
        ],
        [(21, 23, 8), (1, 6, 1), (67, 95, 9), (12, 12, 4), (0, 0, 0)],
        [8, 0, 8, 4, 0],
        [(6, 6), (15, 15), (1, 1), (1, 1)],
    ),
    "sg": (
        SG,
        lambda: tree([(0, 0)]),
        [
            pairs("up", (15, 7), (16, 7)) + pairs("down", (7, 15), (7, 16)),
            pairs("flat", (1, 2)),
            pairs("up", (17, 8)) + pairs("down", (8, 17)),
            pairs("flat", (3, 6), (6, 3)),
        ],
        lambda: tree([(0, 0), (1, 1), (1, 2), (2, 2), (3, 4), (4, 3)]),
        [
            pairs("flat", (1, 2)),
            pairs("up", (3, 1)) + pairs("flat", (3, 4)),
            pairs("flat", (0, 0)),
        ],
        [(8, 8, 2), (1, 1, 1), (7, 6, 2), (2, 2, 1)],
        [2, 0, 1, 1],
        [(21, 21), (0, 0), (32, 32)],
    ),
    "layered": (
        LAYERED,
        lambda: shortcut_chain(sel=(3, 6)),
        [
            pairs("e", (8, 9)) + pairs("sel", (9,)),
            pairs("sel", (4,), (5,)),
            pairs("e", (9, 0)),
        ],
        lambda: blocks(sel=(3, 6, 12)),
        [
            pairs("sel", (3,)),
            pairs("e", (2, 3), (9, 10)),
            pairs("e", (4, 5)) + pairs("sel", (12,)),
        ],
        [(23, 38, 9), (11, 18, 2), (80, 123, 10)],
        [5, 2, 9],
        [(3, 3), (8, 8), (7, 5)],
    ),
}


class TestDeterminateCounters:
    """What a pass determines did not move with the driver: fact sets
    are checked everywhere; here the counters are, as literals."""

    @pytest.mark.parametrize("partitions", [1, 2])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_per_pass_counters_are_pinned(self, name, partitions):
        program, ins_edb, inserts, del_edb, deletes, on_insert, split, on_delete = (
            PINNED[name]
        )
        knobs = dict(partitions=partitions)
        session = IncrementalSession(program, ins_edb(), **knobs)
        passes = [session.insert(batch) for batch in inserts]
        assert [
            (s.facts, s.inferences, s.incr_rounds) for s in passes
        ] == on_insert
        assert [s.partition_rounds for s in passes] == (
            split if partitions == 2 else [0] * len(split)
        )
        assert all(s.iterations == 0 for s in passes)
        session = IncrementalSession(program, del_edb(), **knobs)
        passes = [session.delete(batch) for batch in deletes]
        assert [(s.facts, s.rederived) for s in passes] == on_delete

    def test_component_boundaries_keep_their_order(self, monkeypatch):
        """One mixed batch crosses nine component boundaries — three
        over-deleting (before the prune), three re-deriving, three
        propagating inserts — and a ``component:raise:N`` plan fires at
        the N-th of them, in the phase it always did."""
        from repro.engine import faults
        from repro.engine.stats import MaintenanceError

        batch = dict(
            inserts=pairs("e", (7, 8)) + pairs("sel", (9,), (4,)),
            deletes=pairs("e", (2, 3)) + pairs("sel", (6,)),
        )
        session = IncrementalSession(LAYERED, blocks(sel=(3, 6, 12)))
        sizes = []
        fire = faults.fire

        def spy(site, *args):
            if site == "component":
                sizes.append(session.database.total_facts())
            return fire(site, *args)

        monkeypatch.setattr(faults, "fire", spy)
        session.apply_batch(**batch)
        monkeypatch.undo()
        assert sizes == [137, 137, 137, 105, 101, 101, 108, 148, 160]
        phases = []
        try:
            for nth in range(1, len(sizes) + 2):
                session = IncrementalSession(LAYERED, blocks(sel=(3, 6, 12)))
                faults.install(faults.parse_faults(f"component:raise:{nth}"))
                try:
                    session.apply_batch(**batch)
                    phases.append(None)
                except MaintenanceError as exc:
                    phases.append(exc.phase)
        finally:
            faults.clear()
        assert phases == ["delete"] * 6 + ["insert"] * 3 + [None]
