"""Tests for the shared SCC scheduler: batching and parallelism.

Covers the satellite checklist for the unified evaluation core:
``strongly_connected_components`` on long chains (no recursion-limit
regressions), self-loop vs. singleton non-recursive components, a
property test that depth batches respect every dependency edge, and
the ``jobs`` knob's determinism on the process backend.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dependency import DependencyGraph, strongly_connected_components
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant
from repro.engine.config import EngineConfig
from repro.engine.database import Database, Relation, load_program_facts
from repro.engine.intern import TermDictionary
from repro.engine.naive import naive_eval, naive_fixpoint_reference
from repro.engine.scheduler import (
    ComponentRun,
    SCCScheduler,
    component_depths,
)
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats, NonTerminationError
from repro.workloads.graphs import chain_edb
from repro.workloads.synthetic import (
    random_edb,
    random_program,
    wide_dag_edb,
    wide_dag_program,
)


class TestTarjanScaling:
    def test_long_path_graph_no_recursion_limit(self):
        """10k-node path: the iterative Tarjan never hits sys limits."""
        n = 10_000
        edges = {i: [i + 1] for i in range(n - 1)}
        sccs = strongly_connected_components(range(n), edges)
        assert len(sccs) == n
        assert all(len(scc) == 1 for scc in sccs)

    def test_long_cycle_single_component(self):
        n = 5_000
        edges = {i: [(i + 1) % n] for i in range(n)}
        sccs = strongly_connected_components(range(n), edges)
        assert len(sccs) == 1 and len(sccs[0]) == n

    def test_long_predicate_chain_program(self):
        """A 300-stratum program evaluates without recursion errors."""
        depth = 300
        lines = ["p0(X) :- e(X)."]
        lines += [f"p{i}(X) :- p{i - 1}(X)." for i in range(1, depth)]
        program = parse_program("\n".join(lines))
        edb = Database()
        edb.add_fact("e", (1,))
        db, stats = seminaive_eval(program, edb)
        assert db.has_fact(f"p{depth - 1}", (1,))
        assert stats.scc_count == depth
        # a pure chain offers no parallelism anywhere
        assert stats.scc_parallel_batches == 0


class TestComponentShapes:
    def test_self_loop_is_recursive_component(self):
        program = parse_program("p(X) :- e(X).\np(X) :- p(X).")
        scheduler = SCCScheduler(program)
        (task,) = scheduler.tasks
        assert task.recursive
        assert task.sigs == frozenset({("p", 1)})

    def test_singleton_without_self_loop_is_single_pass(self):
        program = parse_program("p(X) :- e(X).")
        scheduler = SCCScheduler(program)
        (task,) = scheduler.tasks
        assert not task.recursive

    def test_self_loop_vs_singleton_iterations(self):
        """The self-loop iterates to fixpoint; the plain rule fires once."""
        edb = Database.from_dict({"e": [(1,), (2,)]})
        plain = parse_program("p(X) :- e(X).")
        loop = parse_program("p(X) :- e(X).\np(X) :- p(X).")
        plain_db, plain_stats = seminaive_eval(plain, edb)
        loop_db, loop_stats = seminaive_eval(loop, edb)
        assert plain_stats.iterations == 1
        assert loop_stats.iterations > 1
        assert plain_db == loop_db
        assert len(loop_db.facts("p")) == 2

    def test_mutual_recursion_one_component(self):
        program = parse_program(
            "even(Y) :- odd(X), succ(X, Y).\n"
            "odd(Y) :- even(X), succ(X, Y).\n"
            "even(X) :- zero(X).\n"
        )
        scheduler = SCCScheduler(program)
        sigs = {frozenset(task.sigs) for task in scheduler.tasks}
        assert frozenset({("even", 1), ("odd", 1)}) in sigs

    def test_edb_only_components_are_skipped(self):
        program = parse_program("p(X, Y) :- e(X, Y), f(Y).")
        scheduler = SCCScheduler(program)
        assert [task.sigs for task in scheduler.tasks] == [
            frozenset({("p", 2)})
        ]


class TestDepthBatches:
    @settings(max_examples=60, deadline=None)
    @given(program_seed=st.integers(0, 10_000), rules=st.integers(1, 4))
    def test_batches_respect_every_dependency_edge(self, program_seed, rules):
        """Every body -> head edge crosses non-decreasing depth, strictly
        increasing unless both ends share a component."""
        program = random_program(program_seed, rules=rules)
        graph = DependencyGraph(program)
        sccs = graph.sccs()
        depths = component_depths(sccs, graph.predecessors)
        scc_of = {sig: i for i, scc in enumerate(sccs) for sig in scc}
        for rule in program.proper_rules():
            head = rule.head.signature
            for lit in rule.body:
                body = lit.signature
                if scc_of[body] == scc_of[head]:
                    continue
                assert depths[scc_of[body]] < depths[scc_of[head]], (
                    f"edge {body} -> {head} does not climb depths"
                )

    @settings(max_examples=40, deadline=None)
    @given(program_seed=st.integers(0, 10_000))
    def test_batches_partition_tasks(self, program_seed):
        program = random_program(program_seed)
        scheduler = SCCScheduler(program)
        seen = []
        last_depth = -1
        for batch in scheduler.batches:
            assert batch, "no empty batches"
            depth = batch[0].depth
            assert depth > last_depth
            assert all(task.depth == depth for task in batch)
            seen.extend(batch)
            last_depth = depth
        assert sorted(id(t) for t in seen) == sorted(
            id(t) for t in scheduler.tasks
        )

    def test_wide_dag_components_share_one_batch(self):
        scheduler = SCCScheduler(wide_dag_program(4))
        widths = [len(batch) for batch in scheduler.batches]
        assert widths == [4, 1]  # four closures, then the collector


class TestParallelEvaluation:
    def test_jobs_counter_identical_on_wide_dag(self):
        program, edb = wide_dag_program(4), wide_dag_edb(4, 20)
        db1, s1 = seminaive_eval(program, edb, jobs=1)
        db2, s2 = seminaive_eval(program, edb, jobs=2, backend="process")
        db4, s4 = seminaive_eval(program, edb, jobs=4, backend="process")
        assert db1 == db2 == db4
        for stats in (s2, s4):
            assert (stats.facts, stats.inferences, stats.iterations) == (
                s1.facts,
                s1.inferences,
                s1.iterations,
            )
        assert s1.scc_count == 5
        assert s1.scc_parallel_batches == 1

    def test_jobs_counter_identical_naive(self):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        db1, s1 = naive_eval(program, edb, jobs=1)
        db2, s2 = naive_eval(program, edb, jobs=3, backend="process")
        assert db1 == db2
        assert (s1.facts, s1.inferences) == (s2.facts, s2.inferences)

    @settings(max_examples=25, deadline=None)
    @given(
        program_seed=st.integers(0, 10_000),
        edb_seed=st.integers(0, 2_000),
        n=st.integers(3, 8),
    )
    def test_jobs_matches_sequential_on_random_programs(
        self, program_seed, edb_seed, n
    ):
        program = random_program(program_seed)
        edb = random_edb(edb_seed, n=n)
        db1, s1 = seminaive_eval(program, edb, jobs=1)
        db2, s2 = seminaive_eval(program, edb, jobs=2)
        assert db1 == db2
        assert (s1.facts, s1.inferences, s1.iterations) == (
            s2.facts,
            s2.inferences,
            s2.iterations,
        )

    def test_parallel_budget_still_raises(self):
        from repro.engine.stats import NonTerminationError

        lines = []
        for i in range(3):
            lines.append(f"p{i}(s(X)) :- p{i}(X).")
        program = parse_program("\n".join(lines))
        edb = Database()
        for i in range(3):
            edb.add_fact(f"p{i}", (0,))
        with pytest.raises(NonTerminationError):
            seminaive_eval(program, edb, max_facts=30, jobs=2, backend="process")

    def test_iteration_budget_is_per_component(self):
        """max_iterations bounds one component's rounds: a program with
        several independent deep recursions must not exhaust the budget
        just by having more components."""
        from repro.engine.stats import NonTerminationError

        program, edb = wide_dag_program(3), wide_dag_edb(3, 30)
        # each closure needs ~31 rounds; the sum (~93) exceeds 40, but
        # no single component does
        for evaluator in (seminaive_eval, naive_eval):
            db, stats = evaluator(program, edb, max_iterations=40)
            assert stats.iterations > 40  # cumulative counter unchanged
            with pytest.raises(NonTerminationError):
                evaluator(program, edb, max_iterations=10)

    def test_parallel_batch_respects_collective_budget(self):
        """A batch whose components only jointly exceed max_facts must
        still raise — the barrier re-checks the absorbed totals."""
        from repro.engine.stats import NonTerminationError

        program, edb = wide_dag_program(2), wide_dag_edb(2, 6)
        _, stats = seminaive_eval(program, edb)
        budget = stats.facts - 1  # each component alone stays under
        with pytest.raises(NonTerminationError):
            seminaive_eval(program, edb, max_facts=budget, jobs=1)
        with pytest.raises(NonTerminationError):
            seminaive_eval(
                program, edb, max_facts=budget, jobs=2, backend="process"
            )


class TestJobsAloneIsSequential:
    """``jobs`` picks how many workers a pool gets; only
    ``backend="process"`` builds one.  On the default backend a wide
    batch runs its components one after another in this process."""

    @pytest.mark.parametrize("source", ["keyword", "environment"])
    def test_jobs_on_the_default_backend_builds_no_pool(self, monkeypatch, source):
        from repro.engine.backends import ProcessBackend

        def no_pool(backend, workers):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(ProcessBackend, "_ensure_pool", no_pool)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        ref_db, ref = seminaive_eval(program, edb, jobs=1)
        if source == "environment":
            monkeypatch.setenv("REPRO_JOBS", "2")
            knobs = {}
        else:
            knobs = {"jobs": 2}
        db, stats = seminaive_eval(program, edb, **knobs)
        assert db == ref_db
        assert (stats.facts, stats.inferences, stats.iterations) == (
            ref.facts, ref.inferences, ref.iterations,
        )
        assert stats.scc_parallel_batches == 1
        assert stats.backend_fallbacks == 0


class TestSchedulerStats:
    def test_scc_counters_surface_in_stats(self):
        program, edb = wide_dag_program(2), wide_dag_edb(2, 6)
        _, stats = seminaive_eval(program, edb)
        assert stats.scc_count == 3
        assert stats.scc_parallel_batches == 1
        merged = stats.merge(EvalStats(scc_count=1))
        assert merged.scc_count == 4

    def test_absorb_accumulates(self):
        a = EvalStats(facts=2, inferences=4, columnar_fallbacks=1)
        b = EvalStats(facts=3, inferences=4, columnar_fallbacks=2)
        a.absorb(b)
        assert a.facts == 5 and a.inferences == 8
        assert a.columnar_fallbacks == 3


SINGLE_PASS = parse_program(
    """
    hop(X, Z) :- e(X, Y), e(Y, Z).
    any :- hop(X, Y).
    """
)

# One SCC {live/1, on/0}: the nullary ``on`` gates the recursion.
GATED = parse_program(
    """
    live(X) :- seed(X).
    live(Y) :- live(X), e(X, Y), on.
    on :- live(X), trigger(X).
    """
)

TC = parse_program(
    """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, Z), t(Z, Y).
    """
)

#: shape -> (evaluator, program with a nullary head, a head of it that
#: the foreign-dictionary variant pre-seeds, plain program for budgets)
SHAPES = {
    "non-recursive": (seminaive_eval, SINGLE_PASS, ("hop", (7, 9)), SINGLE_PASS),
    "semi-naive": (seminaive_eval, GATED, ("live", (3,)), TC),
    "naive": (naive_eval, GATED, ("live", (3,)), TC),
}


def gated_edb(foreign_head=None) -> Database:
    """A chain with a seed and a trigger; optionally one head relation
    pre-seeded on a term dictionary that is not the database's."""
    edb = chain_edb(12)
    edb.add_fact("seed", (0,))
    edb.add_fact("trigger", (0,))
    if foreign_head is not None:
        name, args = foreign_head
        edb.ensure_dictionary()
        rel = Relation(name, len(args), TermDictionary())
        rel.add(tuple(Constant(a) for a in args))
        edb.relations[(name, len(args))] = rel
    return edb


class TestFixpointDriverBranches:
    """The branches the one fixpoint driver keeps, in both exec modes."""

    @pytest.mark.parametrize("head", ["nullary", "foreign"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_non_appendable_heads_agree_across_exec_modes(self, shape, head):
        evaluate, program, foreign_head, _ = SHAPES[shape]
        edb = gated_edb(foreign_head if head == "foreign" else None)
        ref_db, _ = naive_fixpoint_reference(program, edb)
        by_mode = {}
        for mode in ("tuple", "columnar"):
            db, stats = evaluate(program, edb, exec=mode)
            assert db == ref_db, f"{shape}/{head}: exec={mode} diverged"
            by_mode[mode] = (
                stats.facts, stats.inferences, stats.iterations, stats.probes
            )
        assert by_mode["columnar"] == by_mode["tuple"]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fact_budget_trips_identically_across_exec_modes(self, shape):
        evaluate, _, _, program = SHAPES[shape]
        payloads = {}
        for mode in ("tuple", "columnar"):
            with pytest.raises(NonTerminationError) as raised:
                evaluate(program, chain_edb(20), max_facts=7, exec=mode)
            payloads[mode] = (raised.value.facts, raised.value.iterations)
        assert payloads["columnar"] == payloads["tuple"]
        assert payloads["tuple"][0] > 7

    @pytest.mark.parametrize("budget", [{"max_facts": 40}, {"max_iterations": 4}])
    def test_a_fixpoint_ended_by_its_budget_releases_the_delta_rows(self, budget):
        """The row list ``append_rows`` keeps for the next round's scan
        is dropped however the fixpoint ends — a diverging counting ask
        ends this way every time."""
        program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
        config = EngineConfig.resolve(
            None, exec="columnar", jobs=1, partitions=1, **budget
        )
        db, stats = chain_edb(30).copy(), EvalStats()
        with pytest.raises(NonTerminationError):
            SCCScheduler(program, config).run(db, stats)
        assert stats.facts > 30  # rounds were absorbed before the trip
        assert [rel._last_rows for rel in db.relations.values()] == [None, None]

    def test_kernel_declines_are_counted(self):
        """A foreign-dictionary source makes the kernel decline the
        call; the tuple fallback derives the same facts and says so."""
        edb = gated_edb(("hop", (7, 9)))
        _, columnar = seminaive_eval(SINGLE_PASS, edb, exec="columnar")
        _, tuple_mode = seminaive_eval(SINGLE_PASS, edb, exec="tuple")
        assert columnar.columnar_fallbacks == 1  # any :- hop(X, Y).
        assert tuple_mode.columnar_fallbacks == 0


#: Strata above a random recursive component ``p``: a mutual recursion
#: (with a program fact), a non-recursive stratum, a nullary head, and
#: a component that reads unary relations only.
UPPER = parse_program(
    """
    a(X, Y) :- e0(X, Y).
    a(X, Y) :- b(X, Z), p(Z, Y).
    b(X, Y) :- a(X, Z), e1(Z, Y).
    a(0, 0).
    j(X, Y) :- a(X, Z), r0(Z), p(Z, Y).
    some :- j(X, X).
    idle(X) :- r1(X), r2(X).
    """
)

RESUME_KNOBS = [
    dict(exec=mode, partitions=partitions, planner=planner)
    for mode in ("columnar", "tuple")
    for partitions in (1, 2)
    for planner in ("greedy", "cost")
]


def stratified(program_seed):
    from repro.datalog.program import Program

    return Program(list(random_program(program_seed).rules) + list(UPPER.rules))


def reads(task):
    return {lit.signature for rule in task.rules for lit in rule.body}


def resume_reached(program, db, since, **knobs):
    """Resume, in topological order, every component a signature of
    ``since`` reaches (growing ``since`` by what each one derives);
    returns the stats and the rounds each component ran."""
    config = EngineConfig.resolve(None, **knobs)
    stats, rounds = EvalStats(), {}
    for task in SCCScheduler(program, config).tasks:
        rounds[task.sigs] = 0
        if not (task.sigs | reads(task)) & since.keys():
            continue
        before = {sig: len(db.relation(*sig)) for sig in task.sigs}
        run = ComponentRun(task, config)
        run.resume(db, stats, since)
        rounds[task.sigs] = run.rounds
        for sig, size in before.items():
            if len(db.relation(*sig)) > size:
                since.setdefault(sig, size)
    return stats, rounds


class TestResume:
    """``ComponentRun.resume`` is ``execute`` continued, not a second
    evaluator: same driver, other windows."""

    @settings(max_examples=25, deadline=None)
    @given(
        program_seed=st.integers(0, 10_000),
        edb_seed=st.integers(0, 10_000),
        n=st.integers(3, 7),
    )
    def test_resume_from_offset_zero_is_execute(self, program_seed, edb_seed, n):
        """With every relation's delta starting at log offset 0 a
        resumed run enumerates every instantiation (once per body
        occurrence, so only ``inferences`` may exceed ``execute``'s)."""
        program = stratified(program_seed)
        edb = random_edb(edb_seed, n=n)
        for knobs in RESUME_KNOBS:
            ref, ref_stats = seminaive_eval(program, edb, **knobs)
            db = edb.copy()
            loaded = load_program_facts(program, db)
            since = {sig: 0 for task in SCCScheduler(program).tasks
                     for sig in task.sigs | reads(task)}
            stats, rounds = resume_reached(program, db, since, **knobs)
            assert db == ref, f"diverged on {program_seed}/{edb_seed} {knobs}"
            assert loaded + stats.facts == ref_stats.facts
            assert stats.inferences >= ref_stats.inferences
            assert all(rounds.values())

    @settings(max_examples=25, deadline=None)
    @given(
        program_seed=st.integers(0, 10_000),
        edb_seed=st.integers(0, 10_000),
        split_seed=st.integers(0, 10_000),
        n=st.integers(3, 7),
    )
    def test_evaluate_then_resume_is_evaluate(
        self, program_seed, edb_seed, split_seed, n
    ):
        """Evaluate on EDB1, append EDB2 (binary relations only), resume
        what it reaches: the reference fixpoint of EDB1 ∪ EDB2, with
        ``facts`` the difference — and ``idle``, which reads only unary
        relations, runs no round."""
        import random

        program = stratified(program_seed)
        whole = random_edb(edb_seed, n=n)
        rng = random.Random(split_seed)
        first, later = Database(), []
        for (name, arity), rel in sorted(whole.relations.items()):
            for fact in sorted(rel.tuples, key=str):
                if arity == 2 and rng.random() < 0.4:
                    later.append((name, fact))
                else:
                    first.relation(name, arity).add(fact)
        ref, _ = naive_fixpoint_reference(program, whole)
        for knobs in RESUME_KNOBS:
            db, _ = seminaive_eval(program, first, **knobs)
            since = {}
            for name, fact in later:
                rel = db.relation(name, 2)
                size = len(rel)
                if rel.add(fact):
                    since.setdefault((name, 2), size)
            size = db.total_facts()
            stats, rounds = resume_reached(program, db, since, **knobs)
            assert db == ref, (
                f"diverged on {program_seed}/{edb_seed}/{split_seed} {knobs}"
            )
            assert stats.facts == ref.total_facts() - size
            assert rounds[frozenset({("idle", 1)})] == 0
            assert stats.iterations == sum(rounds.values())

    def test_session_resumes_only_what_a_change_reaches(self, monkeypatch):
        """Through ``IncrementalSession``: a component runs iff it reads
        a relation that grew; one no change reaches runs no round."""
        from repro.engine.incremental import IncrementalSession

        program = stratified(7)
        session = IncrementalSession(program, random_edb(3, n=5))
        tasks = SCCScheduler(program).tasks
        resumed = []
        resume = ComponentRun.resume

        def spy(run, db, stats, since):
            resumed.append(run.task.sigs)
            return resume(run, db, stats, since)

        monkeypatch.setattr(ComponentRun, "resume", spy)
        for batch in ([("r0", (1,)), ("r0", (2,))], [("e1", (4, 0))], [("r2", (9,))]):
            sizes = {sig: len(rel) for sig, rel in session.database.relations.items()}
            del resumed[:]
            stats = session.insert(batch)
            grew = {
                sig for sig, rel in session.database.relations.items()
                if len(rel) > sizes.get(sig, 0)
            }
            assert resumed == [t.sigs for t in tasks if reads(t) & grew]
            assert stats.incr_rounds >= len(resumed)
        assert resumed == [frozenset({("idle", 1)})]


#: Programs whose rounds are small and many — what the fixpoint loop's
#: fixed cost is paid on.  ``ground_*``/``bucket_first`` put a ground
#: literal, resp. a constant-only bucket step, *before* the delta
#: occurrence: each of their firings counts a probe even on an empty
#: delta, which an over-eager early return would drop.
ROUND_LOOP_PROGRAMS = {
    "tc": "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
    "tc3": (
        "t(X, Y) :- t(X, W), t(W, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n"
        "t(X, Y) :- t(X, W), e(W, Y).\nt(X, Y) :- e(X, Y)."
    ),
    "sg": "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
    "ground_true": "g(X, Y) :- e(X, Y).\ng(X, Y) :- on(1), g(X, W), e(W, Y).",
    "ground_false": "g(X, Y) :- e(X, Y).\ng(X, Y) :- on(3), g(X, W), e(W, Y).",
    "bucket_first": "b(X, Y) :- e(X, Y).\nb(X, Y) :- hub(7, H), b(X, W), e(W, Y).",
    # two mutually recursive unary heads, as factoring leaves them: one
    # of the two firings of a round always reads an empty delta
    "factored": "m(W) :- f(W).\nf(Y) :- m(X), e(X, Y).\nm(0).",
}

#: (facts, inferences, iterations, probes, plan_cache_hits,
#: plans_compiled) per program and ``+resumed``, recorded on the parent
#: commit at ``planner="greedy", jobs=1, partitions=1``.
ROUND_LOOP_PINNED = {
    "bucket_first": (1246, 3396, 31, 2614, 30, 2),
    "bucket_first+resumed": (860, 2344, 31, 1893, 29, 3),
    "factored": (90, 111, 51, 96, 100, 2),
    "factored+resumed": (52, 66, 47, 97, 44, 3),
    "ground_false": (70, 70, 2, 3, 1, 2),
    "ground_false+resumed": (24, 24, 2, 3, 0, 3),
    "ground_true": (1246, 1733, 31, 1308, 30, 2),
    "ground_true+resumed": (860, 1184, 31, 947, 29, 3),
    "sg": (235, 235, 7, 455, 6, 2),
    "sg+resumed": (194, 194, 7, 395, 5, 3),
    "tc": (1246, 2173, 31, 1277, 30, 2),
    "tc+resumed": (860, 1624, 30, 915, 28, 3),
    "tc3": (1246, 29468, 7, 4938, 24, 5),
    "tc3+resumed": (860, 25442, 6, 3511, 16, 7),
}


def round_loop_edb(seed=11, n=24):
    import random

    rng = random.Random(seed)
    edges = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)})
    edges += [(i, i + 1) for i in range(n, 2 * n)]  # and a tail of 1-fact rounds
    return Database.from_dict(
        {
            "e": edges + [(0, n)],
            "up": [(i, i // 2) for i in range(1, n)],
            "down": [(i // 2, i) for i in range(1, n)],
            "flat": [(0, 0), (1, 2)],
            "on": [(1,), (2,)],
            "hub": [(7, 0), (7, 1), (8, 2)],
        }
    )


class TestRoundLoopMovedNoDeterminateOutput:
    """What a round allocates and which passes a kernel call skips are
    mechanics; the fixpoint and its counters are not."""

    KNOBS = dict(planner="greedy", jobs=1, partitions=1)

    @staticmethod
    def counters(stats):
        return (
            stats.facts, stats.inferences, stats.iterations, stats.probes,
            stats.plan_cache_hits, stats.plans_compiled,
        )

    @pytest.mark.parametrize("name", sorted(ROUND_LOOP_PROGRAMS))
    def test_evaluation_counts_what_it_counted(self, name):
        program = parse_program(ROUND_LOOP_PROGRAMS[name])
        edb = round_loop_edb()
        ref, _ = naive_fixpoint_reference(program, edb)
        seen = {}
        for mode in ("tuple", "columnar"):
            db, stats = seminaive_eval(program, edb, exec=mode, **self.KNOBS)
            assert db == ref, f"{name}: exec={mode} diverged"
            assert stats.columnar_fallbacks == 0
            seen[mode] = self.counters(stats)
        assert seen["columnar"] == seen["tuple"] == ROUND_LOOP_PINNED[name]

    @pytest.mark.parametrize("name", sorted(ROUND_LOOP_PROGRAMS))
    def test_a_resumed_run_counts_what_it_counted(self, name):
        program = parse_program(ROUND_LOOP_PROGRAMS[name])
        whole = round_loop_edb()
        first, later = whole.copy(), {}
        for sig in sorted(program.edb_signatures & {("e", 2), ("flat", 2), ("up", 2)}):
            # every third fact of the binary relations arrives afterwards
            later[sig] = sorted(whole.relation(*sig).tuples, key=str)[::3]
            first.relation(*sig).remove_facts(later[sig])
        ref, _ = naive_fixpoint_reference(program, whole)
        seen = {}
        for mode in ("tuple", "columnar"):
            db, _ = seminaive_eval(program, first, exec=mode, **self.KNOBS)
            since = {sig: len(db.relation(*sig)) for sig in later}
            for sig, facts in later.items():
                for fact in facts:
                    db.relation(*sig).add(fact)
            stats, _ = resume_reached(program, db, since, exec=mode, **self.KNOBS)
            assert db == ref, f"{name}: resumed exec={mode} diverged"
            seen[mode] = self.counters(stats)
        assert seen["columnar"] == seen["tuple"] == ROUND_LOOP_PINNED[name + "+resumed"]
