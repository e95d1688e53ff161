"""Fuzzing the pipeline with randomly generated unit programs.

The strongest empirical statement of Theorem 4.1 in the suite: every
generated RLC/selection-pushing program must be certified, and its
magic / factored / simplified stages must agree with the naive oracle
on random databases.  The unconstrained generator exercises rejection:
whatever the classifier accepts must still be answer-correct; whatever
it rejects is never factored.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import optimize
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_program
from repro.engine.reference import naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import determinate
from repro.workloads.synthetic import (
    random_edb,
    random_program,
    random_rlc_program,
)

from tests.conftest import (
    answer_values,
    assert_derivations_sound,
    assert_storage_matches_rebuild,
    assert_trees_are_those_of,
    naive_schedule,
    oracle_answers,
    pin_storage,
    tuple_at_a_time,
)


@settings(max_examples=50, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 10_000),
    rules=st.integers(1, 4),
    n=st.integers(3, 8),
    source=st.integers(0, 7),
)
def test_generated_rlc_programs_factor_correctly(
    program_seed, edb_seed, rules, n, source
):
    program = random_rlc_program(program_seed, rules=rules)
    goal = parse_literal(f"p({source % n}, Y)")
    result = optimize(program, goal)
    assert result.report is not None, "classification must succeed"
    assert result.report.factorable, "grammar guarantees selection-pushing"
    edb = random_edb(edb_seed, n=n)
    expected = oracle_answers(program, goal, edb)
    for stage in ("magic", "factored", "simplified"):
        answers, _ = result.evaluate_stage(stage, edb)
        assert answers == expected, f"{stage} diverged on seed {program_seed}"


@settings(max_examples=50, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
    source=st.integers(0, 7),
)
def test_unconstrained_programs_never_lose_answers(
    program_seed, edb_seed, n, source
):
    """Whatever the pipeline decides, the answers must be the oracle's."""
    program = random_program(program_seed)
    goal = parse_literal(f"p({source % n}, Y)")
    result = optimize(program, goal)
    edb = random_edb(edb_seed, n=n)
    expected = oracle_answers(program, goal, edb)
    answers, _ = result.answers(edb)
    assert answers == expected


@settings(max_examples=60, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
)
def test_all_backends_match_interpreter_seminaive(program_seed, edb_seed, n):
    """Four-way differential test for the compiled-plan executor.

    The slot-based plans at default knobs and the parallel SCC
    scheduler on each execution backend (``jobs=2`` with the ``serial``
    and ``process`` executors — the latter shipping picklable component
    specs to worker processes that recompile plans locally) must derive
    the fixpoint of the reference evaluator
    (``naive_fixpoint_reference``, plain sets), with the
    facts/inferences/iterations counters of the serial tuple-at-a-time
    run (``tuple_at_a_time``), on randomized programs and databases.
    """
    program = random_program(program_seed)
    edb = random_edb(edb_seed, n=n)
    db_interp, _ = naive_fixpoint_reference(program, edb)
    db_tuple, stats_interp = tuple_at_a_time(program, edb)
    assert db_tuple == db_interp, (
        f"tuple-at-a-time run diverged on seed {program_seed}"
    )
    db_plan, stats_plan = seminaive_eval(program, edb)
    plan_runs = [stats_plan]
    assert db_plan == db_interp, f"plans diverged on seed {program_seed}"
    for backend in ("serial", "process"):
        db_jobs, stats_jobs = seminaive_eval(
            program, edb, jobs=2, backend=backend
        )
        assert db_jobs == db_interp, (
            f"jobs=2 backend={backend} diverged on seed {program_seed}"
        )
        plan_runs.append(stats_jobs)
    for stats_plan in plan_runs:
        assert determinate(stats_plan, "evaluate") == determinate(stats_interp, "evaluate")
        assert stats_plan.plans_compiled > 0
        assert stats_plan.scc_count == stats_interp.scc_count


@settings(max_examples=25, deadline=None)
@given(
    p_seed=st.integers(0, 10_000),
    q_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
)
def test_multi_component_programs_agree_across_executors(
    p_seed, q_seed, edb_seed, n
):
    """Parallel batches genuinely execute on every backend.

    A single random unit program is one SCC, so its depth batches hold
    one component each and the parallel executors never engage.  Gluing
    two independently generated programs over disjoint recursive
    predicates (shared EDB) puts two recursive components in the same
    depth batch — the shape where ``process`` actually ships
    component specs to worker processes —
    and all executors must still derive the scheduler-free reference
    fixpoint and match the sequential tuple-at-a-time run bit-for-bit
    on facts/inferences/iterations.
    """
    from repro.datalog.program import Program

    program = Program(
        list(random_program(p_seed, predicate="p").rules)
        + list(random_program(q_seed, predicate="q").rules)
    )
    edb = random_edb(edb_seed, n=n)
    db_ref, _ = naive_fixpoint_reference(program, edb)
    _, stats_ref = tuple_at_a_time(program, edb)
    for backend in ("serial", "process"):
        db, stats = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert db == db_ref, f"{backend} diverged on seeds {p_seed}/{q_seed}"
        assert determinate(stats, "evaluate") == determinate(stats_ref, "evaluate")
        # Both recursive components sit in one depth batch, so the
        # parallel path (not the single-component fast path) ran.
        assert stats.scc_parallel_batches >= 1


@settings(max_examples=30, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
)
def test_columnar_matches_tuple_across_backends(program_seed, edb_seed, n):
    """The columnar kernel against the tuple-at-a-time executor.

    ``seminaive_eval`` batches interned rows through the column kernel
    wherever a plan is eligible; ``tuple_at_a_time`` runs every plan
    through the tuple executor.  For every backend × jobs combination
    the two must produce the reference database **and the same
    counters** — facts, inferences, iterations, and ``probes``, the
    finest-grained one (the kernel counts a probe per batched row
    exactly where the executor counts one per tuple).  Counter parity
    is what keeps the two paths differential-testable forever: any
    divergence is a bug.
    """
    program = random_program(program_seed)
    edb = random_edb(edb_seed, n=n)
    db_ref, _ = naive_fixpoint_reference(program, edb)
    db_tuple, stats_tuple = tuple_at_a_time(program, edb)
    for kwargs in (
        {},
        {"jobs": 2, "backend": "serial"},
        {"jobs": 2, "backend": "process"},
    ):
        # the oracle never partitions, and partitions move probes
        db_col, stats_col = seminaive_eval(program, edb, partitions=1, **kwargs)
        assert db_col == db_tuple == db_ref, (
            f"columnar fixpoint diverged on seed {program_seed} with {kwargs}"
        )
        where = f"seed {program_seed} with {kwargs}"
        assert determinate(stats_col, "evaluate") == determinate(stats_tuple, "evaluate"), where
        assert stats_col.probes == stats_tuple.probes, where


@settings(max_examples=12, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
)
def test_partitioned_execution_matches_unpartitioned(program_seed, edb_seed, n):
    """Hash-partitioned delta execution against the unpartitioned oracle.

    ``partitions=N`` splits each round's delta by the plan's first join
    key and runs the same compiled plan per disjoint partition, so the
    emission multiset — and with it ``determinate(stats, "evaluate")`` —
    must be bit-identical to ``partitions=1`` for
    every partition count, in the parent (``jobs=1``) and inside pool
    workers (``jobs=2, backend="process"``: every depth batch of more
    than one component ships, and its workers partition in turn).
    ``probes`` is deliberately *not* compared: shared non-delta steps
    resolve once per partition instead of once per call (the same
    caveat as DRed maintenance order under the columnar kernel).
    """
    program = random_program(program_seed)
    edb = random_edb(edb_seed, n=n)
    db_ref, stats_ref = seminaive_eval(program, edb, partitions=1)
    assert stats_ref.partition_rounds == 0
    for knobs in (dict(jobs=1, backend="serial"), dict(jobs=2, backend="process")):
        for parts in (1, 2, 4):
            db, stats = seminaive_eval(program, edb, partitions=parts, **knobs)
            assert db == db_ref, (
                f"partitions={parts} {knobs} diverged on seed {program_seed}"
            )
            assert determinate(stats, "evaluate") == determinate(stats_ref, "evaluate"), (
                f"counters diverged on seed {program_seed} with partitions={parts} {knobs}"
            )
            if parts == 1:
                assert stats.partition_rounds == 0
            assert stats.backend_fallbacks == 0


@settings(max_examples=30, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
)
def test_all_backends_match_interpreter_naive(program_seed, edb_seed, n):
    """Same differential property for the naive evaluator."""
    program = random_program(program_seed)
    edb = random_edb(edb_seed, n=n)
    db_interp, _ = naive_fixpoint_reference(program, edb)
    db_plan, stats_interp = naive_schedule(program, edb)
    assert db_plan == db_interp, f"naive fixpoint diverged on seed {program_seed}"
    db_jobs, stats_jobs = naive_schedule(program, edb, jobs=2)
    assert db_jobs == db_interp, f"jobs=2 fixpoint diverged on seed {program_seed}"
    assert determinate(stats_jobs, "evaluate") == determinate(stats_interp, "evaluate")


@settings(max_examples=25, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 2_000),
    n=st.integers(3, 8),
)
def test_provenance_records_one_sound_tree_per_derived_fact(program_seed, edb_seed, n):
    """Every derived fact has a tree, and each of its nodes is an
    instance of its rule over the least model."""
    from repro.engine.provenance import derivation_tree

    program = random_program(program_seed)
    edb = random_edb(edb_seed, n=n)
    model, _ = seminaive_eval(program, edb)
    assert model == naive_fixpoint_reference(program, edb)[0]
    derived = [
        Literal(name, fact)
        for (name, arity), rel in model.relations.items()
        for fact in rel.tuples
        if not edb.has_fact(name, fact)
    ]
    for fact in derived:
        tree = derivation_tree(program, model, edb, fact)
        assert tree.fact == fact
        assert_derivations_sound(program, model, edb, tree)


def test_compiled_plans_match_interpreter_compound_terms():
    """Plans must agree with the interpreter on compound (list) terms.

    The recursion *deconstructs* lists (so both fixpoints are finite),
    and the rules exercise each compound-term compilation path: a
    compound pattern in the body (``suffix([H | T], L)`` with ``H``,
    ``T`` free), an all-bound probe key built from a template
    (``suffix([H | T], L)`` after ``H``/``T``/``L`` are bound), and a
    compound head template (``singleton([X])``).
    """
    program = parse_program(
        """
        suffix(L, L) :- list(L).
        suffix(T, L) :- suffix([H | T], L).
        member(H, L) :- suffix([H | T], L).
        singleton([X]) :- elem(X).
        rejoin(H, T, L) :- member(H, L), suffix(T, L), suffix([H | T], L).
        """
    )
    from repro.engine.database import Database
    from repro.datalog.parser import parse_term

    edb = Database()
    for lst in ("[]", "[a]", "[a, b]", "[b, a, c]"):
        edb.add_fact("list", (parse_term(lst),))
    for atom in ("a", "b", "c"):
        edb.add_fact("elem", (parse_term(atom),))

    db_interp, _ = naive_fixpoint_reference(program, edb, max_iterations=30)
    _, stats_interp = tuple_at_a_time(program, edb, max_iterations=30)
    for evaluator in (seminaive_eval, naive_schedule):
        db_plan, stats_plan = evaluator(program, edb, max_iterations=30)
        assert db_plan == db_interp
        if evaluator is seminaive_eval:
            assert determinate(stats_plan, "evaluate") == determinate(stats_interp, "evaluate")
        else:  # naive rounds rederive what they know: only the facts agree
            assert stats_plan.facts == stats_interp.facts
        assert db_plan.get("member", 2) is not None
        assert len(db_plan.get("member", 2)) > 0


@settings(max_examples=40, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
    source=st.integers(0, 7),
)
def test_evaluators_match_scheduler_free_reference(
    program_seed, edb_seed, n, source
):
    """Oracle independence: two evaluation stacks that share nothing.

    Every scheduled evaluator — the semi-naive one and the naive mode
    the chase runs — goes through the same ``SCCScheduler``, so a
    stratification or batching bug would hit oracle and testee alike.
    ``naive_fixpoint_reference`` shares none of that machinery (no
    dependency graph, no components, no compiled plans, no engine
    storage: whole-program rounds over plain sets), and the tabled
    top-down engine shares no bottom-up code at all.  All three must
    agree on randomized programs and databases.
    """
    from repro.engine.topdown import topdown_eval

    program = random_program(program_seed)
    edb = random_edb(edb_seed, n=n)
    ref_db, ref_stats = naive_fixpoint_reference(program, edb)
    for label, evaluate in (("naive", naive_schedule), ("seminaive", seminaive_eval)):
        db, _ = evaluate(program, edb)
        assert db == ref_db, (
            f"{label} diverged from the scheduler-free reference "
            f"on seed {program_seed}"
        )
    goal = parse_literal(f"p({source % n}, Y)")
    top_down = topdown_eval(program, edb, goal)
    assert top_down.answers == ref_db.query(goal), (
        f"top-down diverged on seed {program_seed}"
    )
    assert ref_stats.plans_compiled == 0
    assert ref_stats.scc_count == 0


@settings(max_examples=20, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 2_000),
    script_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
)
def test_incremental_scripts_match_scratch(program_seed, edb_seed, script_seed, n):
    """Randomized insert/delete scripts against incremental maintenance.

    One random program, one random EDB, one random script of EDB
    inserts and deletes.  Sessions under default knobs and under the
    parallel scheduler absorb the script; each must end bit-identical
    to the scheduler-free reference fixpoint of the final EDB, and
    ``explain`` must answer the trees a from-scratch ``explain`` over
    that EDB returns.  (The process backend and
    ``jobs`` matrix is exercised deterministically in
    ``tests/test_incremental.py``.)
    After every batch each session's storage — and a view pinned before
    the batch — must equal a rebuild from its logs
    (``assert_storage_matches_rebuild``).
    """
    import random

    from repro.engine.incremental import IncrementalSession

    program = random_program(program_seed)
    edb = random_edb(edb_seed, n=n)
    sessions = [
        IncrementalSession(program, edb),
        IncrementalSession(program, edb, jobs=2, backend="process"),
    ]
    rng = random.Random(script_seed)
    for _ in range(10):
        if rng.random() < 0.55:
            if rng.random() < 0.8:
                update = (f"e{rng.randrange(3)}", (rng.randrange(n), rng.randrange(n)))
            else:
                update = (f"r{rng.randrange(3)}", (rng.randrange(n),))
            edb.add_fact(*update)
            apply = "insert"
        else:
            stored = sorted(
                (sig[0], tuple(t.value for t in fact))
                for sig, rel in edb.relations.items()
                for fact in rel.tuples
            )
            if not stored:
                continue
            update = stored[rng.randrange(len(stored))]
            edb.remove_fact(*update)
            apply = "delete"
        for session in sessions:
            pinned = pin_storage(session.database)
            getattr(session, apply)([update])
            assert_storage_matches_rebuild(session.database, pinned)
            assert_storage_matches_rebuild(session.edb)
    ref, _ = naive_fixpoint_reference(program, edb)
    labels = ("default", "jobs2")
    for label, session in zip(labels, sessions):
        assert session.database == ref, (
            f"incremental {label} diverged on seeds "
            f"{program_seed}/{edb_seed}/{script_seed}"
        )
    assert_trees_are_those_of(sessions[0], edb, limit=8)


@settings(max_examples=20, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 2_000),
    n=st.integers(3, 8),
    source=st.integers(0, 7),
    bind_second=st.booleans(),
    stored=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=3),
)
def test_compiled_query_matches_filtered_materialization(
    program_seed, edb_seed, n, source, bind_second, stored
):
    """The goal-directed serving path against the materialize oracle.

    Whatever strategy :class:`~repro.engine.query.QueryCompiler` picks
    for a random program and goal — factored, counting (with its
    divergence fallback to magic), or plain magic — the answers must
    equal filtering a full ``seminaive_eval`` fixpoint with the goal,
    on every backend (the process one with two delta partitions), also
    when the EDB stores facts on the derived ``p`` itself (``stored``
    rows; the compiler bridges them).  The compiler is built once per
    backend and asked twice (second constant shifted), so the cached
    compiled form is also exercised.
    """
    from repro.engine.query import QueryCompiler

    program = random_program(program_seed)
    constant = source % n
    goal_text = f"p(X, {constant})" if bind_second else f"p({constant}, Y)"
    goal = parse_literal(goal_text)
    edb = random_edb(edb_seed, n=n)
    if stored:
        edb.add_facts("p", {(a % n, b % n) for a, b in stored})
    full, _ = seminaive_eval(program, edb)
    expected = answer_values(full.query(goal))
    shifted = parse_literal(
        f"p(X, {(constant + 1) % n})"
        if bind_second
        else f"p({(constant + 1) % n}, Y)"
    )
    expected_shifted = answer_values(full.query(shifted))
    for knobs in (
        {"jobs": 2, "backend": "serial"},
        {"jobs": 2, "backend": "process", "partitions": 2},
    ):
        compiler = QueryCompiler(program, **knobs)
        answer = compiler.ask(goal, edb)
        assert answer.answers == expected, (
            f"compiled query diverged on seed {program_seed} "
            f"({knobs}, strategy {answer.strategy})"
        )
        again = compiler.ask(shifted, edb)
        assert again.answers == expected_shifted, (
            f"cached form diverged on seed {program_seed} ({knobs})"
        )
        assert again.from_cache


@settings(max_examples=15, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 2_000),
    script_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
)
def test_compiled_query_tracks_churn(program_seed, edb_seed, script_seed, n):
    """Goal-directed answers stay fresh under maintenance batches.

    A random insert/delete script drives ``apply_batch`` on an
    incremental session; after every batch, one
    :class:`~repro.engine.query.QueryCompiler` over the program, asked
    against the session's EDB (bypassing the materialization and
    re-deriving from the base facts), must agree with the maintained
    database's own answer — i.e. a compiled form cached across EDB
    changes never serves stale answers.
    """
    import random

    from repro.engine.incremental import IncrementalSession
    from repro.engine.query import QueryCompiler

    program = random_program(program_seed)
    edb = random_edb(edb_seed, n=n)
    session = IncrementalSession(program, edb)
    compiler = QueryCompiler(program)
    rng = random.Random(script_seed)
    goal = parse_literal(f"p({rng.randrange(n)}, Y)")
    assert compiler.ask(goal, session.edb).answers == session.query(goal)
    for _ in range(6):
        if rng.random() < 0.6:
            update = (f"e{rng.randrange(3)}", (rng.randrange(n), rng.randrange(n)))
            session.apply_batch(inserts=[update])
        else:
            stored = sorted(
                (sig[0], tuple(t.value for t in fact))
                for sig, rel in session.edb.relations.items()
                for fact in rel.tuples
            )
            if not stored:
                continue
            session.apply_batch(deletes=[stored[rng.randrange(len(stored))]])
        assert compiler.ask(goal, session.edb).answers == session.query(goal), (
            f"stale compiled query after churn on seeds "
            f"{program_seed}/{edb_seed}/{script_seed}"
        )


@settings(max_examples=30, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 2_000),
    n=st.integers(3, 8),
)
def test_instance_mode_certification_is_sound(program_seed, edb_seed, n):
    """Instance-level certification on the query's own EDB must yield
    factored programs that are correct on that EDB (the run-time check
    of Example 4.3's discussion)."""
    program = random_program(program_seed)
    goal = parse_literal("p(1, Y)")
    edb = random_edb(edb_seed, n=n)
    result = optimize(program, goal, edb=edb)
    expected = oracle_answers(program, goal, edb)
    answers, _ = result.answers(edb)
    assert answers == expected


@settings(max_examples=25, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 2_000),
    batch_seed=st.integers(0, 10_000),
    nth=st.integers(1, 3),
    n=st.integers(3, 8),
)
def test_injected_faults_never_leave_intermediate_state(
    program_seed, edb_seed, batch_seed, nth, n
):
    """The differential fault property (the PR's robustness fuzz).

    One random program, one random EDB, one random mixed batch, and a
    fault injected at a random component boundary.  Whatever happens —
    the fault fires mid-batch or the batch finishes before boundary
    ``nth`` — the session must sit on exactly one of two states: the
    from-scratch fixpoint of the *pre-batch* EDB (fault fired, batch
    rolled back) or of the *post-batch* EDB (batch committed).  Never
    anything in between, and a faultless retry always reaches the
    post-batch oracle.  Committed or rolled back, the session's storage
    and a view pinned before the batch equal a rebuild from their logs.
    """
    import random

    from repro.engine import faults
    from repro.engine.incremental import IncrementalSession
    from repro.engine.stats import MaintenanceError

    program = random_program(program_seed)
    pre_edb = random_edb(edb_seed, n=n)
    session = IncrementalSession(program, pre_edb)

    rng = random.Random(batch_seed)
    inserts = [
        (f"e{rng.randrange(3)}", (rng.randrange(n), rng.randrange(n)))
        for _ in range(rng.randrange(1, 4))
    ]
    stored = sorted(
        (sig[0], tuple(t.value for t in fact))
        for sig, rel in pre_edb.relations.items()
        for fact in rel.tuples
    )
    deletes = [stored[rng.randrange(len(stored))]] if stored else []

    post_edb = random_edb(edb_seed, n=n)
    for pred, args in deletes:
        post_edb.remove_fact(pred, args)
    for pred, args in inserts:
        post_edb.add_fact(pred, args)

    pre_oracle, _ = seminaive_eval(program, pre_edb)
    post_oracle, _ = seminaive_eval(program, post_edb)

    try:
        faults.install(
            faults.parse_faults(f"component:raise:{nth}")
        )
        pinned = pin_storage(session.database)
        try:
            session.apply_batch(inserts=inserts, deletes=deletes or None)
        except MaintenanceError:
            # Fault fired mid-batch: rolled back to the pre-batch oracle.
            assert session.database == pre_oracle, (
                f"intermediate state survived a fault on seeds "
                f"{program_seed}/{edb_seed}/{batch_seed} nth={nth}"
            )
        else:
            # The batch finished before boundary ``nth`` was reached.
            assert session.database == post_oracle
        assert_storage_matches_rebuild(session.database, pinned)
        assert_storage_matches_rebuild(session.edb)
        faults.install(None)
        # A faultless retry always lands on the post-batch oracle
        # (re-applying a committed batch is idempotent).
        pinned = pin_storage(session.database)
        session.apply_batch(inserts=inserts, deletes=deletes or None)
        assert_storage_matches_rebuild(session.database, pinned)
        assert session.database == post_oracle, (
            f"retry diverged on seeds "
            f"{program_seed}/{edb_seed}/{batch_seed} nth={nth}"
        )
        assert_trees_are_those_of(session, post_edb, limit=8)
    finally:
        faults.clear()


@settings(max_examples=10, deadline=None)
@given(
    program_seed=st.integers(0, 10_000),
    edb_seed=st.integers(0, 2_000),
    script_seed=st.integers(0, 10_000),
    n=st.integers(3, 8),
)
def test_served_churn_matches_bare_session(
    program_seed, edb_seed, script_seed, n
):
    """Concurrent-churn differential for the serving layer.

    The same randomized insert/delete script runs through a
    :class:`~repro.engine.server.DatalogServer` front — with reader
    threads hammering pinned views the whole time — and through a bare
    :class:`IncrementalSession`, across serial/process backends.  The
    served sessions must end
    bit-identical to the bare ones (the reader traffic is pure
    observation), and every published view must equal the final
    from-scratch oracle once the script drains.
    """
    import random
    import threading

    from repro.engine.incremental import IncrementalSession
    from repro.engine.server import DatalogServer

    program = random_program(program_seed)
    edb = random_edb(edb_seed, n=n)
    configs = [dict(), dict(jobs=2, backend="process")]
    servers = [
        DatalogServer(IncrementalSession(program, edb, **cfg))
        for cfg in configs
    ]
    bare = [IncrementalSession(program, edb, **cfg) for cfg in configs]

    done = threading.Event()
    errors = []

    def reader():
        try:
            while not done.is_set():
                for server in servers:
                    server.view().query("p(X, Y)")
        except Exception as exc:  # pragma: no cover - fails the test
            errors.append(exc)

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        rng = random.Random(script_seed)
        for _ in range(10):
            if rng.random() < 0.55:
                if rng.random() < 0.8:
                    update = (
                        f"e{rng.randrange(3)}",
                        (rng.randrange(n), rng.randrange(n)),
                    )
                else:
                    update = (f"r{rng.randrange(3)}", (rng.randrange(n),))
                edb.add_fact(*update)
                for server in servers:
                    server.insert([update])
                for session in bare:
                    session.insert([update])
            else:
                stored = sorted(
                    (sig[0], tuple(t.value for t in fact))
                    for sig, rel in edb.relations.items()
                    for fact in rel.tuples
                )
                if not stored:
                    continue
                update = stored[rng.randrange(len(stored))]
                edb.remove_fact(*update)
                for server in servers:
                    server.delete([update])
                for session in bare:
                    session.delete([update])
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not errors, errors
    for thread in threads:
        assert not thread.is_alive(), "reader thread hung"

    ref, _ = seminaive_eval(program, edb)
    labels = ("serial", "process")
    for label, server, session in zip(labels, servers, bare):
        assert server.session.database == session.database, (
            f"served {label} diverged from bare on seeds "
            f"{program_seed}/{edb_seed}/{script_seed}"
        )
        assert server.session.database == ref, (
            f"served {label} diverged from scratch on seeds "
            f"{program_seed}/{edb_seed}/{script_seed}"
        )
        assert server.view().database == ref, (
            f"published view {label} diverged on seeds "
            f"{program_seed}/{edb_seed}/{script_seed}"
        )
