"""Semi-naive bottom-up evaluation with SCC stratification.

This is the evaluator the paper's cost claims refer to ("the semi-naive
bottom-up evaluation of the new program", Section 1).  The program's
predicate dependency graph is split into strongly connected components;
components are evaluated in topological depth order, and recursive
components iterate with delta relations so each rule instantiation uses
at least one fact that is new in the current round.

For a rule with recursive body occurrences at positions ``i1 < ... < im``
and iteration ``t``, the standard duplicate-free decomposition is used:
one delta rule per occurrence ``ij``, reading

* the *full* relation (through ``t-1``) at positions before ``ij``,
* the *delta* (new at ``t-1``) at ``ij``,
* the *old* relation (through ``t-2``) at positions after ``ij``.

The traversal, batching, and per-component fixpoints all live in the
shared :class:`~repro.engine.scheduler.SCCScheduler`; this module is
the thin frontend that selects ``mode="seminaive"``.  Rule bodies run
as compiled slot-based :class:`~repro.engine.plan.RulePlan`\\ s; the
dict-based interpreter in :mod:`repro.engine.joins` survives only as
the plan-free oracle behind
:func:`~repro.engine.naive.naive_fixpoint_reference`.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.datalog.program import Program
from repro.engine.database import Database, load_program_facts
from repro.engine.scheduler import SCCScheduler
from repro.engine.stats import EvalStats


def seminaive_eval(
    program: Program,
    edb: Database,
    max_iterations: Optional[int] = None,
    max_facts: Optional[int] = None,
    planner: Optional[str] = None,
    jobs: Optional[int] = None,
    backend=None,
    max_seconds: Optional[float] = None,
    exec: Optional[str] = None,
    partitions: Optional[int] = None,
) -> Tuple[Database, EvalStats]:
    """Evaluate ``program`` over ``edb`` to fixpoint, semi-naively.

    Returns ``(database, stats)``.  The guards raise
    :class:`~repro.engine.stats.NonTerminationError` for diverging
    programs (used by the Counting experiments in Section 6.4):
    ``max_iterations`` caps the fixpoint rounds of any single SCC and
    ``max_facts`` caps total derived facts.

    ``planner`` selects the join-order strategy for compiled plans:
    ``"greedy"`` (the deterministic syntactic heuristic) or ``"cost"``
    (statistics-driven ordering with drift-triggered re-planning
    between delta rounds).  ``None`` reads the ``REPRO_PLANNER``
    environment variable, defaulting to greedy.

    ``jobs`` sets how many mutually independent SCCs (same topological
    depth batch) evaluate concurrently; ``None`` reads ``REPRO_JOBS``,
    defaulting to 1.  ``backend`` selects the executor those batches
    run on — ``"serial"``, ``"thread"`` (the default), or
    ``"process"`` (:class:`~repro.engine.backends.ProcessBackend`,
    real multi-core parallelism; components ship as declarative specs
    and workers recompile plans locally); ``None`` reads
    ``REPRO_BACKEND``.  ``max_seconds`` arms a per-component
    wall-clock watchdog (``None`` reads ``REPRO_TIMEOUT``): a
    component fixpoint that outlives its budget raises
    :class:`~repro.engine.stats.ComponentTimeout` at the next round
    boundary.  Every combination of execution backend,
    planner, and job count derives the identical fixpoint with
    identical ``facts``/``inferences``/``iterations`` counters; only
    join order, probe counts, and wall time differ.

    ``exec`` selects the execution mode for compiled plans:
    ``"columnar"`` (the default) runs rule bodies batch-at-a-time over
    interned id columns (:mod:`repro.engine.columnar`), ``"tuple"``
    forces the tuple-at-a-time executor everywhere; ``None`` reads
    ``REPRO_EXEC``.  The two modes are counter-identical — the tuple
    path is kept as the differential-fuzz oracle.

    ``partitions`` enables round-level data parallelism *inside* one
    recursive component's fixpoint: each round's delta rows are
    hash-partitioned by the plan's first probe key (whole-row hash when
    no key exists) and the same compiled plan runs on the disjoint
    partitions concurrently, merging at the round barrier
    (:mod:`repro.engine.partition`).  ``None`` reads
    ``REPRO_PARTITIONS``, defaulting to 1 — today's unpartitioned
    path.  Any value keeps ``facts``/``inferences``/``iterations``
    bit-identical to ``partitions=1``; probe counts may differ because
    per-partition index builds probe independently.
    """
    db = edb.copy()
    stats = EvalStats()
    start = time.perf_counter()
    stats.facts += load_program_facts(program, db)

    scheduler = SCCScheduler(
        program,
        mode="seminaive",
        planner=planner,
        jobs=jobs,
        backend=backend,
        max_iterations=max_iterations,
        max_facts=max_facts,
        max_seconds=max_seconds,
        exec=exec,
        partitions=partitions,
    )
    scheduler.run(db, stats)

    stats.seconds = time.perf_counter() - start
    return db, stats
