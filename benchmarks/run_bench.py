"""Perf-trajectory entry point: engine wall-time on the headline workloads.

Runs the semi-naive engine on transitive closure (chain),
same-generation (tree), the wide-DAG multi-component closure, and the
coarse-grained component workload, then writes ``BENCH_engine.json``:
one row per (workload, configuration) with
``label``/``n``/``facts``/``inferences``/``seconds`` plus per-workload
wall-time speedups, so successive PRs leave a comparable perf record.
The ``greedy`` row is the default configuration at ``jobs=1``; the
label names the join order, which is the only one the engine has.

Workloads whose depth batches hold several mutually independent SCCs
(wide-DAG, coarse components) additionally run pinned to ``jobs=1``
(the ``jobs1`` row) and — along with tc_chain, as the single-SCC
control — on the process execution backend at two and four workers
(``proc2``/``proc4`` rows, ``procN_vs_jobs1`` speedups), checking
that every execution backend stays counter-identical and
recording where process parallelism actually wins (the coarse
workload: few heavy components, nothing serial downstream).  Note the
proc speedups are hardware-bound: a single-core container time-slices
the workers and reports ~1x regardless of the backend's scaling.

``tc_chain``, ``same_generation``, and ``wide_dag`` also carry
**intra-component partitioning** rows (``part2``/``part4``): the
default configuration at ``jobs=1`` with each semi-naive round's delta
hash-split into 2/4 partitions run in order inside the component
fixpoint (``partN_vs_jobs1`` ratios: the cost of the split, since the
partitions share one thread).  Every labelled row pins ``partitions``
explicitly.

The churn workload measures **incremental view maintenance**
(`repro/engine/incremental.py`) against the from-scratch alternative:
one `IncrementalSession` absorbs a deterministic insert/delete script
while the baseline re-runs ``seminaive_eval`` per update
(``churn/incremental`` vs ``churn/recompute`` rows and the
``churn/incremental_vs_recompute`` speedup); the two final databases
must be identical.  ``churn/batch`` vs ``churn/per_call`` measures
atomic batching — one ``apply_batch`` maintenance pass per chunk of
the script against the same chunk as individual calls — and
``churn/batch_journal`` adds an fsync'd write-ahead journal to the
batched run, isolating the durability overhead of ``serve --journal``
(``churn/batch_vs_per_call`` and ``churn/journal_overhead`` speedups).

Input sizes scale with ``REPRO_BENCH_SCALE`` (the acceptance runs use
2; CI smoke uses 0.25).  Exits non-zero if any backends disagree on
``facts``/``inferences`` — the counters are the correctness signature,
so a bench run doubles as a coarse differential check.

Usage::

    PYTHONPATH=src REPRO_BENCH_SCALE=2 python benchmarks/run_bench.py \
        [--output BENCH_engine.json] [--best-of 3]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.bench.harness import Measurement, Series, bench_scale
from repro.datalog.parser import parse_program
from repro.engine.incremental import IncrementalSession
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats
from repro.workloads.examples import same_generation_edb, same_generation_program
from repro.workloads.graphs import chain_edb
from repro.workloads.synthetic import (
    churn_edb,
    churn_program,
    churn_script,
    coarse_components_edb,
    coarse_components_program,
    wide_dag_edb,
    wide_dag_program,
)

#: (row label, seminaive_eval kwargs); "greedy" keeps the historical
#: label of the default configuration, so trajectory comparisons stay
#: meaningful.  Every row pins ``jobs`` (and, where >1, ``backend``)
#: plus ``partitions`` explicitly so an inherited ``REPRO_JOBS``/
#: ``REPRO_BACKEND``/``REPRO_PARTITIONS`` cannot silently change which
#: executor or partitioning a labelled row measures.
BACKENDS = (("greedy", {"jobs": 1, "partitions": 1}),)

#: The parallel rows' baseline: the default configuration pinned to one
#: worker.
JOBS_BACKENDS = (("jobs1", {"jobs": 1, "partitions": 1}),)

#: Process-executor rows: the same configuration shipped to a
#: ``ProcessPoolExecutor`` at two and four workers.
PROC_BACKENDS = (
    ("proc2", {"jobs": 2, "backend": "process", "partitions": 1}),
    ("proc4", {"jobs": 4, "backend": "process", "partitions": 1}),
)

#: Intra-component partitioning rows: the default configuration with
#: each round's delta hash-split into two / four partitions *inside*
#: one SCC fixpoint, run in order on the calling thread (``jobs`` stays
#: 1).  ``partN_vs_jobs1`` is what the split costs.
PART_BACKENDS = (
    ("part2", {"jobs": 1, "partitions": 2}),
    ("part4", {"jobs": 1, "partitions": 4}),
)


def scaled(n: int, minimum: int = 2) -> int:
    return max(minimum, int(n * bench_scale()))


def _sg_depth() -> int:
    """Tree depth for same-generation: 5 at scale 1, +1 per doubling."""
    scale = bench_scale()
    depth = 5
    while scale >= 2:
        depth, scale = depth + 1, scale / 2
    while scale <= 0.5 and depth > 3:
        depth, scale = depth - 1, scale * 2
    return depth


WorkloadEntry = Tuple[
    str, int, Callable[[], Tuple[object, object]], Tuple[Tuple[str, dict], ...]
]


def workloads() -> List[WorkloadEntry]:
    """(name, n, edb/program thunk, row configurations) per workload."""
    tc_program = parse_program(
        """
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, W), t(W, Y).
        """
    )
    tc_n = scaled(120)
    depth = _sg_depth()
    sg_n = 2 ** (depth + 1) - 1  # nodes in the balanced binary tree
    dag_width, dag_length = 4, scaled(60, minimum=8)
    # Coarse grain: as many components as wide_dag but *nonlinear*
    # closures (Θ(n³) inferences for Θ(n²) shipped facts) and no serial
    # collector downstream, so per-component compute dwarfs the
    # spec/delta serialization the process backend pays.  tc_chain is
    # the single-SCC control for the proc rows: its batches all hold
    # one component, so the scheduler takes the inline fast path and
    # never consults the executor (no pool is ever created) — the rows
    # must read ≈1x, demonstrating that selecting backend=process is
    # free when a program has nothing to parallelize.
    coarse_width, coarse_length = 4, scaled(75, minimum=12)
    return [
        (
            "tc_chain",
            tc_n,
            lambda: (tc_program, chain_edb(tc_n)),
            BACKENDS + PROC_BACKENDS + PART_BACKENDS,
        ),
        (
            "same_generation",
            sg_n,
            lambda: (same_generation_program(), same_generation_edb(depth, 2)),
            BACKENDS + PART_BACKENDS,
        ),
        (
            "wide_dag",
            dag_width * dag_length,
            lambda: (
                wide_dag_program(dag_width),
                wide_dag_edb(dag_width, dag_length),
            ),
            BACKENDS + JOBS_BACKENDS + PROC_BACKENDS + PART_BACKENDS,
        ),
        (
            "coarse_components",
            coarse_width * coarse_length,
            lambda: (
                coarse_components_program(coarse_width),
                coarse_components_edb(coarse_width, coarse_length),
            ),
            JOBS_BACKENDS + PROC_BACKENDS,
        ),
    ]


def run_churn(
    best_of: int, series: Series
) -> Tuple[List[Dict[str, object]], Dict[str, float], bool]:
    """Incremental maintenance vs recompute on the churn workload.

    One :class:`IncrementalSession` absorbs a deterministic script of
    inserts/deletes against a large transitive closure; the recompute
    baseline re-runs ``seminaive_eval`` from scratch on the evolving
    EDB after every update.  Rows record the total *maintenance* time
    across the script (the identical initial materialization is
    excluded from both sides); the run fails if the two final
    databases disagree — maintenance correctness is the row's
    precondition, not an afterthought.
    """
    n = scaled(150, minimum=20)
    update_count = scaled(40, minimum=8)
    program = churn_program()
    script = churn_script(seed=11, updates=update_count, n=n)

    best_incr = None
    for _ in range(best_of):
        session = IncrementalSession(program, churn_edb(n), partitions=1)
        maintenance = EvalStats()
        for op, pred, args in script:
            maintenance.absorb(
                session.insert([(pred, args)])
                if op == "+"
                else session.delete([(pred, args)])
            )
        if best_incr is None or maintenance.seconds < best_incr:
            best_incr = maintenance.seconds
            best_incr_stats = maintenance
            incr_db = session.database

    best_rec = None
    for _ in range(best_of):
        edb = churn_edb(n)
        seconds = 0.0
        for op, pred, args in script:
            if op == "+":
                edb.add_fact(pred, args)
            else:
                edb.remove_fact(pred, args)
            rec_db, stats = seminaive_eval(program, edb, partitions=1)
            seconds += stats.seconds
        if best_rec is None or seconds < best_rec:
            best_rec = seconds

    ok = incr_db == rec_db
    if not ok:
        print(
            "FAIL churn: incremental database diverged from the "
            "from-scratch recompute",
            file=sys.stderr,
        )
    facts = incr_db.total_facts()
    rows = [
        {
            "label": "churn/incremental",
            "n": n,
            "facts": facts,
            "inferences": best_incr_stats.inferences,
            "seconds": round(best_incr, 6),
        },
        {
            "label": "churn/recompute",
            "n": n,
            "facts": facts,
            "inferences": None,
            "seconds": round(best_rec, 6),
        },
    ]
    speedup = best_rec / best_incr if best_incr else float("inf")
    series.note(
        f"churn: incremental {speedup:.2f}x vs per-update recompute over "
        f"{len(script)} updates ({best_incr_stats.rederived} rederived, "
        f"{best_incr_stats.incr_rounds} delta rounds)"
    )
    return rows, {"churn/incremental_vs_recompute": speedup}, ok


def run_batch_churn(
    best_of: int, series: Series
) -> Tuple[List[Dict[str, object]], Dict[str, float], bool]:
    """Batched maintenance vs per-call passes, and journal overhead.

    The same churn script is applied in chunks: ``churn/batch`` sends
    each chunk through one :meth:`IncrementalSession.apply_batch` (one
    combined delete+insert maintenance pass), ``churn/per_call`` plays
    the chunk's operations as individual ``insert``/``delete`` calls.
    Chunks are compressed to the last operation per fact first, so both
    sides provably land on the same final EDB — and the run fails if
    the final databases (or a from-scratch evaluation) disagree.

    ``churn/batch_journal`` repeats the batched run with every chunk
    write-ahead-logged to an fsync'd :class:`Journal` first — the
    durability overhead of ``serve --journal``, isolated from the
    maintenance work itself.
    """
    import tempfile

    from repro.engine.journal import Journal

    n = scaled(150, minimum=20)
    update_count = scaled(40, minimum=8)
    chunk_size = 8
    program = churn_program()
    script = churn_script(seed=17, updates=update_count, n=n)
    chunks = [
        script[i : i + chunk_size] for i in range(0, len(script), chunk_size)
    ]

    def compress(chunk):
        """Keep only the last operation per fact; split into batch halves."""
        last = {}
        for op, pred, args in chunk:
            last[(pred, args)] = op
        inserts = [key for key, op in last.items() if op == "+"]
        deletes = [key for key, op in last.items() if op == "-"]
        return inserts, deletes

    batches = [compress(chunk) for chunk in chunks]

    def run_batched(journal=None):
        session = IncrementalSession(program, churn_edb(n), partitions=1)
        maintenance = EvalStats()
        for inserts, deletes in batches:
            if journal is not None:
                journal.append_batch(inserts, deletes)
            maintenance.absorb(
                session.apply_batch(
                    inserts=inserts or None, deletes=deletes or None
                )
            )
        return session, maintenance

    best_batch = None
    for _ in range(best_of):
        session, maintenance = run_batched()
        if best_batch is None or maintenance.seconds < best_batch:
            best_batch = maintenance.seconds
            batch_stats, batch_db = maintenance, session.database

    best_call = None
    for _ in range(best_of):
        session = IncrementalSession(program, churn_edb(n), partitions=1)
        maintenance = EvalStats()
        for chunk in chunks:
            for op, pred, args in chunk:
                maintenance.absorb(
                    session.insert([(pred, args)])
                    if op == "+"
                    else session.delete([(pred, args)])
                )
        if best_call is None or maintenance.seconds < best_call:
            best_call = maintenance.seconds
            call_db = session.database

    best_journal = None
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(best_of):
            import time as _time

            path = os.path.join(tmp, f"bench-{i}.rjn")
            journal = Journal(path, fsync=True)
            begin = _time.perf_counter()
            session, _ = run_batched(journal)
            elapsed = _time.perf_counter() - begin
            journal.close()
            if best_journal is None or elapsed < best_journal:
                best_journal = elapsed

    edb = churn_edb(n)
    for op, pred, args in script:
        if op == "+":
            edb.add_fact(pred, args)
        else:
            edb.remove_fact(pred, args)
    scratch, _ = seminaive_eval(program, edb, partitions=1)
    ok = batch_db == call_db == scratch
    if not ok:
        print(
            "FAIL churn/batch: batched, per-call, and from-scratch "
            "databases disagree",
            file=sys.stderr,
        )
    facts = batch_db.total_facts()
    rows = [
        {
            "label": "churn/batch",
            "n": n,
            "facts": facts,
            "inferences": batch_stats.inferences,
            "seconds": round(best_batch, 6),
        },
        {
            "label": "churn/per_call",
            "n": n,
            "facts": facts,
            "inferences": None,
            "seconds": round(best_call, 6),
        },
        {
            "label": "churn/batch_journal",
            "n": n,
            "facts": facts,
            "inferences": None,
            "seconds": round(best_journal, 6),
        },
    ]
    speedups = {
        "churn/batch_vs_per_call": (
            best_call / best_batch if best_batch else float("inf")
        ),
        # >= 1.0; how much the fsync'd write-ahead log costs on top of
        # the batched maintenance itself.
        "churn/journal_overhead": (
            best_journal / best_batch if best_batch else float("inf")
        ),
    }
    series.note(
        f"churn/batch: {speedups['churn/batch_vs_per_call']:.2f}x vs "
        f"per-call over {len(batches)} chunks of <= {chunk_size}; "
        f"fsync'd journal costs "
        f"{speedups['churn/journal_overhead']:.2f}x of the batched run"
    )
    return rows, speedups, ok


def run_serve(
    best_of: int, series: Series
) -> Tuple[List[Dict[str, object]], Dict[str, float], bool]:
    """Sustained query throughput under churn (the serving layer).

    A :class:`~repro.engine.server.DatalogServer` absorbs a looping
    churn script (each full cycle applies the script and then its exact
    inverse, so the EDB returns to its base state) while reader threads
    hammer point queries against the pinned read views.
    ``serve/qps_churn_rN`` records queries/sec sustained with N ∈ {1, 4}
    readers racing the writer; ``serve/qps_r4_vs_r1`` is the
    concurrency ratio (≈ N× would mean reads scale freely; on one CPU
    the GIL time-slices and the ratio mostly shows reads not blocking
    behind the writer).  The run fails if the final database diverges
    from a from-scratch evaluation of the base EDB — every cycle is
    net-zero, so divergence means a batch tore.
    """
    import threading
    import time as _time

    from repro.engine.server import DatalogServer

    n = scaled(80, minimum=20)
    update_count = scaled(24, minimum=8)
    duration = 0.4  # seconds of sustained churn per measured run
    chunk_size = 4
    program = churn_program()
    script = churn_script(seed=23, updates=update_count, n=n)
    chunks = [
        script[i : i + chunk_size] for i in range(0, len(script), chunk_size)
    ]

    # Compress each chunk to its *net* effect against a shadow of the
    # evolving EDB, then append the inverses in reverse order: one full
    # cycle provably restores the base state, so the writer can loop
    # for the whole measurement window without consistency drift.
    base = churn_edb(n)
    shadow = {
        (sig[0], tuple(t.value for t in fact))
        for sig, rel in base.relations.items()
        for fact in rel.tuples
    }
    forward = []
    for chunk in chunks:
        last = {}
        for op, pred, args in chunk:
            last[(pred, args)] = op
        inserts = [k for k, op in last.items() if op == "+" and k not in shadow]
        deletes = [k for k, op in last.items() if op == "-" and k in shadow]
        shadow |= set(inserts)
        shadow -= set(deletes)
        forward.append((inserts, deletes))
    cycle = forward + [(dels, ins) for ins, dels in reversed(forward)]

    rows: List[Dict[str, object]] = []
    qps_by_readers: Dict[int, float] = {}
    ok = True
    for readers in (1, 4):
        best_qps = None
        for _ in range(best_of):
            session = IncrementalSession(program, churn_edb(n), partitions=1)
            server = DatalogServer(session)
            done = threading.Event()
            counts = [0] * readers
            errors: List[BaseException] = []

            def reader(slot):
                try:
                    i = slot
                    while not done.is_set():
                        server.query(f"t({i % n}, Y)")
                        counts[slot] += 1
                        i += readers
                except BaseException as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(slot,), daemon=True)
                for slot in range(readers)
            ]
            for thread in threads:
                thread.start()
            begin = _time.perf_counter()
            while True:
                for inserts, deletes in cycle:
                    if inserts or deletes:
                        server.apply_batch(
                            inserts=inserts or None, deletes=deletes or None
                        )
                if _time.perf_counter() - begin >= duration:
                    break
            elapsed = _time.perf_counter() - begin
            done.set()
            for thread in threads:
                thread.join(timeout=30)
            if errors or any(t.is_alive() for t in threads):
                print(
                    f"FAIL serve: reader thread failed under churn "
                    f"({errors!r})",
                    file=sys.stderr,
                )
                ok = False
                break
            scratch, _ = seminaive_eval(program, churn_edb(n), partitions=1)
            if server.session.database != scratch:
                print(
                    "FAIL serve: net-zero churn cycles diverged from the "
                    "base-state oracle",
                    file=sys.stderr,
                )
                ok = False
                break
            qps = sum(counts) / elapsed if elapsed else 0.0
            if best_qps is None or qps > best_qps:
                best_qps = qps
                best_run = (sum(counts), elapsed, server.stats)
        if best_qps is None:
            break
        queries, elapsed, stats = best_run
        qps_by_readers[readers] = best_qps
        rows.append(
            {
                "label": f"serve/qps_churn_r{readers}",
                "n": n,
                "facts": queries,
                "inferences": None,
                "seconds": round(elapsed, 6),
                "qps": round(best_qps, 1),
            }
        )
        series.add(
            Measurement(
                label=f"serve/qps_churn_r{readers}",
                n=n,
                facts=queries,
                inferences=0,
                iterations=stats.batches_committed,
                seconds=elapsed,
            )
        )
    speedups: Dict[str, float] = {}
    if 1 in qps_by_readers and 4 in qps_by_readers:
        speedups["serve/qps_r4_vs_r1"] = (
            qps_by_readers[4] / qps_by_readers[1]
            if qps_by_readers[1]
            else float("inf")
        )
        series.note(
            f"serve: {qps_by_readers[1]:.0f} q/s with 1 reader, "
            f"{qps_by_readers[4]:.0f} q/s with 4 "
            f"({speedups['serve/qps_r4_vs_r1']:.2f}x) under sustained "
            f"churn"
        )
    return rows, speedups, ok


def run_query(
    best_of: int, series: Series
) -> Tuple[List[Dict[str, object]], Dict[str, float], bool]:
    """Goal-directed serving vs materialize-then-filter (PR 7).

    ``query/tc_point_*``: one selective bound-first point query
    ``t(src, Y)`` near the tail of a long chain.  The serving path
    (:class:`~repro.engine.query.QueryCompiler` — adorn, Magic Sets,
    factoring where certified, compiled plans) touches only the cone
    the binding reaches; the baseline pays the full Θ(n²) closure and
    filters.  Both sides answer from cold; the goal row then re-asks
    with a shifted constant (``tc_point_warm``) to record what the
    compiled-form cache buys.

    ``query/pmem_*``: the Example 1.2 membership workload.  ``pmem``'s
    full IDB is infinite (every list containing a satisfying element),
    so a materialize-then-filter baseline cannot terminate; the honest
    baseline is the goal-directed *magic* rewrite without factoring —
    the paper's own O(n²)-vs-O(n) comparison — evaluated from scratch.

    Answers must agree between every pair of configurations; the run
    fails otherwise.
    """
    from repro.core.pipeline import optimize
    from repro.engine.query import QueryCompiler
    from repro.workloads.graphs import chain_edb as _chain_edb
    from repro.workloads.lists import pmem_edb, pmem_program, pmem_query

    tc_program = parse_program(
        """
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, W), t(W, Y).
        """
    )
    tc_n = scaled(120)
    source = tc_n - 10  # selective: the goal cone is ~10 nodes of n
    edb = _chain_edb(tc_n)
    goal = f"t({source}, Y)"

    best_goal = None
    best_warm = None
    for _ in range(best_of):
        compiler = QueryCompiler(tc_program, jobs=1, partitions=1)
        answer = compiler.ask(goal, edb)
        if best_goal is None or answer.stats.seconds < best_goal:
            best_goal, goal_answer = answer.stats.seconds, answer
        warm = compiler.ask(f"t({source - 1}, Y)", edb)
        assert warm.from_cache
        if best_warm is None or warm.stats.seconds < best_warm:
            best_warm = warm.stats.seconds

    best_mat = None
    for _ in range(best_of):
        full, stats = seminaive_eval(tc_program, edb, jobs=1, partitions=1)
        if best_mat is None or stats.seconds < best_mat:
            best_mat, mat_db = stats.seconds, full
    from repro.datalog.parser import parse_query as _parse_query

    ok = goal_answer.answers == mat_db.query(_parse_query(goal))
    if not ok:
        print(
            "FAIL query/tc_point: goal-directed answers diverged from "
            "the materialized closure",
            file=sys.stderr,
        )

    pmem_n = scaled(60, minimum=10)
    p_program = pmem_program()
    p_edb = pmem_edb(pmem_n)
    p_goal = pmem_query(pmem_n)

    best_pmem = None
    for _ in range(best_of):
        compiler = QueryCompiler(p_program, jobs=1, partitions=1)
        answer = compiler.ask(p_goal, p_edb)
        if best_pmem is None or answer.stats.seconds < best_pmem:
            best_pmem, pmem_answer = answer.stats.seconds, answer

    best_magic = None
    for _ in range(best_of):
        plan = optimize(p_program, p_goal)
        magic_answers, stats = plan.evaluate_stage(
            "magic", p_edb, jobs=1, partitions=1
        )
        if best_magic is None or stats.seconds < best_magic:
            best_magic = stats.seconds
    if pmem_answer.answers != magic_answers:
        print(
            "FAIL query/pmem: factored serving answers diverged from "
            "the magic rewrite",
            file=sys.stderr,
        )
        ok = False

    rows = [
        {
            "label": "query/tc_point_goal",
            "n": tc_n,
            "facts": goal_answer.stats.facts,
            "inferences": goal_answer.stats.inferences,
            "seconds": round(best_goal, 6),
        },
        {
            "label": "query/tc_point_warm",
            "n": tc_n,
            "facts": None,
            "inferences": None,
            "seconds": round(best_warm, 6),
        },
        {
            "label": "query/tc_point_materialize",
            "n": tc_n,
            "facts": mat_db.total_facts(),
            "inferences": None,
            "seconds": round(best_mat, 6),
        },
        {
            "label": "query/pmem_goal",
            "n": pmem_n,
            "facts": pmem_answer.stats.facts,
            "inferences": pmem_answer.stats.inferences,
            "seconds": round(best_pmem, 6),
        },
        {
            "label": "query/pmem_magic",
            "n": pmem_n,
            "facts": None,
            "inferences": None,
            "seconds": round(best_magic, 6),
        },
    ]
    speedups = {
        "query/tc_point_goal_vs_materialize": (
            best_mat / best_goal if best_goal else float("inf")
        ),
        "query/tc_point_warm_vs_materialize": (
            best_mat / best_warm if best_warm else float("inf")
        ),
        "query/pmem_factored_vs_magic": (
            best_magic / best_pmem if best_pmem else float("inf")
        ),
    }
    series.note(
        f"query: {goal_answer.strategy} point query "
        f"{speedups['query/tc_point_goal_vs_materialize']:.2f}x vs "
        f"materialize-then-filter (warm "
        f"{speedups['query/tc_point_warm_vs_materialize']:.2f}x); pmem "
        f"{pmem_answer.strategy} "
        f"{speedups['query/pmem_factored_vs_magic']:.2f}x vs magic rewrite"
    )
    return rows, speedups, ok


def run(
    best_of: int, only: List[str] | None = None
) -> Tuple[List[Dict[str, object]], Dict[str, float], bool]:
    rows: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    ok = True
    series = Series(
        "engine: execution backends"
    )
    selected = workloads()
    churn_selected = only is None or "churn" in only
    query_selected = only is None or "query" in only
    serve_selected = only is None or "serve" in only
    if only:
        unknown = (
            set(only)
            - {name for name, *_ in selected}
            - {"churn", "query", "serve"}
        )
        if unknown:
            raise SystemExit(f"unknown workloads: {sorted(unknown)}")
        selected = [entry for entry in selected if entry[0] in only]
    for name, n, make, configs in selected:
        program, edb = make()
        results = {}
        for label, kwargs in configs:
            best = None
            for _ in range(best_of):
                _, stats = seminaive_eval(program, edb, **kwargs)
                if best is None or stats.seconds < best.seconds:
                    best = stats
            results[label] = best
            rows.append(
                {
                    "label": f"{name}/{label}",
                    "n": n,
                    "facts": best.facts,
                    "inferences": best.inferences,
                    "seconds": round(best.seconds, 6),
                }
            )
            series.add(
                Measurement(
                    label=f"{name}/{label}",
                    n=n,
                    facts=best.facts,
                    inferences=best.inferences,
                    iterations=best.iterations,
                    seconds=best.seconds,
                )
            )
        baseline_label = "greedy" if "greedy" in results else configs[0][0]
        baseline = results[baseline_label]
        for label, stats in results.items():
            if (stats.facts, stats.inferences) != (
                baseline.facts,
                baseline.inferences,
            ):
                print(
                    f"FAIL {name}: counter mismatch — {baseline_label} "
                    f"facts={baseline.facts} inferences={baseline.inferences}, "
                    f"{label} facts={stats.facts} inferences={stats.inferences}",
                    file=sys.stderr,
                )
                ok = False
        notes = [name + ":"]
        # Parallel rows compare against jobs1 (the same configuration
        # pinned to one worker); tc_chain has no jobs1 row, so its proc
        # control compares against greedy (identical knobs, jobs=1).
        par_base = results.get("jobs1", results.get("greedy"))
        for label in ("proc2", "proc4", "part2", "part4"):
            if label in results and par_base is not None:
                stats = results[label]
                key = f"{name}/{label}_vs_jobs1"
                speedups[key] = (
                    par_base.seconds / stats.seconds
                    if stats.seconds
                    else float("inf")
                )
                notes.append(f"{label} {speedups[key]:.2f}x vs jobs=1")
        if "part2" in results:
            notes.append(
                f"({results['part2'].partition_rounds} partitioned rounds, "
                f"skew {results['part2'].partition_skew:.2f})"
            )
        series.note(" ".join(notes))
    if churn_selected:
        churn_rows, churn_speedups, churn_ok = run_churn(best_of, series)
        rows.extend(churn_rows)
        speedups.update(churn_speedups)
        ok = ok and churn_ok
        batch_rows, batch_speedups, batch_ok = run_batch_churn(
            best_of, series
        )
        rows.extend(batch_rows)
        speedups.update(batch_speedups)
        ok = ok and batch_ok
    if query_selected:
        query_rows, query_speedups, query_ok = run_query(best_of, series)
        rows.extend(query_rows)
        speedups.update(query_speedups)
        ok = ok and query_ok
    if serve_selected:
        serve_rows, serve_speedups, serve_ok = run_serve(best_of, series)
        rows.extend(serve_rows)
        speedups.update(serve_speedups)
        ok = ok and serve_ok
    series.show()
    return rows, speedups, ok


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_engine.json",
        help="where to write the JSON record (default: repo root)",
    )
    parser.add_argument(
        "--best-of",
        type=int,
        default=3,
        help="timing repetitions per configuration; best is recorded",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=None,
        metavar="NAME",
        help="run only the named workloads (default: all); e.g. "
        "--workloads coarse_components for the process-backend demo",
    )
    parser.add_argument(
        "--require-proc-speedup",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit non-zero unless some procN_vs_jobs1 speedup reaches "
        "RATIO (skipped when fewer than 2 CPUs are visible — parallel "
        "speedup is not physically possible there); the CI gate for "
        "the process backend's multi-core wall-time win",
    )
    args = parser.parse_args(argv)

    rows, speedups, ok = run(max(1, args.best_of), only=args.workloads)
    record = {
        "scale": bench_scale(),
        # The proc rows are hardware-bound: on one visible CPU the
        # workers time-slice and procN_vs_jobs1 reads ~1x regardless
        # of how well the backend scales, so record the core budget
        # the numbers were taken under.
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "rows": rows,
        "speedup": {name: round(value, 2) for name, value in speedups.items()},
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if args.require_proc_speedup is not None:
        cpus = record["cpus"]
        best = max(
            (
                value
                for key, value in speedups.items()
                if "/proc" in key and key.endswith("_vs_jobs1")
            ),
            default=0.0,
        )
        if cpus < 2:
            print(
                f"only {cpus} CPU visible; parallel speedup is not "
                f"physically possible here (best {best:.2f}x) — gate skipped"
            )
        elif best < args.require_proc_speedup:
            print(
                f"process backend speedup regressed: best {best:.2f}x "
                f"< {args.require_proc_speedup:.2f}x over jobs=1 on "
                f"{cpus} CPUs",
                file=sys.stderr,
            )
            ok = False
        else:
            print(f"process backend speedup {best:.2f}x on {cpus} CPUs")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
