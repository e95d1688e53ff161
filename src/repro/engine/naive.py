"""Naive bottom-up fixpoint evaluation.

Re-evaluates every rule of a strongly connected component over the full
database until no new facts appear, component by component in
topological depth order.  Quadratically redundant within a component,
but trivially correct — it is the oracle the test suite checks every
other evaluator and every program transformation against.

The stratification and per-component driver live in the shared
:class:`~repro.engine.scheduler.SCCScheduler`; this module is the thin
frontend that selects ``mode="naive"``.  Each rule is compiled once
into a slot-based :class:`~repro.engine.plan.RulePlan` reused across
all fixpoint rounds.  :func:`naive_fixpoint_reference` below is the
independent oracle: no scheduler, no plans, only
:func:`~repro.engine.joins.join_rule`.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.datalog.program import Program
from repro.engine.config import EngineConfig
from repro.engine.database import Database, load_program_facts
from repro.engine.joins import instantiate_head, join_rule
from repro.engine.scheduler import evaluate
from repro.engine.stats import EvalStats, NonTerminationError


def naive_eval(
    program: Program,
    edb: Database,
    config: Optional[EngineConfig] = None,
    **knobs,
) -> Tuple[Database, EvalStats]:
    """Evaluate ``program`` over ``edb`` to fixpoint, naively.

    Returns ``(database, stats)`` where the database holds EDB and all
    derived facts.  Takes the same ``config``/keyword knobs as
    :func:`~repro.engine.seminaive.seminaive_eval`
    (:class:`~repro.engine.config.EngineConfig`); the budgets guard
    against the genuinely diverging programs in the paper (Counting on
    left-linear rules) by raising
    :class:`~repro.engine.stats.NonTerminationError`.
    """
    return evaluate(program, edb, "naive", config, knobs)


def naive_fixpoint_reference(
    program: Program,
    edb: Database,
    max_iterations: Optional[int] = None,
    max_facts: Optional[int] = None,
) -> Tuple[Database, EvalStats]:
    """A scheduler-free whole-program naive fixpoint (the outer oracle).

    Since the unified evaluation core, :func:`naive_eval` — the
    differential-test oracle — runs through the same
    :class:`~repro.engine.scheduler.SCCScheduler` as the evaluators it
    checks, so a hypothetical stratification or batching bug would hit
    oracle and testee alike.  This function restores an independent
    reference: **no** dependency graph, **no** SCCs, **no** depth
    batches, **no** compiled plans — every proper rule is re-evaluated
    over the whole database through the legacy
    :func:`~repro.engine.joins.join_rule` interpreter until a full
    round derives nothing new.  Maximally redundant (the global
    quadratic loop the paper's Section 1 contrasts against), but its
    correctness rests only on ``join_rule`` and :class:`Relation.add`.

    Returns ``(database, stats)``.  The derived *database* must equal
    every other evaluator's; the *counters* intentionally do not —
    ``iterations`` counts global rounds, not per-component rounds, and
    ``inferences`` includes the cross-component rederivations the
    stratified schedule avoids.  The differential fuzz suite compares
    fixpoints, not counters, against this reference.
    """
    db = edb.copy()
    stats = EvalStats()
    start = time.perf_counter()
    stats.facts += load_program_facts(program, db)
    rules = list(program.proper_rules())

    while True:
        stats.iterations += 1
        if max_iterations is not None and stats.iterations > max_iterations:
            raise NonTerminationError(
                f"evaluation exceeded {max_iterations} iterations",
                stats.iterations,
                stats.facts,
            )
        derived: List[Tuple[Tuple[str, int], tuple]] = []
        for rule in rules:
            sig = rule.head.signature

            def on_match(bindings, rule=rule, sig=sig):
                stats.inferences += 1
                derived.append((sig, instantiate_head(rule, bindings)))

            join_rule(db, rule, on_match)
        changed = False
        for sig, fact in derived:
            if db.relation(*sig).add(fact):
                stats.record_fact(sig)
                changed = True
                if max_facts is not None and stats.facts > max_facts:
                    raise NonTerminationError(
                        f"evaluation exceeded {max_facts} facts",
                        stats.iterations,
                        stats.facts,
                    )
        if not changed:
            break

    stats.seconds = time.perf_counter() - start
    return db, stats
