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
as compiled :class:`~repro.engine.plan.RulePlan`\\ s, through the
batch kernel wherever the plan is eligible.  What it is checked
against is :func:`repro.engine.reference.naive_fixpoint_reference`,
which shares none of this machinery.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.datalog.program import Program
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.scheduler import evaluate
from repro.engine.stats import EvalStats


def seminaive_eval(
    program: Program,
    edb: Database,
    config: Optional[EngineConfig] = None,
    **knobs,
) -> Tuple[Database, EvalStats]:
    """Evaluate ``program`` over ``edb`` to fixpoint, semi-naively.

    Returns ``(database, stats)``.  ``config`` and/or keyword knobs
    (``jobs=``, ``backend=``, ``partitions=``, ``max_iterations=``,
    ``max_facts=``, ``max_seconds=``) choose the
    schedule — :class:`~repro.engine.config.EngineConfig` describes
    them; a bad one raises before any rule runs.  Every combination
    derives the identical fixpoint with identical ``facts``/
    ``inferences``/``iterations``.  The budgets raise
    :class:`~repro.engine.stats.NonTerminationError` on diverging
    programs (used by the Counting experiments in Section 6.4).
    """
    return evaluate(program, edb, "seminaive", config, knobs)
