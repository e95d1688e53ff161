"""Naive bottom-up fixpoint evaluation.

Re-evaluates every rule of a strongly connected component over the full
database until no new facts appear, component by component in
topological depth order.  Quadratically redundant within a component,
but trivially correct; the uniform-redundancy chase
(:mod:`repro.analysis.uniform`) runs in this mode, and its counts are
pinned.

The stratification and per-component driver live in the shared
:class:`~repro.engine.scheduler.SCCScheduler`; this module is the thin
frontend that selects ``mode="naive"``.  Each rule is compiled once
into a slot-based :class:`~repro.engine.plan.RulePlan` reused across
all fixpoint rounds.  The independent reference every evaluator is
checked against — no scheduler, no plans, no engine storage — is
:func:`repro.engine.reference.naive_fixpoint_reference`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.datalog.program import Program
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.scheduler import evaluate
from repro.engine.stats import EvalStats


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
