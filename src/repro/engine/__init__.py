"""The evaluation substrate: storage, unification, and evaluators.

The paper's efficiency claims are all phrased in terms of bottom-up
(semi-naive) evaluation cost — the number of facts and inferences — so
the engine exposes those counters on every run via
:class:`repro.engine.stats.EvalStats`.
"""

from repro.engine.database import Database, Relation, RelationStatistics, RelationView
from repro.engine.unify import Substitution, unify, match, unify_terms
from repro.engine.stats import (
    ComponentTimeout,
    EvalStats,
    MaintenanceError,
    NonTerminationError,
)
from repro.engine.config import EngineConfig
from repro.engine.cost import cost_join_order, estimate_fanout, is_guard
from repro.engine.plan import PlanCache, RulePlan, compile_rule
from repro.engine.faults import (
    FaultInjected,
    FaultPlan,
    parse_faults,
    resolve_faults,
)
from repro.engine.backends import (
    ComponentResult,
    ComponentSpec,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.engine.scheduler import (
    ComponentRun,
    ComponentTask,
    SCCScheduler,
    component_depths,
)
from repro.engine.naive import naive_eval, naive_fixpoint_reference
from repro.engine.seminaive import seminaive_eval
from repro.engine.topdown import topdown_eval, TopDownResult
from repro.engine.provenance import provenance_eval, explain, DerivationTree
from repro.engine.incremental import IncrementalSession
from repro.engine.journal import (
    Journal,
    JournalError,
    JournalReplay,
    recover_session,
    replay_journal,
)

__all__ = [
    "Database",
    "Relation",
    "RelationStatistics",
    "RelationView",
    "PlanCache",
    "RulePlan",
    "compile_rule",
    "cost_join_order",
    "estimate_fanout",
    "is_guard",
    "EngineConfig",
    "Substitution",
    "unify",
    "unify_terms",
    "match",
    "EvalStats",
    "NonTerminationError",
    "ComponentTimeout",
    "MaintenanceError",
    "FaultInjected",
    "FaultPlan",
    "parse_faults",
    "resolve_faults",
    "SCCScheduler",
    "ComponentRun",
    "ComponentTask",
    "component_depths",
    "ComponentResult",
    "ComponentSpec",
    "ExecutorBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
    "naive_eval",
    "naive_fixpoint_reference",
    "seminaive_eval",
    "topdown_eval",
    "TopDownResult",
    "provenance_eval",
    "explain",
    "DerivationTree",
    "IncrementalSession",
    "Journal",
    "JournalError",
    "JournalReplay",
    "recover_session",
    "replay_journal",
]
