"""The evaluation substrate: storage, unification, and evaluators.

The paper's efficiency claims are all phrased in terms of bottom-up
(semi-naive) evaluation cost — the number of facts and inferences — so
the engine exposes those counters on every run via
:class:`repro.engine.stats.EvalStats`.
"""

from repro import _facade

__getattr__, __dir__, __all__ = _facade(
    __name__,
    {
        "database": ("Database", "Relation", "RelationView"),
        "unify": ("Substitution", "unify", "match", "unify_terms"),
        "stats": (
            "ComponentTimeout", "EvalStats", "MaintenanceError",
            "NonTerminationError",
        ),
        "config": ("EngineConfig",),
        "plan": ("PlanCache", "RulePlan", "compile_rule"),
        "faults": (
            "FaultInjected", "FaultPlan", "parse_faults", "resolve_faults",
        ),
        "backends": (
            "ComponentResult", "ComponentSpec", "ExecutorBackend",
            "ProcessBackend", "SerialBackend", "make_backend",
        ),
        "scheduler": (
            "ComponentRun", "ComponentTask", "SCCScheduler",
            "component_depths",
        ),
        "naive": ("naive_eval",),
        "seminaive": ("seminaive_eval",),
        "topdown": ("topdown_eval", "TopDownResult"),
        "provenance": ("provenance_eval", "explain", "DerivationTree"),
        "incremental": ("IncrementalSession",),
        "journal": (
            "Journal", "JournalError", "JournalReplay", "recover_session",
            "replay_journal",
        ),
    },
)
