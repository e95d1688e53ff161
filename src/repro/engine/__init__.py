"""The evaluation substrate: storage and evaluators.

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
        "stats": (
            "ComponentTimeout", "EvalStats", "MaintenanceError",
            "NonTerminationError",
        ),
        "config": ("EngineConfig",),
        "faults": (
            "FaultInjected", "FaultPlan", "parse_faults", "resolve_faults",
        ),
        "backends": (
            "ComponentResult", "ComponentSpec", "ExecutorBackend",
            "ProcessBackend", "SerialBackend", "make_backend",
        ),
        "scheduler": ("SCCScheduler",),
        "seminaive": ("seminaive_eval",),
        "topdown": ("topdown_eval", "TopDownResult"),
        "provenance": ("explain", "DerivationTree"),
        "incremental": ("IncrementalSession",),
        "journal": (
            "Journal", "JournalError", "JournalReplay", "recover_session",
            "replay_journal",
        ),
    },
)
