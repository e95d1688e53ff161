"""Pluggable execution backends for the SCC scheduler's depth batches.

The scheduler (:mod:`repro.engine.scheduler`) decides *what* may run
concurrently — components of one topological depth batch are mutually
independent.  This module decides *how*, through an
:class:`ExecutorBackend` with two implementations:

* ``serial`` — the default and the reference schedule: batch
  components run in batch order on the calling thread, sharing the
  live database.
* ``process`` — a ``ProcessPoolExecutor``: real wall-time parallelism
  on multi-core hardware.  Compiled :class:`~repro.engine.plan.RulePlan`
  objects hold closures and ``itemgetter``s and cannot be pickled, so
  nothing compiled ever crosses the boundary.  Instead the scheduler
  ships a declarative :class:`ComponentSpec` — the component's rules,
  evaluation knobs, and compact relation snapshots of exactly the
  signatures the component reads or writes — and the worker recompiles
  plans locally against a per-worker :class:`~repro.engine.plan.PlanCache`.
  Results return as :class:`ComponentResult` delta logs (the facts the
  component appended, in derivation order) plus a private
  :class:`~repro.engine.stats.EvalStats`, merged at the batch barrier
  in batch order.

Both backends derive the identical fixpoint with bit-identical
``facts``/``inferences``/``iterations`` counters for any job count —
the differential fuzz suite (``tests/test_fuzz.py``) enforces this.
:class:`~repro.engine.config.EngineConfig` names the backend
(``backend``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

from repro.datalog.rules import Rule
from repro.engine import faults
from repro.engine.config import EngineConfig
from repro.engine.database import Database, FactTuple, Relation
from repro.engine.plan import PlanCache
from repro.engine.stats import EvalStats

# ``concurrent.futures`` and ``multiprocessing`` (with ``socket``,
# ``tempfile``, ``logging`` and ``subprocess`` behind them) cost every
# ``import repro`` about 20 ms and only a pool with ``jobs > 1`` needs
# them: they are imported where an executor is created.  The names
# this module used to bind at import time stay importable from it.
_LAZY_NAMES = ("BrokenExecutor", "ProcessPoolExecutor")


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        import concurrent.futures

        return getattr(concurrent.futures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

Signature = Tuple[str, int]


def make_backend(config: EngineConfig) -> "ExecutorBackend":
    """The :class:`ExecutorBackend` that ``config.backend`` names."""
    if config.backend == "process":
        return ProcessBackend()
    return SerialBackend()


# ----------------------------------------------------------------------
# The shippable work unit
# ----------------------------------------------------------------------


@dataclass
class ComponentSpec:
    """One SCC's evaluation, as declarative (picklable) data.

    Compiled plans cannot cross a process boundary, so the spec carries
    what a worker needs to *recompile* them: the component's rules
    (structurally hashable, so a worker-side plan cache keyed on them
    still hits), the engine config, and compact
    :meth:`~repro.engine.database.Relation.snapshot` copies of exactly
    the signatures the component reads or writes — snapshots keep
    cardinality and distinct-key statistics, so a worker-side cost
    planner plans from the same estimates as an in-process one.
    """

    index: int
    sigs: frozenset
    rules: Tuple[Rule, ...]
    recursive: bool
    mode: str
    config: EngineConfig
    fact_base: int
    record: bool
    relations: Dict[Signature, Relation]

    @classmethod
    def from_task(cls, scheduler, task, db: Database, fact_base: int) -> "ComponentSpec":
        needed = set(task.sigs)
        for rule in task.rules:
            for literal in rule.body:
                needed.add(literal.signature)
        return cls(
            index=task.index,
            sigs=task.sigs,
            rules=tuple(task.rules),
            recursive=task.recursive,
            mode=scheduler.mode,
            # Partitioning inside a pool worker stays serial: a daemonic
            # worker cannot spawn its own process group.  Counters
            # (including partition_rounds/partition_skew) are unchanged
            # by mechanism.
            config=replace(scheduler.config, backend="serial"),
            fact_base=fact_base,
            record=scheduler.recorder is not None,
            relations=db.snapshot(sorted(needed)).relations,
        )


@dataclass
class ComponentResult:
    """What comes back across the boundary: deltas, stats, derivations.

    ``deltas`` maps each write-set signature to the facts the component
    appended, in derivation (log) order, so the parent merge reproduces
    the exact relation logs an in-process evaluation would have built.
    """

    deltas: Dict[Signature, Tuple[FactTuple, ...]]
    stats: EvalStats
    derivations: Optional[dict]


#: Worker-process plan caches, keyed by planner.  A worker evaluates
#: each component of a run at most once and components partition the
#: rules, so sharing a cache across components changes no counter —
#: but it is the hook that lets repeated shipments of the same rules
#: (structural equality survives pickling) reuse compilations.
_WORKER_CACHES: Dict[str, PlanCache] = {}


def _init_worker() -> None:
    """Pool initializer: cold plan cache, inherited heap frozen.

    Runs in the worker at startup (spawn-safe: it is a module-level
    function, importable without side effects).  Clearing the plan
    caches guarantees counter determinism even if a pool is ever
    reused across evaluations.  ``gc.freeze()`` matters under fork: a
    worker inherits the parent heap copy-on-write, and the first
    full cyclic-GC pass in the child would touch (and thus copy) every
    inherited page — freezing moves inherited objects to the permanent
    generation so child collections only ever scan what the worker
    itself allocates.
    """
    import gc

    _WORKER_CACHES.clear()
    gc.freeze()


def _worker_cache(planner: str) -> PlanCache:
    cache = _WORKER_CACHES.get(planner)
    if cache is None:
        cache = _WORKER_CACHES[planner] = PlanCache(planner)
    return cache


def evaluate_component(spec: ComponentSpec) -> ComponentResult:
    """Run one component spec to fixpoint (the process-worker entry).

    Module-level so it pickles by reference under any multiprocessing
    start method.  Builds a private database from the spec's relation
    snapshots, recompiles plans against the per-worker cache, and
    returns only the write-set delta logs — the parent already holds
    everything else.
    """
    from repro.engine.scheduler import ComponentRun, ComponentTask

    faults.fire("worker")
    db = Database()
    db.relations = dict(spec.relations)
    # len() (not the log) so a columns-only snapshot stays undecoded
    # until the component actually reads term tuples.
    baselines = {
        sig: len(db.relation(*sig)) for sig in sorted(spec.sigs)
    }
    recorder = None
    if spec.record:
        from repro.engine.provenance import DerivationRecorder

        recorder = DerivationRecorder({}, None)
    task = ComponentTask(
        spec.index, 0, spec.sigs, list(spec.rules), spec.recursive
    )
    stats = EvalStats()
    run = ComponentRun(
        task,
        spec.config,
        mode=spec.mode,
        recorder=recorder,
        fact_base=spec.fact_base,
        cache=_worker_cache(spec.config.planner),
    )
    run.execute(db, stats)
    deltas = {
        sig: tuple(db.relation(*sig)._log[base:])
        for sig, base in baselines.items()
    }
    return ComponentResult(
        deltas=deltas,
        stats=stats,
        derivations=recorder.derivations if recorder is not None else None,
    )


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


class ExecutorBackend:
    """How one depth batch's mutually independent components execute.

    ``run_batch`` receives the owning scheduler (for its config, the shared
    recorder, and :meth:`~repro.engine.scheduler.SCCScheduler.component_run`),
    the batch, the live database, and the run-wide stats.  It must
    leave ``db``/``stats`` exactly as the sequential schedule would —
    wall time and scheduling are the only degrees of freedom.
    ``close`` releases pooled resources; the scheduler calls it when a
    run finishes (a backend must tolerate reuse after close).
    """

    name = "?"

    def run_batch(self, scheduler, batch, db: Database, stats: EvalStats) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutorBackend):
    """Batch components in batch order on the calling thread.

    The default and the deterministic reference schedule — what
    ``jobs=1`` does on any backend — and where the process backend
    sends a batch whose pool broke.
    """

    name = "serial"

    def run_batch(self, scheduler, batch, db: Database, stats: EvalStats) -> None:
        for task in batch:
            scheduler.component_run(task, scheduler.recorder).execute(db, stats)


class ProcessBackend(ExecutorBackend):
    """Batch components on a ``ProcessPoolExecutor`` via component specs.

    The only backend with true compute parallelism under the GIL.  Per
    component it ships a :class:`ComponentSpec` (rules + knobs + compact
    relation snapshots of the component's read/write signatures) and
    merges the returned :class:`ComponentResult` delta logs, stats, and
    derivations at the barrier in batch order — so facts, counters, and
    provenance trees are bit-identical to the serial backend.  The
    pool persists across batches of one run (workers keep their plan
    caches warm) and is shut down by the scheduler at the end of the
    run.

    ``start_method`` picks the multiprocessing context (``"fork"``,
    ``"spawn"``, ...); ``None`` uses the platform default.  Worker
    entry points are module-level, so any method is safe.

    **Worker loss**: a dying worker (OOM kill, segfault, injected
    ``kill``) breaks the whole pool — every pending future raises
    ``BrokenProcessPool``.  Nothing has merged at that point (results
    merge only after all futures succeed), so the broken pool is
    discarded and the batch runs on the serial backend at once — same
    results, no parallelism — counted in ``stats.backend_fallbacks``.
    The next batch builds a fresh pool.  Real evaluation errors raised
    *inside* a worker (``NonTerminationError``, a ``ComponentTimeout``)
    are deterministic and propagate immediately.
    """

    name = "process"

    def __init__(self, start_method: Optional[str] = None):
        self.start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        if self._pool is not None and self._pool_workers == workers:
            return self._pool
        self._discard_pool()
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_init_worker,
        )
        self._pool_workers = workers
        return self._pool

    def _discard_pool(self) -> None:
        """Drop the pool so the next batch builds a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_workers = 0

    def run_batch(self, scheduler, batch, db: Database, stats: EvalStats) -> None:
        from concurrent.futures import BrokenExecutor

        try:
            self._ship_batch(scheduler, batch, db, stats)
        except BrokenExecutor:
            self._discard_pool()
            stats.backend_fallbacks += 1
            SerialBackend().run_batch(scheduler, batch, db, stats)

    def _ship_batch(self, scheduler, batch, db: Database, stats: EvalStats) -> None:
        pool = self._ensure_pool(min(scheduler.config.jobs, 61))  # 61: executor cap
        fact_base = stats.facts
        futures = [
            pool.submit(
                evaluate_component,
                ComponentSpec.from_task(scheduler, task, db, fact_base),
            )
            for task in batch
        ]
        results = []
        errors = []
        for future in futures:  # batch order, deterministic
            try:
                results.append(future.result())
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            # A real evaluation error beats a worker-loss symptom: when a
            # worker dies, *every* unfinished future reports the broken
            # pool, but a NonTerminationError that also surfaced is the
            # actual cause and falling back cannot fix it.
            from concurrent.futures import BrokenExecutor

            for exc in errors:
                if not isinstance(exc, BrokenExecutor):
                    raise exc
            raise errors[0]
        recorder = scheduler.recorder
        for result in results:
            for sig, facts in result.deltas.items():
                rel = db.relation(*sig)
                for fact in facts:
                    rel.add(fact)
            stats.absorb(result.stats)
            if recorder is not None and result.derivations is not None:
                recorder.absorb_derivations(result.derivations)

    def close(self) -> None:
        self._discard_pool()
