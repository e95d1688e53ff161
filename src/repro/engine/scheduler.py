"""The shared SCC evaluation core behind every bottom-up evaluator.

The paper states its cost model in terms of semi-naive bottom-up
evaluation of the SCC-stratified program.  This module is the one
place that evaluation is written down: :class:`SCCScheduler` owns the
predicate dependency graph traversal, groups strongly connected
components into **topological depth batches**, and runs one
:class:`ComponentRun` — a per-component fixpoint — for each component.
The evaluator frontends (`naive_eval`, `seminaive_eval`,
`provenance_eval`) differ only in the *mode* of that per-component
fixpoint, which one driver (:meth:`ComponentRun._fixpoint`) serves by
changing which windows of the component's relations feed a rule's
recursive body occurrences:

* ``mode="seminaive"`` — the delta-decomposed iteration (the paper's
  evaluator; also used by ``provenance_eval`` with a derivation
  recorder attached);
* ``mode="naive"`` — full re-evaluation of the component's rules every
  round (trivially correct, quadratic per component).

Depth batches are the parallelism unit: depth 0 holds components with
no dependencies outside themselves, depth *d+1* holds components all
of whose dependencies live at depths ``<= d``.  Two components in the
same batch share no dependency edge in either direction, so their
**write sets are disjoint** (a component only writes head relations of
its own SCC) and neither reads what the other writes.  With
``jobs > 1`` the scheduler hands a batch to its
:class:`~repro.engine.backends.ExecutorBackend`: ``serial`` runs it in
batch order, and ``process`` ships declarative
:class:`~repro.engine.backends.ComponentSpec` work units to a process
pool for real compute parallelism, merging component results at the
batch barrier in batch order, so
``facts``/``inferences``/``iterations`` are bit-identical for every
backend and every ``jobs`` value; only wall time and scheduling vary.
The knobs arrive as one :class:`~repro.engine.config.EngineConfig`.
"""

from __future__ import annotations

import copy
import time
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.dependency import DependencyGraph
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.engine import faults
from repro.engine.backends import ExecutorBackend, make_backend
from repro.engine.columnar import decode_rows, execute_columnar
from repro.engine.config import EngineConfig
from repro.engine.database import (
    Database,
    FactTuple,
    Relation,
    RelationView,
    RowTuple,
    load_program_facts,
)
from repro.engine.partition import make_partition_executor
from repro.engine.plan import PlanCache, RoleSpec
from repro.engine.stats import ComponentTimeout, EvalStats, NonTerminationError

Signature = Tuple[str, int]

#: Fixpoint modes the scheduler knows how to drive.
MODES = ("seminaive", "naive")


def component_depths(
    sccs: Sequence[Sequence[Signature]],
    predecessors: Mapping[Signature, Set[Signature]],
) -> List[int]:
    """Topological depth of each SCC, given SCCs in evaluation order.

    Depth 0 components depend on nothing outside themselves; a
    component's depth is otherwise one more than the deepest component
    it depends on.  Because every dependency edge crosses strictly
    increasing depth, components sharing a depth are mutually
    independent — the property the parallel batches rely on.

    ``sccs`` must be in evaluation order (dependencies before
    dependents, as :meth:`DependencyGraph.sccs` returns them) so each
    component's dependencies are assigned before it.
    """
    scc_of: Dict[Signature, int] = {}
    for i, scc in enumerate(sccs):
        for sig in scc:
            scc_of[sig] = i
    depths: List[int] = []
    for i, scc in enumerate(sccs):
        depth = 0
        for sig in scc:
            for dep in predecessors.get(sig, ()):
                j = scc_of[dep]
                if j != i:
                    depth = max(depth, depths[j] + 1)
        depths.append(depth)
    return depths


class ComponentTask:
    """One SCC of the dependency graph, ready to evaluate.

    ``sigs`` is the component's signature set (also its write set:
    every rule's head signature belongs to the SCC of that rule);
    ``recursive`` marks components needing fixpoint iteration.
    """

    __slots__ = ("index", "depth", "sigs", "rules", "recursive")

    def __init__(
        self,
        index: int,
        depth: int,
        sigs: frozenset,
        rules: List[Rule],
        recursive: bool,
    ):
        self.index = index
        self.depth = depth
        self.sigs = sigs
        self.rules = rules
        self.recursive = recursive

    def __repr__(self) -> str:
        kind = "recursive" if self.recursive else "single-pass"
        return (
            f"ComponentTask(depth={self.depth}, {kind}, "
            f"sigs={sorted(self.sigs)}, rules={len(self.rules)})"
        )


class SCCScheduler:
    """Shared driver: stratify a program and run per-component fixpoints.

    The frontends (:func:`~repro.engine.seminaive.seminaive_eval`,
    :func:`~repro.engine.naive.naive_eval`,
    :func:`~repro.engine.provenance.provenance_eval`) construct one of
    these per evaluation, then call :meth:`run` against a database that
    already holds the EDB and any program facts.

    ``config`` carries every execution knob
    (:class:`~repro.engine.config.EngineConfig`; ``None`` resolves the
    defaults).  With ``jobs == 1`` the backend is never consulted —
    every schedule is the sequential one.

    ``recorder`` attaches plan-level provenance: a duck-typed object
    with ``start_round()`` / ``observe(sig, fact, rule_index, rule,
    body_keys)`` / ``commit(sig, fact)`` / ``absorb_derivations()``
    (see :class:`repro.engine.provenance.DerivationRecorder`).  A
    recording run executes tuple-at-a-time, whatever ``exec`` says.

    ``executor`` is a ready
    :class:`~repro.engine.backends.ExecutorBackend` to run parallel
    batches on instead of the one ``config.backend`` names — the hook
    tests use to inject a spawn-context or failing process backend.
    """

    def __init__(
        self,
        program: Program,
        config: Optional[EngineConfig] = None,
        mode: str = "seminaive",
        recorder=None,
        cache: Optional[PlanCache] = None,
        executor: Optional[ExecutorBackend] = None,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.program = program
        self.mode = mode
        self.config = EngineConfig.resolve(config)
        self.backend = executor or make_backend(self.config)
        self.recorder = recorder
        #: Optional shared plan cache: when set, sequential component
        #: runs compile into it instead of one private cache per run,
        #: so repeated evaluations of the same program (the per-query
        #: serving path) reuse compiled plans across calls.
        self.cache = cache

        self.graph = DependencyGraph(program)
        rules_by_head: Dict[Signature, List[Rule]] = {}
        for rule in program.proper_rules():
            rules_by_head.setdefault(rule.head.signature, []).append(rule)

        sccs = self.graph.sccs()
        depths = component_depths(sccs, self.graph.predecessors)
        self.tasks: List[ComponentTask] = []
        for i, scc in enumerate(sccs):
            scc_set = frozenset(scc)
            rules = [rule for sig in scc for rule in rules_by_head.get(sig, ())]
            if not rules:
                continue  # EDB-only component: nothing to evaluate
            recursive = any(
                lit.signature in scc_set for rule in rules for lit in rule.body
            )
            self.tasks.append(
                ComponentTask(i, depths[i], scc_set, rules, recursive)
            )
        batches: Dict[int, List[ComponentTask]] = {}
        for task in self.tasks:
            batches.setdefault(task.depth, []).append(task)
        #: Components grouped by topological depth, shallowest first;
        #: same-batch components are mutually independent.
        self.batches: List[List[ComponentTask]] = [
            batches[d] for d in sorted(batches)
        ]

    # ------------------------------------------------------------------

    def component_run(self, task: ComponentTask, recorder=None) -> "ComponentRun":
        """A :class:`ComponentRun` for ``task`` with this run's knobs,
        evaluated in this process (the serial schedule)."""
        return ComponentRun(
            task, self.config, mode=self.mode, recorder=recorder, cache=self.cache
        )

    def with_budget(
        self, max_iterations: Optional[int], max_facts: Optional[int]
    ) -> "SCCScheduler":
        """This scheduler (same components, plan cache and backend)
        under other iteration and fact budgets."""
        clone = copy.copy(self)
        clone.config = replace(
            self.config, max_iterations=max_iterations, max_facts=max_facts
        )
        return clone

    def run(self, db: Database, stats: EvalStats) -> None:
        """Evaluate every component batch-by-batch into ``db``.

        ``stats`` accumulates across components.  Raises
        :class:`NonTerminationError` when a component exceeds the
        iteration or fact budget (budgets are whole-evaluation, shared
        across components).  Batches with parallelism to exploit go to
        the execution backend; its pooled resources are released when
        the run finishes.
        """
        if self.config.exec == "columnar":
            # Mint the run's term dictionary up front, before any
            # batch: relations created later get it at creation, and
            # the snapshots a process batch ships carry it, so workers
            # adopt the run's ids instead of minting their own.
            db.ensure_dictionary()
        stats.scc_count += len(self.tasks)
        try:
            for batch in self.batches:
                if len(batch) > 1:
                    stats.scc_parallel_batches += 1
                if self.config.jobs == 1 or len(batch) == 1:
                    for task in batch:
                        self.component_run(task, self.recorder).execute(db, stats)
                else:
                    self.backend.run_batch(self, batch, db, stats)
                    self._recheck_fact_budget(stats)
        finally:
            self.backend.close()

    def _recheck_fact_budget(self, stats: EvalStats) -> None:
        """Re-check ``max_facts`` against a batch's absorbed totals.

        Parallel components check the budget against the batch-start
        baseline only; the barrier re-check makes a batch that
        *collectively* exceeds the budget raise exactly like the
        sequential schedule would (at most one batch later).
        """
        max_facts = self.config.max_facts
        if max_facts is not None and stats.facts > max_facts:
            raise NonTerminationError(
                f"evaluation exceeded {max_facts} facts",
                stats.iterations,
                stats.facts,
            )


def evaluate(
    program: Program,
    edb: Database,
    mode: str,
    config: Optional[EngineConfig],
    knobs: dict,
    recorder=None,
) -> Tuple[Database, EvalStats]:
    """The body the evaluator frontends share: resolve, load, run, time.

    ``knobs`` are the frontend's keyword arguments; a ``backend`` that
    is a ready :class:`~repro.engine.backends.ExecutorBackend` runs the
    parallel batches itself and contributes its name to the config.
    """
    executor = knobs.get("backend")
    if isinstance(executor, ExecutorBackend):
        knobs = {**knobs, "backend": executor.name}
    else:
        executor = None
    config = EngineConfig.resolve(config, **knobs)
    db = edb.copy()
    stats = EvalStats()
    start = time.perf_counter()
    stats.facts += load_program_facts(program, db)
    SCCScheduler(program, config, mode, recorder, executor=executor).run(db, stats)
    stats.seconds = time.perf_counter() - start
    return db, stats


#: The firing list of a rule that reads only full relations: one plan,
#: no roles, no override views.
_FULL = [((), ())]


class _TermRows:
    """Rows are term tuples, produced by :meth:`RulePlan.execute`.

    The counter-level reference (``exec="tuple"``), and the only
    representation a provenance recorder can observe or a nullary /
    foreign-dictionary head relation can absorb.

    With ``kernel`` an eligible plan runs through the batch kernel
    instead and its rows are decoded to terms as they arrive (a decline
    falls back to the tuple executor and counts a
    ``columnar_fallbacks``).  Dedup and absorption stay on the term
    side — ``rel.tuples`` and ``rel.add`` — so the head's
    whole-relation row set is never asked for: what a resumed run
    wants (:meth:`ComponentRun.resume`).
    """

    __slots__ = ("db", "stats", "recorder", "interned", "capable")

    def __init__(self, db: Database, stats: EvalStats, recorder=None, kernel=False):
        self.db = db
        self.stats = stats
        self.recorder = recorder
        #: What the partition executor is told to split and emit.
        self.interned = kernel
        #: Plans the kernel found capable in this run (execute_columnar).
        self.capable: set = set()

    def run(self, plan, overrides, rel: Relation, rule_index: int, rule: Rule):
        """``(self, head facts)`` of one plan execution, duplicates kept."""
        if self.interned:
            rows = execute_columnar(
                plan, self.db, overrides, self.stats, self.capable
            )
            if rows is not None:
                return self, self.adopt(rows)
            self.stats.columnar_fallbacks += 1
        emitted: List[FactTuple] = []
        recorder = self.recorder
        if recorder is None:
            plan.execute(self.db, overrides, emitted.append, self.stats)
            return self, emitted
        sig = rule.head.signature
        known = rel.tuples

        def on_match(head, body_keys):
            emitted.append(head)
            if head not in known:
                recorder.observe(sig, head, rule_index, rule, body_keys)

        plan.execute(self.db, overrides, None, self.stats, on_match=on_match)
        return self, emitted

    def adopt(self, out) -> list:
        """What the kernel or a partition executor emitted, as term facts."""
        if self.interned:
            return decode_rows(self.db.dictionary.terms, out)
        return out

    def novel(self, rel: Relation, emitted) -> Set[FactTuple]:
        return set(emitted) - rel.tuples

    def absorb(self, sig: Signature, rel: Relation, fresh, budget=None) -> None:
        """Add ``fresh``; ``budget`` (if any) is checked after every fact."""
        recorder = self.recorder
        stats = self.stats
        for fact in fresh:
            rel.add(fact)
            stats.record_fact(sig)
            if recorder is not None:
                recorder.commit(sig, fact)
            if budget is not None:
                budget(stats)


class _InternedRows:
    """Rows are interned id tuples, produced by the batch kernel.

    Dedup is int-row set difference against the head's column set and
    absorption is a columnar bulk append: nothing is decoded back to
    terms during the fixpoint.  A call the kernel declines (ineligible
    plan, a source outside the run's dictionary) falls back to the
    tuple executor — the counters are identical either way, and
    ``columnar_fallbacks`` says how often it happened.

    In a fixpoint the fallback's facts are interned, so the round's
    delta stays in the row world.  A ``single_pass`` (non-recursive)
    component has no next round to feed: there a fallback batch, and
    the batch of a head that cannot take row appends (nullary, or on a
    foreign dictionary), is handed to the term representation instead.
    """

    __slots__ = ("db", "stats", "terms", "single_pass", "capable")

    interned = True

    def __init__(self, db: Database, stats: EvalStats, single_pass: bool):
        self.db = db
        self.stats = stats
        self.terms = _TermRows(db, stats)
        self.single_pass = single_pass
        self.capable: set = set()  # as _TermRows.capable

    def run(self, plan, overrides, rel: Relation, rule_index: int, rule: Rule):
        """``(representation, batch)`` of one plan execution."""
        db = self.db
        rows = execute_columnar(plan, db, overrides, self.stats, self.capable)
        if rows is None:
            self.stats.columnar_fallbacks += 1
            batch = self.terms.run(plan, overrides, rel, rule_index, rule)
            if self.single_pass:
                return batch
            intern = db.dictionary.intern
            return self, [tuple(map(intern, fact)) for fact in batch[1]]
        if self.single_pass and (
            rel.arity == 0 or rel.dictionary is not db.dictionary
        ):
            return self.terms, decode_rows(db.dictionary.terms, rows)
        return self, rows

    def adopt(self, out) -> list:
        """A partition executor's emissions are already interned rows."""
        return out

    def novel(self, rel: Relation, emitted) -> Set[RowTuple]:
        return set(emitted) - rel.col_set()

    def absorb(self, sig: Signature, rel: Relation, fresh, budget=None) -> None:
        """Bulk-append ``fresh`` — or, under a per-fact ``budget``, add
        row by row so the limit trips on the same count as term rows."""
        stats = self.stats
        if budget is None:
            rows = list(fresh)
            rel.append_rows(rows, fresh)
            stats.record_facts(sig, len(rows))
            return
        terms = self.db.dictionary.terms
        for row in fresh:
            rel.add_row(tuple(terms[i] for i in row), row)
            stats.record_fact(sig)
            budget(stats)


class ComponentRun:
    """The fixpoint of one SCC — the unit of work the scheduler schedules.

    One driver (:meth:`_fixpoint`) serves every component shape and
    mode; they differ only in which windows feed a rule's recursive
    body occurrences:

    * non-recursive component → no recursive occurrence, one round;
    * recursive, ``mode="seminaive"`` → ``delta``/``old`` log windows,
      one plan per recursive occurrence (the paper's evaluator);
    * recursive, ``mode="naive"`` → the full relations, every rule
      every round, until a round adds nothing;
    * :meth:`resume` (incremental maintenance) → ``delta`` windows that
      start at given log offsets, the full relations everywhere else.

    ``config.max_iterations`` bounds the fixpoint rounds of any *single*
    component (a divergence guard — a diverging component exceeds any
    cap by itself, and the bound does not shrink as programs gain more
    components); ``config.max_facts`` bounds the whole evaluation's
    derived facts, with ``fact_base`` carrying the budget context into
    parallel batches, where ``stats`` is component-local, and into a
    maintenance pass, whose database already holds derived facts.
    ``deadline`` is a wall-clock deadline the caller armed (one
    maintenance pass shares one across its components); without it
    :meth:`execute` arms ``config.max_seconds`` per component.

    Construction takes the config (rather than a scheduler) so the run
    is self-contained: the process execution backend rebuilds one
    inside a worker from a declarative
    :class:`~repro.engine.backends.ComponentSpec`, far from any
    scheduler object.  ``cache`` lets a worker supply its own
    :class:`~repro.engine.plan.PlanCache`; by default each run
    compiles into a private cache — rules belong to exactly one
    component (grouped by head SCC), so either way exactly the same
    (rule, roles) pairs compile, and the cache is free to use from a
    worker process.

    With ``config.partitions > 1`` the semi-naive rounds hash-split
    their deltas and run each partition on the mechanism
    ``config.backend`` names (:mod:`repro.engine.partition`).
    """

    __slots__ = (
        "task",
        "config",
        "mode",
        "cache",
        "recorder",
        "fact_base",
        "rounds",
        "_deadline",
    )

    def __init__(
        self,
        task: ComponentTask,
        config: EngineConfig,
        mode: str = "seminaive",
        recorder=None,
        fact_base: int = 0,
        cache: Optional[PlanCache] = None,
        deadline: Optional[float] = None,
    ):
        self.task = task
        self.config = config
        self.mode = mode
        self.cache = cache if cache is not None else PlanCache(config.planner)
        self.recorder = recorder
        self.fact_base = fact_base
        self.rounds = 0
        self._deadline = deadline

    # -- budget guards --------------------------------------------------

    def _check_facts(self, stats: EvalStats) -> None:
        max_facts = self.config.max_facts
        if max_facts is not None and self.fact_base + stats.facts > max_facts:
            raise NonTerminationError(
                f"evaluation exceeded {max_facts} facts",
                stats.iterations,
                self.fact_base + stats.facts,
            )

    def begin_round(self, stats: EvalStats) -> None:
        """Count one fixpoint round, guarding this component's budget."""
        stats.iterations += 1
        self.rounds += 1
        max_iterations = self.config.max_iterations
        if max_iterations is not None and self.rounds > max_iterations:
            raise NonTerminationError(
                f"component {sorted(self.task.sigs)} exceeded "
                f"{max_iterations} iterations",
                stats.iterations,
                self.fact_base + stats.facts,
            )
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise ComponentTimeout(
                f"component {sorted(self.task.sigs)} exceeded its "
                f"{self.config.max_seconds:g}s wall-clock budget",
                stats.iterations,
                self.fact_base + stats.facts,
            )

    # -- entry point ------------------------------------------------------

    def execute(self, db: Database, stats: EvalStats) -> None:
        """Evaluate the component from its base facts to its fixpoint."""
        faults.fire("component")
        if self._deadline is None and self.config.max_seconds is not None:
            # Per-component wall clock: the watchdog is armed at execute
            # time (not construction) so pool queueing doesn't count.
            self._deadline = time.monotonic() + self.config.max_seconds
        self._drive(db, stats, self._rows(db, stats))

    def resume(
        self, db: Database, stats: EvalStats, since: Mapping[Signature, int]
    ) -> None:
        """Continue the fixpoint forward from facts appended since it closed.

        Incremental maintenance's way into the driver.  ``since`` maps a
        signature to the log offset where its not-yet-propagated facts
        begin: for a relation of this component (inserted base facts,
        DRed restorations) that is where the first round's delta starts
        — a component relation not named has an empty one — and for a
        changed relation of a lower stratum it is a delta read in the
        first round only, since such a relation does not grow while the
        component runs.  Signatures the component does not read are
        ignored.  At least one round runs; the caller decides whether
        anything reached the component at all.

        Per rule and per body occurrence of a windowed relation, one
        variant runs with the delta window at that occurrence and the
        **full** relations everywhere else; a variant whose window is
        empty is skipped.  Unlike :meth:`execute`'s old/delta split, an
        instantiation with several new body facts is enumerated once
        per such occurrence — but the derived *fact set* is identical
        (relations are sets), and the full relations keep their
        persistent hash indexes, where an ``old`` window would re-index
        almost the entire relation every round to dedupe a usually-tiny
        delta.

        Rows are term rows fed by the batch kernel (:class:`_TermRows`):
        interned absorption dedups against ``Relation.col_set()``, which
        the copy-on-write detach of a maintenance batch does not carry,
        and rebuilding it would cost the relation, not the delta.
        """
        faults.fire("component")
        kernel = self.config.exec == "columnar" and self.recorder is None
        if kernel:
            db.ensure_dictionary()
        self._drive(db, stats, _TermRows(db, stats, self.recorder, kernel), since)

    def _drive(self, db: Database, stats: EvalStats, rows, seeds=None) -> None:
        """Run the fixpoint, partitioned where a delta exists to split."""
        config = self.config
        partitioner = None
        if (
            config.partitions > 1
            and (self.task.recursive or seeds is not None)
            and self.mode == "seminaive"
            and self.recorder is None
        ):
            # Partitioning engages only where a delta exists to split:
            # the semi-naive fixpoint of a recursive component or any
            # resumed one, without a provenance recorder (which needs
            # the single sequential emission stream).
            partitioner = make_partition_executor(config)
        try:
            self._fixpoint(db, stats, rows, partitioner, seeds)
        finally:
            if partitioner is not None:
                partitioner.close()

    def _rows(self, db: Database, stats: EvalStats):
        """The row representation of this run, picked once.

        Interned rows need no recorder watching term-level matches and,
        in a fixpoint, every head relation of the component to take row
        appends (arity above zero, on the database's term dictionary):
        a round's delta must be readable as rows in the next.  Naive
        fixpoints stay on term rows — they are the in-engine oracle
        the columnar kernel is checked against.
        """
        recursive = self.task.recursive
        if (
            self.config.exec == "columnar"
            and self.recorder is None
            and not (recursive and self.mode == "naive")
        ):
            # Adopt (or mint) the database's term dictionary lazily so
            # every caller that builds a ComponentRun directly — the
            # process-backend worker, incremental recomputes — gets the
            # columnar path without its own setup step.
            dictionary = db.ensure_dictionary()
            if not recursive or all(
                sig[1] > 0 and db.relation(*sig).dictionary is dictionary
                for sig in self.task.sigs
            ):
                return _InternedRows(db, stats, single_pass=not recursive)
        return _TermRows(db, stats, self.recorder)

    def _delta_variants(
        self, rule: Rule, seeds: Optional[Mapping[Signature, int]] = None
    ) -> List[Tuple[RoleSpec, list]]:
        """One delta decomposition per recursive occurrence of ``rule``.

        For recursive occurrences at body positions ``i1 < ... < im``,
        variant ``j`` reads the *delta* at ``ij``, the *old* relation at
        later occurrences, and the full relation (no override) before
        it.  Each variant is ``(roles, binding)``: the plan-cache role
        spec, and ``(position, role, signature)`` triples from which a
        round builds its override views.

        A resumed run (``seeds``, see :meth:`resume`) has one variant
        per occurrence of a component *or seeded* relation, reading the
        delta there and full relations at every other position.
        """
        scc_set = self.task.sigs
        if seeds is not None:
            return [
                (((pos, "delta"),), [(pos, "delta", lit.signature)])
                for pos, lit in enumerate(rule.body)
                if lit.signature in scc_set or lit.signature in seeds
            ]
        positions = [
            i for i, lit in enumerate(rule.body) if lit.signature in scc_set
        ]
        variants = []
        for j in range(len(positions)):
            roles = tuple(
                (pos, "delta" if k == j else "old")
                for k, pos in enumerate(positions)
                if k >= j
            )
            binding = [
                (pos, role, rule.body[pos].signature) for pos, role in roles
            ]
            variants.append((roles, binding))
        return variants

    # -- the fixpoint -------------------------------------------------------

    def _fixpoint(
        self, db: Database, stats: EvalStats, rows, partitioner, seeds=None
    ) -> None:
        """Rounds of rule firings until a round derives nothing new.

        In semi-naive mode neither deltas nor "old" relations are ever
        materialized: at round ``t`` a component relation's append-only
        log holds the facts through ``t-1`` in derivation order, so
        *delta* (new at ``t-1``) is the log slice ``[delta_start:len]``
        and *old* (through ``t-2``) is the prefix ``[0:delta_start]`` —
        both zero-copy :class:`~repro.engine.database.RelationView`
        windows.  Naive mode and non-recursive components read the full
        relations instead.  A fixpoint appends nothing mid-round: every
        rule of a round sees exactly "through ``t-1``", and the round's
        novel rows are absorbed at its end with one budget check per
        relation.  A non-recursive component is a single round whose
        rules never read its heads, so each rule's batch is absorbed as
        it arrives, with the fact budget checked per fact.

        ``seeds`` (:meth:`resume`) are log offsets for the first delta
        to start at, in place of 0.  Seeded relations outside the
        component are windowed like its own; they do not grow, so the
        offset bump that ends a round empties their delta for good.
        """
        scc_set = self.task.sigs
        cache = self.cache
        recorder = self.recorder
        recursive = self.task.recursive
        seminaive = self.mode == "seminaive"
        capped = self.config.max_facts is not None
        budget = self._check_facts if capped and not recursive else None
        rels: Dict[Signature, Relation] = {
            sig: db.relation(*sig) for sig in scc_set
        }
        # Facts present before the first round seed the delta (magic
        # seeds and facts from earlier strata drive round one);
        # delta_start marks the log offset where the current delta begins.
        windows = rels
        delta_start: Dict[Signature, int] = {sig: 0 for sig in scc_set}
        seeded = seeds is not None
        if seeded:
            read = {lit.signature for rule in self.task.rules for lit in rule.body}
            windows = {sig: db.relation(*sig) for sig in read if sig in seeds}
            windows.update(rels)
            delta_start = {
                sig: seeds.get(sig, len(rel)) for sig, rel in windows.items()
            }

        # Per rule, the plans it fires in a round as (roles, binding)
        # pairs.  A rule with recursive occurrences fires its delta
        # variants every round.  Any other rule reads only full
        # relations (_FULL): every round in naive mode, but only in the
        # first round in semi-naive mode — its input never changes
        # afterwards.  Each (rule, roles) pair is compiled once by the
        # cache and re-fetched per round: the refetch is what the
        # plan_cache_hits counter measures, and what lets the cost
        # planner notice cardinality drift and re-plan.  A seeded run
        # fires delta variants only: a rule none of whose occurrences
        # is windowed has nothing new to read.
        firings = []
        windowed = seeded or (seminaive and recursive)
        for rule_index, rule in enumerate(self.task.rules):
            variants = self._delta_variants(rule, seeds) if windowed else None
            if variants or not seeded:
                firings.append(
                    (rule_index, rule, rule.head.signature, variants or _FULL,
                     bool(variants) or not seminaive)
                )

        first_round = True
        try:
            while True:
                self.begin_round(stats)
                if recorder is not None:
                    recorder.start_round()
                round_partitioned = False
                if windowed:
                    stop = {sig: len(rel) for sig, rel in windows.items()}
                    # (signature, role) -> this round's window, built when a
                    # firing binds it and shared (indexes too) by later ones
                    views: Dict[Tuple[Signature, str], RelationView] = {}
                new: Dict[Signature, set] = {}

                for rule_index, rule, sig, variants, every_round in firings:
                    if not (every_round or first_round):
                        continue
                    rel = rels[sig]
                    emitted: list = []
                    batch_rows = rows
                    for roles, binding in variants:
                        overrides = None
                        if binding:
                            delta_sig = binding[0][2]
                            if seeded and stop[delta_sig] == delta_start[delta_sig]:
                                continue  # nothing new at this occurrence
                            overrides = {}
                            for pos, role, body_sig in binding:
                                view = views.get((body_sig, role))
                                if view is None:
                                    lo, hi = delta_start[body_sig], stop[body_sig]
                                    if role != "delta":  # old: the log before it
                                        lo, hi = 0, lo
                                    view = views[body_sig, role] = RelationView(
                                        windows[body_sig], lo, hi
                                    )
                                overrides[pos] = view
                        plan = cache.plan(rule, roles, stats, db, overrides)
                        out = None
                        if partitioner is not None and roles:
                            # roles[0] is the variant's delta occurrence.  The
                            # plan was fetched (and its estimate is recorded)
                            # exactly once with the full-delta overrides, so
                            # plan-cache counters match partitions=1; the
                            # partitions' emissions come back concatenated in
                            # partition order.
                            out = partitioner.run(
                                plan, db, overrides, roles[0][0], stats, rows.interned
                            )
                            if out is not None:
                                round_partitioned = True
                                out = rows.adopt(out)
                        if out is None:
                            batch_rows, out = rows.run(
                                plan, overrides, rel, rule_index, rule
                            )
                        if plan.estimated_rows is not None:
                            stats.record_estimate(plan.estimated_rows, len(out))
                        if emitted:
                            emitted.extend(out)
                        else:
                            # The common single-variant case adopts the
                            # fresh list instead of copying it.
                            emitted = out
                    if not emitted:
                        continue
                    stats.inferences += len(emitted)
                    fresh = batch_rows.novel(rel, emitted)
                    if not fresh:
                        continue
                    if not recursive:
                        batch_rows.absorb(sig, rel, fresh, budget)
                    elif sig in new:
                        new[sig] |= fresh
                    else:
                        new[sig] = fresh

                if round_partitioned:
                    stats.partition_rounds += 1
                if windowed:
                    # Advance: delta becomes old (a log-offset bump).
                    delta_start = stop
                for sig, fresh in new.items():
                    rows.absorb(sig, rels[sig], fresh)
                    if capped:
                        self._check_facts(stats)
                first_round = False
                if not new:
                    break
        finally:
            # also when a budget ended it: else the last round's row list
            # stays cached on every head for as long as the database lives
            for rel in rels.values():
                rel.release_delta_rows()

