"""Incremental view maintenance: semi-naive deltas and DRed deletion.

The paper's transformations make a *single* fixpoint cheap; a system
serving queries against churning base data must also keep the
materialized IDB correct **without** re-running that fixpoint per
update.  :class:`IncrementalSession` owns a materialized
:class:`~repro.engine.database.Database` for one program and maintains
every IDB relation under EDB churn:

* **Insertion** is the evaluator resumed: the new EDB facts extend the
  log of their relations, and the affected strongly connected
  components (in the same topological order the
  :class:`~repro.engine.scheduler.SCCScheduler` uses) have their
  fixpoints continued *forward* from the current state by the
  evaluator's own driver
  (:meth:`~repro.engine.scheduler.ComponentRun.resume`).  Its delta
  windows start at the log offsets of the new facts: changed
  **external** relations (EDB and lower strata) are a delta in the
  first round, then only the component's own relations are.
* **Deletion** is DRed (delete–rederive, Gupta/Mumick/Subrahmanian):
  first *over-delete* — everything with at least one derivation
  through a deleted fact, propagated component by component through
  the dependency graph against the pre-deletion database — then prune,
  then *re-derive*: facts with an alternate derivation among the
  survivors are restored by one filtered pass per component followed
  by the same resumed fixpoint, seeded with the restorations.
  Facts still present in the EDB (or asserted as ground program rules)
  are never over-deleted — they carry their own support.

Both paths converge to exactly the least model of the program on the
final EDB — the same fact set ``seminaive_eval`` derives from scratch
— because the least fixpoint is unique; the randomized insert/delete
scripts in ``tests/test_fuzz.py`` hold this as a differential
property across planners, backends, and job counts.

**Provenance mode** (``record_provenance=True``) additionally keeps
one canonical derivation per derived fact, bit-identical to a
from-scratch :func:`~repro.engine.provenance.provenance_eval` on the
final EDB.  Canonical trees are round-structure-dependent (the
recorder keeps the per-first-round minimum), so fact-level deltas
cannot splice them; instead maintenance recomputes at **component
granularity** — a component's output (facts *and* recorded
derivations) is a deterministic function of its input facts alone, so
recomputing exactly the affected components reproduces the
from-scratch trees.  Deletion uses a *support-index fast path*: the
recorded derivations double as a reverse dependency index, and a
component none of whose facts transitively depend (through recorded
derivations) on a deleted fact provably keeps both its facts and its
trees, so it is skipped entirely.  See ``docs/incremental.md`` for
the worked example and the induction behind that skip.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_program, parse_query
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Term
from repro.datalog.validate import reserved_name_reason
from repro.engine.columnar import decode_rows, execute_columnar
from repro.engine.config import EngineConfig
from repro.engine.database import Database, FactTuple, Relation, unwrap_rows
from repro.engine.joins import relation_from_tuples
from repro.engine.plan import ExistencePlan, PlanCache
from repro.engine.provenance import (
    DerivationRecorder,
    DerivationTree,
    EdbKeyView,
    ProvenanceResult,
    provenance_eval,
)
from repro.engine import faults
from repro.engine.scheduler import ComponentRun, ComponentTask, SCCScheduler
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats, MaintenanceError

Signature = Tuple[str, int]
FactKey = Tuple[str, int, FactTuple]

#: Accepted update shapes: a mapping ``{predicate: rows}``, an iterable
#: of ``(predicate, args)`` pairs, or Datalog text of ground facts.
Updates = Union[str, Mapping[str, Iterable[Sequence]], Iterable[Tuple[str, Sequence]]]


def _wrap(args: Sequence) -> FactTuple:
    """Wrap plain Python values as ground constants (like ``add_fact``)."""
    wrapped = tuple(a if isinstance(a, Term) else Constant(a) for a in args)
    for term in wrapped:
        if not term.is_ground():
            raise ValueError(f"update argument {term} is not ground")
    return wrapped


def _normalize_updates(facts: Updates) -> Dict[Signature, List[FactTuple]]:
    """Any accepted update shape as ``{signature: [wrapped rows]}``."""
    if isinstance(facts, str):
        parsed = parse_program(facts)
        for rule in parsed.rules:
            if not rule.is_fact():
                raise ValueError(f"updates must be ground facts, got {rule}")
        pairs: Iterable[Tuple[str, Sequence]] = [
            (r.head.predicate, r.head.args) for r in parsed.rules
        ]
    elif isinstance(facts, Mapping):
        pairs = [
            (pred, row) for pred, rows in facts.items() for row in rows
        ]
    else:
        pairs = list(facts)
    out: Dict[Signature, List[FactTuple]] = {}
    for pred, args in pairs:
        reason = reserved_name_reason(pred)
        if reason is not None:
            raise ValueError(
                f"cannot update predicate {pred!r}: it {reason}"
            )
        wrapped = _wrap(args)
        out.setdefault((pred, len(wrapped)), []).append(wrapped)
    return out


def fold_batches(
    edb: Database, batches: Iterable[Tuple[Updates, Updates]]
) -> None:
    """Net a sequence of ``(inserts, deletes)`` batches into ``edb``.

    The base-fact half of applying them one by one through
    :meth:`IncrementalSession.apply_batch`, with no IDB to maintain:
    per fact the last writer wins in batch order, a batch's deletes
    precede its inserts, and deleting an absent fact or inserting a
    present one changes nothing.  The IDB is a function of the EDB
    alone, so a session started on the folded ``edb`` equals one that
    maintained every batch — what journal recovery relies on.  Cost is
    one pass over the batches plus one removal per touched relation,
    whatever their number.
    """
    net: Dict[Signature, Dict[FactTuple, bool]] = {}
    for inserts, deletes in batches:
        for present, updates in ((False, deletes), (True, inserts)):
            for sig, rows in _normalize_updates(updates).items():
                net.setdefault(sig, {}).update(dict.fromkeys(rows, present))
    for sig, facts in net.items():
        base = edb.get(*sig)
        if base is not None:
            base.remove_facts(
                [fact for fact, present in facts.items() if not present]
            )
        for fact, present in facts.items():
            if present:
                edb.relation(*sig).add(fact)


class IncrementalSession:
    """A materialized database maintained under EDB churn.

    ::

        session = IncrementalSession(program, edb)
        session.insert([("e", (7, 8)), ("e", (8, 9))])
        session.delete("e(1, 2).")
        session.query("t(0, Y)")

    ``insert``/``delete`` accept a ``{predicate: rows}`` mapping, an
    iterable of ``(predicate, args)`` pairs, or Datalog text of ground
    facts; each returns the :class:`~repro.engine.stats.EvalStats` of
    that maintenance pass (``incr_rounds`` delta rounds, ``rederived``
    DRed restorations, ``facts`` added).  ``session.stats`` accumulates
    across the initial evaluation and every pass.

    ``config`` and/or keyword knobs are those of
    :class:`~repro.engine.config.EngineConfig`, resolved once here
    (:attr:`config`).  The parallel knobs apply to the initial
    materialization (maintenance passes are sequential — affected
    components are usually few), the planner governs every maintenance
    join, and ``partitions > 1`` hash-splits the deltas of a resumed
    fixpoint as it does the evaluator's, serially — same emissions in
    partition order, counted in ``partition_rounds``/``partition_skew``.
    For any knob combination the maintained database is bit-identical
    to a from-scratch evaluation on the final EDB.

    ``record_provenance=True`` keeps one canonical derivation per
    derived fact (see :meth:`explain`), maintained to stay identical
    to a from-scratch provenance evaluation; it trades the fact-level
    delta paths for component-granular recomputation with a
    support-index fast path on deletion (see the module docstring).

    Every update is **atomic**: :meth:`apply_batch` (which
    ``insert``/``delete`` delegate to) snapshots the batch's dirty
    closure before mutating anything, and any maintenance failure — a
    lost worker, an injected fault, or one of the evaluator's budgets
    exceeded — rolls the session back to its pre-batch state and raises
    :class:`~repro.engine.stats.MaintenanceError`.  The budgets are the
    evaluator's, enforced by its driver: ``max_iterations`` (rounds of
    one component's over-deletion or resumed fixpoint),
    ``max_seconds`` (wall clock of the whole pass, checked at every
    round) and ``max_facts`` (facts the database holds beyond its EDB —
    a batch is refused exactly when a from-scratch evaluation of its
    post-state would be).
    """

    def __init__(
        self,
        program: Program,
        edb: Optional[Database] = None,
        *,
        record_provenance: bool = False,
        config: Optional[EngineConfig] = None,
        **knobs,
    ):
        self.program = program
        self.config = config = EngineConfig.resolve(config, **knobs)
        #: What maintenance passes run under: sequential, and with
        #: serial partitioning whatever the backend — affected deltas
        #: are usually small, and the serial executor keeps the counters
        #: (and the parity argument) with no pool to start per component.
        self._maintenance = replace(config, jobs=1, backend="serial")
        self.record_provenance = record_provenance
        #: Wall-clock deadline of the maintenance pass in flight (armed
        #: by :meth:`apply_batch`, handed to every component run, which
        #: checks it at each round); ``None`` outside a pass or without
        #: a budget.
        self._deadline: Optional[float] = None
        self._edb = edb.copy() if edb is not None else Database()
        self._edb_keys = EdbKeyView(self._edb)
        self._query_compiler = None

        # Component structure (shared with the evaluators): tasks in
        # topological evaluation order, and the owning task per IDB sig.
        structure = SCCScheduler(program, self._maintenance)
        self._cache = PlanCache(config.planner)
        #: Re-derivation probes, compiled on first use and kept for the
        #: session: a rule's head-bound existence plan never changes.
        self._existence: Dict[Rule, ExistencePlan] = {}
        #: Dirty closures by changed-signature set (see _dirty_closure).
        self._closures: Dict[frozenset, Set[Signature]] = {}
        self._tasks: List[ComponentTask] = structure.tasks
        self._sig_task: Dict[Signature, ComponentTask] = {
            sig: task for task in self._tasks for sig in task.sigs
        }
        #: Ground program rules are permanent support: their facts are
        #: present regardless of the EDB and are never over-deleted.
        self._program_fact_keys: Dict[FactKey, Rule] = {
            (r.head.predicate, r.head.arity, r.head.args): r
            for r in program.rules
            if r.is_fact()
        }

        self.stats = EvalStats()
        if record_provenance:
            result = provenance_eval(self.program, self._edb, config)
            self.database = result.database
            self._edb_keys = result.edb_keys
            self._derivations: Optional[
                Dict[FactKey, Tuple[Optional[Rule], Tuple[FactKey, ...]]]
            ] = result.derivations
            self.stats.absorb(result.stats)
            # Support indexes over the recorded derivations: keys per
            # head sig, and the reverse (fact -> recorded dependents).
            self._deriv_by_sig: Dict[Signature, Set[FactKey]] = {}
            self._rdeps: Dict[FactKey, Set[FactKey]] = {}
            for key, (_, body_keys) in self._derivations.items():
                self._deriv_by_sig.setdefault((key[0], key[1]), set()).add(key)
                for bk in body_keys:
                    self._rdeps.setdefault(bk, set()).add(key)
        else:
            self.database, init_stats = seminaive_eval(
                self.program, self._edb, config
            )
            self._derivations = None
            self.stats.absorb(init_stats)
        if config.exec == "columnar" and not record_provenance:
            # Maintenance passes intern through the same dictionary the
            # initial evaluation used (minted here if the program was
            # trivial enough that no component ran).
            self.database.ensure_dictionary()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def edb(self) -> Database:
        """The maintained base facts (mutate only through the session)."""
        return self._edb

    def query(self, query: Union[str, Literal]) -> Set[Tuple]:
        """Bindings of the goal's variables against the materialized IDB.

        Answers come straight from the maintained database — no
        fixpoint runs.  Returns unwrapped Python values like
        :meth:`repro.session.DeductiveDatabase.ask`.
        """
        goal = parse_query(query) if isinstance(query, str) else query
        return unwrap_rows(self.database.query(goal))

    def holds(self, query: Union[str, Literal]) -> bool:
        """True when a ground query holds in the materialized database."""
        return bool(self.query(query))

    @property
    def query_compiler(self):
        """The goal-directed compiler over this session's program.

        Built lazily on the first :meth:`query_goal`; compiled entries
        are cached per query form and invalidated by
        :meth:`apply_batch` (see
        :meth:`repro.engine.query.QueryCompiler.note_edb_change`).
        """
        if self._query_compiler is None:
            from repro.engine.query import QueryCompiler

            self._query_compiler = QueryCompiler(
                self.program, config=self.config
            )
        return self._query_compiler

    def query_goal(self, query: Union[str, Literal], explain: bool = False):
        """Goal-directed answers evaluated against the maintained EDB.

        Unlike :meth:`query` (a read of the materialized database),
        this compiles the goal through adornment + Magic Sets (or
        counting/factoring where certified) and evaluates the rewritten
        program with compiled plans against the *EDB only* — the
        serving path for point queries that must not depend on (or pay
        for) full materialization.  Read-only: neither the database nor
        the journal is touched.  Returns unwrapped value tuples like
        :meth:`query`; with ``explain=True`` returns the full
        :class:`~repro.engine.query.QueryAnswer` (strategy, certifying
        theorem, statistics, cache hit).
        """
        goal = parse_query(query) if isinstance(query, str) else query
        answer = self.query_compiler.ask(goal, self._edb)
        if explain:
            return answer
        return answer.values()

    def explain(self, fact: Union[str, Literal]) -> DerivationTree:
        """A derivation tree for a ground fact (provenance mode only)."""
        if self._derivations is None:
            raise RuntimeError(
                "explain() needs IncrementalSession(record_provenance=True)"
            )
        goal = parse_literal(fact) if isinstance(fact, str) else fact
        return ProvenanceResult(
            self.database, self.stats, self._derivations, self._edb_keys
        ).explain(goal)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _normalize(self, facts: Updates) -> Dict[Signature, List[FactTuple]]:
        return _normalize_updates(facts)

    def insert(self, facts: Updates) -> EvalStats:
        """Add EDB facts; maintain every affected IDB relation forward.

        Equivalent to ``apply_batch(inserts=facts)`` — one atomic
        maintenance pass.  Returns this pass's stats: ``facts`` counts
        everything the pass added to the materialized database (new EDB
        facts and the consequences derived from them), ``incr_rounds``
        the delta fixpoint rounds it took.  Facts already present are
        no-ops.
        """
        return self.apply_batch(inserts=facts)

    def delete(self, facts: Updates) -> EvalStats:
        """Retract EDB facts; maintain the IDB by delete–rederive.

        Equivalent to ``apply_batch(deletes=facts)`` — one atomic
        maintenance pass.  Facts not currently in the EDB are ignored.
        Returns this pass's stats: ``rederived`` counts over-deleted
        facts restored because an alternate derivation survived;
        ``facts`` counts the restorations added back during
        re-derivation.
        """
        return self.apply_batch(deletes=facts)

    def apply_batch(
        self,
        inserts: Optional[Updates] = None,
        deletes: Optional[Updates] = None,
    ) -> EvalStats:
        """One atomic maintenance pass applying deletes, then inserts.

        The batch is all-or-nothing.  Before any mutation, the batch's
        *dirty closure* — the updated EDB signatures plus every
        component transitively reachable from them — is *detached*:
        each relation in it is swapped for a copy-on-write
        :meth:`Relation.copy` and the batch mutates only the copies
        (the frozen originals are what concurrently pinned read views
        keep seeing), along with the provenance store in provenance
        mode.  A detach is a few C-level container copies per relation
        — fact set, log, columns, one ``dict`` per index, the bucket
        lists shared — so its cost is the closure's size at ``memcpy``
        speed; everything after it is paid per changed fact: buckets
        are replaced where the batch writes, over-deletion and the
        forward delta follow the delta, re-derivation probes one
        candidate at a time.  What still scans a whole relation is the
        prune of a delete (one pass over its interned rows, and the
        rebuild of its int indexes, whose row positions compaction
        shifts).  Any failure during
        maintenance — :class:`NonTerminationError`, a
        :class:`ComponentTimeout` from the wall-clock watchdog, a
        process-backend worker loss, an injected fault — rolls the
        database, the EDB, and the provenance store back to their
        pre-batch state and raises :class:`MaintenanceError` (with the
        original failure as ``__cause__`` and the failing half in
        ``.phase``); session statistics are untouched by a failed
        batch.  After a rollback the session remains exactly a
        from-scratch evaluation of the pre-batch EDB.

        Deletes run first (DRed), then inserts continue the semi-naive
        fixpoints forward, so one batch costs one combined pass instead
        of PR 5's one pass per call.  A fact named in both halves ends
        up present (delete-then-insert order).  Returns the combined
        pass statistics, which :attr:`stats` also absorbs on success.
        """
        ins = self._normalize(inserts) if inserts is not None else {}
        dels = self._normalize(deletes) if deletes is not None else {}
        start = time.perf_counter()
        pass_stats = EvalStats()
        undo = self._begin_undo(set(ins) | set(dels))
        if self.config.max_seconds is not None:
            self._deadline = time.monotonic() + self.config.max_seconds
        phase = "delete"
        try:
            self._apply_deletes(dels, pass_stats)
            phase = "insert"
            self._apply_inserts(ins, pass_stats)
        except BaseException as exc:
            self._rollback(undo)
            if isinstance(exc, Exception):
                raise MaintenanceError(
                    f"maintenance batch failed during its {phase} phase "
                    f"and was rolled back: {exc}",
                    phase=phase,
                ) from exc
            raise  # KeyboardInterrupt and friends propagate unwrapped
        finally:
            self._deadline = None
        # The evaluator's driver counted the pass's rounds: they are
        # incremental bookkeeping, not a full evaluation's iterations.
        pass_stats.incr_rounds += pass_stats.iterations
        pass_stats.iterations = 0
        pass_stats.seconds = time.perf_counter() - start
        self.stats.absorb(pass_stats)
        if self._query_compiler is not None:
            # A failed batch rolled back to the pre-batch EDB, so only a
            # successful one invalidates cached goal-directed compiles.
            self._query_compiler.note_edb_change()
        return pass_stats

    def _apply_deletes(
        self, updates: Dict[Signature, List[FactTuple]], pass_stats: EvalStats
    ) -> None:
        """The delete half of a batch (caller holds the undo snapshot)."""
        removed: Dict[Signature, List[FactTuple]] = {}
        for sig, rows in updates.items():
            base = self._edb.get(*sig)
            if base is None:
                continue
            present = [fact for fact in dict.fromkeys(rows) if fact in base]
            if present:
                base.remove_facts(present)
                removed[sig] = present
        if removed:
            if self._derivations is None:
                self._dred(removed, pass_stats)
            else:
                self._recompute_after_delete(removed, pass_stats)

    def _apply_inserts(
        self, updates: Dict[Signature, List[FactTuple]], pass_stats: EvalStats
    ) -> None:
        """The insert half of a batch (caller holds the undo snapshot)."""
        changed_start: Dict[Signature, int] = {}
        base_new_sigs: Set[Signature] = set()
        for sig, rows in updates.items():
            base = self._edb.relation(*sig)
            rel = self.database.relation(*sig)
            before = len(rel)
            for fact in rows:
                if base.add(fact) and self._derivations is not None:
                    # The fact is an EDB leaf now; a stale derivation
                    # entry would diverge from a from-scratch record.
                    base_new_sigs.add(sig)
                    self._drop_derivation((sig[0], sig[1], fact))
                if rel.add(fact):
                    pass_stats.record_fact(sig)
            if len(rel) > before:
                changed_start[sig] = before
        if not changed_start and not base_new_sigs:
            return
        if self._derivations is None:
            self._propagate_insertions(changed_start, pass_stats)
        else:
            self._recompute_affected(
                set(changed_start), base_new_sigs, pass_stats
            )

    # ------------------------------------------------------------------
    # Undo snapshots and rollback
    # ------------------------------------------------------------------

    def _dirty_closure(self, changed: Set[Signature]) -> Set[Signature]:
        """Every signature a batch over ``changed`` could mutate.

        The updated signatures themselves plus the signatures of every
        component that (transitively) reads one — a single pass over
        the tasks suffices because they are in topological order, so a
        downstream reader is visited after the component that dirtied
        its input.  The answer depends on the program and ``changed``
        alone, so it is computed once per distinct ``changed`` (callers
        only read the returned set).
        """
        key = frozenset(changed)
        dirty = self._closures.get(key)
        if dirty is None:
            dirty = set(changed)
            for task in self._tasks:
                if task.sigs & dirty or any(
                    lit.signature in dirty
                    for rule in task.rules
                    for lit in rule.body
                ):
                    dirty |= task.sigs
            self._closures[key] = dirty
        return dirty

    def _begin_undo(self, changed: Set[Signature]):
        """Detach everything a batch over ``changed`` could touch.

        Copy-on-write: every relation in the dirty closure is replaced
        by a :meth:`Relation.copy` (own containers, shared index
        buckets that whoever writes first replaces) and the batch
        mutates only the copies, so the *original* objects stay frozen
        forever.  That buys two things:

        - rollback is a pointer swap back to the untouched originals
          (which keep their hot indexes — the old restore path lost
          them), and
        - a read view pinned before the batch (``Database.pin()`` in
          the concurrent server) never observes mid-batch or
          rolled-back state, because the relations it references are
          exactly the frozen originals.
        """
        dirty = self._dirty_closure(changed)
        db_saved = self._detach(self.database, dirty)
        edb_saved = self._detach(self._edb, changed)
        prov = None
        if self._derivations is not None:
            prov = (
                dict(self._derivations),
                {sig: set(keys) for sig, keys in self._deriv_by_sig.items()},
                {key: set(deps) for key, deps in self._rdeps.items()},
            )
        return (db_saved, edb_saved, prov)

    @staticmethod
    def _detach(db: Database, sigs: Set[Signature]):
        """Swap the named relations for copies; return the originals.

        A ``None`` value records *absence*: the signature did not exist
        pre-batch, so rollback drops whatever the batch created there.
        """
        saved = {}
        for sig in sigs:
            rel = db.relations.get(sig)
            saved[sig] = rel
            if rel is not None:
                db.relations[sig] = rel.copy()
        return saved

    def _rollback(self, undo) -> None:
        """Restore the pre-batch state captured by :meth:`_begin_undo`.

        The detached originals are swapped back in place on the *same*
        database objects, so live wrappers (``EdbKeyView``, external
        references to ``session.database``) keep working; the batch's
        mutated copies are simply dropped.
        """
        db_saved, edb_saved, prov = undo
        for db, saved in ((self.database, db_saved), (self._edb, edb_saved)):
            for sig, rel in saved.items():
                if rel is not None:
                    db.relations[sig] = rel
                else:
                    db.relations.pop(sig, None)
        if prov is not None:
            self._derivations, self._deriv_by_sig, self._rdeps = prov

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _is_protected(self, sig: Signature, fact: FactTuple) -> bool:
        """Facts with base support are never deleted: EDB or program fact."""
        if (sig[0], sig[1], fact) in self._program_fact_keys:
            return True
        rel = self._edb.get(*sig)
        return rel is not None and fact in rel.tuples

    def _component_run(
        self, task: ComponentTask, stats: EvalStats, recorder=None
    ) -> ComponentRun:
        """The evaluator's run of ``task`` under this pass's budgets.

        The pass shares one wall-clock deadline, and ``fact_base`` is
        set so that the run's ``max_facts`` guard counts what a
        from-scratch evaluation counts — every fact the database holds
        beyond its EDB (``stats.facts`` of them added by this pass).
        """
        fact_base = 0
        if self.config.max_facts is not None:
            fact_base = (
                self.database.total_facts()
                - self._edb.total_facts()
                - stats.facts
            )
        return ComponentRun(
            task,
            self._maintenance,
            recorder=recorder,
            fact_base=fact_base,
            cache=self._cache,
            deadline=self._deadline,
        )

    def _run_rule(
        self, rule: Rule, pos: int, delta: Relation, stats: EvalStats
    ) -> List[FactTuple]:
        """Head tuples of ``rule`` with ``delta`` at body position ``pos``.

        Over-deletion's rule runner.  Eligible plans run batch-at-a-time
        and their interned rows are decoded back to term tuples (the
        frontier bookkeeping works on terms), with a per-call fallback
        to the tuple executor — counters are identical either way, and
        ``columnar_fallbacks`` counts the declines.
        """
        overrides = {pos: delta}
        plan = self._cache.plan(
            rule, ((pos, "delta"),), stats, db=self.database, overrides=overrides
        )
        rows = None
        if self.config.exec == "columnar":
            rows = execute_columnar(plan, self.database, overrides, stats)
            if rows is None:
                stats.columnar_fallbacks += 1
        if rows is None:
            emitted: List[FactTuple] = []
            plan.execute(self.database, overrides, emitted.append, stats)
        else:
            emitted = decode_rows(self.database.dictionary.terms, rows)
        if plan.estimated_rows is not None:
            stats.record_estimate(plan.estimated_rows, len(emitted))
        return emitted

    # ------------------------------------------------------------------
    # Insertion propagation (fact-level deltas)
    # ------------------------------------------------------------------

    def _propagate_insertions(
        self, changed_start: Dict[Signature, int], stats: EvalStats
    ) -> None:
        """Drive affected components forward from the inserted deltas.

        ``changed_start`` maps every changed signature to the log
        offset where its new facts begin; components are visited in
        topological order and each one a changed signature reaches has
        its fixpoint resumed from those offsets
        (:meth:`ComponentRun.resume`).  A component that derives
        nothing new adds no signatures, so propagation dies out as
        early as the data allows.
        """
        db = self.database
        for task in self._tasks:
            if not any(sig in changed_start for sig in task.sigs) and not any(
                lit.signature in changed_start
                for rule in task.rules
                for lit in rule.body
            ):
                continue
            pre = {sig: len(db.relation(*sig)) for sig in task.sigs}
            self._component_run(task, stats).resume(db, stats, changed_start)
            for sig, before in pre.items():
                if len(db.relation(*sig)) > before:
                    changed_start.setdefault(sig, before)

    # ------------------------------------------------------------------
    # DRed deletion (fact-level deltas)
    # ------------------------------------------------------------------

    def _dred(
        self, removed: Dict[Signature, List[FactTuple]], stats: EvalStats
    ) -> None:
        """Delete–rederive: over-delete, prune, then restore survivors."""
        deleted = self._overdelete(removed, stats)
        if not deleted:
            return
        for sig, doomed in deleted.items():
            rel = self.database.get(*sig)
            if rel is not None:
                rel.remove_facts(doomed)
        self._rederive(deleted, stats)

    def _overdelete(
        self, removed: Dict[Signature, List[FactTuple]], stats: EvalStats
    ) -> Dict[Signature, Set[FactTuple]]:
        """Everything with a derivation through a deleted fact.

        Evaluated against the *pre-deletion* database (nothing is
        pruned yet), component by component in topological order; one
        deletion-delta variant per body occurrence of a deleted
        signature finds every rule instance that consumed at least one
        deleted fact — its head joins the over-estimate unless it has
        base support (still in the EDB, or a ground program rule).
        """
        deleted: Dict[Signature, Set[FactTuple]] = {}
        for sig, facts in removed.items():
            rel = self.database.get(*sig)
            for fact in facts:
                if rel is None or fact not in rel.tuples:
                    continue
                if self._is_protected(sig, fact):
                    continue
                deleted.setdefault(sig, set()).add(fact)
        for task in self._tasks:
            read = {
                lit.signature for rule in task.rules for lit in rule.body
            }
            frontier = {
                s: list(deleted[s]) for s in read if deleted.get(s)
            }
            own_total = sum(
                len(self.database.relation(*sig)) for sig in task.sigs
            )
            if frontier:
                faults.fire("component")
                # Frontier rounds are counted and bounded (rounds per
                # component, the pass's deadline) like the evaluator's.
                guard = self._component_run(task, stats)
            while frontier:
                if self._overdelete_saturated(task, deleted, own_total):
                    break
                guard.begin_round(stats)
                delta_rels = {
                    s: relation_from_tuples(
                        s[0], s[1], facts, self.database.dictionary
                    )
                    for s, facts in frontier.items()
                }
                fresh: Dict[Signature, List[FactTuple]] = {}
                for rule in task.rules:
                    head_sig = rule.head.signature
                    head_rel = self.database.get(*head_sig)
                    if head_rel is None:
                        continue
                    doomed_here = deleted.setdefault(head_sig, set())
                    for i, lit in enumerate(rule.body):
                        s = lit.signature
                        if s not in delta_rels:
                            continue
                        emitted = self._run_rule(rule, i, delta_rels[s], stats)
                        stats.inferences += len(emitted)
                        for fact in emitted:
                            if (
                                fact in head_rel.tuples
                                and fact not in doomed_here
                                and not self._is_protected(head_sig, fact)
                            ):
                                doomed_here.add(fact)
                                fresh.setdefault(head_sig, []).append(fact)
                frontier = {
                    s: facts for s, facts in fresh.items() if s in read
                }
        return {sig: facts for sig, facts in deleted.items() if facts}

    #: When more than this fraction of a component is over-deleted,
    #: stop propagating within it (mark everything deletable) and let
    #: re-derivation fall back to a component recompute — DRed's
    #: worst case then costs one affected-component fixpoint instead
    #: of cone-sized delta bookkeeping on top of one.
    SATURATION_RATIO = 0.5

    def _overdelete_saturated(
        self,
        task: ComponentTask,
        deleted: Dict[Signature, Set[FactTuple]],
        own_total: int,
    ) -> bool:
        """Saturate a mostly-deleted component's over-estimate.

        Returns True — and maximizes ``deleted`` for the component's
        signatures (every fact without base support) — once the
        over-estimate passes :data:`SATURATION_RATIO` of the
        component's facts.  The estimate stays a superset of the true
        deletions, so downstream propagation and re-derivation remain
        correct; it just stops being *tracked* fact by fact where a
        recompute is cheaper anyway.
        """
        own_deleted = sum(len(deleted.get(sig, ())) for sig in task.sigs)
        if own_deleted <= self.SATURATION_RATIO * own_total:
            return False
        for sig in task.sigs:
            rel = self.database.get(*sig)
            if rel is None:
                continue
            doomed = deleted.setdefault(sig, set())
            for fact in rel.tuples:
                if fact not in doomed and not self._is_protected(sig, fact):
                    doomed.add(fact)
        return True

    def _rederive(
        self, deleted: Dict[Signature, Set[FactTuple]], stats: EvalStats
    ) -> None:
        """Restore over-deleted facts with surviving alternate derivations.

        Topological again: one filtered pass per affected component —
        each rule runs against the pruned database and only heads from
        the over-estimate are re-admitted — then the forward delta
        fixpoint propagates the restorations (a restored fact may
        support further restorations, in this component and below the
        next ones).  Facts restored downstream need no delta of their
        own beyond this: derivations newly enabled by a restoration
        can only produce facts that were already present or also
        over-deleted, both handled here.
        """
        for task in self._tasks:
            own_deleted = {
                sig: deleted[sig]
                for sig in task.sigs
                if deleted.get(sig)
            }
            if not own_deleted:
                continue
            pre = {
                sig: len(self.database.relation(*sig)) for sig in own_deleted
            }
            candidates_count = sum(len(d) for d in own_deleted.values())
            survivors = sum(
                len(self.database.relation(*sig)) for sig in task.sigs
            )
            if candidates_count > survivors:
                # The majority of the component was over-deleted (the
                # saturation path, or simply heavy churn): a fixpoint
                # from base over the already-maintained lower strata is
                # cheaper than probing every candidate individually.
                self._recompute_component_facts(task, stats)
                for sig, before in pre.items():
                    stats.rederived += max(
                        0, len(self.database.relation(*sig)) - before
                    )
                continue
            stats.incr_rounds += 1
            for sig, doomed in own_deleted.items():
                rel = self.database.relation(*sig)
                # Bound once per pass: add() updates the probed indexes
                # and fact sets in place, so later candidates see the
                # facts restored before them.
                probes = []
                for rule in task.rules:
                    if rule.head.signature == sig:
                        plan = self._existence_plan(rule)
                        sources = plan.bind(self.database)
                        if sources is not None:
                            probes.append((plan, sources))
                for fact in doomed:
                    if self._has_surviving_derivation(probes, fact, stats):
                        if rel.add(fact):
                            stats.record_fact(sig)
            self._component_run(task, stats).resume(self.database, stats, pre)
            for sig, before in pre.items():
                stats.rederived += len(self.database.relation(*sig)) - before

    def _existence_plan(self, rule: Rule) -> ExistencePlan:
        plan = self._existence.get(rule)
        if plan is None:
            plan = self._existence[rule] = ExistencePlan(rule)
        return plan

    @staticmethod
    def _has_surviving_derivation(probes, fact: FactTuple, stats: EvalStats) -> bool:
        """True when some rule derives ``fact`` from the pruned database.

        ``probes`` pairs each rule for the fact's signature, compiled
        head-bound (:class:`~repro.engine.plan.ExistencePlan`), with
        the containers it probes (rules over a missing relation derive
        nothing and are left out).  The candidate binds the head's
        variables, so this is a *bounded* existence probe (early exit
        on the first witness), not a rule evaluation — the standard
        DRed re-derivation step, one candidate at a time.
        """
        for plan, sources in probes:
            if plan.holds(sources, fact, stats):
                stats.inferences += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Component recomputation (DRed fallback and provenance mode)
    # ------------------------------------------------------------------

    def _reset_component_to_base(self, task: ComponentTask) -> None:
        """Reset the component's relations to EDB + program-fact content."""
        db = self.database
        for sig in task.sigs:
            rel = Relation(*sig, dictionary=db.dictionary)
            base = self._edb.get(*sig)
            if base is not None:
                for fact in base.view(0, len(base)):
                    rel.add(fact)
            db.relations[sig] = rel
        for key, rule in self._program_fact_keys.items():
            sig = (key[0], key[1])
            if sig in task.sigs:
                db.relations[sig].add(key[2])

    def _recompute_component_facts(
        self, task: ComponentTask, stats: EvalStats, recorder=None
    ) -> None:
        """From-base fixpoint of one component over the current lower strata."""
        self._reset_component_to_base(task)
        self._component_run(task, stats, recorder).execute(self.database, stats)

    # ------------------------------------------------------------------
    # Provenance mode: component-granular recomputation
    # ------------------------------------------------------------------

    def _drop_derivation(self, key: FactKey) -> None:
        entry = self._derivations.pop(key, None)
        if entry is None:
            return
        keys = self._deriv_by_sig.get((key[0], key[1]))
        if keys is not None:
            keys.discard(key)
        for bk in entry[1]:
            deps = self._rdeps.get(bk)
            if deps is not None:
                deps.discard(key)
                if not deps:
                    del self._rdeps[bk]

    def _recompute_component(
        self, task: ComponentTask, stats: EvalStats
    ) -> Set[Signature]:
        """From-scratch fixpoint of one component; returns changed sigs.

        The component's relations reset to their base content (EDB plus
        ground program rules) and the standard
        :class:`~repro.engine.scheduler.ComponentRun` re-runs with a
        fresh recorder.  Because the lower strata are already correct
        (topological processing) and a component's rounds depend only
        on its input *facts*, the recomputed facts and canonical
        derivations are exactly what a from-scratch evaluation on the
        final EDB would produce for these signatures.
        """
        db = self.database
        old_facts = {sig: set(db.relation(*sig).tuples) for sig in task.sigs}
        for sig in task.sigs:
            for key in list(self._deriv_by_sig.get(sig, ())):
                self._drop_derivation(key)

        component_derivs: Dict[FactKey, Tuple[Optional[Rule], Tuple[FactKey, ...]]] = {}
        recorder = DerivationRecorder(component_derivs, self._edb_keys)
        self._recompute_component_facts(task, stats, recorder=recorder)

        for key, rule in self._program_fact_keys.items():
            sig = (key[0], key[1])
            if sig in task.sigs and key not in self._edb_keys:
                component_derivs.setdefault(key, (rule, ()))
        for key, entry in component_derivs.items():
            self._derivations[key] = entry
            self._deriv_by_sig.setdefault((key[0], key[1]), set()).add(key)
            for bk in entry[1]:
                self._rdeps.setdefault(bk, set()).add(key)
        return {
            sig
            for sig in task.sigs
            if set(db.relation(*sig).tuples) != old_facts[sig]
        }

    def _recompute_affected(
        self,
        fact_changed: Set[Signature],
        base_changed: Set[Signature],
        stats: EvalStats,
    ) -> None:
        """Insertion maintenance under provenance.

        Recompute a component when it reads a signature whose *facts*
        changed, or when its own signatures changed — including
        base-only changes (a fact newly asserted as EDB was perhaps
        already derived: the fact set is unchanged but its canonical
        tree becomes an EDB leaf, which only its own component's
        recompute can reflect).  Propagation follows fact changes only:
        downstream rounds depend on input facts, never on how (or when)
        the inputs were derived.
        """
        fact_changed = set(fact_changed)
        for task in self._tasks:
            reads_changed = any(
                lit.signature in fact_changed and lit.signature not in task.sigs
                for rule in task.rules
                for lit in rule.body
            )
            own = bool(task.sigs & (fact_changed | base_changed))
            if not (reads_changed or own):
                continue
            fact_changed |= self._recompute_component(task, stats)

    def _recompute_after_delete(
        self, removed: Dict[Signature, List[FactTuple]], stats: EvalStats
    ) -> None:
        """Deletion maintenance under provenance: the support-index path.

        The recorded derivations form a reverse dependency index; the
        transitive dependents of the deleted facts over-approximate
        everything whose fact *or* tree can change (a fact outside the
        closure has a recorded derivation built entirely from surviving
        facts whose first-derivation rounds are unchanged, so — by
        induction over the acyclic derivation record — both it and its
        canonical tree survive verbatim).  Only components owning a
        fact in the closure recompute; pure-EDB members of the closure
        are simply removed.
        """
        seeds: List[FactKey] = []
        for sig, facts in removed.items():
            for fact in facts:
                key = (sig[0], sig[1], fact)
                if key in self._program_fact_keys:
                    # Still present through the program rule; its tree
                    # becomes the (rule, ()) leaf a from-scratch run
                    # records for non-EDB program facts.
                    if key not in self._edb_keys:
                        entry = (self._program_fact_keys[key], ())
                        self._derivations.setdefault(key, entry)
                        self._deriv_by_sig.setdefault(sig, set()).add(key)
                    continue
                seeds.append(key)
        closure: Set[FactKey] = set()
        frontier = list(seeds)
        while frontier:
            key = frontier.pop()
            if key in closure:
                continue
            closure.add(key)
            frontier.extend(self._rdeps.get(key, ()))
        if not closure:
            return
        affected = {(key[0], key[1]) for key in closure}
        for key in closure:
            sig = (key[0], key[1])
            if sig not in self._sig_task:
                rel = self.database.get(*sig)
                if rel is not None and not self._is_protected(sig, key[2]):
                    rel.remove_facts((key[2],))
                self._drop_derivation(key)
        for task in self._tasks:
            if task.sigs & affected:
                self._recompute_component(task, stats)

    def __repr__(self) -> str:
        mode = "provenance" if self.record_provenance else "facts"
        return (
            f"IncrementalSession({self.database.total_facts()} facts, "
            f"{len(self._tasks)} components, {mode} mode)"
        )
