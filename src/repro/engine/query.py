"""Goal-directed query serving: the paper's transforms on the modern engine.

The transforms (adornment, Magic Sets, counting, factoring) historically
ran only through :func:`repro.core.pipeline.optimize` plus a
from-scratch ``seminaive_eval``.  :class:`QueryCompiler` is the serving
path: it compiles one rewritten program per **query form** — a
``(predicate, arity, adornment)`` triple — and evaluates it with
compiled :class:`~repro.engine.plan.RulePlan`s through the
:class:`~repro.engine.scheduler.SCCScheduler` against a caller-supplied
EDB, so point queries stop paying for full materialization.

**Canonical compilation.**  The compiled program must be reusable
across query constants (``t(5, Y)`` and ``t(7, Y)`` share a form), so
the compiler adorns a *canonical* goal — all-fresh variables, adorned
with the actual query's binding pattern via ``adorn(..., adornment=)``
— and applies the rewrites with ``include_seed=False``.  At query time
the seed (``m_p@ad(x̄0)``, or ``cnt_p@ad(x̄0, [])`` for counting) is
injected as a plain database *fact* carrying the actual constants, the
scheduler runs the rewritten program into a throwaway overlay database
that shares the EDB relations by reference (reads only — generated
predicate names cannot collide with validated user programs), and the
answers are read off the generated ``query`` head.  Constant-dependent
simplifications still fire: Proposition 5.2 (anonymous-variable
deletion) performs on the canonical seed variable exactly the deletion
Proposition 5.3 performs on a seed constant.

**Strategy selection.**  The factoring decision is
:func:`repro.core.pipeline.optimize`'s, asked once per form about the
canonical seedless goal (without Lemma 5.1 reduction, which reads the
goal's constants); serving adds Section 6.4's counting on top:

* **factored** — ``optimize`` factored: classification succeeded and a
  Section 4/5 theorem certifies factorability for a nontrivial
  adornment of the recursive goal predicate.
* **counting** — classification certifies a right-linear unit program
  with at least one bound position and the refined counting program has
  no syntactic self-loop: evaluate the counting rewrite under a
  data-sized budget, falling back to magic (and remembering the
  divergence until the next invalidation) if it still diverges on
  cyclic data.
* **magic** — everything else that is goal-directed at all.
* **edb** — the goal is not an IDB predicate: answer straight from the
  EDB relation.
* **materialize** — base facts were asserted for IDB predicates (mixed
  predicates an upper layer did not bridge): the rewrites would miss
  them, so fall back to full evaluation plus filtering.

**Answers.**  Repeated variables and partially-ground (function-term)
goal arguments are handled by *post-selection*: the compiled program
answers the canonical goal into the overlay's ``query`` relation, and
that relation is read once with
:meth:`repro.engine.database.Relation.select`, the pattern being the
actual goal's arguments at the positions the ``query`` head carries —
exactly :meth:`repro.engine.database.Database.query` semantics,
including ``{()}``/``set()`` for ground goals, as σ/π over the interned
columns the fixpoint left behind (no per-row unification unless the
goal holds a partially-ground term).  The plain-magic program's
``query`` head spans *all* canonical variables (not just the free
ones): magic evaluation also derives goal-predicate facts for the
*other* bound values its subqueries reached, and only the selection on
the bound columns keeps them out of the answer set.  The factored and counting
heads stay free-only — their answer relations are pinned to the seed
by the theorem certificate, resp. the ``NIL`` index term.

**Invalidation.**  Compiled entries persist their plan caches across
queries (the cost planner already re-plans on >4x cardinality drift).
The entry itself is recompiled when the referenced EDB relations drift
past the same 4x factor (:data:`DRIFT_FACTOR`), and
:meth:`QueryCompiler.note_edb_change` — called by
:meth:`~repro.engine.incremental.IncrementalSession.apply_batch` after
every successful maintenance batch — drops instance-certified entries
(their factorability proof read the old EDB) and clears remembered
counting divergences (the new data may terminate).
:meth:`QueryCompiler.invalidate` drops everything (rule changes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple, Union

from repro.analysis.adornment import Adornment, adornment_from_query
from repro.analysis.classify import RuleClass
# Only ``optimize`` is called here; perf/layers.py wraps the other names
# as attributes of this module (ROADMAP 5(a) removes the need).
from repro.core.pipeline import (  # noqa: F401
    adorn,
    check_factorability,
    classify_program,
    factor_magic,
    magic_sets,
    optimize,
    simplify_factored,
)
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_query
from repro.datalog.program import Program
from repro.datalog.terms import NIL, Term, Variable
from repro.datalog.validate import ensure_no_reserved_names
from repro.engine.arena import arena
from repro.engine.config import EngineConfig
from repro.engine.database import Database, unwrap_rows
from repro.engine.plan import PlanCache
from repro.engine.scheduler import SCCScheduler
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats, NonTerminationError
from repro.datalog.rules import Rule, UnsafeRuleError
from repro.transforms.counting import (
    CountingResult,
    counting,
    counting_diverges,
    refine_counting,
)
from repro.transforms.magic import QUERY_PREDICATE

Signature = Tuple[str, int]
QueryKey = Tuple[str, int, str]

#: Recompile a cached entry when a referenced EDB relation's cardinality
#: drifts past this factor (matches the plan cache's re-planning rule).
DRIFT_FACTOR = 4.0


@dataclass
class QueryAnswer:
    """One served query: the answers and how they were computed.

    ``answers`` are raw :class:`~repro.datalog.terms.Term` tuples over
    the goal's variables in first-occurrence order (``{()}``/``set()``
    for ground goals) — the same shape ``Database.query`` returns;
    callers unwrap constants as needed.  ``strategy`` is one of
    ``factored``/``counting``/``magic``/``edb``/``materialize`` (with
    ``counting->magic`` marking a dynamic-divergence fallback), and
    ``from_cache`` reports whether the compiled entry was reused.
    """

    goal: Literal
    answers: Set[Tuple[Term, ...]]
    strategy: str
    certified_by: Optional[str]
    stats: EvalStats
    from_cache: bool

    def values(self) -> Set[Tuple]:
        """Answers with constants unwrapped to plain Python values."""
        return unwrap_rows(self.answers)


class CompiledQuery:
    """One query form compiled to a rewritten program plus its scheduler.

    Owns a persistent :class:`~repro.engine.plan.PlanCache`, so repeated
    queries of the same form reuse compiled rule plans (the cost planner
    re-plans inside the cache on cardinality drift).
    """

    def __init__(
        self,
        compiler: "QueryCompiler",
        predicate: str,
        arity: int,
        adornment: Adornment,
        edb: Database,
    ):
        self.compiler = compiler
        self.predicate = predicate
        self.arity = arity
        self.adornment = adornment
        self.instance_certified = False
        self.counting_diverged = False
        #: cardinalities of referenced EDB relations at compile time
        self.edb_sizes: Dict[Signature, int] = {}

        canonical = Literal(
            predicate, tuple(Variable(f"Qv{i}") for i in range(arity))
        )
        #: the strategy decision, made where every caller's is; Lemma
        #: 5.1 reduction is off because it reads the goal's constants,
        #: which a per-form compile does not have
        self.plan = optimize(
            compiler.program,
            canonical,
            edb=edb if compiler.use_instance_checks else None,
            try_reduction=False,
            adornment=str(adornment),
            include_seed=False,
        )
        # The plain-magic program must not use the paper's free-only
        # query rule here: with the seed omitted the canonical bound
        # variables are unconstrained in ``query(free) :- p@ad(Qv...)``,
        # and magic evaluation derives ``p@ad`` facts for *other* magic
        # values (subquery bindings) that must not surface as answers
        # for the actual seed.  The serving query head therefore carries
        # every canonical variable and ``_run`` selects whole rows with
        # the actual goal's arguments.  The factored and counting
        # rewrites constrain answers to the seed themselves (the theorem
        # certificate, resp. the ``NIL`` index term) and keep the
        # free-only head.
        self._magic_program = self._full_head_magic(canonical)
        self.strategy = self.plan.strategy
        self.certified_by = self.plan.certified_by
        self.seed = self.plan.magic.seed
        self.row_positions: Tuple[int, ...] = tuple(adornment.free_positions())
        if self.strategy == "factored":
            self.program = self.plan.best_program()
            self.instance_certified = compiler.use_instance_checks
        elif (counted := self._counting()) is not None:
            self.strategy = "counting"
            self.certified_by = "Section 6.4 (counting)"
            self.program = counted.program
            self.seed = counted.seed
        else:
            self.program = self._magic_program
            self.row_positions = tuple(range(arity))

        self.scheduler = self._make_scheduler(self.program)
        #: Lazily built magic scheduler for the counting fallback.
        self._magic_scheduler: Optional[SCCScheduler] = None

        self._snapshot_edb_sizes(edb)

    # -- compilation helpers ------------------------------------------

    def _full_head_magic(self, canonical: Literal) -> Program:
        """The magic program with ``query`` spanning all canonical vars.

        Only the answer rule changes; every magic/modified rule is
        shared with the plan's (which factoring consumes with the
        paper's free-only head).
        """
        full_head = Literal(QUERY_PREDICATE, canonical.args)
        rules = [
            Rule(full_head, rule.body)
            if rule.head.predicate == QUERY_PREDICATE
            else rule
            for rule in self.plan.magic.program.rules
        ]
        return Program(rules)

    def _counting(self) -> Optional[CountingResult]:
        """The refined counting rewrite, where it applies: a certified
        right-linear unit program with some binding.

        The syntactically divergent case (a left-linear self-loop,
        Section 6.4) is rejected here; dynamic divergence on cyclic
        data is handled by the evaluation budget and the magic
        fallback.
        """
        classification = self.plan.classification
        if classification is None or not classification.ok:
            return None
        if not self.adornment.bound_positions():
            return None
        if any(
            rc.rule_class not in (RuleClass.EXIT, RuleClass.RIGHT_LINEAR)
            for rc in classification.rules
        ):
            return None
        try:
            result = refine_counting(
                counting(self.plan.adorned, include_seed=False)
            )
        except ValueError:  # not a unit program
            return None
        return None if counting_diverges(result) else result

    def _make_scheduler(self, program: Program) -> SCCScheduler:
        config = self.compiler.config
        return SCCScheduler(program, config, cache=PlanCache(config.planner))

    def _snapshot_edb_sizes(self, edb: Database) -> None:
        self.edb_sizes = {
            sig: len(rel)
            for sig, rel in edb.relations.items()
            if sig not in self.compiler.idb_signatures
        }

    def drifted(self, edb: Database) -> bool:
        """True when the EDB moved far enough to warrant a recompile."""
        for sig, rel in edb.relations.items():
            if sig in self.compiler.idb_signatures:
                continue
            old = self.edb_sizes.get(sig, 0)
            new = len(rel)
            lo, hi = min(old, new), max(old, new)
            if hi >= 8 and (lo == 0 or hi / lo > DRIFT_FACTOR):
                return True
        return False

    # -- evaluation ---------------------------------------------------

    def ask(self, goal: Literal, edb: Database, stats: EvalStats) -> Set[Tuple[Term, ...]]:
        """Evaluate the compiled program for one concrete goal; every
        overlay :meth:`_run` builds on the way — an abandoned counting
        attempt's included — is released inside the arena."""
        bound_args = tuple(
            goal.args[i] for i in self.adornment.bound_positions()
        )
        # no base facts sit on IDB predicates here (QueryCompiler.entry)
        total = edb.total_facts()
        with arena(total):
            if self.strategy == "counting" and not self.counting_diverged:
                try:
                    return self._run(
                        self.scheduler.with_budget(*self._counting_budget(total)),
                        self.seed.predicate,
                        (*bound_args, NIL),
                        goal,
                        self.row_positions,
                        edb,
                        stats,
                    )
                except NonTerminationError:
                    # Cyclic data: remember until the next EDB change and
                    # serve this (and subsequent) queries via magic.
                    self.counting_diverged = True
            if self.strategy == "counting":
                if self._magic_scheduler is None:
                    self._magic_scheduler = self._make_scheduler(self._magic_program)
                return self._run(
                    self._magic_scheduler,
                    self.plan.magic.seed.predicate,
                    bound_args,
                    goal,
                    tuple(range(self.arity)),
                    edb,
                    stats,
                )
            return self._run(
                self.scheduler,
                self.seed.predicate,
                bound_args,
                goal,
                self.row_positions,
                edb,
                stats,
            )

    def effective_strategy(self) -> str:
        if self.strategy == "counting" and self.counting_diverged:
            return "counting->magic"
        return self.strategy

    def effective_program(self) -> Program:
        """The program :meth:`ask` evaluates now: the magic fallback
        once counting diverged, :attr:`program` otherwise."""
        return self._magic_program if self.counting_diverged else self.program

    def _counting_budget(self, total: int) -> Tuple[Optional[int], Optional[int]]:
        """Data-sized budgets that trip quickly on divergent index growth.

        User-supplied budgets (``max_iterations``/``max_facts`` on the
        compiler) take precedence; otherwise the path-term depth cannot
        usefully exceed the EDB size (``total`` facts) on terminating
        data, so a small multiple of it bounds both dimensions.
        """
        config = self.compiler.config
        iterations = config.max_iterations
        if iterations is None:
            iterations = max(100, 2 * total + 10)
        facts = config.max_facts
        if facts is None:
            facts = max(1000, 20 * total)
        return iterations, facts

    def _run(
        self,
        scheduler: SCCScheduler,
        seed_predicate: str,
        seed_args: Tuple[Term, ...],
        goal: Literal,
        row_positions: Tuple[int, ...],
        edb: Database,
        stats: EvalStats,
    ) -> Set[Tuple[Term, ...]]:
        """One scheduler pass into a throwaway overlay, then the read.

        The overlay shares the EDB relation objects by reference — the
        rewritten program only ever writes generated-name relations, so
        the shared relations are read-only here (their lazily built
        hash indexes persist across queries, which is the point).  It
        also shares the EDB's term dictionary, so a columnar run probes
        the shared columns directly instead of rebuilding them per
        query into a foreign dictionary.

        The ``query`` relation's columns are the canonical variables at
        ``row_positions`` — every position for the plain-magic head,
        the free positions for the factored/counting heads (whose bound
        slots are pinned to the seed by construction).  Selecting it
        with the actual goal's arguments at those positions is the
        whole answer step: repeated variables, partially-ground
        function terms *and* the bound filter for magic rows, with
        ``Database.query`` semantics, read once where the fixpoint
        left the rows.
        """
        db = Database(edb.dictionary)
        db.relations.update(edb.relations)
        db.add_fact(seed_predicate, seed_args)
        scheduler.run(db, stats)
        answer = Literal(
            QUERY_PREDICATE, tuple(goal.args[i] for i in row_positions)
        )
        return db.query(answer, once=True)


class QueryCompiler:
    """Per-query goal-directed evaluation with a compiled-program cache.

    ::

        compiler = QueryCompiler(program, planner="cost")
        answer = compiler.ask("t(5, Y)", edb)
        answer.answers        # raw Term tuples
        answer.strategy       # "factored" | "counting" | "magic" | ...

    ``config`` and/or keyword knobs are those of
    :class:`~repro.engine.config.EngineConfig`, resolved (and rejected)
    here, not on the first IDB query;
    ``use_instance_checks`` enables instance-level (EDB-reading)
    factorability certification, in which case entries are invalidated
    on every EDB change (:meth:`note_edb_change`).
    """

    def __init__(
        self,
        program: Program,
        *,
        use_instance_checks: bool = False,
        config: Optional[EngineConfig] = None,
        **knobs,
    ):
        ensure_no_reserved_names(program)
        self.program = program
        self.idb_signatures = frozenset(program.idb_signatures)
        self.config = EngineConfig.resolve(config, **knobs)
        self.use_instance_checks = use_instance_checks
        self._entries: Dict[QueryKey, CompiledQuery] = {}
        self.compiles = 0
        self.cache_hits = 0

    # -- cache maintenance --------------------------------------------

    def invalidate(self) -> None:
        """Drop every compiled entry (the program changed)."""
        self._entries.clear()

    def note_edb_change(self) -> None:
        """The EDB was mutated (a maintenance batch was applied).

        Instance-certified entries are dropped — their factorability
        proof read the old EDB.  Remembered counting divergences are
        cleared: deletions may have broken the cycle.  Cardinality
        drift is re-checked lazily on the next :meth:`ask`, and the
        plan caches re-plan on drift by themselves.
        """
        for key in [
            k for k, e in self._entries.items() if e.instance_certified
        ]:
            del self._entries[key]
        for entry in self._entries.values():
            entry.counting_diverged = False

    # -- serving ------------------------------------------------------

    def entry(
        self, goal: Literal, edb: Database
    ) -> Tuple[Optional[CompiledQuery], bool]:
        """The compiled entry :meth:`ask` runs for ``goal``'s query form,
        and whether it came from the cache — compiled on first use and
        again once the EDB drifted.

        No entry when no rewrite serves the goal: an EDB predicate is
        read from its relation, and base facts asserted for IDB
        predicates (which the renamed rewrites would miss) force full
        evaluation — upper layers bridge that case away.
        """
        if goal.signature not in self.idb_signatures:
            arities = sorted(
                a for name, a in self.idb_signatures if name == goal.predicate
            )
            if arities:
                raise ValueError(
                    f"query predicate {goal.predicate}/{goal.arity} is not "
                    f"defined by the program ({goal.predicate} has "
                    f"arity {', '.join(map(str, arities))})"
                )
            return None, False
        if any(
            (rel := edb.relations.get(sig)) is not None and len(rel)
            for sig in self.idb_signatures
        ):
            return None, False
        adornment = adornment_from_query(goal)
        key: QueryKey = (goal.predicate, goal.arity, str(adornment))
        entry = self._entries.get(key)
        if entry is not None and not entry.drifted(edb):
            self.cache_hits += 1
            return entry, True
        entry = CompiledQuery(self, goal.predicate, goal.arity, adornment, edb)
        self._entries[key] = entry
        self.compiles += 1
        return entry, False

    def ask(self, goal: Union[str, Literal], edb: Database) -> QueryAnswer:
        """Answer ``goal`` against ``edb`` through the compiled path."""
        import time

        if isinstance(goal, str):
            goal = parse_query(goal)
        stats = EvalStats()
        begin = time.perf_counter()
        certified_by = None
        entry, from_cache = self.entry(goal, edb)
        if entry is not None:
            try:
                answers = entry.ask(goal, edb, stats)
            except UnsafeRuleError as exc:
                # An unsafe rewrite (e.g. ``pmem(1, L)`` or a variable left
                # inside a partially-ground list argument) means the answer
                # set is not finitely enumerable for this binding pattern.
                # Report that in terms of the user's goal, not the
                # generated rule that tripped the range-restriction check.
                raise ValueError(
                    f"goal {goal} is not answerable with this binding "
                    f"pattern: a goal variable (often one left inside a "
                    f"partially-ground list or function argument) would "
                    f"range over infinitely many values; bind that "
                    f"argument fully or query a finite form"
                ) from exc
            strategy = entry.effective_strategy()
            certified_by = entry.certified_by
        elif goal.signature in self.idb_signatures:
            strategy = "materialize"
            with arena(edb.total_facts()):
                db, eval_stats = seminaive_eval(self.program, edb, self.config)
                stats.absorb(eval_stats)
                answers = db.query(goal, once=True)
                del db  # released inside the arena, like an overlay
        else:
            strategy = "edb"
            answers = edb.query(goal)
        stats.seconds = time.perf_counter() - begin
        return QueryAnswer(
            goal=goal,
            answers=answers,
            strategy=strategy,
            certified_by=certified_by,
            stats=stats,
            from_cache=from_cache,
        )
