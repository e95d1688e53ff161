"""A user-facing deductive-database session.

:class:`DeductiveDatabase` is the convenience layer a downstream
application uses: load rules, assert facts, and ask queries.  Each
query is planned through the paper's pipeline — adornment, Magic Sets,
factorability analysis, factoring, Section 5 simplification — and
evaluated semi-naively; plans are cached per query *form* (predicate +
binding pattern), so repeated queries with different constants reuse
the compiled program, and :meth:`DeductiveDatabase.plan_summary`
describes that same cached entry.

    db = DeductiveDatabase()
    db.rules(\"\"\"
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- edge(X, W), reach(W, Y).
    \"\"\")
    db.fact("edge", 1, 2)
    for (y,) in db.ask("reach(1, Y)"):
        ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Term, Variable
from repro.datalog.validate import ensure_no_reserved_names, reserved_name_reason
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.incremental import IncrementalSession
from repro.engine.query import CompiledQuery, QueryCompiler
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats


@dataclass
class QueryReport:
    """What `ask` did: the plan used and the evaluation cost."""

    goal: Literal
    strategy: str  # "factored" | "counting" | "magic" | "edb" | "materialize"
    certified_by: Optional[str]
    stats: EvalStats
    answers: Set[Tuple]


class DeductiveDatabase:
    """Rules + facts + an optimizing query interface.

    ``config`` and/or keyword knobs (``jobs=``, ``backend=``,
    ``partitions=``, ``max_seconds=``) are
    those of :class:`~repro.engine.config.EngineConfig`, resolved (and
    rejected) here; they govern :meth:`ask` and are the defaults of
    :meth:`materialize`.  Answers and counters are identical for every
    valid combination.
    """

    def __init__(
        self,
        use_instance_checks: bool = True,
        *,
        config: Optional[EngineConfig] = None,
        **knobs,
    ):
        self._rules: List = []
        self._program: Optional[Program] = None
        self._edb = Database()
        #: the goal-directed serving path behind :meth:`ask` and the
        #: introspection surface, built lazily over the effective
        #: (bridged) program and dropped on every mutation
        self._compiler: Optional[QueryCompiler] = None
        self._compiler_edb: Optional[Database] = None
        self._use_instance_checks = use_instance_checks
        self._config = EngineConfig.resolve(config, **knobs)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def rules(self, text: str) -> "DeductiveDatabase":
        """Add rules (Datalog text).  Ground facts load into the EDB.

        Predicate names reserved for generated code (``@``/``~``
        anywhere, the ``m_``/``cnt_``/``ans_`` prefixes, ``query``)
        are rejected with :class:`ValueError` — they would collide
        with the optimizer's rewrites.
        """
        program = parse_program(text)
        ensure_no_reserved_names(program)
        for rule in program.rules:
            if rule.is_fact():
                self._edb.relation(
                    rule.head.predicate, rule.head.arity
                ).add(rule.head.args)
            else:
                self._rules.append(rule)
        self._program = None
        self._invalidate_compiler()
        return self

    def _invalidate_compiler(self) -> None:
        self._compiler = None
        self._compiler_edb = None

    def _check_fact_predicate(self, predicate: str) -> None:
        reason = reserved_name_reason(predicate)
        if reason is not None:
            raise ValueError(
                f"cannot assert facts for predicate {predicate!r}: it {reason}"
            )

    def fact(self, predicate: str, *args) -> "DeductiveDatabase":
        """Assert one EDB fact; plain Python values are accepted."""
        self._check_fact_predicate(predicate)
        self._edb.add_fact(predicate, args)
        self._invalidate_compiler()
        return self

    def facts(self, predicate: str, rows: Iterable[Sequence]) -> "DeductiveDatabase":
        self._check_fact_predicate(predicate)
        self._edb.add_facts(predicate, rows)
        self._invalidate_compiler()
        return self

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = Program(self._rules)
        return self._program

    @property
    def edb(self) -> Database:
        return self._edb

    # ------------------------------------------------------------------
    # Mixed EDB/IDB predicates
    # ------------------------------------------------------------------

    def _effective(self) -> Tuple[Program, Database]:
        """Bridge predicates that have both rules and stored facts.

        A predicate defined by rules *and* carrying stored facts (e.g.
        ``likes`` with base facts plus derivation rules) is split: the
        stored relation is exposed as ``pred__base`` and an exit rule
        ``pred(V̄) :- pred__base(V̄)`` is added, so the optimizer sees a
        clean IDB/EDB separation.
        """
        program = self.program
        overlap = [
            sig for sig in program.idb_signatures if self._edb.get(*sig)
        ]
        if not overlap:
            return program, self._edb
        bridged_rules = list(program.rules)
        edb_view = Database()
        for sig, rel in self._edb.relations.items():
            if sig in overlap:
                base = edb_view.relation(f"{sig[0]}__base", sig[1])
                for fact in rel:
                    base.add(fact)
            else:
                edb_view.relations[sig] = rel.copy()
        for name, arity in overlap:
            variables = tuple(Variable(f"V{i}") for i in range(arity))
            bridged_rules.append(
                Rule(
                    Literal(name, variables),
                    (Literal(f"{name}__base", variables),),
                )
            )
        return Program(bridged_rules), edb_view

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def _serving_compiler(self) -> Tuple[QueryCompiler, Database]:
        """The goal-directed compiler over the effective program.

        Compiled query forms live as long as neither the rules nor the
        facts change (mutations call :meth:`_invalidate_compiler`), so
        repeated queries with different constants reuse the rewritten
        program *and* its compiled rule plans.
        """
        if self._compiler is None:
            program, edb_view = self._effective()
            self._compiler = QueryCompiler(
                program,
                use_instance_checks=self._use_instance_checks,
                config=self._config,
            )
            self._compiler_edb = edb_view
        return self._compiler, self._compiler_edb

    def ask(self, query: str, explain: bool = False):
        """Answer a query, e.g. ``db.ask("reach(1, Y)")``.

        Queries run through the goal-directed serving path
        (:class:`~repro.engine.query.QueryCompiler`): adornment, Magic
        Sets — counting or factoring where certified — compiled into
        rule plans and evaluated by the SCC scheduler against the
        stored facts only.  Returns a set of tuples of Python values
        (one per variable, in first-occurrence order), or a
        :class:`QueryReport` with the plan and statistics when
        ``explain=True``.
        """
        goal = parse_query(query)
        compiler, edb_view = self._serving_compiler()
        answer = compiler.ask(goal, edb_view)
        unwrapped = answer.values()
        if not explain:
            return unwrapped
        return QueryReport(
            goal=goal,
            strategy=answer.strategy,
            certified_by=answer.certified_by,
            stats=answer.stats,
            answers=unwrapped,
        )

    def holds(self, query: str) -> bool:
        """True when a ground query has a derivation."""
        return bool(self.ask(query))

    def explain(self, query: str) -> QueryReport:
        return self.ask(query, explain=True)

    # ------------------------------------------------------------------
    # Materialized serving
    # ------------------------------------------------------------------

    def materialize(self, **kwargs) -> IncrementalSession:
        """An incrementally maintained materialization of the full program.

        Where :meth:`ask` optimizes per query form (Magic Sets /
        factoring) and evaluates on demand, the returned
        :class:`~repro.engine.incremental.IncrementalSession` evaluates
        the *whole* program once and then maintains every IDB relation
        under ``insert``/``delete`` — the serving configuration: point
        queries read the materialized database, updates pay only the
        delta.  ``kwargs`` are engine knobs (``jobs=``, ``config=``,
        ...) passed through to ``IncrementalSession``, defaulting to
        this database's; anything else is a ``TypeError``.  The
        session's :meth:`~repro.engine.incremental.IncrementalSession.explain`
        computes a fact's derivation tree from its current EDB.

        The session snapshots the rules and facts loaded so far;
        afterwards, update *it*, not this object.  Predicates holding
        both stored facts and rules are bridged exactly like
        :meth:`ask` (the stored relation becomes ``pred__base``); the
        session translates updates of such predicates transparently.
        """
        kwargs.setdefault("config", self._config)
        program, edb_view = self._effective()
        bridged = {
            sig
            for sig in self.program.idb_signatures
            if self._edb.get(*sig)
        }
        if not bridged:
            return IncrementalSession(program, edb_view, **kwargs)
        return _BridgedIncrementalSession(bridged, program, edb_view, **kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _entry(self, query: str) -> Tuple[Literal, Optional[CompiledQuery]]:
        """The goal and the compiled entry :meth:`ask` runs for its
        form (compiling it if this is the form's first use); no entry
        for a goal read from a stored relation."""
        goal = parse_query(query)
        compiler, edb_view = self._serving_compiler()
        return goal, compiler.entry(goal, edb_view)[0]

    def compiled_program(self, query: str) -> Program:
        """The rewritten program :meth:`ask` evaluates for ``query``.

        It is compiled per query form: the goal is canonical
        (``Qv0, Qv1, ...``) and the seed is left out — ``ask`` adds it
        as a fact carrying the query's constants.  Empty for a goal
        read from a stored relation.
        """
        _, entry = self._entry(query)
        return Program([]) if entry is None else entry.effective_program()

    def plan_summary(self, query: str) -> str:
        """A human-readable account of how :meth:`ask` answers ``query``."""
        goal, entry = self._entry(query)
        if entry is None:
            return f"query: {goal}\nstrategy: edb — read from the stored relation"
        lines = [
            f"query: {goal}",
            f"strategy: {entry.effective_strategy()} — "
            f"{entry.certified_by or 'Magic Sets only'}",
            *entry.plan.describe(),
            "compiled program:",
        ]
        lines.extend(f"  {rule}" for rule in entry.effective_program())
        return "\n".join(lines)


class _BridgedIncrementalSession(IncrementalSession):
    """An incremental session over a bridged mixed-predicate program.

    :meth:`DeductiveDatabase.materialize` splits predicates that carry
    both stored facts and rules: the stored relation becomes
    ``pred__base`` with an exit rule ``pred(V̄) :- pred__base(V̄)``.
    Updates arriving under the user-facing name are renamed to the base
    relation here, so callers never see the bridge.
    """

    def __init__(self, bridged, *args, **kwargs):
        self._bridged = frozenset(bridged)
        super().__init__(*args, **kwargs)

    def _normalize(self, facts):
        normalized = super()._normalize(facts)
        out = {}
        for (name, arity), rows in normalized.items():
            if (name, arity) in self._bridged:
                name = f"{name}__base"
            out.setdefault((name, arity), []).extend(rows)
        return out
