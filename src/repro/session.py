"""A user-facing deductive-database session.

:class:`DeductiveDatabase` is the convenience layer a downstream
application uses: load rules, assert facts, and ask queries.  Each
query is planned through the paper's pipeline — adornment, Magic Sets,
factorability analysis, factoring, Section 5 simplification — and
evaluated semi-naively; plans are cached per query *form* (predicate +
binding pattern), so repeated queries with different constants reuse
the compiled program, and :meth:`DeductiveDatabase.plan_summary`
describes that same cached entry.  Stored facts may sit on a derived
predicate too; the query compiler bridges them
(:func:`repro.transforms.bridge.bridged_program`).

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

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.program import Program
from repro.datalog.validate import ensure_no_reserved_names, reserved_name_reason
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.incremental import IncrementalSession
from repro.engine.query import CompiledQuery, QueryAnswer, QueryCompiler


class DeductiveDatabase:
    """Rules + facts + an optimizing query interface.

    ``config`` and/or keyword knobs (``jobs=``, ``backend=``,
    ``partitions=``, ``max_seconds=``) are
    those of :class:`~repro.engine.config.EngineConfig`, resolved
    (keyword over ``config`` over the defaults) and rejected here; they
    govern :meth:`ask` and are the defaults of
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
        #: introspection surface, built lazily and dropped on every
        #: mutation
        self._compiler: Optional[QueryCompiler] = None
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
    # Querying
    # ------------------------------------------------------------------

    def _serving_compiler(self) -> QueryCompiler:
        """The goal-directed compiler over the program.

        Compiled query forms live as long as neither the rules nor the
        facts change (mutations call :meth:`_invalidate_compiler`), so
        repeated queries with different constants reuse the rewritten
        program *and* its compiled rule plans.
        """
        if self._compiler is None:
            self._compiler = QueryCompiler(
                self.program,
                use_instance_checks=self._use_instance_checks,
                config=self._config,
            )
        return self._compiler

    def ask(self, query: str, explain: bool = False):
        """Answer a query, e.g. ``db.ask("reach(1, Y)")``.

        Queries run through the goal-directed serving path
        (:class:`~repro.engine.query.QueryCompiler`): adornment, Magic
        Sets — counting or factoring where certified — compiled into
        rule plans and evaluated by the SCC scheduler against the
        stored facts only.  Returns a set of tuples of Python values
        (one per variable, in first-occurrence order), or the
        :class:`~repro.engine.query.QueryAnswer` with the plan and
        statistics when ``explain=True``.
        """
        answer = self._serving_compiler().ask(parse_query(query), self._edb)
        return answer if explain else answer.answers

    def holds(self, query: str) -> bool:
        """True when a ground query has a derivation."""
        return bool(self.ask(query))

    def explain(self, query: str) -> QueryAnswer:
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
        afterwards, update *it*, not this object.  Stored facts on a
        derived predicate stay base support for it there.
        """
        kwargs.setdefault("config", self._config)
        return IncrementalSession(self.program, self._edb, **kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _entry(self, query: str) -> Tuple[Literal, Optional[CompiledQuery]]:
        """The goal and the compiled entry :meth:`ask` runs for its
        form (compiling it if this is the form's first use); no entry
        for a goal read from a stored relation."""
        goal = parse_query(query)
        return goal, self._serving_compiler().entry(goal, self._edb)[0]

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

