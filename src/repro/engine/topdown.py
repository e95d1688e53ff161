"""A tabled top-down evaluator (the "Prolog" baseline).

Examples 1.2 and 4.6 compare factoring against top-down evaluation:
"Prolog will compute the O(n^2) facts pmem(xi, [xj, ..., xn])".  The
measurable content of that claim is the number of distinct
(subgoal, answer) table entries a goal-directed evaluation must
materialize, so this module implements goal-directed evaluation with
tabling and reports exactly those counts.

The algorithm is a fixpoint over a growing table of subgoals: for each
subgoal and each program rule whose head unifies with it, the body is
solved left to right; IDB body literals spawn (or reuse) subgoals and
consume their current answers; EDB literals match stored facts.  The
fixpoint, reached when no new subgoal or answer appears, computes the
same answers as SLD resolution with memoization (OLDT), and terminates
whenever the table is finite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.terms import Compound, Term, Variable
from repro.engine.database import Database
from repro.engine.stats import NonTerminationError
from repro.datalog.unify import Substitution, rename_apart, unify, unify_terms


@dataclass
class TopDownResult:
    """Answers plus table-size statistics for one tabled evaluation."""

    answers: Set[Tuple[Term, ...]]
    subgoals: int
    table_entries: int
    resolution_steps: int
    seconds: float
    tables: Dict[Literal, Set[Tuple[Term, ...]]] = field(default_factory=dict)


def _canonicalize(goal: Literal) -> Tuple[Literal, List[Variable]]:
    """Rename the free variables of ``goal`` positionally.

    Two goals that differ only in free-variable names share one table
    entry.  Returns the canonical literal and its variable order.
    """
    mapping: Dict[Variable, Variable] = {}
    order: List[Variable] = []

    def rename(term: Term) -> Term:
        if isinstance(term, Variable):
            if term not in mapping:
                canon = Variable(f"G#{len(mapping)}")
                mapping[term] = canon
                order.append(canon)
            return mapping[term]
        if isinstance(term, Compound) and not term.is_ground():
            return Compound(term.functor, tuple(rename(a) for a in term.args))
        return term

    canonical = Literal(goal.predicate, tuple(rename(a) for a in goal.args))
    return canonical, order


class _Tabling:
    """Mutable state of one tabled evaluation."""

    def __init__(
        self,
        program: Program,
        edb: Database,
        max_table_entries: Optional[int],
        max_steps: Optional[int],
    ):
        self.program = program
        self.edb = edb
        self.idb = set(program.idb_signatures)
        self.max_table_entries = max_table_entries
        self.max_steps = max_steps
        self.tables: Dict[Literal, Set[Tuple[Term, ...]]] = {}
        self.var_orders: Dict[Literal, List[Variable]] = {}
        self.steps = 0
        # Compile once per evaluation: rules renamed apart from any goal
        # (the suffix is deterministic per rule, so renaming per fixpoint
        # pass was pure interpretation overhead), grouped by head
        # signature so each subgoal only visits its own rules.  The
        # original rule rides along for error messages.
        self._renamed_by_sig: Dict[Tuple[str, int], List] = {}
        for rule_index, rule in enumerate(program.rules):
            self._renamed_by_sig.setdefault(rule.head.signature, []).append(
                (rename_apart(rule, f"r{rule_index}"), rule)
            )

    # ------------------------------------------------------------------

    def table_for(self, goal: Literal) -> Literal:
        canonical, order = _canonicalize(goal)
        if canonical not in self.tables:
            self.tables[canonical] = set()
            self.var_orders[canonical] = order
            if (
                self.max_table_entries is not None
                and len(self.tables) > self.max_table_entries
            ):
                raise NonTerminationError(
                    f"top-down evaluation exceeded {self.max_table_entries} subgoals",
                    0,
                    len(self.tables),
                )
        return canonical

    def answer_instances(self, goal: Literal) -> List[Literal]:
        """Current answers of ``goal``'s table, as literal instances."""
        canonical = self.table_for(goal)
        order = self.var_orders[canonical]
        out = []
        for answer in self.tables[canonical]:
            subst = Substitution(dict(zip(order, answer)))
            out.append(subst.apply_literal(canonical))
        return out

    # ------------------------------------------------------------------

    def solve_body(
        self, body: Tuple[Literal, ...], index: int, subst: Substitution
    ) -> Iterator[Substitution]:
        """All solutions of ``body[index:]`` extending ``subst``."""
        if index == len(body):
            yield subst
            return
        literal = subst.apply_literal(body[index])
        if literal.signature in self.idb:
            for candidate in self.answer_instances(literal):
                extended = subst.copy()
                ok = True
                for pat, val in zip(literal.args, candidate.args):
                    if unify_terms(pat, val, extended) is None:
                        ok = False
                        break
                if ok:
                    yield from self.solve_body(body, index + 1, extended)
            return
        # EDB literal: probe through the relation's hash index on the
        # positions that are already ground instead of scanning and
        # unifying every stored fact.
        rel = self.edb.get(literal.predicate, literal.arity)
        if rel is None:
            return
        positions: List[int] = []
        key: List[Term] = []
        free: List[int] = []
        for i, arg in enumerate(literal.args):
            if arg.is_ground():
                positions.append(i)
                key.append(arg)
            else:
                free.append(i)
        if positions:
            candidates = rel.lookup(tuple(positions), tuple(key))
        else:
            candidates = rel.tuples
        args = literal.args
        for fact in candidates:
            extended = subst.copy()
            ok = True
            for i in free:
                if unify_terms(args[i], fact[i], extended) is None:
                    ok = False
                    break
            if ok:
                yield from self.solve_body(body, index + 1, extended)

    def run_to_fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            tables_before = len(self.tables)
            for canonical in list(self.tables):
                if canonical.signature not in self.idb:
                    continue
                order = self.var_orders[canonical]
                for renamed, rule in self._renamed_by_sig.get(canonical.signature, ()):
                    head_subst = unify(renamed.head, canonical)
                    if head_subst is None:
                        continue
                    self.steps += 1
                    if self.max_steps is not None and self.steps > self.max_steps:
                        raise NonTerminationError(
                            f"top-down evaluation exceeded {self.max_steps} steps",
                            0,
                            sum(len(t) for t in self.tables.values()),
                        )
                    for final in self.solve_body(renamed.body, 0, head_subst):
                        answer = tuple(final.apply(v) for v in order)
                        if not all(t.is_ground() for t in answer):
                            raise ValueError(
                                f"non-ground answer for {canonical} via {rule}; "
                                "the evaluator requires safe rules"
                            )
                        if answer not in self.tables[canonical]:
                            self.tables[canonical].add(answer)
                            changed = True
            if len(self.tables) > tables_before:
                # New subgoals appeared mid-pass; they need a pass of
                # their own even if no answer was produced yet.
                changed = True


def topdown_eval(
    program: Program,
    edb: Database,
    goal: Literal,
    max_table_entries: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> TopDownResult:
    """Solve ``goal`` top-down with tabling.

    Returns a :class:`TopDownResult`; ``answers`` holds one tuple per
    binding of the goal's free variables (first-occurrence order),
    matching :meth:`repro.engine.database.Database.query` conventions.
    """
    start = time.perf_counter()
    state = _Tabling(program, edb, max_table_entries, max_steps)
    top = state.table_for(goal)
    state.run_to_fixpoint()
    elapsed = time.perf_counter() - start
    return TopDownResult(
        answers=set(state.tables[top]),
        subgoals=len(state.tables),
        table_entries=sum(len(t) for t in state.tables.values()),
        resolution_steps=state.steps,
        seconds=elapsed,
        tables=state.tables,
    )
