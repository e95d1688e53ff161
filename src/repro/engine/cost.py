"""Cost-based join ordering from runtime statistics.

The greedy bound-first order in :mod:`repro.engine.plan` is purely
syntactic: it cannot tell a 40-tuple relation from a 40,000-tuple one,
so the factoring/magic rewrites of the paper — whose supplementary
predicates have wildly data-dependent cardinalities — can leave a huge
join driving a tiny one.  This module implements Selinger-style greedy
costing over the statistics :class:`~repro.engine.database.Relation`
maintains for free (cardinality, per-index distinct-key counts):

* :func:`estimate_fanout` — expected matching tuples per probe of one
  literal given which argument positions are bound.  Uses the
  distinct-key count of the probed index when one exists
  (``N / distinct``), and the classic ``N ** (free/arity)`` attribute-
  independence fallback otherwise.  Sane on the edges: an empty
  relation estimates 0, a singleton at most 1.
* :func:`cost_join_order` — repeatedly schedules the literal that
  minimizes the estimated intermediate-result size.  Ties break
  deterministically (delta occurrences first, then source order), so a
  given statistics snapshot always yields the same plan.

**Guard literals** — negation (``not_*``/``\\+``) and comparison
predicates (``<``, ``!=``, ...) — are pure filters: evaluating one
before its variables are bound is wrong under any cost model.  The
ordering treats them as unschedulable until every variable they
mention is bound, regardless of statistics; guards that can never be
bound go last, preserving the engine's existing failure behaviour.

The knob that selects this planner is ``planner="cost"``
(:class:`~repro.engine.config.EngineConfig`); ``REPRO_PLANNER`` lets CI
run the whole suite under either planner.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.datalog.literals import Literal
from repro.datalog.terms import Variable
from repro.engine.database import RelationStatistics

#: Comparison predicates: safe only once both sides are ground.
COMPARISON_PREDICATES = frozenset(
    {"<", "<=", ">", ">=", "=<", "=", "==", "!=", "\\=", "=\\=", "=:="}
)

#: Predicate spellings that mark a negated literal.
NEGATION_PREFIXES = ("not_", "\\+")

#: Selectivity credited to an all-bound filter step (a membership test
#: or a guard): it can only shrink the frontier.
FILTER_SELECTIVITY = 0.5


def is_guard(literal: Literal) -> bool:
    """True for literals that must run with all variables bound.

    Covers comparison predicates and negation spellings.  Guards are
    filters, not generators: scheduling one before its variables are
    bound would either scan a non-existent relation or (for a future
    built-in evaluator) change the answer set.
    """
    name = literal.predicate
    return name in COMPARISON_PREDICATES or any(
        name.startswith(prefix) for prefix in NEGATION_PREFIXES
    )


def estimate_fanout(
    stats: Optional[RelationStatistics],
    bound_positions: Tuple[int, ...],
    arity: int,
) -> float:
    """Expected matching tuples per probe on ``bound_positions``.

    ``None`` statistics (unknown relation) estimate 0 — the engine
    short-circuits a missing relation, so the plan cost there is nil.
    An index's distinct-key count gives the exact average bucket size
    ``N / distinct``; without one, attribute independence approximates
    each bound position as contributing an ``N ** (1/arity)`` shrink.
    """
    if stats is None:
        return 0.0
    n = stats.cardinality
    if n <= 0:
        return 0.0
    if not bound_positions:
        return float(n)
    if len(bound_positions) >= arity > 0:
        # Existence check: at most one (dedup'd) match.
        return FILTER_SELECTIVITY
    distinct = stats.distinct(bound_positions)
    if distinct:
        return n / distinct
    if arity <= 0:
        return FILTER_SELECTIVITY
    return float(n) ** (float(arity - len(bound_positions)) / float(arity))


StatOf = Callable[[int, Literal], Optional[RelationStatistics]]


def cost_join_order(
    body: Sequence[Literal],
    roles: Mapping[int, str],
    stat_of: StatOf,
) -> Tuple[List[int], float]:
    """Order ``body`` by estimated intermediate-result size.

    ``stat_of(position, literal)`` supplies the statistics snapshot for
    one body occurrence (the semi-naive driver points delta/old
    positions at their view sizes).  Returns ``(order, estimated_rows)``
    where ``estimated_rows`` is the predicted final frontier size — the
    number the ``estimated_vs_actual`` accuracy counter compares with
    the emissions actually observed.

    Guards (:func:`is_guard`) are scheduled as soon as — and only
    when — all their variables are bound, whatever the statistics say.
    """
    remaining = list(range(len(body)))
    bound: Set[Variable] = set()
    order: List[int] = []
    frontier = 1.0
    while remaining:
        best_idx: Optional[int] = None
        best_key: Optional[Tuple[float, int, int]] = None
        for idx in remaining:
            literal = body[idx]
            positions = _bound_positions(literal, bound)
            if is_guard(literal):
                if len(positions) < literal.arity:
                    continue  # guard with free variables: not schedulable yet
                # Guards are filters with no backing relation; cost them
                # as a fixed shrink rather than through relation stats.
                fanout = FILTER_SELECTIVITY
            else:
                fanout = estimate_fanout(
                    stat_of(idx, literal), positions, literal.arity
                )
            key = (
                frontier * fanout,
                0 if roles.get(idx) == "delta" else 1,
                idx,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        if best_idx is None:
            # Only unbindable guards remain; emit them in source order.
            order.extend(remaining)
            break
        order.append(best_idx)
        remaining.remove(best_idx)
        bound.update(body[best_idx].iter_variables())
        frontier = max(best_key[0], 0.0)
    return order, frontier


def _bound_positions(literal: Literal, bound: Set[Variable]) -> Tuple[int, ...]:
    """Argument positions ground or fully covered by ``bound``."""
    positions = []
    for pos, arg in enumerate(literal.args):
        if arg.is_ground() or all(v in bound for v in arg.variables()):
            positions.append(pos)
    return tuple(positions)
