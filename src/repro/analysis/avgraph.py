"""A/V graphs and one-sided recursions (Section 6.1).

Theorem 6.1 (restated from Naughton's "One-sided recursions")
characterizes one-sided recursions of a single linear rule via the
*argument/variable graph*.  The original paper [6] is not reproduced in
the text we work from, so this module documents its reconstruction:

* nodes are the argument positions ``1..k`` of the recursive predicate
  ``t``;
* a *directed weight-1 edge* ``i -> j`` records that the variable in
  head position ``i`` reappears in body position ``j`` (one rule
  application moves the value from ``j`` to ``i``); a *fixed variable*
  (Definition 6.5) yields a weight-1 self-loop;
* positions are *connected* (undirected, weight 0) when their variables
  co-occur — directly or through chains of nonrecursive body literals.

A cycle's weight is its number of directed edges, i.e. how many rule
applications return a value to its position.  The recursion is
**one-sided** when exactly one connected component has a cycle of
nonzero weight and that component has a cycle of weight 1 (Theorem
6.1); it is **simple one-sided** when that component has exactly one
nonzero-weight cycle, of weight 1.  A simple one-sided recursion can be
*expanded* (rule self-substitution) into the canonical form (1) of
Section 6.1, which is left-linear for one full selection and
right-linear for the other — Theorem 6.2 then gives factorability via
Theorem 4.1, implemented in :mod:`repro.core.theorems`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable, fresh_variable
from repro.datalog.unify import Substitution, rename_apart, unify


@dataclass
class AVGraph:
    """The argument/variable graph of one linear recursive rule."""

    rule: Rule
    predicate: str
    arity: int
    #: directed weight-1 edges (head position -> body position)
    edges: Set[Tuple[int, int]] = field(default_factory=set)
    #: undirected connectivity classes over positions
    components: List[Set[int]] = field(default_factory=list)

    def component_of(self, position: int) -> Set[int]:
        for component in self.components:
            if position in component:
                return component
        raise KeyError(position)

    def cycle_weights(self, component: Set[int]) -> Set[int]:
        """Lengths of simple directed cycles lying inside ``component``.

        Bounded enumeration is fine: arities in the paper's setting are
        tiny, and simple cycles in a functional-ish graph are few.
        """
        weights: Set[int] = set()
        edges = [(i, j) for (i, j) in self.edges if i in component and j in component]
        adjacency: Dict[int, List[int]] = {}
        for i, j in edges:
            adjacency.setdefault(i, []).append(j)

        def walk(start: int, node: int, length: int, seen: Set[int]) -> None:
            for succ in adjacency.get(node, ()):
                if succ == start:
                    weights.add(length + 1)
                elif succ not in seen:
                    walk(start, succ, length + 1, seen | {succ})

        for position in sorted(component):
            walk(position, position, 0, {position})
        return weights


def _recursive_occurrence(rule: Rule, predicate: str) -> Optional[Literal]:
    occurrences = rule.body_literals(predicate)
    if len(occurrences) != 1:
        return None
    return occurrences[0]


def build_av_graph(rule: Rule, predicate: str) -> AVGraph:
    """Build the A/V graph of a single linear recursive rule."""
    body_occ = _recursive_occurrence(rule, predicate)
    if body_occ is None:
        raise ValueError(f"rule is not linear in {predicate}: {rule}")
    arity = rule.head.arity
    graph = AVGraph(rule=rule, predicate=predicate, arity=arity)

    head_vars = [set(arg.variables()) for arg in rule.head.args]
    body_vars = [set(arg.variables()) for arg in body_occ.args]

    for i in range(arity):
        for j in range(arity):
            if head_vars[i] & body_vars[j]:
                graph.edges.add((i, j))

    # Undirected connectivity: positions sharing variables directly or
    # through chains of nonrecursive literals.
    var_class: Dict[Variable, int] = {}
    classes: List[Set[Variable]] = []

    def merge(vars_a: Set[Variable], vars_b: Set[Variable]) -> None:
        involved = vars_a | vars_b
        merged: Set[Variable] = set(involved)
        keep: List[Set[Variable]] = []
        for cls in classes:
            if cls & involved:
                merged |= cls
            else:
                keep.append(cls)
        keep.append(merged)
        classes[:] = keep

    for literal in rule.body:
        if literal.predicate == predicate:
            continue
        lit_vars = set(literal.iter_variables())
        if lit_vars:
            merge(lit_vars, lit_vars)
    position_vars = [head_vars[i] | body_vars[i] for i in range(arity)]
    for vars_set in position_vars:
        if vars_set:
            merge(vars_set, vars_set)

    def same_class(a: Set[Variable], b: Set[Variable]) -> bool:
        if a & b:
            return True
        for cls in classes:
            if (cls & a) and (cls & b):
                return True
        return False

    remaining = set(range(arity))
    while remaining:
        seed = remaining.pop()
        component = {seed}
        changed = True
        while changed:
            changed = False
            for other in list(remaining):
                if any(
                    same_class(position_vars[member], position_vars[other])
                    for member in component
                ):
                    component.add(other)
                    remaining.discard(other)
                    changed = True
        graph.components.append(component)
    return graph


def is_one_sided(rule: Rule, predicate: str) -> bool:
    """The Theorem 6.1 characterization, operationalized.

    The rule must decompose into a *static side* — the positions lying
    in components that carry a weight-1 cycle (values persist across an
    application) — and a *dynamic side* with no persistence at all:

    * at least one component carries a cycle, and every cyclic
      component has a cycle of weight 1;
    * every directed (persistence) edge lies inside those components.

    This reading treats several independently-fixed argument positions
    as jointly forming the static side, which the canonical form (1) of
    Section 6.1 requires (its ``Ā`` may span several components); the
    deviation from the restated theorem's "only one connected
    component" is documented in DESIGN.md.
    """
    graph = build_av_graph(rule, predicate)
    cyclic = [c for c in graph.components if graph.cycle_weights(c)]
    if not cyclic:
        return False
    if any(1 not in graph.cycle_weights(c) for c in cyclic):
        return False
    static = set().union(*cyclic)
    return all(i in static and j in static for (i, j) in graph.edges)


def is_simple_one_sided(rule: Rule, predicate: str) -> bool:
    """One-sided with *only* weight-1 cycles on the static side.

    A simple one-sided recursion expands (by rule self-substitution)
    into the canonical form (1); with every cycle already of weight 1,
    no expansion is needed at all.
    """
    graph = build_av_graph(rule, predicate)
    if not is_one_sided(rule, predicate):
        return False
    cyclic = [c for c in graph.components if graph.cycle_weights(c)]
    return all(graph.cycle_weights(c) == {1} for c in cyclic)


def expand_rule(rule: Rule, predicate: str, times: int = 1) -> Rule:
    """Substitute a linear rule into its own recursive occurrence.

    One expansion replaces the body occurrence of ``predicate`` with a
    renamed copy of the whole rule body, unified with it — the device
    Section 6.1 uses to bring a simple one-sided recursion into form
    (1).
    """
    expanded = rule
    for round_index in range(times):
        occurrence = _recursive_occurrence(expanded, predicate)
        if occurrence is None:
            raise ValueError(f"rule is not linear in {predicate}: {expanded}")
        copy = rename_apart(rule, f"x{round_index}")
        subst = unify(occurrence, copy.head)
        if subst is None:
            raise ValueError(
                f"cannot unify {occurrence} with {copy.head} during expansion"
            )
        new_body: List[Literal] = []
        for literal in expanded.body:
            if literal is occurrence or literal == occurrence:
                new_body.extend(subst.apply_literal(lit) for lit in copy.body)
            else:
                new_body.append(subst.apply_literal(literal))
        expanded = Rule(subst.apply_literal(expanded.head), new_body)
    return expanded
