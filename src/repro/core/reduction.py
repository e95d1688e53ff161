"""Static arguments and reduced programs (Section 5, Defs 5.1-5.2).

A bound argument position of the adorned recursive predicate is
*static* when every body occurrence carries the same variable there as
the head.  Lemma 5.1: substituting the query's constant for that
variable and deleting the position preserves the query's answers.  The
lemma turns programs outside the Section 4 classes into programs inside
them — Examples 5.1 and 5.2, including the pseudo-left-linear rules of
Definition 5.3 (Lemma 5.2: reducing every static bound argument of a
pseudo-left-linear program yields a left-linear program).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.adornment import (
    AdornedProgram,
    Adornment,
    adorned_name,
    split_adorned_name,
)
from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Term, Variable
from repro.datalog.unify import Substitution


def static_argument_positions(
    program: Program, predicate: str, adornment: Adornment
) -> List[int]:
    """Bound positions that are static (Definition 5.1).

    A position qualifies when, in every rule for ``predicate``, the
    head's argument there is a variable and every body occurrence
    carries that same variable at that position.
    """
    candidates = set(adornment.bound_positions())
    for rule in program.rules_for(predicate):
        for position in list(candidates):
            head_arg = rule.head.args[position]
            if not isinstance(head_arg, Variable):
                candidates.discard(position)
                continue
            for literal in rule.body:
                if literal.predicate != predicate:
                    continue
                if literal.args[position] != head_arg:
                    candidates.discard(position)
                    break
    return sorted(candidates)


@dataclass
class ReductionResult:
    """The reduced program, its query, and the positions removed."""

    program: Program
    goal: Literal
    removed_positions: Tuple[int, ...]
    original_predicate: str
    reduced_predicate: str
    adornment: Adornment


def reduce_static_arguments(
    program: Program,
    goal: Literal,
    positions: Optional[Sequence[int]] = None,
    reduced_predicate: Optional[str] = None,
) -> ReductionResult:
    """Reduce the program with respect to static bound positions (Def 5.2).

    ``program`` is the adorned program, ``goal`` the adorned query.
    ``positions`` defaults to every static bound argument position.
    Every rule is instantiated with the query's constants at those
    positions (the substitution ``X <- c``), and the positions are
    deleted from every occurrence, producing the lower-arity predicate
    ``s`` of Example 5.1.
    """
    predicate = goal.predicate
    base, adornment = split_adorned_name(predicate)
    if adornment is None:
        raise ValueError(f"goal {goal} is not adorned")
    if positions is None:
        positions = static_argument_positions(program, predicate, adornment)
    positions = tuple(sorted(positions))
    if not positions:
        raise ValueError("no static argument positions to reduce")
    for position in positions:
        if adornment[position] != "b":
            raise ValueError(f"position {position} is not bound in {adornment}")
        if not goal.args[position].is_ground():
            raise ValueError(f"query argument {position} is not ground")

    new_adornment = Adornment(
        "".join(ch for i, ch in enumerate(adornment) if i not in positions)
    )
    reduced_predicate = reduced_predicate or adorned_name(
        f"{base}_red", new_adornment
    )

    def reduce_literal(literal: Literal) -> Literal:
        return Literal(
            reduced_predicate,
            tuple(arg for i, arg in enumerate(literal.args) if i not in positions),
        )

    new_rules: List[Rule] = []
    for rule in program.rules:
        if rule.head.predicate != predicate:
            # Unit programs only define the one predicate, but keep any
            # bystander rules intact (e.g. a query rule).
            new_body = tuple(
                reduce_literal(lit) if lit.predicate == predicate else lit
                for lit in rule.body
            )
            new_rules.append(Rule(rule.head, new_body))
            continue
        # Substitution X <- c for each reduced position.
        mapping: Dict[Variable, Term] = {}
        consistent = True
        for position in positions:
            head_arg = rule.head.args[position]
            constant = goal.args[position]
            if isinstance(head_arg, Variable):
                existing = mapping.get(head_arg)
                if existing is not None and existing != constant:
                    consistent = False
                    break
                mapping[head_arg] = constant
            elif head_arg != constant:
                # A rule head with a different constant can never
                # contribute to this query; drop it.
                consistent = False
                break
        if not consistent:
            continue
        subst = Substitution(dict(mapping))
        head = reduce_literal(subst.apply_literal(rule.head))
        body = tuple(
            reduce_literal(subst.apply_literal(lit))
            if lit.predicate == predicate
            else subst.apply_literal(lit)
            for lit in rule.body
        )
        new_rules.append(Rule(head, body))

    new_goal = reduce_literal(goal)
    return ReductionResult(
        program=Program(new_rules),
        goal=new_goal,
        removed_positions=positions,
        original_predicate=predicate,
        reduced_predicate=reduced_predicate,
        adornment=new_adornment,
    )
