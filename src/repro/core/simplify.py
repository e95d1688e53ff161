"""The additional optimizations of Section 5.

These are the rewrites the paper applies after factoring to reach the
small programs printed in Examples 4.2-4.6 and 5.3:

* **Proposition 5.4 (a)** — delete a rule whose head literal appears in
  its own body (a special case of deletion under uniform equivalence);
* **Proposition 5.1** — delete a ``magic`` body literal when the same
  rule body carries the ``bp`` literal with identical arguments
  (``bp ⊆ magic`` holds by construction of the factored program);
* **Propositions 5.2 / 5.3 (+ the symmetric variant)** — in a body
  that contains an ``fp`` literal, delete a ``bp`` literal whose
  arguments are all anonymous (single-occurrence variables, Proposition
  5.5) or exactly the query-seed constants; symmetrically delete an
  anonymous ``fp`` literal from a body containing a ``bp`` literal
  (every ``bp`` fact exists iff some ``fp`` fact exists);
* **Proposition 5.4 (b)** — delete rules for predicates unreachable
  from the query;
* **deletion under uniform equivalence** ([13], used in Example 5.3's
  final step) — rule ``r`` is deleted when freezing its body to fresh
  constants and evaluating the remaining rules rederives its frozen
  head; decided by the chase, which terminates for Datalog rules (the
  pass skips programs with function symbols, whose chase may diverge).

The passes iterate to a fixpoint.  Section 7.4 notes that the final
program may depend on the order of deletions; this implementation uses
a fixed, documented order (the one above) so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.uniform import UniformUndecidedError, redundant_rules
from repro.core.factoring import FactoredProgram
from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable


@dataclass
class SimplificationTrace:
    """A log of every deletion, for inspection and tests."""

    steps: List[str] = field(default_factory=list)

    def record(self, pass_name: str, detail: str) -> None:
        self.steps.append(f"[{pass_name}] {detail}")

    def __str__(self) -> str:
        return "\n".join(self.steps)


def _delete_tautologies(program: Program, trace: SimplificationTrace) -> Program:
    """Proposition 5.4 (a): head literal appears in the body."""
    kept: List[Rule] = []
    for rule in program.rules:
        if rule.head in rule.body:
            trace.record("prop-5.4a", f"deleted tautological rule: {rule}")
        else:
            kept.append(rule)
    return Program(kept)


def _delete_magic_duplicates(
    program: Program,
    bound: str,
    magic: str,
    trace: SimplificationTrace,
) -> Program:
    """Proposition 5.1: drop ``magic(t̄)`` next to ``bp(t̄)``."""
    new_rules: List[Rule] = []
    for rule in program.rules:
        bound_args = {lit.args for lit in rule.body if lit.predicate == bound}
        body: List[Literal] = []
        for literal in rule.body:
            if literal.predicate == magic and literal.args in bound_args:
                trace.record("prop-5.1", f"deleted {literal} from: {rule}")
                continue
            body.append(literal)
        new_rules.append(Rule(rule.head, body))
    return Program(new_rules)


def _occurrence_counts(rule: Rule) -> Dict[Variable, int]:
    counts: Dict[Variable, int] = {}
    for literal in (rule.head, *rule.body):
        for var in literal.iter_variables():
            counts[var] = counts.get(var, 0) + 1
    return counts


def _is_anonymous_literal(literal: Literal, counts: Dict[Variable, int]) -> bool:
    """All arguments are variables occurring nowhere else in the rule."""
    if not literal.args:
        return False
    return all(
        isinstance(arg, Variable) and counts.get(arg, 0) == 1 for arg in literal.args
    )


def _delete_anonymous_projections(
    program: Program,
    bound: str,
    free: str,
    seed_args: Optional[Tuple[Term, ...]],
    trace: SimplificationTrace,
) -> Program:
    """Propositions 5.2 / 5.3 and the symmetric fp variant.

    Two phases prevent a body from losing both of its bp and fp
    witnesses: phase A deletes anonymous/seed ``bp`` literals while any
    ``fp`` literal is present; phase B then deletes anonymous ``fp``
    literals only while a ``bp`` literal *remains* in the reduced body.
    """
    new_rules: List[Rule] = []
    for rule in program.rules:
        counts = _occurrence_counts(rule)
        has_free = any(lit.predicate == free for lit in rule.body)
        # Phase A: bp deletions (Propositions 5.2 and 5.3).
        body: List[Literal] = []
        for literal in rule.body:
            if literal.predicate == bound and has_free:
                if _is_anonymous_literal(literal, counts):
                    trace.record("prop-5.2", f"deleted {literal} from: {rule}")
                    continue
                if seed_args is not None and literal.args == seed_args:
                    trace.record("prop-5.3", f"deleted {literal} from: {rule}")
                    continue
            body.append(literal)
        # Phase B: symmetric fp deletions, against the reduced body.
        has_bound = any(lit.predicate == bound for lit in body)
        final_body: List[Literal] = []
        for literal in body:
            if (
                literal.predicate == free
                and has_bound
                and _is_anonymous_literal(literal, counts)
            ):
                trace.record("prop-5.2-sym", f"deleted {literal} from: {rule}")
                continue
            final_body.append(literal)
        new_rules.append(Rule(rule.head, final_body))
    return Program(new_rules)


def _delete_unreachable(
    program: Program, root: str, trace: SimplificationTrace
) -> Program:
    """Proposition 5.4 (b): drop rules not reachable from the query."""
    dependencies: Dict[str, Set[str]] = {}
    for rule in program.rules:
        dependencies.setdefault(rule.head.predicate, set()).update(
            lit.predicate for lit in rule.body
        )
    reachable: Set[str] = set()
    frontier = [root]
    while frontier:
        predicate = frontier.pop()
        if predicate in reachable:
            continue
        reachable.add(predicate)
        frontier.extend(dependencies.get(predicate, ()))
    kept: List[Rule] = []
    for rule in program.rules:
        if rule.head.predicate in reachable:
            kept.append(rule)
        else:
            trace.record("prop-5.4b", f"deleted unreachable rule: {rule}")
    return Program(kept)


def _delete_uniformly_redundant(
    program: Program, trace: SimplificationTrace
) -> Program:
    """Delete chase-redundant rules (deletion under uniform equivalence).

    Delegates to :mod:`repro.analysis.uniform`, which implements the
    Sagiv [13] chase; programs with function symbols are skipped (the
    chase may diverge on them).
    """
    try:
        removed = redundant_rules(program, max_iterations=100, max_facts=100_000)
    except UniformUndecidedError as err:
        trace.record(
            "uniform",
            f"skipped: program uses function symbols ({err})",
        )
        return program
    for rule in removed:
        trace.record("uniform", f"deleted redundant rule: {rule}")
    if not removed:
        return program
    dropped_ids = {id(rule) for rule in removed}
    return Program([r for r in program.rules if id(r) not in dropped_ids])


def simplify_factored(
    factored: FactoredProgram,
    use_uniform_equivalence: bool = True,
    max_rounds: int = 20,
) -> Tuple[FactoredProgram, SimplificationTrace]:
    """Apply the Section 5 optimizations to a factored Magic program.

    Returns the simplified program (a new :class:`FactoredProgram`
    sharing the original's metadata) and the deletion trace.
    """
    trace = SimplificationTrace()
    program = factored.program
    bound = factored.first_name
    free = factored.second_name
    magic = factored.magic_predicate
    root = factored.query_head.predicate if factored.query_head else None

    for _ in range(max_rounds):
        before = program
        program = _delete_tautologies(program, trace)
        if magic:
            program = _delete_magic_duplicates(program, bound, magic, trace)
        program = _delete_anonymous_projections(
            program, bound, free, factored.seed_args, trace
        )
        if root:
            program = _delete_unreachable(program, root, trace)
        if program == before:
            break

    if use_uniform_equivalence:
        program = _delete_uniformly_redundant(program, trace)
        if root:
            program = _delete_unreachable(program, root, trace)

    simplified = FactoredProgram(
        program=program,
        predicate=factored.predicate,
        first_name=factored.first_name,
        second_name=factored.second_name,
        first_positions=factored.first_positions,
        second_positions=factored.second_positions,
        magic_predicate=factored.magic_predicate,
        seed_args=factored.seed_args,
        query_head=factored.query_head,
    )
    return simplified, trace
