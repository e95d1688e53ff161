"""The Counting transformation (Section 6.4; [2, 3, 12]).

Counting augments the Magic Sets predicates with *index fields* that
encode the derivation: "the value of the index encodes the sequence of
rule applications, and the literal that is expanded at each step".  It
then deletes the bound argument fields from answer predicates, so —
when it terminates — it achieves the same arity reduction as factoring.

**Index representation.**  The paper writes arithmetic indices
``(I + 1, k * i + J)``.  The engine is pure Horn logic, so indices are
represented as ground *path terms*: the empty path ``[]`` for the
query, and ``[step(i, j) | J]`` for "rule ``i``, occurrence ``j``,
invoked from the goal with index ``J``".  The level ``I`` is the path
length and the paper's ``k*i+J`` packing is the path itself, so the
encoding carries strictly the same information (documented as a
substitution in DESIGN.md).

For every adorned recursive rule ``r_i`` with ``p``-occurrences at body
positions ``q_1 .. q_m``:

* goal rules (one per occurrence ``j``) —
  ``cnt_p(ū_j, [step(i,j)|J]) :- cnt_p(X̄, J), prefix``, where
  ``prefix`` is the body before ``q_j`` with each earlier occurrence
  ``j'`` replaced by the answer literal ``ans_p(w̄_{j'}, [step(i,j')|J])``;
* an answer rule —
  ``ans_p(Ȳ, J) :- cnt_p(X̄, J), full body with occurrences replaced``;
* the exit rule maps to ``ans_p(Ȳ, J) :- cnt_p(X̄, J), exit-body``;
* seed ``cnt_p(x̄0, [])`` and answers read from ``ans_p(Ȳ, [])``.

On a left-linear rule the goal rule degenerates to
``cnt_p(X̄, [step|J]) :- cnt_p(X̄, J)`` — the self-loop whose fixpoint
"does not terminate" (Section 6.4); :func:`counting_diverges` detects
it syntactically and the evaluators' budgets observe it dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.adornment import AdornedProgram, Adornment, split_adorned_name
from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import (
    Compound,
    Constant,
    NIL,
    Term,
    Variable,
    cons,
    term_variables,
)

COUNT_PREFIX = "cnt_"
ANSWER_PREFIX = "ans_"
STEP_FUNCTOR = "step"
QUERY_PREDICATE = "query"


def count_name(adorned_predicate: str) -> str:
    return f"{COUNT_PREFIX}{adorned_predicate}"


def answer_name(adorned_predicate: str) -> str:
    return f"{ANSWER_PREFIX}{adorned_predicate}"


def _step(rule_index: int, occurrence_index: int, path: Term) -> Term:
    step = Compound(STEP_FUNCTOR, (Constant(rule_index), Constant(occurrence_index)))
    return cons(step, path)


@dataclass
class CountingResult:
    """The counting program plus its answer head."""

    program: Program
    goal: Literal
    seed: Literal
    query_head: Literal
    predicate: str  # the adorned recursive predicate
    adornment: Adornment

    def answers(self, db) -> Set[Tuple[Term, ...]]:
        return db.query(self.query_head)


def counting(adorned: AdornedProgram, include_seed: bool = True) -> CountingResult:
    """Apply the Counting transformation to an adorned unit program.

    ``adorned`` must define a single adorned recursive predicate (the
    paper's setting for Section 6.4).

    With ``include_seed=False`` the seed rule is left out (and the
    bound query arguments need not be ground); the caller injects
    ``cnt_p(x̄0, [])`` as a database fact at evaluation time.
    """
    program = adorned.program
    goal = adorned.goal
    goal_pred = goal.predicate
    base, adornment = split_adorned_name(goal_pred)
    if adornment is None:
        raise ValueError(f"goal {goal} is not adorned")
    for rule in program.rules:
        if rule.head.predicate != goal_pred:
            raise ValueError(
                "counting requires a unit program; found rule for "
                f"{rule.head.predicate}"
            )

    bound_pos = adornment.bound_positions()
    free_pos = adornment.free_positions()
    path_var = Variable("J")

    rules: List[Rule] = []
    seed_args = tuple(goal.args[i] for i in bound_pos)
    if include_seed:
        for arg in seed_args:
            if not arg.is_ground():
                raise ValueError(f"bound query argument {arg} is not ground")
    seed = Literal(count_name(goal_pred), (*seed_args, NIL))
    if include_seed:
        rules.append(Rule(seed, ()))

    for rule_index, rule in enumerate(program.rules):
        head_bound = tuple(rule.head.args[i] for i in bound_pos)
        head_free = tuple(rule.head.args[i] for i in free_pos)
        occurrences = [
            (i, lit) for i, lit in enumerate(rule.body) if lit.predicate == goal_pred
        ]
        guard = Literal(count_name(goal_pred), (*head_bound, path_var))

        def answer_literal(occurrence_index: int, literal: Literal) -> Literal:
            free_args = tuple(literal.args[i] for i in free_pos)
            path = _step(rule_index, occurrence_index, path_var)
            return Literal(answer_name(goal_pred), (*free_args, path))

        # Goal (cnt) rules: one per occurrence.
        for j, (body_pos, literal) in enumerate(occurrences):
            cnt_args = tuple(literal.args[i] for i in bound_pos)
            cnt_head = Literal(
                count_name(goal_pred), (*cnt_args, _step(rule_index, j, path_var))
            )
            prefix: List[Literal] = [guard]
            for k, body_lit in enumerate(rule.body[:body_pos]):
                if body_lit.predicate == goal_pred:
                    j_prev = next(
                        jj for jj, (pos, _) in enumerate(occurrences) if pos == k
                    )
                    prefix.append(answer_literal(j_prev, body_lit))
                else:
                    prefix.append(body_lit)
            rules.append(Rule(cnt_head, prefix))

        # Answer (ans) rule: the full body with occurrences replaced.
        ans_head = Literal(answer_name(goal_pred), (*head_free, path_var))
        ans_body: List[Literal] = [guard]
        for k, body_lit in enumerate(rule.body):
            if body_lit.predicate == goal_pred:
                j_here = next(
                    jj for jj, (pos, _) in enumerate(occurrences) if pos == k
                )
                ans_body.append(answer_literal(j_here, body_lit))
            else:
                ans_body.append(body_lit)
        rules.append(Rule(ans_head, ans_body))

    free_vars = term_variables([goal.args[i] for i in free_pos])
    query_head = Literal(QUERY_PREDICATE, tuple(free_vars))
    query_body = Literal(
        answer_name(goal_pred),
        (*tuple(goal.args[i] for i in free_pos), NIL),
    )
    rules.append(Rule(query_head, (query_body,)))

    return CountingResult(
        program=Program(rules),
        goal=goal,
        seed=seed,
        query_head=query_head,
        predicate=goal_pred,
        adornment=adornment,
    )


def refine_counting(result: CountingResult) -> CountingResult:
    """Delete the bound-side literals the index fields make redundant.

    In the paper's Section 6.4 example the answer rule derived from a
    right-linear rule is ``p_cnt(Ȳ, I, J) :- p_cnt(Ȳ, I+1, k*i+J),
    right(Ȳ)`` — the ``cnt`` guard and the ``first`` conjunction are
    gone, because an answer carrying index ``[step|J]`` can only exist
    if the goal with that index was generated, which already required
    them.  This pass performs that deletion: in an answer rule with a
    single ``p``-occurrence, body literals not connected to the free
    side are dropped, provided each dropped literal also occurs in the
    body of the occurrence's goal (``cnt``) rule — the syntactic
    justification that the index chain implies them.
    """
    cnt = count_name(result.predicate)
    ans = answer_name(result.predicate)
    program = result.program

    # Collect goal-rule bodies keyed by their head path term's step.
    cnt_bodies: List[Tuple[Literal, Tuple[Literal, ...]]] = [
        (rule.head, rule.body)
        for rule in program.rules
        if rule.head.predicate == cnt and rule.body
    ]

    new_rules: List[Rule] = []
    for rule in program.rules:
        if rule.head.predicate != ans:
            new_rules.append(rule)
            continue
        ans_literals = [lit for lit in rule.body if lit.predicate == ans]
        if len(ans_literals) != 1:
            new_rules.append(rule)
            continue
        occurrence = ans_literals[0]
        # Variables connected to the free side (head + the answer literal).
        keep_vars = set(rule.head.iter_variables()) | set(
            occurrence.iter_variables()
        )
        changed = True
        keep: List[Literal] = [occurrence]
        remaining = [lit for lit in rule.body if lit is not occurrence]
        while changed:
            changed = False
            for lit in list(remaining):
                if lit.predicate == ans:
                    continue
                if set(lit.iter_variables()) & keep_vars:
                    keep.append(lit)
                    keep_vars |= set(lit.iter_variables())
                    remaining.remove(lit)
                    changed = True
        dropped = remaining
        # Justification: every dropped literal must appear in some goal
        # rule whose head step matches the occurrence's path.
        justified = True
        for lit in dropped:
            if lit.predicate == cnt:
                continue  # the guard is implied by the answer's existence
            if not any(lit in body for (_, body) in cnt_bodies):
                justified = False
                break
        if not justified:
            new_rules.append(rule)
            continue
        ordered = [lit for lit in rule.body if lit in keep]
        new_rules.append(Rule(rule.head, ordered))
    return CountingResult(
        program=Program(new_rules),
        goal=result.goal,
        seed=result.seed,
        query_head=result.query_head,
        predicate=result.predicate,
        adornment=result.adornment,
    )


def counting_diverges(result: CountingResult) -> bool:
    """Syntactic divergence check (Section 6.4).

    The counting program diverges when some ``cnt`` rule re-derives the
    same bound arguments with a strictly longer path — i.e. a goal rule
    whose head and body ``cnt`` literals carry identical bound argument
    vectors.  This is exactly the magic self-loop produced by
    left-linear occurrences.
    """
    cnt = count_name(result.predicate)
    for rule in result.program.rules:
        if rule.head.predicate != cnt:
            continue
        head_bound = rule.head.args[:-1]
        for literal in rule.body:
            if literal.predicate == cnt and literal.args[:-1] == head_bound:
                return True
    return False


def delete_index_fields(result: CountingResult) -> Tuple[Program, Literal]:
    """Drop the index argument everywhere (the Theorem 6.4 refinement).

    Rules that become tautological (head literal in its own body, e.g.
    ``ans_p(Ȳ) :- ans_p(Ȳ), right(Ȳ)``) are deleted, matching the
    paper's "deleting trivially redundant rules".  Returns the program
    and the new query head.
    """
    cnt = count_name(result.predicate)
    ans = answer_name(result.predicate)

    def strip(literal: Literal) -> Literal:
        if literal.predicate in (cnt, ans):
            return Literal(literal.predicate, literal.args[:-1])
        return literal

    rules: List[Rule] = []
    for rule in result.program.rules:
        head = strip(rule.head)
        body = tuple(strip(lit) for lit in rule.body)
        if head in body:
            continue  # trivially redundant after index deletion
        rules.append(Rule(head, body))
    return Program(rules), result.query_head
