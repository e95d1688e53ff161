"""End-to-end optimization: Magic Sets followed by factoring.

``optimize(program, goal)`` runs the paper's two-step approach
(Section 4.2): adorn, apply Magic Sets, test the factorability classes,
factor when certified, and simplify with the Section 5 rewrites.  When
classification fails it retries after static-argument reduction
(Lemma 5.1, the Example 5.1/5.2 device).  Every intermediate stage is
kept on the result for inspection, testing, and benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.analysis.adornment import AdornedProgram, adorn, split_adorned_name
from repro.analysis.classify import ProgramClassification, classify_program
from repro.analysis.dependency import DependencyGraph
from repro.core.factoring import FactoredProgram, factor_magic
from repro.core.reduction import (
    ReductionResult,
    reduce_static_arguments,
    static_argument_positions,
)
from repro.core.simplify import SimplificationTrace, simplify_factored
from repro.core.theorems import FactorabilityReport, check_factorability
from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.engine.arena import arena
from repro.engine.database import Database
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import EvalStats
from repro.transforms.bridge import stored_derived
from repro.transforms.magic import MagicResult, magic_sets


@dataclass
class OptimizationResult:
    """All stages of one optimization run."""

    original: Program
    goal: Literal
    adorned: AdornedProgram
    magic: MagicResult
    classification: Optional[ProgramClassification] = None
    report: Optional[FactorabilityReport] = None
    reduction: Optional[ReductionResult] = None
    factored: Optional[FactoredProgram] = None
    simplified: Optional[FactoredProgram] = None
    trace: Optional[SimplificationTrace] = None
    forced: bool = False

    @property
    def factorable(self) -> bool:
        return self.factored is not None and not self.forced

    def best_program(self) -> Program:
        """The most optimized executable program produced."""
        if self.simplified is not None:
            return self.simplified.program
        if self.factored is not None:
            return self.factored.program
        return self.magic.program

    @property
    def strategy(self) -> str:
        """``"factored"`` when :meth:`best_program` is a factored program,
        else ``"magic"``."""
        return "magic" if self.factored is None else "factored"

    @property
    def certified_by(self) -> Optional[str]:
        """The theorem behind a factored :attr:`strategy`; ``None`` for
        magic and for a forced, uncertified factoring."""
        if self.factored is None or self.forced:
            return None
        return self.report.certified_by

    def describe(self) -> List[str]:
        """The analysis behind the decision, as printed lines: each
        rule's class (and why classification failed), a Lemma 5.1
        reduction, and the factorability verdict with its reasons."""
        lines = []
        if self.classification is not None:
            lines.append("classification:")
            for rc in self.classification.rules:
                lines.append(f"  {rc.rule_class.value:14s}  {rc.rule}")
            if not self.classification.ok:
                lines.append(f"  reason: {self.classification.reason}")
        if self.reduction is not None:
            lines.append(
                f"static-argument reduction removed positions "
                f"{list(self.reduction.removed_positions)}"
            )
        if self.report is None:
            lines.append("factorable: not applicable")
        elif self.report.factorable:
            lines.append(f"factorable: yes — {self.report.certified_by}")
        else:
            lines.append("factorable: no")
            lines.extend(f"  - {reason}" for reason in self.report.reasons)
        return lines

    def answers(self, edb: Database, **kwargs) -> Tuple[Set[Tuple], EvalStats]:
        """Evaluate the best program and read off the query answers."""
        return self.evaluate_stage(self.available_stages()[-1], edb, **kwargs)

    STAGES = ("original", "magic", "factored", "simplified")

    def available_stages(self) -> Tuple[str, ...]:
        """The stage names :meth:`evaluate_stage` can run for this result."""
        return tuple(
            stage
            for stage in self.STAGES
            if stage in ("original", "magic") or getattr(self, stage) is not None
        )

    def evaluate_stage(
        self, stage: str, edb: Database, **kwargs
    ) -> Tuple[Set[Tuple], EvalStats]:
        """Evaluate a named stage: original | magic | factored | simplified
        (``kwargs`` are :func:`seminaive_eval`'s knobs).

        Unknown or unavailable stage names fail *before* any evaluation
        with the list of valid choices.  So does a rewritten stage over
        an ``edb`` that stores rows of a derived predicate: the rewrites
        rename it and would miss them (optimize the bridged program of
        :mod:`repro.transforms.bridge` instead).
        """
        if stage not in self.STAGES:
            raise ValueError(
                f"unknown stage {stage!r}; valid stages are "
                f"{', '.join(self.STAGES)}"
            )
        available = self.available_stages()
        if stage not in available:
            raise ValueError(
                f"stage {stage!r} was not produced for this query "
                f"(factoring not certified); available stages are "
                f"{', '.join(available)}"
            )
        if stage == "original":
            program, head = self.original, self.goal
        else:
            stored = sorted(stored_derived(self.original, edb.relations))
            if stored:
                raise ValueError(
                    f"stage {stage!r} renames the derived predicate "
                    f"{'/'.join(map(str, stored[0]))}, whose rows the EDB "
                    f"stores: the rewritten program would miss them"
                )
            program, head = getattr(self, stage).program, self.magic.query_head
        # The evaluated copy is read once and dropped: an ask()'s overlay.
        with arena(edb.total_facts()):
            db, stats = seminaive_eval(program, edb, **kwargs)
            answers = db.query(head)
            del db
        return answers, stats


def _recursive_adorned_predicate(
    adorned: AdornedProgram,
) -> Optional[str]:
    """The single recursive adorned predicate, if the program is unit."""
    graph = DependencyGraph(adorned.program)
    recursive = {
        sig
        for sig in graph.recursive_signatures()
        if adorned.program.is_idb(sig)
    }
    if len(recursive) != 1:
        return None
    return next(iter(recursive))[0]


def optimize(
    program: Program,
    goal: Literal,
    edb: Optional[Database] = None,
    simplify: bool = True,
    try_reduction: bool = True,
    force_factor: bool = False,
    use_uniform_equivalence: bool = True,
    adornment: Optional[str] = None,
    include_seed: bool = True,
) -> OptimizationResult:
    """Optimize ``program`` for the query ``goal``.

    ``edb`` switches the factorability conditions to the instance-level
    (run-time) mode discussed after Example 4.3.  ``force_factor``
    factors even when no theorem certifies it — used to demonstrate the
    unsound results on Example 4.3's counterexample EDBs.

    ``adornment`` and ``include_seed`` are those of :func:`adorn` and
    :func:`magic_sets`: the query compiler decides once per query
    *form*, on a canonical all-variable goal adorned with the form's
    binding pattern and with the seed left out (and
    ``try_reduction=False`` — Lemma 5.1 reads the goal's constants).
    """
    adorned = adorn(program, goal, adornment=adornment)
    magic = magic_sets(adorned, include_seed=include_seed)

    classification: Optional[ProgramClassification] = None
    report: Optional[FactorabilityReport] = None
    reduction: Optional[ReductionResult] = None

    recursive_predicate = _recursive_adorned_predicate(adorned)
    working = adorned
    if recursive_predicate is not None:
        base, adornment = split_adorned_name(recursive_predicate)
        classification = classify_program(
            adorned.program, recursive_predicate, adornment
        )
        if not classification.ok and try_reduction:
            positions = static_argument_positions(
                adorned.program, recursive_predicate, adornment
            )
            if positions and recursive_predicate == adorned.goal.predicate:
                reduction = reduce_static_arguments(
                    Program(adorned.program.rules_for(recursive_predicate)),
                    adorned.goal,
                    positions,
                )
                working = AdornedProgram(
                    program=reduction.program,
                    goal=reduction.goal,
                    original_goal=goal,
                    adornments={},
                )
                magic = magic_sets(working, include_seed=include_seed)
                classification = classify_program(
                    reduction.program,
                    reduction.reduced_predicate,
                    reduction.adornment,
                )
        if classification.ok:
            report = check_factorability(classification, edb)

    result = OptimizationResult(
        original=program,
        goal=goal,
        adorned=working,
        magic=magic,
        classification=classification,
        report=report,
        reduction=reduction,
    )

    goal_pred = magic.goal.predicate
    _, goal_adn = split_adorned_name(goal_pred)
    nontrivial = bool(goal_adn.bound_positions()) and bool(goal_adn.free_positions())
    should_factor = force_factor or (report is not None and report.factorable)
    if should_factor and nontrivial and goal_pred == (
        recursive_predicate if reduction is None else reduction.reduced_predicate
    ):
        factored = factor_magic(magic)
        result.factored = factored
        result.forced = force_factor and not (report and report.factorable)
        if simplify:
            simplified, trace = simplify_factored(
                factored, use_uniform_equivalence=use_uniform_equivalence
            )
            result.simplified = simplified
            result.trace = trace
    return result
