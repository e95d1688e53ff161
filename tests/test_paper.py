"""The paper's claims, one class per experiment, at fixed sizes.

Factoring turns Magic Sets' O(n²) facts into O(n) (Examples 1.1, 1.2,
4.2; Sections 4–6); each class below checks one experiment's share of
that claim or of the classes and caveats around it.  Fact and inference
counts are determinate, so every input size is a literal: a change that
costs the factored program its arity reduction fails here, not only in
a timing.  E15, the engine's own checks, states no claim of the paper
and lives with the engine's tests (``test_evaluators.py``,
``test_database.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.adornment import adorn
from repro.analysis.avgraph import expand_rule, is_one_sided, is_simple_one_sided
from repro.analysis.classify import RuleClass
from repro.analysis.isomorphism import programs_isomorphic
from repro.analysis.separable import analyze_separability, fixed_variables
from repro.core.factoring import factor_magic, free_name
from repro.core.nonunit import (
    decouples_subgoals,
    factor_inner,
    inner_factoring_valid_on,
)
from repro.core.pipeline import optimize
from repro.core.section63 import rewrite_linear
from repro.core.simplify import simplify_factored
from repro.core.theorems import is_answer_propagating, is_symmetric
from repro.core.undecidability import (
    containment_gadget,
    factoring_is_valid_on,
    proof_counterexample_edb,
)
from repro.datalog.literals import Literal
from repro.datalog.parser import parse_program, parse_query, parse_rule
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.engine.database import Database
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import NonTerminationError, determinate
from repro.engine.topdown import topdown_eval
from repro.transforms.counting import (
    counting,
    counting_diverges,
    delete_index_fields,
    refine_counting,
)
from repro.transforms.magic import magic_name, magic_sets
from repro.workloads.examples import (
    example_43_edb,
    example_43_program,
    example_43_violating_edbs,
    example_44_edb,
    example_44_program,
    example_45_edb,
    example_45_program,
    example_51_program,
    example_52_program,
    example_71_program,
    same_generation_edb,
    same_generation_program,
    same_generation_query_node,
    three_rule_tc_program,
)
from repro.workloads.graphs import (
    chain_edb,
    complete_edb,
    cycle_edb,
    random_digraph_edb,
)
from repro.workloads.lists import pmem_edb, pmem_program, pmem_query

from tests.conftest import answer_values, oracle_answers


def tc_result():
    return optimize(three_rule_tc_program(), parse_query("t(0, Y)"))


class TestE1TransitiveClosure:
    """Examples 1.1 / 4.2 / 5.3: after Magic Sets the recursive
    predicate stays binary, so a single-source query materializes O(n²)
    facts on a chain; the factored and simplified program is unary and
    materializes O(n)."""

    @pytest.mark.parametrize("n", [5, 10, 20, 40])
    def test_chain_magic_quadratic_factored_linear(self, n):
        result = tc_result()
        assert result.report.factorable
        _, magic = result.evaluate_stage("magic", chain_edb(n))
        _, simplified = result.evaluate_stage("simplified", chain_edb(n))
        assert magic.facts >= n * n // 5
        assert simplified.facts <= 3 * n

    @pytest.mark.parametrize("n", [7, 15, 30])
    def test_random_digraphs(self, n):
        result = tc_result()
        edb = random_digraph_edb(n, 2 * n, seed=1)
        magic_answers, magic = result.evaluate_stage("magic", edb)
        answers, simplified = result.evaluate_stage("simplified", edb)
        assert answers == magic_answers
        assert simplified.facts <= magic.facts

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_cycle_worst_case(self, n):
        result = tc_result()
        _, magic = result.evaluate_stage("magic", cycle_edb(n))
        _, simplified = result.evaluate_stage("simplified", cycle_edb(n))
        assert simplified.inferences <= magic.inferences


class TestE2ListMembership:
    """Examples 1.2 / 4.6: tabled top-down evaluation (the paper's
    Prolog) materializes the n(n+1)/2 facts ``pmem(xi, [xj, ..., xn])``
    on an n-list whose members all satisfy ``p``; the factored program
    answers with at most 3n+2 facts ((n+1) goals, n answers, n query)."""

    @pytest.mark.parametrize("n", [2, 5, 10, 20])
    def test_topdown_quadratic_factored_linear(self, n):
        program, goal, edb = pmem_program(), pmem_query(n), pmem_edb(n)
        td = topdown_eval(program, edb, goal)
        assert td.table_entries == n * (n + 1) // 2
        result = optimize(program, goal)
        assert result.report.factorable
        answers, stats = result.answers(edb)
        assert answers == td.answers
        assert stats.facts <= 3 * n + 2

    @pytest.mark.parametrize("n", [5, 10])
    def test_quarter_of_members_satisfy_p(self, n):
        satisfying = range(0, n, 4)
        result = optimize(pmem_program(), pmem_query(n))
        answers, _ = result.answers(pmem_edb(n, satisfying=satisfying))
        assert len(answers) == len(satisfying)


class TestE3SelectionPushing:
    """Example 4.3: the conditions relate distinct EDB predicates, so
    they are certified against the query's EDB at run time; on the two
    EDBs of the text forced factoring yields the spurious answers the
    paper derives."""

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_instance_certified_run(self, n):
        program, goal = example_43_program(), parse_query("p(5, Y)")
        edb = example_43_edb(n)
        result = optimize(program, goal, edb=edb)
        assert result.report is not None and result.report.factorable
        magic_answers, _ = result.evaluate_stage("magic", edb)
        simplified_answers, _ = result.evaluate_stage("simplified", edb)
        assert magic_answers == simplified_answers

    def test_counterexamples_reproduce_paper(self):
        program = example_43_program()
        spurious = {"bound_first": (8,), "free_exit": (7,)}
        for name, (edb, goal) in example_43_violating_edbs().items():
            result = optimize(program, goal, force_factor=True, simplify=False)
            magic_answers, _ = result.evaluate_stage("magic", edb)
            factored_answers, _ = result.evaluate_stage("factored", edb)
            assert spurious[name] in answer_values(factored_answers), name
            assert spurious[name] not in answer_values(magic_answers), name


class TestE4Symmetric:
    """Example 4.4 / Theorem 4.2: with ``free_exit ⊆ r1, r2`` the
    factored program agrees with Magic."""

    @pytest.mark.parametrize("n", [3, 7, 15])
    def test_certified_and_correct(self, n):
        goal, edb = parse_query("p(5, Y)"), example_44_edb(n)
        result = optimize(example_44_program(), goal, edb=edb)
        assert result.report is not None
        assert is_symmetric(result.classification, edb=edb)
        magic_answers, _ = result.evaluate_stage("magic", edb)
        simplified_answers, _ = result.evaluate_stage("simplified", edb)
        assert magic_answers == simplified_answers

    def test_second_magic_rule_is_discardable(self):
        """The factored program's two magic rules derive the same facts
        once a bp tuple hits l1 (or l2): dropping one keeps the answers."""
        goal, edb = parse_query("p(5, Y)"), example_44_edb(5)
        result = optimize(example_44_program(), goal, edb=edb)
        simplified = result.simplified.program
        magic_rules = [
            r
            for r in simplified.rules
            if r.head.predicate.startswith("m_") and len(r.body) > 1
        ]
        assert len(magic_rules) == 2
        pruned = simplified.remove_rule(magic_rules[1])
        full_db, _ = seminaive_eval(simplified, edb)
        pruned_db, _ = seminaive_eval(pruned, edb)
        head = result.magic.query_head
        assert full_db.query(head) == pruned_db.query(head)


class TestE5AnswerPropagating:
    """Example 4.5 / Theorem 4.3: selection-pushing and symmetric
    conditions combined; strictly more general than Theorem 4.2."""

    @pytest.mark.parametrize("n", [3, 7, 15])
    def test_certified_and_correct(self, n):
        goal, edb = parse_query("p(5, Y)"), example_45_edb(n)
        result = optimize(example_45_program(), goal, edb=edb)
        assert result.report is not None
        assert is_answer_propagating(result.classification, edb=edb)
        magic_answers, _ = result.evaluate_stage("magic", edb)
        simplified_answers, _ = result.evaluate_stage("simplified", edb)
        assert magic_answers == simplified_answers

    def test_strictly_generalizes_symmetric(self):
        goal, edb = parse_query("p(5, Y)"), example_45_edb(3)
        result = optimize(example_45_program(), goal, edb=edb)
        assert is_answer_propagating(result.classification, edb=edb)
        assert not is_symmetric(result.classification, edb=edb)


RIGHT_TC = parse_program("t(X, Y) :- e(X, Z), t(Z, Y).\nt(X, Y) :- e(X, Y).")
LEFT_TC = parse_program("t(X, Y) :- t(X, Z), e(Z, Y).\nt(X, Y) :- e(X, Y).")


class TestE6CountingWithoutIndices:
    """Section 6.4 / Theorem 6.4: for right-linear factorable programs
    the factored Magic program *is* Counting with its index fields
    deleted — the same program and the same counters; the indices cost
    extra facts."""

    def test_structural_identity(self):
        goal = parse_query("t(0, Y)")
        adorned = adorn(RIGHT_TC, goal)
        no_index, _ = delete_index_fields(refine_counting(counting(adorned)))
        factored = optimize(RIGHT_TC, goal, force_factor=True).simplified
        predicate = adorned.goal.predicate
        renaming = {
            f"cnt_{predicate}": magic_name(predicate),
            f"ans_{predicate}": free_name(predicate),
        }
        assert programs_isomorphic(no_index, factored.program, renaming)

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_runtime_parity(self, n):
        goal = parse_query("t(0, Y)")
        with_index = refine_counting(counting(adorn(RIGHT_TC, goal)))
        no_index, query_head = delete_index_fields(with_index)
        factored = optimize(RIGHT_TC, goal, force_factor=True)
        edb = chain_edb(n)
        db1, indexed = seminaive_eval(with_index.program, edb)
        db2, unindexed = seminaive_eval(no_index, edb)
        answers, simplified = factored.evaluate_stage("simplified", edb)
        assert with_index.answers(db1) == db2.query(query_head) == answers
        assert determinate(unindexed, "evaluate") == determinate(simplified, "evaluate")
        assert indexed.facts >= unindexed.facts


class TestE7CountingDiverges:
    """Section 6.4: with a left-linear rule Counting's magic self-loop
    diverges (syntactically and at run time) while the factored program
    terminates."""

    def test_left_linear_divergence(self):
        goal = parse_query("t(0, Y)")
        cnt = counting(adorn(LEFT_TC, goal))
        assert counting_diverges(cnt)
        with pytest.raises(NonTerminationError):
            seminaive_eval(cnt.program, chain_edb(3), max_facts=20_000)
        factored = optimize(LEFT_TC, goal)
        assert factored.report.factorable
        answers, _ = factored.answers(chain_edb(3))
        assert answers == oracle_answers(LEFT_TC, goal, chain_edb(3))


class TestE8SameGeneration:
    """Section 6.4's negative control: same-generation cannot be
    factored; Magic answers it, and forcing the factoring adds spurious
    answers, so the rejection is not spurious."""

    @pytest.mark.parametrize("depth", [3, 5])
    def test_not_factorable_magic_works(self, depth):
        program = same_generation_program()
        node = same_generation_query_node(depth, 2)
        goal = parse_query(f"sg({node}, Y)")
        edb = same_generation_edb(depth, 2)
        result = optimize(program, goal)
        assert not result.classification.ok
        assert result.factored is None
        answers, _ = result.answers(edb)
        assert answers == oracle_answers(program, goal, edb)

    def test_forced_factoring_is_wrong(self):
        program = same_generation_program()
        goal = parse_query(f"sg({same_generation_query_node(3, 2)}, Y)")
        edb = same_generation_edb(3, 2)
        result = optimize(program, goal, force_factor=True, simplify=False)
        magic_answers, _ = result.evaluate_stage("magic", edb)
        factored_answers, _ = result.evaluate_stage("factored", edb)
        assert magic_answers < factored_answers


SEPARABLE = parse_program(
    """
    t(X, Y) :- t(X, W), down(W, Y).
    t(X, Y) :- up(X, U), t(U, Y).
    t(X, Y) :- flat(X, Y).
    """
)


def separable_edb(n: int) -> Database:
    """Two chains meeting at a flat crossing — both rules exercised."""
    db = Database()
    db.add_facts("up", [(i, i + 1) for i in range(n)])
    db.add_facts("down", [(100 + i, 100 + i + 1) for i in range(n)])
    db.add_facts("flat", [(n, 100)])
    return db


class TestE9Separable:
    """Section 6.2 / Theorem 6.3: a reducible separable recursion with a
    full selection is selection-pushing, hence factorable."""

    def test_separability_analysis(self):
        report = analyze_separability(SEPARABLE, "t")
        assert report.separable and report.reducible
        assert set(report.t_h_sets) == {frozenset({0}), frozenset({1})}

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_factorable_and_correct(self, n):
        goal = parse_query("t(0, Y)")
        result = optimize(SEPARABLE, goal)
        assert result.report is not None and result.report.factorable
        edb = separable_edb(n)
        expected = oracle_answers(SEPARABLE, goal, edb)
        for stage in ("magic", "simplified"):
            answers, _ = result.evaluate_stage(stage, edb)
            assert answers == expected, stage

    def test_other_full_selection(self):
        n = 5
        goal = parse_query(f"t(X, {100 + n})")
        result = optimize(SEPARABLE, goal)
        assert result.report is not None and result.report.factorable
        answers, _ = result.answers(separable_edb(n))
        assert answers == oracle_answers(SEPARABLE, goal, separable_edb(n))

    def test_nonreducible_not_claimed(self):
        """A fixed variable in t_h: not reducible, so no claim."""
        program = parse_program(
            """
            t(X, Y) :- a(X, E), t(X, W), b(E, W, Y).
            t(X, Y) :- flat(X, Y).
            """
        )
        assert not analyze_separability(program, "t").reducible


# canonical form (1): p(A, B) :- p(A, C), c(C, D, B)
ONE_SIDED = parse_program(
    """
    p(A, B) :- p(A, C), c(C, D, B).
    p(A, B) :- exit(A, B).
    """
)


class TestE10OneSided:
    """Section 6.1 / Theorem 6.2: a simple one-sided recursion is
    left-linear for one full selection and right-linear for the other;
    both factor."""

    def test_recognizers(self):
        rule = ONE_SIDED.rules[0]
        assert is_one_sided(rule, "p")
        assert is_simple_one_sided(rule, "p")
        swap = parse_rule("p(A, B) :- p(B, C), c(C, A).")
        assert not is_one_sided(swap, "p")

    @pytest.mark.parametrize(
        "goal_text", ["p(0, B)", "p(A, 3)"], ids=["first-bound", "second-bound"]
    )
    @pytest.mark.parametrize("n", [5, 10])
    def test_both_full_selections_factor(self, goal_text, n):
        goal = parse_query(goal_text)
        result = optimize(ONE_SIDED, goal)
        assert result.report is not None and result.report.factorable
        edb = Database()
        edb.add_facts("c", [(i, 0, i + 1) for i in range(n)])
        edb.add_facts("exit", [(j, 0) for j in range(5)])
        answers, _ = result.answers(edb)
        assert answers == oracle_answers(ONE_SIDED, goal, edb)

    def test_expansion_brings_weight2_into_form(self):
        """One self-substitution turns a weight-2 cycle into weight-1
        (fixed) ones: the device that brings a rule into form (1)."""
        swap = parse_rule("p(A, B) :- p(B, A), mark(A).")
        assert fixed_variables(swap, "p") == set()
        expanded = expand_rule(swap, "p", 1)
        fixed = fixed_variables(expanded, "p")
        assert fixed == set(expanded.head.variables()) and len(fixed) == 2

    def test_example_71_is_one_sided_and_factors(self):
        program = example_71_program()
        assert is_one_sided(program.rules[0], "t")
        goal = parse_query("t(5, Y, Z)")
        result = optimize(program, goal)
        assert result.report is not None and result.report.factorable
        edb = Database.from_dict(
            {
                "b": [(i, i + 1) for i in range(3)],
                "d": [(9,), (10,)],
                "e": [(5, i, 9) for i in range(4)],
            }
        )
        answers, _ = result.answers(edb)
        assert answers == oracle_answers(program, goal, edb)


class TestE11Undecidability:
    """Theorem 3.1: factorability of the gadget's ``t`` into
    ``t1(X) / t2(Y, Z)`` holds exactly when ``q1 ≡ q2``."""

    def test_proof_edb_leaves_1_23_valid(self):
        """The proof's EDB refutes the 12|3 split but not 1|23, since its
        q1 and q2 agree."""
        gadget = containment_gadget()
        assert factoring_is_valid_on(gadget, "1|23", proof_counterexample_edb())


class TestE12Crossover:
    """Section 1: the relation computed is bounded by n^k, so reducing
    the arity k gives an order-of-magnitude gain that grows with n, and
    at tiny n the factored program is never the costlier one."""

    def test_speedup_grows_with_n(self):
        result = tc_result()
        ratios = []
        for n in (4, 8, 16, 32):
            _, magic = result.evaluate_stage("magic", chain_edb(n))
            _, simplified = result.evaluate_stage("simplified", chain_edb(n))
            ratios.append(magic.inferences / max(1, simplified.inferences))
        assert ratios[-1] > ratios[0]
        assert ratios[-1] > 10

    def test_small_n_regime(self):
        result = tc_result()
        _, magic = result.evaluate_stage("magic", chain_edb(3))
        _, simplified = result.evaluate_stage("simplified", chain_edb(3))
        assert simplified.inferences <= magic.inferences

    @pytest.mark.parametrize(
        "family, n",
        [("complete", 2), ("complete", 3), ("complete", 4),
         ("sparse", 12), ("sparse", 25), ("sparse", 50)],
    )
    def test_dense_and_sparse_agree(self, family, n):
        result = tc_result()
        if family == "complete":
            edb = complete_edb(n)
        else:
            edb = random_digraph_edb(n, n, seed=9)
        magic_answers, _ = result.evaluate_stage("magic", edb)
        simplified_answers, _ = result.evaluate_stage("simplified", edb)
        assert magic_answers == simplified_answers


def edb_51(n: int, seed: int = 0) -> Database:
    rng = random.Random(seed)
    return Database.from_dict(
        {
            "a": [(5,)],
            "d": [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)],
            "exit": [(5, rng.randrange(n), rng.randrange(n)) for _ in range(n)]
            + [(5, 6, 0)],
        }
    )


def edb_52(n: int, seed: int = 1) -> Database:
    rng = random.Random(seed)
    return Database.from_dict(
        {
            "d": [(rng.randrange(n), 5, rng.randrange(n)) for _ in range(3 * n)],
            "exit": [(5, 6, rng.randrange(n)) for _ in range(n // 2 + 1)],
        }
    )


class TestE13StaticArgumentReduction:
    """Examples 5.1 / 5.2, Lemmas 5.1 / 5.2: neither program is in a
    Section 4 class as written; reducing the static first argument
    makes both factorable, with the answers kept."""

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_example_51(self, n):
        program, goal, edb = example_51_program(), parse_query("p(5, 6, U)"), edb_51(n)
        result = optimize(program, goal)
        assert result.reduction is not None
        assert result.reduction.removed_positions == (0,)
        assert result.report is not None and result.report.factorable
        expected = oracle_answers(program, goal, edb)
        answers, _ = result.answers(edb)
        assert answers == expected
        unreduced = optimize(program, goal, try_reduction=False)
        assert unreduced.factored is None  # not classifiable as written
        magic_answers, _ = unreduced.evaluate_stage("magic", edb)
        assert magic_answers == expected

    @pytest.mark.parametrize("n", [2, 5])
    def test_example_52_pseudo_left_linear(self, n):
        program, goal, edb = example_52_program(), parse_query("p(5, 6, U)"), edb_52(n)
        result = optimize(program, goal)
        assert result.reduction is not None
        assert result.report is not None and result.report.factorable
        classes = {rc.rule_class for rc in result.classification.recursive_rules}
        assert classes == {RuleClass.LEFT_LINEAR}
        answers, _ = result.answers(edb)
        assert answers == oracle_answers(program, goal, edb)

    def test_reduced_program_matches_paper_shape(self):
        """Example 5.1's reduced program: s@bf(Y,Z) with a(5) in the body."""
        result = optimize(example_51_program(), parse_query("p(5, 6, U)"))
        assert "a(5)" in str(result.reduction.program)
        assert result.reduction.adornment == "bf"


def edb_71(n: int, b_cycles: bool = True) -> Database:
    """``ft`` is {base row} ∪ (reachable Y × d); its re-factoring
    ``ft:1 × ft:2`` also pairs the base row's Y with every other ``d``
    value, so the two agree only where the base Y is itself reachable
    (``b`` a cycle) and the base Z lies in ``d``."""
    db = Database()
    db.add_facts("b", [(i, (i + 1) % n if b_cycles else i + 1) for i in range(n)])
    db.add_facts("d", [(200 + i,) for i in range(n)])
    db.add_facts("e", [(5, 0, 200)])
    return db


def refactor_ft(program, ft: str):
    """Section 3's P' for ft: projections plus the recombination rule."""
    y, z = Variable("Y"), Variable("Z")
    ft_lit = Literal(ft, (y, z))
    ft1, ft2 = Literal(f"{ft}:1", (y,)), Literal(f"{ft}:2", (z,))
    return program.add_rules(
        [Rule(ft1, (ft_lit,)), Rule(ft2, (ft_lit,)), Rule(ft_lit, (ft1, ft2))]
    )


class TestE14Refactoring:
    """Example 7.1: the factored program's binary ``ft(Y, Z)`` is a
    cross product, so factoring it again stores it in linear space —
    on EDBs where the base row's Y is reachable; on an acyclic ``b``
    the re-factoring adds answers (a condition the paper leaves
    implicit)."""

    @pytest.fixture(scope="class")
    def result(self):
        return optimize(example_71_program(), parse_query("t(5, Y, Z)"))

    @pytest.mark.parametrize("n", [2, 3])
    def test_refactoring_preserves_answers(self, result, n):
        assert result.report is not None and result.report.factorable
        ft = free_name(result.magic.goal.predicate)
        refactored = refactor_ft(result.simplified.program, ft)
        edb = edb_71(n)
        expected = oracle_answers(example_71_program(), parse_query("t(5, Y, Z)"), edb)
        base_db, _ = seminaive_eval(result.simplified.program, edb)
        refa_db, _ = seminaive_eval(refactored, edb)
        assert base_db.query(result.magic.query_head) == expected
        assert refa_db.query(result.magic.query_head) == expected
        projections = len(refa_db.facts(f"{ft}:1")) + len(refa_db.facts(f"{ft}:2"))
        assert projections <= len(base_db.facts(ft)) + 2

    def test_ft_relation_is_cross_product(self, result):
        ft = free_name(result.magic.goal.predicate)
        db, _ = seminaive_eval(result.simplified.program, edb_71(8))
        facts = db.facts(ft)
        ys, zs = {f[0] for f in facts}, {f[1] for f in facts}
        assert facts == {(y, z) for y in ys for z in zs}

    def test_caveat_acyclic_edb(self, result):
        ft = free_name(result.magic.goal.predicate)
        refactored = refactor_ft(result.simplified.program, ft)
        acyclic = edb_71(6, b_cycles=False)
        base_db, _ = seminaive_eval(result.simplified.program, acyclic)
        refa_db, _ = seminaive_eval(refactored, acyclic)
        head = result.magic.query_head
        assert base_db.query(head) < refa_db.query(head)


P1 = """
p(X, Y) :- b(X, U), p(U, Y).
p(X, Y) :- e(X, Y).
"""


def edb_72(seed: int, n: int) -> Database:
    rng = random.Random(seed)
    return Database.from_dict(
        {
            "a": [(rng.randrange(n), rng.randrange(n)) for _ in range(n)],
            "b": [(i, i + 1) for i in range(n)]
            + [(rng.randrange(n), rng.randrange(n)) for _ in range(n)],
            "e": [(rng.randrange(n), rng.randrange(n)) for _ in range(n)],
        }
    )


class TestE16NonUnit:
    """Section 7.3: factoring the inner right-linear ``p@bf`` is valid
    and cheaper under a caller that does not correlate a subgoal with
    its answers, and adds answers under one that does;
    ``decouples_subgoals`` is checked against that ground truth."""

    @pytest.mark.parametrize("n", [3, 7, 15])
    def test_unary_caller_valid_and_cheaper(self, n):
        program = parse_program("q(Y) :- a(X, Z), p(Z, Y).\n" + P1)
        goal = parse_query("q(Y)")
        assert decouples_subgoals(program, goal, "p")
        candidate = factor_inner(program, goal, "p")
        edb = edb_72(seed=2, n=n)
        magic_answers, magic = candidate.answers_magic(edb)
        factored_answers, factored = candidate.answers_factored(edb)
        assert magic_answers == factored_answers
        assert factored.facts <= magic.facts

    def test_correlating_caller_breaks(self):
        program = parse_program("q(X, Y) :- a(X, Z), p(Z, Y).\n" + P1)
        goal = parse_query("q(X, Y)")
        assert not decouples_subgoals(program, goal, "p")
        assert any(
            not inner_factoring_valid_on(program, goal, "p", edb_72(seed, n=2))
            for seed in range(10)
        )

    @pytest.mark.parametrize(
        "outer",
        ["q(Y) :- a(X, Z), p(Z, Y).", "q(Y) :- a(X, Z), p(Z, Y), g(Y)."],
        ids=["unary", "filtered"],
    )
    def test_heuristic_is_sound(self, outer):
        """Where the heuristic says 'decouples', factoring holds on every
        sampled EDB (the condition is sufficient, not necessary)."""
        program = parse_program(outer + "\n" + P1)
        goal = parse_query("q(Y)")
        assert decouples_subgoals(program, goal, "p")
        for seed in range(6):
            edb = edb_72(seed, n=2)
            edb.add_facts("g", [(i,) for i in range(2)])
            assert inner_factoring_valid_on(program, goal, "p", edb), seed


SECTION63 = {
    "right-linear": "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).",
    "left-linear": "t(X, Y) :- t(X, W), e(W, Y).\nt(X, Y) :- e(X, Y).",
    "mixed": """
        t(X, Y) :- t(X, W), e(W, Y).
        t(X, Y) :- e(X, W), t(W, Y).
        t(X, Y) :- e(X, Y).
    """,
}


class TestE17Section63:
    """Section 6.3: on the programs of [9], Magic Sets plus factoring
    produces the same final program as the [9] rewritings, so both
    derive the same answers with the same counters (the rule-level
    isomorphism is ``test_section63.py``'s)."""

    @pytest.mark.parametrize("name", list(SECTION63))
    def test_dynamic_identity(self, name):
        program, goal = parse_program(SECTION63[name]), parse_query("t(0, Y)")
        edb = chain_edb(12)
        rewritten, query_head = rewrite_linear(program, goal)
        pipeline = optimize(program, goal)
        db, rewritten_stats = seminaive_eval(rewritten, edb)
        answers, simplified = pipeline.evaluate_stage("simplified", edb)
        assert db.query(query_head) == answers
        assert determinate(rewritten_stats, "evaluate") == determinate(simplified, "evaluate")


class TestA1SimplifierPasses:
    """Ablation of Section 5: raw factored, then Propositions 5.1–5.4,
    then uniform-equivalence deletion — each keeps the answers and none
    costs more inferences than the one before."""

    def test_pass_ablation(self):
        goal = parse_query("t(0, Y)")
        magic = magic_sets(adorn(three_rule_tc_program(), goal))
        factored = factor_magic(magic)
        with_props, _ = simplify_factored(factored, use_uniform_equivalence=False)
        with_uniform, _ = simplify_factored(factored, use_uniform_equivalence=True)
        edb = chain_edb(10)
        answers, inferences = [], []
        for program in (factored.program, with_props.program, with_uniform.program):
            db, stats = seminaive_eval(program, edb)
            answers.append(db.query(magic.query_head))
            inferences.append(stats.inferences)
        assert answers[0] == answers[1] == answers[2]
        assert inferences[2] <= inferences[1] <= inferences[0]


class TestA3SipOrdering:
    """Ablation of the unit-preserving SIP reorder in ``adorn``: a
    program written "backwards" still adorns to one unit, factorable
    program."""

    def test_reorder_keeps_the_program_unit(self):
        backwards = parse_program(
            """
            t(X, Y) :- t(W, Y), e(X, W).
            t(X, Y) :- e(X, Y).
            """
        )
        goal = parse_query("t(X, 5)")  # binds the second argument
        result = optimize(backwards, goal)
        assert result.report is not None and result.report.factorable
        edb = chain_edb(10)
        answers, _ = result.answers(edb)
        assert answers == oracle_answers(backwards, goal, edb)
        assert len(result.adorned.adornments.get(("t", 2), {"x"})) <= 1
