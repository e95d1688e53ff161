"""repro — a reproduction of "Argument Reduction by Factoring".

Naughton, Ramakrishnan, Sagiv, Ullman (VLDB 1989; TCS 146, 1995).

The package is a complete deductive-database toolkit built around the
paper's contribution:

* :mod:`repro.datalog` — the language (terms with function symbols,
  rules, parser, printer);
* :mod:`repro.engine` — storage plus naive, semi-naive, and tabled
  top-down evaluators with cost statistics;
* :mod:`repro.analysis` — adornment, conjunctive-query containment,
  standard form, rule classification, A/V graphs, separability;
* :mod:`repro.transforms` — Magic Sets and Counting;
* :mod:`repro.core` — factoring, the factorability theorems, the
  Section 5 simplifier, static-argument reduction, and the
  ``optimize()`` pipeline;
* :mod:`repro.workloads` / :mod:`repro.bench` — experiment inputs and
  the measurement harness.

Quickstart::

    from repro import parse_program, parse_query, optimize, chain_edb

    program = parse_program(\"\"\"
        t(X, Y) :- t(X, W), t(W, Y).
        t(X, Y) :- e(X, W), t(W, Y).
        t(X, Y) :- t(X, W), e(W, Y).
        t(X, Y) :- e(X, Y).
    \"\"\")
    result = optimize(program, parse_query("t(0, Y)"))
    print(result.report.certified_by)   # Theorem 4.1 (selection-pushing)
    print(result.simplified.program)    # the paper's 4-rule unary program
    answers, stats = result.answers(chain_edb(100))
"""

from repro.datalog import (
    Term,
    Variable,
    Constant,
    Compound,
    NIL,
    make_list,
    list_elements,
    Literal,
    Rule,
    Fact,
    Program,
    parse_program,
    parse_rule,
    parse_literal,
    parse_term,
    parse_query,
    ParseError,
    pretty_program,
    pretty_rule,
)
from repro.engine import (
    Database,
    Relation,
    EvalStats,
    NonTerminationError,
    SCCScheduler,
    EngineConfig,
    naive_eval,
    seminaive_eval,
    topdown_eval,
    TopDownResult,
)
from repro.analysis import (
    adorn,
    AdornedProgram,
    Adornment,
    adornment_from_query,
    ConjunctiveQuery,
    cq_contained_in,
    cq_equivalent,
    to_standard_form,
    classify_program,
    classify_rule,
    RuleClass,
    is_one_sided,
    is_simple_one_sided,
    expand_rule,
    is_separable,
    is_reducible_separable,
)
from repro.transforms import (
    magic_sets,
    MagicResult,
    counting,
    CountingResult,
    delete_index_fields,
    counting_diverges,
)
from repro.core import (
    factor_predicate,
    factor_magic,
    FactoredProgram,
    check_factorability,
    FactorabilityReport,
    is_selection_pushing,
    is_symmetric,
    is_answer_propagating,
    simplify_factored,
    reduce_static_arguments,
    static_argument_positions,
    containment_gadget,
    optimize,
    OptimizationResult,
)
from repro.core.nonunit import factor_inner, inner_factoring_valid_on, decouples_subgoals
from repro.session import DeductiveDatabase, QueryReport
from repro.datalog.validate import validate_program, ValidationReport
from repro.engine.provenance import provenance_eval, explain, DerivationTree
from repro.analysis.uniform import uniformly_contained, uniformly_equivalent, minimize_program
from repro.analysis.isomorphism import programs_isomorphic
from repro.transforms.supplementary import supplementary_magic_sets
from repro.workloads import (
    chain_edb,
    cycle_edb,
    random_digraph_edb,
    complete_edb,
    tree_edb,
    grid_edb,
    pmem_program,
    pmem_edb,
    pmem_query,
    three_rule_tc_program,
    three_rule_tc_query,
    same_generation_program,
    same_generation_edb,
)

__version__ = "1.0.0"

__all__ = [
    # language
    "Term", "Variable", "Constant", "Compound", "NIL", "make_list",
    "list_elements", "Literal", "Rule", "Fact", "Program",
    "parse_program", "parse_rule", "parse_literal", "parse_term",
    "parse_query", "ParseError", "pretty_program", "pretty_rule",
    # engine
    "Database", "Relation", "EvalStats", "NonTerminationError",
    "SCCScheduler", "EngineConfig",
    "naive_eval", "seminaive_eval", "topdown_eval", "TopDownResult",
    # analysis
    "adorn", "AdornedProgram", "Adornment", "adornment_from_query",
    "ConjunctiveQuery", "cq_contained_in", "cq_equivalent",
    "to_standard_form", "classify_program", "classify_rule", "RuleClass",
    "is_one_sided", "is_simple_one_sided", "expand_rule",
    "is_separable", "is_reducible_separable",
    # transforms
    "magic_sets", "MagicResult", "counting", "CountingResult",
    "delete_index_fields", "counting_diverges",
    # core
    "factor_predicate", "factor_magic", "FactoredProgram",
    "check_factorability", "FactorabilityReport",
    "is_selection_pushing", "is_symmetric", "is_answer_propagating",
    "simplify_factored", "reduce_static_arguments",
    "static_argument_positions", "containment_gadget",
    "optimize", "OptimizationResult",
    # workloads
    "chain_edb", "cycle_edb", "random_digraph_edb", "complete_edb",
    "tree_edb", "grid_edb", "pmem_program", "pmem_edb", "pmem_query",
    "three_rule_tc_program", "three_rule_tc_query",
    "same_generation_program", "same_generation_edb",
    # session / provenance / validation / uniform equivalence
    "DeductiveDatabase", "QueryReport",
    "validate_program", "ValidationReport",
    "provenance_eval", "explain", "DerivationTree",
    "uniformly_contained", "uniformly_equivalent", "minimize_program",
    "programs_isomorphic", "supplementary_magic_sets",
    "factor_inner", "inner_factoring_valid_on", "decouples_subgoals",
    "__version__",
]
