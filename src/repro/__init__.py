"""repro — a reproduction of "Argument Reduction by Factoring".

Naughton, Ramakrishnan, Sagiv, Ullman (VLDB 1989; TCS 146, 1995).

The package is a complete deductive-database toolkit built around the
paper's contribution:

* :mod:`repro.datalog` — the language (terms with function symbols,
  rules, parser, printer);
* :mod:`repro.engine` — storage plus the semi-naive and tabled
  top-down evaluators with cost statistics, and the naive reference;
* :mod:`repro.analysis` — adornment, conjunctive-query containment,
  standard form, rule classification, A/V graphs, separability;
* :mod:`repro.transforms` — Magic Sets and Counting;
* :mod:`repro.core` — factoring, the factorability theorems, the
  Section 5 simplifier, static-argument reduction, and the
  ``optimize()`` pipeline;
* :mod:`repro.workloads` — experiment inputs (graphs, lists and the
  paper's example programs).

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

import sys

# ``type(sys)`` and ``__import__`` rather than ``types`` and
# ``importlib``: this file is all a bare ``import repro`` executes, and
# those two imports were a quarter of it.
_ModuleType = type(sys)


def _import(name):
    __import__(name)
    return sys.modules[name]


class _Facade(_ModuleType):
    """A package whose public names outrank same-named submodules.

    The import system binds every submodule it loads as an attribute of
    the parent package.  ``repro.datalog.unify`` and
    ``repro.transforms.counting`` are public *functions* that share
    their defining module's name, so for those names the binding is
    declined and the attribute keeps resolving to the function,
    whichever of the two was asked for first.
    """

    def __setattr__(self, name, value):
        if isinstance(value, _ModuleType) and name in self._shadowing:
            return
        super().__setattr__(name, value)


def _facade(package, modules):
    """PEP 562 ``(__getattr__, __dir__, __all__)`` for a re-exporting package.

    ``modules`` maps each submodule of ``package`` (dotted, relative)
    to the public names it defines.  Importing the package imports none
    of them: the first access to a name imports its one submodule and
    binds the name in the package, so later accesses are plain
    attribute reads of the same object.  The sub-packages themselves
    are attributes too (``repro.engine`` after a bare ``import repro``).
    """
    owner = {
        name: f"{package}.{module}"
        for module, names in modules.items()
        for name in names
    }
    children = {module.partition(".")[0] for module in modules}
    namespace = sys.modules[package]
    shadowing = owner.keys() & children
    if shadowing:
        namespace.__dict__["_shadowing"] = frozenset(shadowing)
        namespace.__class__ = _Facade

    def __getattr__(name):
        if name in owner:
            value = getattr(_import(owner[name]), name)
        elif name in children:
            value = _import(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        setattr(namespace, name, value)
        return value

    def __dir__():
        return sorted(set(namespace.__dict__) | owner.keys() | children)

    return __getattr__, __dir__, list(owner)


_MODULES = {
    "datalog": (
        "Term", "Variable", "Constant", "Compound", "NIL", "make_list",
        "list_elements", "Literal", "Rule", "Fact", "Program",
        "parse_program", "parse_rule", "parse_literal", "parse_term",
        "parse_query", "ParseError", "pretty_program", "pretty_rule",
    ),
    "engine": (
        "Database", "Relation", "EvalStats", "NonTerminationError",
        "EngineConfig", "seminaive_eval", "topdown_eval", "TopDownResult",
    ),
    "analysis": (
        "adorn", "AdornedProgram", "Adornment", "adornment_from_query",
        "ConjunctiveQuery", "cq_contained_in", "cq_equivalent",
        "to_standard_form", "classify_program", "classify_rule", "RuleClass",
        "is_one_sided", "is_simple_one_sided", "expand_rule",
        "is_separable", "is_reducible_separable",
    ),
    "transforms": (
        "magic_sets", "MagicResult", "counting", "CountingResult",
        "delete_index_fields", "counting_diverges",
    ),
    "core": (
        "factor_predicate", "factor_magic", "FactoredProgram",
        "check_factorability", "FactorabilityReport",
        "is_selection_pushing", "is_symmetric", "is_answer_propagating",
        "simplify_factored", "reduce_static_arguments",
        "static_argument_positions", "containment_gadget",
        "optimize", "OptimizationResult",
    ),
    "core.nonunit": (
        "factor_inner", "inner_factoring_valid_on", "decouples_subgoals",
    ),
    "session": ("DeductiveDatabase", "QueryAnswer"),
    "datalog.validate": ("validate_program", "ValidationReport"),
    "engine.provenance": ("explain", "DerivationTree"),
    "analysis.uniform": (
        "uniformly_contained", "uniformly_equivalent", "minimize_program",
    ),
    "analysis.isomorphism": ("programs_isomorphic",),
    "workloads": (
        "chain_edb", "cycle_edb", "random_digraph_edb", "complete_edb",
        "tree_edb", "grid_edb", "pmem_program", "pmem_edb", "pmem_query",
        "three_rule_tc_program", "three_rule_tc_query",
        "same_generation_program", "same_generation_edb",
    ),
}

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = _facade(__name__, _MODULES)
__all__.append("__version__")
