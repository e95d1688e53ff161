"""Program analyses: dependency graphs, adornment, conjunctive-query
containment, standard form, rule classification, A/V graphs, and
separable-recursion tests.

These are the compile-time tools the paper's Section 4-6 recognizers
are built from.
"""

from repro import _facade

__getattr__, __dir__, __all__ = _facade(
    __name__,
    {
        "dependency": ("DependencyGraph", "strongly_connected_components"),
        "adornment": (
            "Adornment", "adorn", "AdornedProgram", "adorned_name",
            "split_adorned_name", "adornment_from_query",
        ),
        "conjunctive": (
            "ConjunctiveQuery", "find_homomorphism", "cq_contained_in",
            "cq_equivalent",
        ),
        "standard_form": ("to_standard_form", "StandardFormResult"),
        "classify": (
            "RuleClass", "RuleClassification", "ProgramClassification",
            "classify_rule", "classify_program",
        ),
        "avgraph": (
            "AVGraph", "is_one_sided", "is_simple_one_sided", "expand_rule",
        ),
        "uniform": (
            "uniformly_contained", "uniformly_equivalent", "minimize_program",
            "redundant_rules", "UniformUndecidedError",
        ),
        "isomorphism": ("programs_isomorphic", "rules_isomorphic"),
        "separable": (
            "SeparabilityReport", "is_separable", "is_reducible_separable",
            "shifting_variables", "fixed_variables",
        ),
    },
)
