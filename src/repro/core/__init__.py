"""The paper's primary contribution: factoring and its surroundings.

* :mod:`repro.core.factoring` — the factoring transformation
  (Proposition 3.1) and bound/free factoring of Magic programs;
* :mod:`repro.core.theorems` — the factorability recognizers
  (Theorems 4.1, 4.2, 4.3, 6.2, 6.3);
* :mod:`repro.core.simplify` — the Section 5 optimizations;
* :mod:`repro.core.reduction` — static-argument reduction
  (Definitions 5.1-5.2, Lemmas 5.1-5.2);
* :mod:`repro.core.undecidability` — the Theorem 3.1 gadget;
* :mod:`repro.core.pipeline` — ``optimize()``: Magic Sets followed by
  factoring and simplification, with full provenance.
"""

from repro import _facade

__getattr__, __dir__, __all__ = _facade(
    __name__,
    {
        "factoring": (
            "FactoredProgram", "factor_predicate", "factor_magic",
            "bound_name", "free_name",
        ),
        "theorems": (
            "FactorabilityReport", "check_factorability",
            "is_selection_pushing", "is_symmetric", "is_answer_propagating",
        ),
        "simplify": ("simplify_factored", "SimplificationTrace"),
        "reduction": (
            "static_argument_positions", "reduce_static_arguments",
            "ReductionResult",
        ),
        "undecidability": ("containment_gadget", "GadgetPrograms"),
        "nonunit": (
            "factor_inner", "inner_factoring_valid_on", "decouples_subgoals",
            "InnerFactoring",
        ),
        "section63": ("rewrite_linear", "NotLinearError"),
        "pipeline": ("optimize", "OptimizationResult"),
    },
)
