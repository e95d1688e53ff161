"""The Datalog language substrate: terms, literals, rules, programs.

This package defines the abstract syntax shared by every other
subsystem in the repository, together with a parser
(:mod:`repro.datalog.parser`), a pretty-printer
(:mod:`repro.datalog.pretty`) and the term operations of matching and
unification (:mod:`repro.datalog.unify`).  It imports nothing from the
other subpackages.

The language is Horn-clause logic with optional function symbols
(compound terms), matching the setting of the paper: pure Datalog for
Sections 3-6, and Prolog-style list terms for Examples 1.2 and 4.6.
Negation never appears in the paper and is not supported.
"""

from repro import _facade

__getattr__, __dir__, __all__ = _facade(
    __name__,
    {
        "terms": (
            "Term", "Variable", "Constant", "Compound", "NIL", "make_list",
            "list_elements", "is_ground", "term_variables", "fresh_variable",
        ),
        "literals": ("Literal",),
        "rules": ("Rule", "Fact"),
        "program": ("Program",),
        "parser": (
            "parse_program", "parse_rule", "parse_literal", "parse_term",
            "parse_query", "ParseError",
        ),
        "unify": ("Substitution", "unify", "match", "unify_terms"),
        "pretty": (
            "pretty_term", "pretty_literal", "pretty_rule", "pretty_program",
        ),
        "validate": (
            "validate_program", "ValidationReport", "Diagnostic", "Severity",
        ),
    },
)
