"""Pretty-printing of terms, literals, rules, and programs.

The printed form is re-parseable by :mod:`repro.datalog.parser`
(round-trip tested) for the terms the parser can write: variables and
the ground terms :func:`is_text_term` accepts (``int``/``str``
constants, atom functors).  Other constants print as their Python
``repr`` and do not come back: ``p(1.5)`` does not parse, and
``True``/``None`` parse as variables.  Generated predicate names such
as ``t@bf`` or ``m_t@bf`` contain ``@``/``~`` characters, which the
parser accepts inside predicate names so that dumps of transformed
programs can be re-read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from repro.datalog.literals import Literal
from repro.datalog.rules import Rule
from repro.datalog.terms import (
    NIL,
    Compound,
    Constant,
    Term,
    Variable,
    is_list_term,
    list_elements,
)


def pretty_term(term: Term) -> str:
    """Render a term in Prolog-ish concrete syntax.

    A ground term parses back to itself exactly when
    :func:`is_text_term` accepts it; any other constant is written as
    its ``repr`` (``1.5``, ``True``), which does not.
    """
    if isinstance(term, Constant):
        value = term.value
        if isinstance(value, str):
            return value if value == "[]" else _atom(value)
        return repr(value)
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Compound):
        if is_list_term(term):
            elements, tail = list_elements(term)
            inner = ", ".join(pretty_term(e) for e in elements)
            if tail == NIL:
                return f"[{inner}]"
            return f"[{inner} | {pretty_term(tail)}]"
        args = ", ".join(pretty_term(a) for a in term.args)
        return f"{term.functor}({args})"
    raise TypeError(f"not a term: {term!r}")


@lru_cache(maxsize=4096)
def _atom(text: str) -> str:
    """``text`` as an atom: bare when the parser reads it as one word
    (a letter not upper case, then letters, digits, ``_@~#``), else quoted."""
    word = all(ch.isalnum() or ch in "_@~#" for ch in text)
    if word and text[:1].isalpha() and not text[0].isupper():
        return text
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


#: The value types of the constants that print and parse back: exact
#: types, so a ``bool`` (an ``int`` subclass) is not one.
TEXT_VALUE_TYPES = (int, str)


def is_text_term(term: Term) -> bool:
    """Whether ``pretty_term(term)`` parses back to ``term``: a ground
    term over ``int``/``str`` constants (not ``bool``) and atom functors."""
    if isinstance(term, Constant):
        return type(term.value) in TEXT_VALUE_TYPES
    return isinstance(term, Compound) and all(map(is_text_term, term.args)) and (
        is_list_term(term) or _atom(term.functor) == term.functor
    )


def pretty_literal(literal: Literal) -> str:
    return pretty_fact(literal.predicate, literal.args)


def pretty_fact(predicate: str, args: Sequence[Term]) -> str:
    """:func:`pretty_literal` of ``Literal(predicate, args)``, unbuilt."""
    name = _atom(predicate)
    return f"{name}({', '.join(map(pretty_term, args))})" if args else name


def pretty_rule(rule: Rule) -> str:
    head = pretty_literal(rule.head)
    if not rule.body:
        return f"{head}."
    body = ", ".join(pretty_literal(lit) for lit in rule.body)
    return f"{head} :- {body}."


def pretty_program(program: Iterable[Rule]) -> str:
    return "\n".join(pretty_rule(rule) for rule in program)
