"""Terms: variables, constants, and compound (function) terms.

Terms are immutable and hashable, so they can live in relation tuples,
substitution dictionaries, and index keys.  Compound terms are interned
(hash-consed) so that structurally equal terms are reference-equal;
this is the "structure-sharing implementation of lists" the paper
assumes in Example 4.6 — a shared list suffix is a shared object, and
equality/hashing of a shared suffix is O(1) after construction.
"""

from __future__ import annotations

import itertools
import weakref
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union


class Term:
    """Abstract base class for all terms."""

    __slots__ = ()

    def is_ground(self) -> bool:
        raise NotImplementedError

    def variables(self) -> Iterator["Variable"]:
        raise NotImplementedError


class Variable(Term):
    """A logic variable, identified by name.

    Two variables are equal iff their names are equal; rule-local scoping
    is the caller's responsibility (the standard convention for Datalog
    rules, where variable scope is a single rule).
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not name:
            raise ValueError("variable name must be non-empty")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("var", name)))

    def __setattr__(self, key, value):
        raise AttributeError("Variable is immutable")

    def __reduce__(self):
        # Immutability (the __setattr__ override) breaks pickle's default
        # slot-state protocol; rebuild through the constructor instead.
        # Terms must pickle so compiled work units can cross the process
        # boundary of the parallel execution backend.
        return (Variable, (self.name,))

    def is_ground(self) -> bool:
        return False

    def variables(self) -> Iterator["Variable"]:
        yield self

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Constant(Term):
    """A constant wrapping an arbitrary hashable Python value.

    Integers and strings cover everything in the paper; the wrapper is
    value-generic so workloads may use tuples or frozensets as atoms.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("const", value)))

    def __setattr__(self, key, value):
        raise AttributeError("Constant is immutable")

    def __reduce__(self):
        return (Constant, (self.value,))

    def is_ground(self) -> bool:
        return True

    def variables(self) -> Iterator[Variable]:
        return iter(())

    def __eq__(self, other) -> bool:
        # The type too: 1, 1.0 and True are equal Python values but
        # distinct constants (they only share a hash bucket).
        return (
            isinstance(other, Constant)
            and other.value == self.value
            and type(other.value) is type(self.value)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class Compound(Term):
    """A compound term ``functor(arg1, ..., argn)``.

    Instances are interned: constructing the same functor/args twice
    returns the same object, giving O(1) equality and hashing for
    shared structure (the list-suffix sharing of Example 4.6).  The
    table holds its compounds weakly: a term nothing else refers to
    leaves it when it is freed.
    """

    __slots__ = ("functor", "args", "_hash", "_ground", "__weakref__")

    #: (functor, args) -> the compound
    _intern: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, functor: str, args: Iterable[Term]):
        args = tuple(args)
        key = (functor, args)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(("compound", functor, args)))
        object.__setattr__(self, "_ground", all(a.is_ground() for a in args))
        cls._intern[key] = self
        return self

    def __setattr__(self, key, value):
        raise AttributeError("Compound is immutable")

    def __reduce__(self):
        # Rebuilding through __new__ re-interns, so unpickled compounds
        # keep the O(1) shared-structure equality of Example 4.6.
        return (Compound, (self.functor, self.args))

    def is_ground(self) -> bool:
        return self._ground

    def variables(self) -> Iterator[Variable]:
        for arg in self.args:
            yield from arg.variables()

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Compound)
            and other.functor == self.functor
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Compound({self.functor!r}, {self.args!r})"

    def __str__(self) -> str:
        from repro.datalog.pretty import pretty_term

        return pretty_term(self)


#: The empty list ``[]`` in Prolog list notation.
NIL = Constant("[]")

#: The functor used for list cells, as in Prolog (``'.'(H, T)``).
LIST_FUNCTOR = "."


def cons(head: Term, tail: Term) -> Compound:
    """Build one list cell ``[head | tail]``."""
    return Compound(LIST_FUNCTOR, (head, tail))


def make_list(elements: Iterable[Term], tail: Term = NIL) -> Term:
    """Build a Prolog list term from ``elements``, ending in ``tail``.

    ``make_list([a, b])`` is ``[a, b]``; ``make_list([a], T)`` is ``[a | T]``.
    """
    result = tail
    for element in reversed(list(elements)):
        result = cons(element, result)
    return result


def list_elements(term: Term) -> Tuple[List[Term], Term]:
    """Decompose a list term into ``(elements, tail)``.

    For a proper list the tail is :data:`NIL`; for a partial list
    (``[a, b | T]``) the tail is the trailing variable/term.
    """
    elements: List[Term] = []
    while isinstance(term, Compound) and term.functor == LIST_FUNCTOR and len(term.args) == 2:
        elements.append(term.args[0])
        term = term.args[1]
    return elements, term


def is_list_term(term: Term) -> bool:
    """True if ``term`` is a list cell or the empty list."""
    if term == NIL:
        return True
    return isinstance(term, Compound) and term.functor == LIST_FUNCTOR and len(term.args) == 2


def is_ground(term: Term) -> bool:
    """True if ``term`` contains no variables."""
    return term.is_ground()


def term_variables(terms: Union[Term, Iterable[Term]]) -> List[Variable]:
    """All variables in ``terms``, in first-occurrence order, without duplicates."""
    if isinstance(terms, Term):
        terms = (terms,)
    seen: List[Variable] = []
    seen_set = set()
    for term in terms:
        for var in term.variables():
            if var not in seen_set:
                seen_set.add(var)
                seen.append(var)
    return seen


_fresh_counter = itertools.count()


def fresh_variable(prefix: str = "V") -> Variable:
    """A variable guaranteed distinct from any previously created one.

    Fresh variables use a ``#`` in the name, which the parser never
    produces, so collisions with user variables are impossible.
    """
    return Variable(f"{prefix}#{next(_fresh_counter)}")


def constants_in(term: Term) -> Iterator[Constant]:
    """Yield every constant occurring in ``term`` (including inside compounds)."""
    if isinstance(term, Constant):
        yield term
    elif isinstance(term, Compound):
        for arg in term.args:
            yield from constants_in(arg)
