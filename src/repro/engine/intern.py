"""Term interning: ground terms to dense integer ids.

Columnar execution (:mod:`repro.engine.columnar`) stores relations as
per-attribute list columns of integer ids instead of tuples of
:class:`~repro.datalog.terms.Term` objects.  The mapping between the
two worlds is a :class:`TermDictionary` shared by every relation of
one :class:`~repro.engine.database.Database`: ``intern(term)`` returns
a dense id (allocating on first sight), ``terms[i]`` decodes it back,
and ``values[i]`` decodes it straight to the Python value an answer
carries (:func:`plain_value`).  A column holds the very int objects
``intern`` returns — the dictionary owns one per term; columns, rows
and indexes point at it.
Ids are append-only and never reused, so any copy, pin, snapshot, or
pickled component spec can share the dictionary *by reference* (or by
a one-shot pickle) — an id minted before the share keeps meaning the
same term forever.

Interning happens at the relation boundary, for whole ground terms:
a :class:`~repro.datalog.terms.Compound` interns as one opaque id
exactly like a constant, which is sound because interning only needs
``id equality ⟺ term equality`` (terms are immutable and hash by
value).  The payoff is that the hot fixpoint loops compare and hash
C-level ints instead of calling Python-level ``Term.__hash__``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.datalog.pretty import TEXT_VALUE_TYPES
from repro.datalog.terms import Constant, Term


def plain_value(term: Term):
    """What an answer carries for ``term``: the Python value of an
    ``int`` (not ``bool``) or ``str`` constant — the constants
    :func:`~repro.datalog.pretty.is_text_term` accepts — and any other
    ground term itself.  Other constants stay :class:`Constant`, as
    compounds do: ``1``, ``1.0`` and ``True`` are three constants but
    equal Python values, and a set of answers would merge them."""
    if isinstance(term, Constant) and type(term.value) in TEXT_VALUE_TYPES:
        return term.value
    return term


class TermDictionary:
    """An append-only bijection between ground terms and dense ints.

    Thread-safe for concurrent interning (``repro serve --workers``
    reader threads read pinned views that share one dictionary, and
    library threads may ask over one database): lookups are lock-free
    dict reads; only the miss path takes the lock, with a second lookup
    under it so racing interners agree on one id.  The lock is
    re-entrant because :meth:`Relation.ensure_columns` holds it around
    a column extension whose per-term interns re-enter it.
    """

    __slots__ = ("terms", "values", "_ids", "_lock")

    def __init__(self) -> None:
        #: Decode table: ``terms[i]`` is the term with id ``i``.
        self.terms: List[Term] = []
        #: Answer decode table: ``values[i]`` is ``plain_value(terms[i])``.
        self.values: List[object] = []
        self._ids: Dict[Term, int] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self.terms)

    def intern(self, term: Term) -> int:
        """The dense id of ``term``, allocating one on first sight."""
        ident = self._ids.get(term)
        if ident is not None:
            return ident
        with self._lock:
            ident = self._ids.get(term)
            if ident is None:
                ident = len(self.terms)
                self.terms.append(term)
                self.values.append(plain_value(term))
                # Published last: a lock-free reader that sees the id
                # also sees both decode entries.
                self._ids[term] = ident
        return ident

    def lookup(self, term: Term) -> Optional[int]:
        """The id of ``term`` if it was ever interned, else ``None``.

        The read-side counterpart of :meth:`intern`: never allocates,
        so selecting on a constant no stored fact mentions leaves the
        dictionary untouched (and answers "no rows" from the miss).
        """
        return self._ids.get(term)

    def __getstate__(self):
        # Ship only the decode table; ``_ids`` rebuilds lazily on the
        # receiving side (workers mostly decode, rarely intern).
        return tuple(self.terms)

    def __setstate__(self, state) -> None:
        self.terms = list(state)
        self.values = [plain_value(term) for term in self.terms]
        self._ids = {term: i for i, term in enumerate(self.terms)}
        self._lock = threading.RLock()

    def __repr__(self) -> str:
        return f"TermDictionary({len(self.terms)} terms)"
