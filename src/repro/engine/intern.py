"""Term interning: ground terms to dense integer ids.

Columnar execution (:mod:`repro.engine.columnar`) stores relations as
per-attribute list columns of integer ids instead of tuples of
:class:`~repro.datalog.terms.Term` objects.  The mapping between the
two worlds is a :class:`TermDictionary` shared by every relation of
one :class:`~repro.engine.database.Database`: ``intern(term)`` returns
a dense id (allocating on first sight), ``values[i]`` decodes it
straight to the Python value an answer carries (:func:`plain_value`),
and ``terms[i]`` decodes it back to the term.  A column holds the very
int objects the dictionary mints — it owns one per term; columns, rows
and indexes point at it.
Ids are append-only and never reused, so any copy, pin, snapshot, or
pickled component spec can share the dictionary *by reference* (or by
a one-shot pickle) — an id minted before the share keeps meaning the
same term forever.

Like a relation, the dictionary writes an entry on the side it
arrives on and lets the other side catch up when read: a constant whose
value has exact type ``int`` or ``str`` is keyed by that value, so a
load mints ids from value columns (:meth:`TermDictionary.mint`) without
building a :class:`~repro.datalog.terms.Constant`, and ``terms`` builds
the missing ones for its first reader.

Interning happens at the relation boundary, for whole ground terms:
a :class:`~repro.datalog.terms.Compound` interns as one opaque id
exactly like a constant, which is sound because interning only needs
``id equality ⟺ term equality`` (terms are immutable and hash by
value).  The payoff is that the hot fixpoint loops compare and hash
C-level ints instead of calling Python-level ``Term.__hash__``.
"""

from __future__ import annotations

import threading
from itertools import compress, repeat
from operator import is_
from typing import Dict, List, Optional, Sequence

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

    Two maps share one numbering: ``_plain`` keys a constant whose
    value has exact type ``int`` or ``str`` by that value, ``_ids``
    keys every other term by the term, and no term is in both.

    Thread-safe for concurrent interning (``repro serve --workers``
    reader threads read pinned views that share one dictionary, and
    library threads may ask over one database): lookups are lock-free
    dict reads; only the miss path takes the lock, with a second lookup
    under it so racing interners agree on one id, and so does the first
    read of ``terms`` after a mint.  The lock is re-entrant because
    :meth:`Relation.ensure_columns` holds it around a column extension
    whose per-term interns re-enter it.
    """

    __slots__ = ("values", "_terms", "_plain", "_ids", "_lock")

    def __init__(self) -> None:
        #: Decode table, written at every mint: ``values[i]`` is
        #: ``plain_value`` of the term with id ``i``.
        self.values: List[object] = []
        self._terms: List[Term] = []  # the prefix of ``terms`` built so far
        self._plain: Dict[object, int] = {}
        self._ids: Dict[Term, int] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self.values)

    @property
    def terms(self) -> List[Term]:
        """Decode table: ``terms[i]`` is the term with id ``i``, built
        on read (the first reader after a mint wraps the new values)."""
        terms = self._terms
        if len(terms) < len(self.values):
            with self._lock:
                values = self.values
                if len(terms) < len(values):
                    terms.extend([
                        v if isinstance(v, Term) else Constant(v)
                        for v in values[len(terms):]
                    ])
        return terms

    def intern(self, term: Term) -> int:
        """The dense id of ``term``, allocating one on first sight."""
        if type(term) is Constant and type(term.value) in TEXT_VALUE_TYPES:
            ids, key = self._plain, term.value
        else:
            ids, key = self._ids, term
        ident = ids.get(key)
        if ident is not None:
            return ident
        with self._lock:
            ident = ids.get(key)
            if ident is None:
                ident = len(self.values)
                self.values.append(key)  # plain_value(term), either way
                # Published last: a lock-free reader that sees the id
                # also sees its decode entry.
                ids[key] = ident
        return ident

    def lookup(self, term: Term) -> Optional[int]:
        """The id of ``term`` if it was ever interned, else ``None``.

        The read-side counterpart of :meth:`intern`: never allocates,
        so selecting on a constant no stored fact mentions leaves the
        dictionary untouched (and answers "no rows" from the miss).
        """
        if type(term) is Constant and type(term.value) in TEXT_VALUE_TYPES:
            return self._plain.get(term.value)
        return self._ids.get(term)

    def mint(self, col: Sequence) -> List[int]:
        """The ids of the constants whose values, each of exact type
        ``int`` or ``str``, are ``col``: misses are minted in
        first-occurrence order, and no term is built."""
        plain = self._plain
        ids = list(map(plain.get, col))
        if None not in ids:
            return ids
        with self._lock:
            values = self.values
            missing = dict.fromkeys(compress(col, map(is_, ids, repeat(None))))
            fresh = [v for v in missing if v not in plain]
            start = len(values)
            values.extend(fresh)
            plain.update(zip(fresh, range(start, start + len(fresh))))
        return list(map(plain.get, col))

    def __getstate__(self):
        # Ship only the value table: it names every term, and text
        # constants travel as their values.
        return tuple(self.values)

    def __setstate__(self, state) -> None:
        self.values = list(state)
        self._terms = []
        self._plain = {}
        self._ids = {}
        for ident, value in enumerate(self.values):
            if isinstance(value, Term):
                self._ids[value] = ident
            else:
                self._plain[value] = ident
        self._lock = threading.RLock()

    def __repr__(self) -> str:
        return f"TermDictionary({len(self.values)} terms)"
