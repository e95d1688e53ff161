"""Relations and databases.

A :class:`Relation` is a set of ground argument tuples with lazily
built, incrementally maintained hash indexes over column subsets.  The
indexes are what make semi-naive joins cheap enough that the paper's
asymptotic separations (O(n) vs O(n^2) fact counts) show up as wall
time and not just as counters.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datalog.literals import Literal
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Term, Variable, term_variables
from repro.engine.intern import TermDictionary
from repro.engine.unify import match_term

FactTuple = Tuple[Term, ...]
Signature = Tuple[str, int]
#: A fact as interned column values (one id per attribute).
RowTuple = Tuple[int, ...]

#: Lock stand-in for relations without a dictionary: those never have
#: columnar structures, so there is no cross-thread drain to exclude.
_NO_LOCK = nullcontext()


def _classify(pattern: Sequence[Term]):
    """Split a goal's argument tuple into selection and projection.

    Returns ``(ground, outputs, repeats, residual)``: ``ground`` pairs
    each ground argument with its position (σ by equality), ``outputs``
    are the positions where a variable first occurs (π, in answer
    order), ``repeats`` pairs each later occurrence with that first
    position (σ between two columns).  ``residual`` is ``None`` unless
    some argument is a non-ground compound; then it lists *every*
    non-ground ``(position, argument)`` for :func:`_match_rows`, and
    ``outputs``/``repeats`` are unused.
    """
    ground: List[Tuple[int, Term]] = []
    first: Dict[Variable, int] = {}
    repeats: List[Tuple[int, int]] = []
    nonground: List[Tuple[int, Term]] = []
    compound = False
    for p, arg in enumerate(pattern):
        if arg.is_ground():
            ground.append((p, arg))
            continue
        nonground.append((p, arg))
        if not isinstance(arg, Variable):
            compound = True
        elif arg in first:
            repeats.append((p, first[arg]))
        else:
            first[arg] = p
    if compound:
        return ground, (), (), nonground
    return ground, tuple(first.values()), repeats, None


def _match_rows(
    rows: Iterable[Sequence[Term]], residual: List[Tuple[int, Term]]
) -> Set[FactTuple]:
    """Unify each row with the non-ground arguments of a pattern.

    The one read that still needs a unifier: a partially ground
    compound (``p([a | T], T)``) binds variables inside stored terms.
    ``residual`` pairs a row position with the pattern argument there.
    """
    variables = term_variables(arg for _, arg in residual)
    answers: Set[FactTuple] = set()
    for row in rows:
        bindings: Dict[Variable, Term] = {}
        for p, arg in residual:
            if not match_term(arg, row[p], bindings):
                break
        else:
            answers.add(tuple(bindings[v] for v in variables))
    return answers


def _fill_buckets(index: Dict, owned: Optional[Set], items) -> None:
    """Append each ``(item, key)`` of ``items`` to the bucket ``index[key]``.

    The one place index buckets grow, and so the one place that keeps
    :meth:`Relation.copy` honest.  A copy shares bucket *lists* with
    its original (each side has its own ``dict`` of them); from then on
    both sides carry an ``owned`` set — the keys whose bucket that side
    created or replaced since the share — and a bucket outside it is
    **replaced** by an extended list, never appended to, so the other
    side keeps reading the list it was handed.  ``owned`` is ``None``
    for an index no copy shares: every bucket is appended to in place.
    """
    if owned is None:
        for item, key in items:
            bucket = index.get(key)
            if bucket is None:
                index[key] = [item]
            else:
                bucket.append(item)
        return
    for item, key in items:
        bucket = index.get(key)
        if bucket is None:
            index[key] = [item]
        elif key in owned:
            bucket.append(item)
            continue
        else:
            index[key] = bucket + [item]
        owned.add(key)


def _keyed_facts(facts: Iterable[FactTuple], positions: Tuple[int, ...]):
    """``(fact, tuple-index key)`` pairs, lazily: the key is always a tuple."""
    if len(positions) == 1:
        p = positions[0]
        return ((fact, (fact[p],)) for fact in facts)
    project = itemgetter(*positions)
    return ((fact, project(fact)) for fact in facts)


def _without(seq, gone: List[int]):
    """The list ``seq`` minus the ascending positions ``gone``.

    Copies the runs between them slice by slice: one C-level copy of
    the survivors and one interpreter step per removed position.
    """
    out = seq[: gone[0]]
    start = gone[0] + 1
    for i in gone[1:]:
        if i > start:
            out += seq[start:i]
        start = i + 1
    out += seq[start:]
    return out


@dataclass(frozen=True)
class RelationStatistics:
    """A cheap snapshot of one relation's runtime statistics.

    ``cardinality`` is the tuple count; ``distinct_keys`` maps an index
    column subset to the number of distinct keys observed in that index
    (``len(index)`` — maintained for free by :meth:`Relation.add`).
    The cost model (:mod:`repro.engine.cost`) consumes these to
    estimate probe fanouts; positions with no index carry no entry and
    fall back to the estimator's default.
    """

    cardinality: int
    distinct_keys: Dict[Tuple[int, ...], int] = field(default_factory=dict)

    def distinct(self, positions: Tuple[int, ...]) -> Optional[int]:
        """Distinct-key count for an index on ``positions``, if known."""
        return self.distinct_keys.get(positions)


class Relation:
    """A set of ground tuples plus hash indexes on column subsets.

    Index keys are tuples of column positions (sorted); each index maps
    the projection of a tuple onto those columns to the list of tuples
    with that projection.  Indexes are created on first use and kept up
    to date by :meth:`add`; per-index hit counts record whether an
    index was ever *reused* after being built, so :meth:`copy` can
    carry hot indexes forward and drop cold ones.

    Insertions also append to an internal log, so a contiguous run of
    additions (a semi-naive delta) is addressable as a zero-copy
    :class:`RelationView` via :meth:`view`.

    When a :class:`~repro.engine.intern.TermDictionary` is attached
    (``dictionary``), the relation additionally maintains a columnar
    image of the log: one list of interned term ids per attribute (the
    dictionary's own int objects, never copies), extended lazily from
    a watermark by :meth:`ensure_columns` so the tuple-side hot path
    (:meth:`add`) never pays for it.  The columnar executor
    (:mod:`repro.engine.columnar`) reads the columns plus the
    int-keyed :meth:`col_index`/:meth:`col_set` accessors; row ``i``
    of the columns always describes ``_log[i]``.
    """

    __slots__ = (
        "name",
        "arity",
        "_tuples",
        "_logrows",
        "_pending_n",
        "_indexes",
        "_index_hits",
        "_owned",
        "_carried_distinct",
        "dictionary",
        "_cols",
        "_colset",
        "_colset_n",
        "_col_indexes",
        "_col_owned",
        "_last_rows",
        "_pending_rows",
    )

    def __init__(
        self, name: str, arity: int, dictionary: Optional[TermDictionary] = None
    ):
        self.name = name
        self.arity = arity
        self._tuples: Set[FactTuple] = set()
        self._logrows: List[FactTuple] = []
        # Rows that exist only in the columnar image so far: the tail
        # of the columns past len(_logrows).  Decoded back into the
        # tuple world lazily by _flush() on first tuple-side access.
        self._pending_n = 0
        self._indexes: Dict[Tuple[int, ...], Dict[FactTuple, List[FactTuple]]] = {}
        self._index_hits: Dict[Tuple[int, ...], int] = {}
        # Copy-on-write bookkeeping: positions -> the keys whose bucket
        # this relation may append to in place.  An index has an entry
        # only once copy() shared its buckets with another relation;
        # see _fill_buckets for the ownership rule.
        self._owned: Dict[Tuple[int, ...], Set[FactTuple]] = {}
        # Distinct-key counts inherited through copy() for indexes the
        # copy chose not to materialize; live indexes take precedence.
        self._carried_distinct: Dict[Tuple[int, ...], int] = {}
        #: Shared term dictionary enabling the columnar image (or None).
        self.dictionary = dictionary
        self._cols: Optional[List[List[int]]] = None
        self._colset: Optional[Set[RowTuple]] = None
        self._colset_n = 0
        # positions -> (int-keyed index of row positions, watermark).
        self._col_indexes: Dict[Tuple[int, ...], Tuple[Dict, int]] = {}
        # The int indexes' counterpart of _owned.
        self._col_owned: Dict[Tuple[int, ...], Set] = {}
        # (lo, hi, rows): the row tuples of the most recent bulk append,
        # kept so the next round's delta scan over exactly that span can
        # reuse them instead of re-zipping column slices.  Columns are
        # append-only, so the cache stays valid until compaction.
        self._last_rows: Optional[Tuple[int, int, List[RowTuple]]] = None
        # Bulk-appended rows not yet transposed into the columns.  A
        # head relation whose deltas are served from _last_rows and
        # whose dedup runs against the row set never needs its columns
        # during the fixpoint; ensure_columns() drains this buffer in
        # one transpose the first time the columns are actually read.
        self._pending_rows: List[RowTuple] = []

    # ------------------------------------------------------------------
    # The tuple world: late materialization
    # ------------------------------------------------------------------
    #
    # The columnar fixpoint appends derived rows to the columns only
    # (:meth:`append_rows`); the term-tuple mirror — the ``tuples``
    # set, the insertion log, any live tuple indexes — is brought up
    # to date by :meth:`_flush` the first time something actually
    # reads it.  Both are exposed as properties so every consumer
    # (evaluators, backends, equality, pickling) transparently sees a
    # complete relation, while a run that stays columnar end-to-end
    # never pays for decoding at all.

    @property
    def tuples(self) -> Set[FactTuple]:
        if self._pending_n:
            self._flush()
        return self._tuples

    @property
    def _log(self) -> List[FactTuple]:
        if self._pending_n:
            self._flush()
        return self._logrows

    def _flush(self) -> None:
        """Decode columnar-only rows into the tuple-world mirror."""
        dictionary = self.dictionary
        with dictionary._lock:
            if not self._pending_n:
                return
            cols = self.ensure_columns()
            terms = dictionary.terms
            start = len(self._logrows)
            decoded = list(
                zip(*([terms[i] for i in col[start:]] for col in cols))
            )
            self._logrows.extend(decoded)
            self._tuples.update(decoded)
            self._index_facts(decoded)
            self._pending_n = 0

    def _index_facts(self, facts: Sequence[FactTuple]) -> None:
        """Enter newly logged ``facts`` into every live tuple index."""
        for positions, index in self._indexes.items():
            _fill_buckets(
                index, self._owned.get(positions), _keyed_facts(facts, positions)
            )

    def add(self, fact: FactTuple) -> bool:
        """Insert ``fact``; returns True if it was new."""
        if len(fact) != self.arity:
            raise ValueError(
                f"arity mismatch for {self.name}: expected {self.arity}, got {len(fact)}"
            )
        if fact in self.tuples:
            return False
        self._tuples.add(fact)
        self._logrows.append(fact)
        if self._indexes:
            self._index_facts((fact,))
        return True

    def __contains__(self, fact: FactTuple) -> bool:
        return fact in self.tuples

    def __len__(self) -> int:
        return len(self._tuples) + self._pending_n

    def __iter__(self) -> Iterator[FactTuple]:
        return iter(self.tuples)

    def lookup(self, positions: Tuple[int, ...], key: FactTuple) -> Sequence[FactTuple]:
        """All tuples whose projection on ``positions`` equals ``key``.

        With an empty ``positions`` this is a full scan.
        """
        if not positions:
            return tuple(self.tuples)
        return self.ensure_index(positions).get(key, ())

    def ensure_index(
        self, positions: Tuple[int, ...]
    ) -> Dict[FactTuple, List[FactTuple]]:
        """The hash index on ``positions``, building it on first use.

        The compiled-plan executor probes the returned dict directly,
        so the per-candidate cost is one C-level ``dict.get``.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            _fill_buckets(index, None, _keyed_facts(self.tuples, positions))
            # Publish the hit counter before the index: a concurrent
            # reader (a server reader thread probing a relation its pinned
            # view shares) that sees the index must also see its counter.
            self._index_hits.setdefault(positions, 0)
            self._indexes[positions] = index
        else:
            self._index_hits[positions] = self._index_hits.get(positions, 0) + 1
        return index

    def select(
        self, pattern: Sequence[Term], once: bool = False
    ) -> Set[FactTuple]:
        """σ/π read: the bindings of ``pattern``'s variables over the facts.

        ``pattern`` is a goal's argument tuple.  It is classified once
        (:func:`_classify`): a ground argument is an equality on its
        position, the first occurrence of a variable an output column,
        a repeated variable an equality between two positions; only a
        pattern holding a non-ground compound still unifies per row.
        Returns the set of value tuples of the pattern's variables in
        first-occurrence order — ``{()}``/``set()`` for a ground
        pattern — exactly the answers a per-row ``match`` would give.

        A stored relation is read in the tuple world: pending columnar
        rows are flushed on first read and ground positions probe the
        persistent :meth:`lookup` index, so repeated reads pay for the
        index once.  ``once=True`` promises the relation is discarded
        after this read (a query overlay's answer relation): rows that
        exist only as interned columns are then selected *there* —
        constants compared as ids by a column scan, no index built,
        only the output columns decoded, nothing flushed.
        """
        ground, outputs, repeats, residual = _classify(pattern)
        if once and self._pending_n:
            return self._select_columns(ground, outputs, repeats, residual)
        facts = self._tuples if once else self.tuples
        if len(ground) == len(pattern):
            return {()} if tuple(pattern) in facts else set()
        rows: Iterable[FactTuple] = facts
        if ground and once:
            for p, term in ground:
                rows = [fact for fact in rows if fact[p] == term]
        elif ground:
            rows = self.lookup(
                tuple(p for p, _ in ground), tuple(term for _, term in ground)
            )
        for p, q in repeats:
            rows = [fact for fact in rows if fact[p] == fact[q]]
        if residual is not None:
            return _match_rows(rows, residual)
        if not outputs:
            return {()} if rows else set()
        if len(outputs) == 1:
            p = outputs[0]
            return {(fact[p],) for fact in rows}
        if outputs == tuple(range(self.arity)):
            return set(rows)
        return set(map(itemgetter(*outputs), rows))

    def _select_columns(self, ground, outputs, repeats, residual) -> Set[FactTuple]:
        """:meth:`select` over the interned columns (``once`` reads).

        Syncs the columns exactly where a flush would have — one
        :meth:`ensure_columns` — and decodes nothing but the output
        columns of the surviving rows (whole rows when they must be
        unified with a partially ground argument).
        """
        dictionary = self.dictionary
        cols = self.ensure_columns()
        keep: Optional[List[int]] = None
        for p, term in ground:
            ident = dictionary.lookup(term)
            if ident is None:
                return set()
            col = cols[p]
            if keep is None:
                keep = [i for i, v in enumerate(col) if v == ident]
            else:
                keep = [i for i in keep if col[i] == ident]
        for p, q in repeats:
            a, b = cols[p], cols[q]
            rows = range(len(a)) if keep is None else keep
            keep = [i for i in rows if a[i] == b[i]]
        if residual is not None:
            outputs = range(self.arity)  # the rare path unifies whole rows
        if not outputs:
            return {()} if keep is None or keep else set()
        terms = dictionary.terms
        if keep is None:
            decoded = [[terms[v] for v in cols[p]] for p in outputs]
        else:
            decoded = [
                [terms[col[i]] for i in keep] for col in (cols[p] for p in outputs)
            ]
        if residual is not None:
            return _match_rows(zip(*decoded), residual)
        return set(zip(*decoded))

    def scan(self) -> Set[FactTuple]:
        """The tuples, for full-scan iteration (no copy)."""
        return self.tuples

    def fact_set(self) -> Set[FactTuple]:
        """The tuples as a set, for existence checks (no copy)."""
        return self.tuples

    # ------------------------------------------------------------------
    # Columnar image (interned ids; see repro.engine.columnar)
    # ------------------------------------------------------------------

    def _sync_lock(self):
        """The lock excluding concurrent columnar drains, if any.

        Every mutation of the lazily-built columnar structures (the
        pending-row drain, watermark extension of columns, row set and
        int indexes, the tuple-side ``_flush``) runs under the shared
        dictionary's re-entrant lock.  Copy-like operations hold it too
        so they observe the structures at one pinned watermark instead
        of mid-drain.  Without a dictionary there are no columnar
        structures and nothing to exclude.
        """
        dictionary = self.dictionary
        return _NO_LOCK if dictionary is None else dictionary._lock

    def ensure_columns(self) -> Optional[List[List[int]]]:
        """The per-attribute id columns, interned up to the current log.

        Returns ``None`` without an attached dictionary (or for a
        nullary relation, which has no columns to store) — the columnar
        executor treats that as "fall back to the tuple path".  The
        already-interned prefix is never re-read: extension starts at
        the column watermark, so a fixpoint that checks every round
        pays O(delta), not O(relation).  Extension runs under the
        dictionary's re-entrant lock: concurrent readers of a *shared*
        (non-growing) relation may race to columnize it first, and
        in-place column appends must not interleave.
        """
        dictionary = self.dictionary
        if dictionary is None or self.arity == 0:
            return None
        if self._pending_rows:
            # Drain the row buffer in one bulk transpose.  Under the
            # dictionary lock: a published relation may be read by
            # concurrent server reader threads, and the first reader
            # must drain alone.
            with dictionary._lock:
                buffered = self._pending_rows
                if buffered:
                    cols = self._cols
                    for col, values in zip(cols, zip(*buffered)):
                        col.extend(values)
                    self._pending_rows = []
            return self._cols
        cols = self._cols
        if self._pending_n:
            # Pending rows exist only columnar-side: the columns are by
            # definition complete (and strictly ahead of the log).
            return cols
        n = len(self._logrows)
        if cols is not None and len(cols[0]) == n:
            return cols
        with dictionary._lock:
            cols = self._cols
            if cols is None:
                cols = [[] for _ in range(self.arity)]
            m = len(cols[0])
            if m < n:
                intern = dictionary.intern
                log = self._logrows
                for i in range(m, n):
                    for col, term in zip(cols, log[i]):
                        col.append(intern(term))
            if self._cols is None:
                self._cols = cols
        return cols

    def col_set(self) -> Optional[Set[RowTuple]]:
        """The facts as a set of interned rows (watermark-extended)."""
        rows = self._colset
        if rows is not None and self._colset_n == len(self._logrows) + self._pending_n:
            # Fully synced (append_rows keeps it so): no column read,
            # so a buffered head relation stays un-transposed.
            return rows
        cols = self.ensure_columns()
        if cols is None:
            return None
        n = len(cols[0])
        rows = self._colset
        if rows is None:
            rows = set(zip(*cols))
            self._colset = rows
            self._colset_n = n
        elif self._colset_n < n:
            # Extension mutates the published set in place; under the
            # sync lock (with a watermark re-check) so racing readers of
            # a shared relation never interleave their updates with a
            # third reader iterating the set.
            with self._sync_lock():
                if self._colset_n < n:
                    start = self._colset_n
                    rows.update(zip(*(col[start:] for col in cols)))
                    self._colset_n = n
        return rows

    def col_index(self, positions: Tuple[int, ...]) -> Optional[Dict]:
        """Int-keyed hash index on ``positions`` over the columns.

        Maps the interned projection — a bare id for a single-position
        index, an id tuple otherwise — to the list of row positions
        with that projection (``lookup`` by row keeps the probe loop on
        column indexing instead of materializing row tuples).  Persistent
        and watermark-extended like the tuple indexes, so repeated
        full-relation probes in a fixpoint stay O(delta) per round.
        A first build is published atomically (racing readers of a
        shared relation each build a private table and one wins);
        watermark extension mutates the published table in place, under
        the sync lock with a re-check so two racing readers of a shared
        relation cannot both append the same row positions.
        """
        cols = self.ensure_columns()
        if cols is None:
            return None
        n = len(cols[0])
        entry = self._col_indexes.get(positions)
        if entry is not None and entry[1] == n:
            return entry[0]
        if entry is None:
            index: Dict = {}
            self._fill_col_index(index, None, cols, positions, 0, n)
            self._col_indexes[positions] = (index, n)
            return index
        with self._sync_lock():
            index, m = self._col_indexes[positions]
            if m < n:
                self._fill_col_index(
                    index, self._col_owned.get(positions), cols, positions, m, n
                )
                self._col_indexes[positions] = (index, n)
        return index

    @staticmethod
    def _fill_col_index(
        index: Dict,
        owned: Optional[Set],
        cols: List[List[int]],
        positions: Tuple[int, ...],
        m: int,
        n: int,
    ) -> None:
        """Append row positions ``m:n`` of ``cols`` into an int index."""
        if len(positions) == 1:
            keys = cols[positions[0]][m:n]
        else:
            keys = zip(*(cols[p][m:n] for p in positions))
        _fill_buckets(index, owned, zip(range(m, n), keys))

    def add_row(self, fact: FactTuple, row: RowTuple) -> None:
        """Append a fact known to be novel, with its interned row.

        The columnar round-end add: the caller already deduplicated
        ``row`` against :meth:`col_set`, so this skips the membership
        test and keeps every synced columnar structure (columns, row
        set, int indexes) at their watermark without re-scanning.
        Columns are aligned first — interleaved plain :meth:`add`
        calls may have grown the log past them.
        """
        if self._pending_n:
            self._flush()
        cols = self.ensure_columns()
        position = len(self._logrows)
        self._tuples.add(fact)
        self._logrows.append(fact)
        if self._indexes:
            self._index_facts((fact,))
        if cols is None:
            return
        for col, value in zip(cols, row):
            col.append(value)
        if self._colset is not None and self._colset_n == position:
            self._colset.add(row)
            self._colset_n = position + 1
        self._index_rows((row,), position)

    def _index_rows(self, rows: Sequence[RowTuple], position: int) -> None:
        """Enter ``rows``, logged from ``position``, into every int index
        synced up to there; a lagging one catches up on its next probe."""
        for positions, (index, watermark) in self._col_indexes.items():
            if watermark != position:
                continue
            # keys as col_index() makes them: a bare id for one
            # position, an id tuple otherwise
            keys = map(itemgetter(*positions), rows)
            _fill_buckets(
                index,
                self._col_owned.get(positions),
                zip(range(position, position + len(rows)), keys),
            )
            self._col_indexes[positions] = (index, position + len(rows))

    def append_rows(
        self, rows: List[RowTuple], rowset: Optional[Set[RowTuple]] = None
    ) -> None:
        """Bulk-append novel interned rows, columnar-side only.

        The round-end absorption of the columnar fixpoint: the caller
        already deduplicated ``rows`` against :meth:`col_set`, so the
        columns, the row set, and synced int indexes advance in one
        pass — and **nothing is decoded**.  The term-tuple mirror is
        deferred: the rows are counted in ``_pending_n`` and
        materialized by :meth:`_flush` if and when the tuple world is
        next read.  Requires an attached dictionary and arity > 0 (the
        caller's capability check guarantees both).

        ``rowset``, when given, must hold exactly the same rows as a
        set; the row-set update then runs set-to-set and reuses the
        hashes already stored in its entries instead of rehashing
        every tuple.
        """
        n = len(rows)
        if not n:
            return
        buffered = self._pending_rows
        if not buffered and (
            self._cols is None
            or (not self._pending_n and len(self._cols[0]) != len(self._logrows))
        ):
            # First bulk append, or columns lagging the log: sync them
            # once so buffered rows always continue a complete prefix.
            self.ensure_columns()
        position = len(self._cols[0]) + len(buffered)
        if self._colset is not None and self._colset_n == position:
            self._colset.update(rows if rowset is None else rowset)
            self._colset_n = position + n
        if self._col_indexes:
            self._index_rows(rows, position)
        buffered.extend(rows)
        self._last_rows = (position, position + n, rows)
        self._pending_n += n

    def release_delta_rows(self) -> None:
        """Drop the row list :meth:`append_rows` kept for the next round.

        Called when a fixpoint over this relation ends: no next round
        will scan that span, and the list — half the relation where the
        last productive round was the widest — is a *young* container
        the cyclic collector re-walks at every young collection until
        it ages, whoever's allocations trigger them.
        """
        self._last_rows = None

    def distinct_count(self, positions: Tuple[int, ...]) -> Optional[int]:
        """Distinct keys in the index on ``positions``, if one exists.

        Never builds an index: statistics stay free.  Falls back to
        counts carried over by :meth:`copy` when the live index was
        dropped; returns ``None`` when nothing is known.
        """
        # Interning is a bijection, so an int-keyed index has exactly
        # as many distinct keys as the tuple index on the same
        # positions: the cost planner sees identical statistics in
        # both modes.  With pending (un-decoded) rows the col index is
        # the fresher of the two, so it takes precedence there.
        entry = self._col_indexes.get(positions)
        if self._pending_n and entry is not None:
            return len(entry[0])
        index = self._indexes.get(positions)
        if index is not None:
            return len(index)
        if entry is not None:
            return len(entry[0])
        return self._carried_distinct.get(positions)

    def statistics(self) -> RelationStatistics:
        """A snapshot of cardinality plus per-index distinct-key counts.

        Built on :meth:`_distinct_snapshot`, which iterates over a
        point-in-time copy of the index table: under ``repro serve
        --workers`` another reader thread may lazily build an index on
        a relation both pinned views share while this one reads
        statistics, and a live ``dict`` iteration would raise.
        """
        return RelationStatistics(len(self), self._distinct_snapshot())

    def snapshot(self) -> "Relation":
        """A compact, self-contained copy: facts plus statistics, no indexes.

        This is the wire form of a relation — what the process
        execution backend ships to a worker.  The log (and with it the
        tuple set and insertion order) is copied; every live index is
        reduced to its distinct-key count and carried as a statistic,
        so a cost planner on the far side plans from the same
        cardinality estimates without paying to rebuild (or transfer)
        any bucket table.

        The copy runs under the sync lock, which pins the row watermark
        for its duration: a concurrent reader may be draining the
        pending-row buffer or extending the columns in place
        (:meth:`ensure_columns`), and an unlocked copy could capture a
        partially-buffered slab — some columns already extended, others
        not, or a log inconsistent with ``_pending_n``.
        """
        with self._sync_lock():
            if self._pending_rows:
                self.ensure_columns()
            dup = Relation(self.name, self.arity, self.dictionary)
            dup._logrows = list(self._logrows)
            dup._tuples = set(self._logrows)
            dup._pending_n = self._pending_n
            dup._carried_distinct = self._distinct_snapshot()
            cols = self._cols
            if cols is not None:
                dup._cols = [col[:] for col in cols]
        return dup

    def _distinct_snapshot(self) -> Dict[Tuple[int, ...], int]:
        """Carried + live distinct-key counts (the fresher family wins).

        Synced tuple and col indexes report identical counts (interning
        is a bijection); while rows are pending the tuple indexes lag,
        so the col counts take precedence then.
        """
        distinct = dict(self._carried_distinct)
        col_entries = list(self._col_indexes.items())
        tuple_entries = list(self._indexes.items())
        if not self._pending_n:
            for positions, entry in col_entries:
                distinct[positions] = len(entry[0])
            for positions, index in tuple_entries:
                distinct[positions] = len(index)
        else:
            for positions, index in tuple_entries:
                distinct[positions] = len(index)
            for positions, entry in col_entries:
                distinct[positions] = len(entry[0])
        return distinct

    def __getstate__(self):
        # Pickle the compact snapshot form: the log determines the tuple
        # set (add() appends only novel facts), and indexes travel as
        # distinct-key counts only.  Workers rebuild indexes lazily on
        # first probe, exactly like a fresh relation.  A fully
        # columnized relation ships its id columns plus the dictionary
        # instead of the tuple log — the pickle memo serializes the
        # shared dictionary once per payload, and decoding shares one
        # term object per distinct value instead of one per occurrence.
        # The columns travel packed, 8 bytes an id (array('q')), not
        # as lists of int objects.  Like snapshot(), the sync lock pins
        # the watermark so a concurrent columnar drain cannot tear the
        # captured state.
        with self._sync_lock():
            if self._pending_rows:
                self.ensure_columns()
            cols = self._cols
            if (
                cols is not None
                and self.dictionary is not None
                and len(cols[0]) == len(self._logrows) + self._pending_n
            ):
                return (
                    self.name,
                    self.arity,
                    None,
                    self._distinct_snapshot(),
                    self.dictionary,
                    [array("q", col) for col in cols],
                )
            # No complete columnar image.  Pending rows only ever exist
            # columnar-side, so here the log is the complete story.
            return (
                self.name,
                self.arity,
                tuple(self._logrows),
                self._distinct_snapshot(),
                self.dictionary,
                None,
            )

    def __setstate__(self, state) -> None:
        name, arity, log, distinct, dictionary, cols = state
        self.name = name
        self.arity = arity
        self.dictionary = dictionary
        self._indexes = {}
        self._index_hits = {}
        self._owned = {}
        self._carried_distinct = dict(distinct)
        self._colset = None
        self._colset_n = 0
        self._col_indexes = {}
        self._col_owned = {}
        self._last_rows = None
        self._pending_rows = []
        if log is None:
            # Columns-only wire form: leave every row pending and let
            # the receiver decode lazily — a worker that stays columnar
            # never materializes a single term tuple.
            self._logrows = []
            self._tuples = set()
            self._pending_n = len(cols[0]) if cols else 0
            self._cols = [col.tolist() for col in cols]
        else:
            self._logrows = list(log)
            self._tuples = set(self._logrows)
            self._pending_n = 0
            self._cols = None

    def remove_facts(self, facts: Iterable[FactTuple]) -> int:
        """Remove ``facts``; returns how many were actually present.

        The deletion hook for incremental view maintenance (DRed's
        over-delete/prune step).  The insertion log is compacted to the
        survivors in their original order, so subsequent semi-naive
        maintenance passes keep slicing valid :meth:`view` windows.

        Where the columns cover the log the doomed rows are found *by
        id* — one pass comparing int rows, no term hashed outside the
        doomed facts themselves — and log, columns and row set are
        compacted at those positions; without complete columns the log
        is searched by term.  Live tuple indexes are *repaired*, not
        dropped: only the buckets the doomed facts project into are
        filtered (and replaced, so buckets a copy shares stay intact).
        Int indexes hold row positions, which compaction shifts; they
        are dropped and rebuilt on their next probe.

        Must not be called while an evaluation holds views over this
        relation: view bounds are log offsets and compaction moves them.
        """
        doomed = {fact for fact in facts if fact in self.tuples}
        if not doomed:
            return 0
        self._tuples -= doomed
        log = self._logrows
        cols = self._cols
        covered = 0 if cols is None else len(cols[0])
        if covered == len(log):
            ident = self.dictionary.lookup
            rows = {tuple(map(ident, fact)) for fact in doomed}
            gone = [i for i, row in enumerate(zip(*cols)) if row in rows]
        else:
            rows = None
            gone = [i for i, fact in enumerate(log) if fact in doomed]
        self._logrows = _without(log, gone)
        # Row i of the columns still describes row i of the log: the
        # columnized prefix loses exactly its doomed rows.
        inside = gone[: bisect_left(gone, covered)]
        if inside:
            self._cols = [_without(col, inside) for col in cols]
        if rows is not None and self._colset is not None and self._colset_n == covered:
            self._colset -= rows
            self._colset_n = len(self._logrows)
        else:
            self._colset = None
            self._colset_n = 0
        self._col_indexes.clear()
        self._col_owned.clear()
        self._last_rows = None
        for positions, index in self._indexes.items():
            owned = self._owned.get(positions)
            for key in {key for _, key in _keyed_facts(doomed, positions)}:
                bucket = index.get(key)
                if bucket is None:
                    continue
                survivors = [fact for fact in bucket if fact not in doomed]
                if survivors:
                    index[key] = survivors
                    if owned is not None:
                        owned.add(key)
                else:
                    del index[key]
        return len(doomed)

    def view(self, start: int, stop: int) -> "RelationView":
        """A read-only view of insertions ``start:stop`` (log order).

        The semi-naive evaluator uses this for delta relations: the
        facts added during one round are a contiguous log slice, so no
        tuples are copied and no throwaway relation is built.
        """
        return RelationView(self, start, stop)

    def copy(self) -> "Relation":
        """A copy that behaves as if it shared no mutable state.

        Facts, log and columns are copied container by container.
        Indexes are carried **copy-on-write**: the copy gets its own
        ``dict`` per index and the two sides share the bucket lists,
        under the ownership rule of :func:`_fill_buckets` (from here on
        either side replaces, rather than appends to, a bucket it has
        not created since) — so a copy costs a handful of C-level
        container copies and no per-bucket work, and what either side
        writes afterwards is invisible to the other.  Every int index
        is carried, at its watermark; a tuple index is carried if it
        was reused at least once since being built, and dropped (the
        copy does not pay to maintain it on inserts) if it was built
        but never probed again.

        Statistics always survive the copy: distinct-key counts of
        dropped indexes are retained as carried estimates, so
        :meth:`Database.copy`-based pipelines plan from warm statistics
        instead of cold defaults.

        Like :meth:`snapshot`, the copy runs under the sync lock so a
        concurrent reader's columnar drain or tuple-side ``_flush``
        cannot tear the captured state — the copy-on-write detach of a
        maintenance batch copies exactly the relations that published
        read views still reference.
        """
        with self._sync_lock():
            if self._pending_rows:
                self.ensure_columns()
            dup = Relation(self.name, self.arity, self.dictionary)
            dup._tuples = set(self._tuples)
            dup._logrows = list(self._logrows)
            dup._pending_n = self._pending_n
            dup._carried_distinct = dict(self._carried_distinct)
            cols = self._cols
            if cols is not None:
                dup._cols = [col[:] for col in cols]
            for positions, (index, watermark) in list(self._col_indexes.items()):
                dup._col_indexes[positions] = (dict(index), watermark)
                self._col_owned[positions] = set()
                dup._col_owned[positions] = set()
            for positions, hits in list(self._index_hits.items()):
                index = self._indexes.get(positions)
                if index is None:
                    continue  # counter published ahead of a mid-build index
                if hits > 0:
                    dup._indexes[positions] = dict(index)
                    dup._index_hits[positions] = hits
                    self._owned[positions] = set()
                    dup._owned[positions] = set()
                else:
                    dup._carried_distinct[positions] = len(index)
        return dup


class RelationView:
    """A read-only window onto a contiguous slice of a relation's log.

    Supports the same probe interface as :class:`Relation` (``lookup``,
    iteration, membership, ``len``), building its own small hash
    indexes lazily over just the slice.  The view stays valid as the
    parent relation grows: the bounds are fixed at creation.
    """

    __slots__ = (
        "relation",
        "start",
        "stop",
        "_indexes",
        "_set",
        "_col_indexes",
        "_colset",
    )

    def __init__(self, relation: Relation, start: int, stop: int):
        self.relation = relation
        self.start = start
        self.stop = stop
        self._indexes: Optional[
            Dict[Tuple[int, ...], Dict[FactTuple, List[FactTuple]]]
        ] = None
        self._set: Optional[Set[FactTuple]] = None
        self._col_indexes: Optional[Dict[Tuple[int, ...], Dict]] = None
        self._colset: Optional[Set[RowTuple]] = None

    @property
    def dictionary(self) -> Optional[TermDictionary]:
        return self.relation.dictionary

    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def arity(self) -> int:
        return self.relation.arity

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self) -> Iterator[FactTuple]:
        log = self.relation._log
        for i in range(self.start, self.stop):
            yield log[i]

    def __contains__(self, fact: FactTuple) -> bool:
        return fact in self.fact_set()

    def lookup(self, positions: Tuple[int, ...], key: FactTuple) -> Sequence[FactTuple]:
        """Slice-local analogue of :meth:`Relation.lookup`."""
        if not positions:
            return self.relation._log[self.start : self.stop]
        return self.ensure_index(positions).get(key, ())

    def ensure_index(
        self, positions: Tuple[int, ...]
    ) -> Dict[FactTuple, List[FactTuple]]:
        """The slice-local hash index on ``positions`` (built lazily)."""
        if self._indexes is None:
            self._indexes = {}
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            log = self.relation._log
            for i in range(self.start, self.stop):
                fact = log[i]
                k = tuple(fact[j] for j in positions)
                index.setdefault(k, []).append(fact)
            self._indexes[positions] = index
        return index

    def scan(self) -> List[FactTuple]:
        """The slice's tuples, for full-scan iteration."""
        return self.relation._log[self.start : self.stop]

    def fact_set(self) -> Set[FactTuple]:
        """The slice's tuples as a set, for existence checks."""
        if self._set is None:
            self._set = set(self.relation._log[self.start : self.stop])
        return self._set

    def col_index(self, positions: Tuple[int, ...]) -> Optional[Dict]:
        """Slice-local int-keyed index: projection -> parent row positions.

        Row positions are *absolute* parent log offsets, so the probe
        loop reads payload values straight out of the parent columns.
        Per-view throwaway (views live for one fixpoint round), the
        columnar analogue of the slice-local tuple indexes.
        """
        cols = self.relation.ensure_columns()
        if cols is None:
            return None
        if self._col_indexes is None:
            self._col_indexes = {}
        index = self._col_indexes.get(positions)
        if index is None:
            index = {}
            if len(positions) == 1:
                col = cols[positions[0]]
                for i in range(self.start, self.stop):
                    bucket = index.get(col[i])
                    if bucket is None:
                        index[col[i]] = [i]
                    else:
                        bucket.append(i)
            else:
                pcols = [cols[p] for p in positions]
                for i in range(self.start, self.stop):
                    key = tuple(col[i] for col in pcols)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [i]
                    else:
                        bucket.append(i)
            self._col_indexes[positions] = index
        return index

    def col_set(self) -> Optional[Set[RowTuple]]:
        """The slice's facts as a set of interned rows."""
        cols = self.relation.ensure_columns()
        if cols is None:
            return None
        if self._colset is None:
            self._colset = set(
                zip(*(col[self.start : self.stop] for col in cols))
            )
        return self._colset

    def distinct_count(self, positions: Tuple[int, ...]) -> Optional[int]:
        """Distinct keys in the slice-local index on ``positions``, if built."""
        if self._indexes is not None:
            index = self._indexes.get(positions)
            if index is not None:
                return len(index)
        if self._col_indexes is not None:
            index = self._col_indexes.get(positions)
            if index is not None:
                return len(index)
        return None

    def statistics(self) -> RelationStatistics:
        """Cardinality plus distinct-key counts of slice-local indexes.

        Int-keyed and tuple-keyed indexes report identical counts for
        the same positions (interning is a bijection), so the cost
        planner plans the same join orders whichever execution mode
        built them.
        """
        distinct: Dict[Tuple[int, ...], int] = {}
        if self._col_indexes is not None:
            for positions, index in self._col_indexes.items():
                distinct[positions] = len(index)
        if self._indexes is not None:
            for positions, index in self._indexes.items():
                distinct[positions] = len(index)
        return RelationStatistics(self.stop - self.start, distinct)

    def __getstate__(self):
        # Compact wire form: the window bounds plus the parent relation
        # (which itself pickles compactly); slice-local indexes and the
        # memoized fact set are cheap to rebuild and never travel.
        return (self.relation, self.start, self.stop)

    def __setstate__(self, state) -> None:
        self.relation, self.start, self.stop = state
        self._indexes = None
        self._set = None
        self._col_indexes = None
        self._colset = None

    def __repr__(self) -> str:
        return f"RelationView({self.name}/{self.arity}, [{self.start}:{self.stop}])"


class Database:
    """A mapping from predicate signatures to relations.

    Used both for the EDB (loaded from workloads) and for the IDB
    output of the evaluators.  Constants may be given as plain Python
    values; they are wrapped into :class:`Constant` on insertion.
    """

    def __init__(self, dictionary: Optional[TermDictionary] = None):
        self.relations: Dict[Signature, Relation] = {}
        #: Term dictionary shared by this database's relations (or
        #: None until :meth:`ensure_dictionary` — the tuple path never
        #: needs one).  Copies, pins, and snapshots share it **by
        #: reference**: ids are append-only, so an id minted before
        #: the share keeps meaning the same term in every descendant.
        self.dictionary = dictionary

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def ensure_dictionary(self) -> TermDictionary:
        """Attach a term dictionary to this database and its relations.

        Adopts a dictionary already carried by one of the relations
        (the process backend ships relations with their dictionary and
        the worker-side database starts without one) before minting a
        fresh one.  Relations attached to a *different* dictionary are
        left alone — the columnar executor notices the mismatch and
        falls back to the tuple path for plans touching them.
        """
        if self.dictionary is None:
            for rel in self.relations.values():
                if rel.dictionary is not None:
                    self.dictionary = rel.dictionary
                    break
            else:
                self.dictionary = TermDictionary()
        for rel in self.relations.values():
            if rel.dictionary is None:
                rel.dictionary = self.dictionary
        return self.dictionary

    def relation(self, name: str, arity: int) -> Relation:
        """Get or create the relation for ``(name, arity)``."""
        sig = (name, arity)
        rel = self.relations.get(sig)
        if rel is None:
            rel = Relation(name, arity, self.dictionary)
            self.relations[sig] = rel
        return rel

    def add_fact(self, predicate: str, args: Sequence) -> bool:
        """Insert one fact; plain Python values are wrapped as constants."""
        wrapped = tuple(a if isinstance(a, Term) else Constant(a) for a in args)
        for term in wrapped:
            if not term.is_ground():
                raise ValueError(f"fact argument {term} is not ground")
        return self.relation(predicate, len(wrapped)).add(wrapped)

    def add_facts(self, predicate: str, tuples: Iterable[Sequence]) -> int:
        """Bulk insert; returns the number of new facts.

        Same checks per row as :meth:`add_fact`, but the relation is
        resolved once per arity and each distinct plain value is
        wrapped into one shared :class:`Constant` for the whole call.
        """
        added = 0
        wrap: Dict[object, Term] = {}
        rels: Dict[int, Relation] = {}
        for args in tuples:
            fact = []
            for a in args:
                if isinstance(a, Term):
                    if not a.is_ground():
                        raise ValueError(f"fact argument {a} is not ground")
                else:
                    # Keyed with the type: 1, 1.0 and True hash alike
                    # but must not share one wrapper.
                    key = (a.__class__, a)
                    term = wrap.get(key)
                    if term is None:
                        term = wrap[key] = Constant(a)
                    a = term
                fact.append(a)
            rel = rels.get(len(fact))
            if rel is None:
                rel = rels[len(fact)] = self.relation(predicate, len(fact))
            if rel.add(tuple(fact)):
                added += 1
        return added

    @classmethod
    def from_dict(cls, facts: Dict[str, Iterable[Sequence]]) -> "Database":
        """Build a database from ``{predicate: [tuple, ...]}``."""
        db = cls()
        for predicate, tuples in facts.items():
            db.add_facts(predicate, tuples)
        return db

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, name: str, arity: int) -> Optional[Relation]:
        return self.relations.get((name, arity))

    def facts(self, name: str, arity: Optional[int] = None) -> Set[FactTuple]:
        """All tuples of a predicate (any arity if unspecified)."""
        result: Set[FactTuple] = set()
        for (rel_name, rel_arity), rel in self.relations.items():
            if rel_name == name and (arity is None or rel_arity == arity):
                result |= rel.tuples
        return result

    def remove_fact(self, predicate: str, args: Sequence) -> bool:
        """Remove one fact; returns True if it was present.

        Plain Python values are wrapped exactly like :meth:`add_fact`,
        so ``remove_fact("e", (1, 2))`` undoes ``add_fact("e", (1, 2))``.
        """
        wrapped = tuple(a if isinstance(a, Term) else Constant(a) for a in args)
        rel = self.relations.get((predicate, len(wrapped)))
        if rel is None:
            return False
        return rel.remove_facts((wrapped,)) == 1

    def has_fact(self, predicate: str, args: Sequence) -> bool:
        wrapped = tuple(a if isinstance(a, Term) else Constant(a) for a in args)
        rel = self.relations.get((predicate, len(wrapped)))
        return rel is not None and wrapped in rel

    def total_facts(self) -> int:
        return sum(len(rel) for rel in self.relations.values())

    def signatures(self) -> List[Signature]:
        return list(self.relations)

    def query(self, goal: Literal, once: bool = False) -> Set[Tuple[Term, ...]]:
        """All bindings of ``goal``'s variables against stored facts.

        Returns the set of tuples of values taken by the goal's
        variables, in first-occurrence order.  A ground goal returns
        ``{()}`` if it holds and ``set()`` otherwise.  ``once`` is
        :meth:`Relation.select`'s: the database is discarded after
        this read.
        """
        rel = self.relations.get(goal.signature)
        if rel is None:
            return set()
        return rel.select(goal.args, once)

    # ------------------------------------------------------------------
    # Combination and copying
    # ------------------------------------------------------------------

    def copy(self) -> "Database":
        """An independent copy; per-relation indexes that were reused
        at least once are carried over, never-reused ones are dropped
        (see :meth:`Relation.copy`).  The term dictionary is shared by
        reference — carried exactly once, never re-interned."""
        dup = Database(self.dictionary)
        for sig, rel in self.relations.items():
            dup.relations[sig] = rel.copy()
        return dup

    def pin(self) -> "Database":
        """A frozen read view sharing every relation by reference.

        The MVCC publication step of the concurrent serving layer
        (:mod:`repro.engine.server`): maintenance batches *detach* the
        relations in their dirty closure (copy-on-write, see
        ``IncrementalSession._begin_undo``) instead of mutating them in
        place, so the relation objects a pin captures are never written
        again — pinning is one dict copy of pointers plus the shared
        term dictionary, not a copy of any facts or columns.  Readers
        holding a pinned database see exactly the committed state it
        was taken from; lazily built structures (indexes, column
        drains, tuple flushes) may still materialize under the pin, but
        only with content the pinned watermark already fixed.
        """
        out = Database(self.dictionary)
        out.relations = dict(self.relations)
        return out

    def snapshot(self, signatures: Iterable[Signature]) -> "Database":
        """A self-contained compact database of just ``signatures``.

        The process backend's wire form of a database: unlike
        :meth:`pin`, which shares every relation by reference (fine
        inside one address space), a snapshot holds compact
        :meth:`Relation.snapshot` copies of exactly the named
        signatures — a component's read and write sets — so only the
        facts that component can actually touch cross the process
        boundary.  Missing signatures snapshot as empty relations.
        """
        out = Database(self.dictionary)
        for sig in signatures:
            rel = self.relations.get(sig)
            out.relations[sig] = (
                rel.snapshot()
                if rel is not None
                else Relation(*sig, dictionary=self.dictionary)
            )
        return out

    def restore(self, saved: "Database", signatures: Iterable[Signature]) -> None:
        """Roll the named relations back to their ``saved`` state.

        The undo half of :meth:`snapshot`: the transaction layer
        snapshots a batch's dirty closure before maintenance, and on
        failure restores exactly those signatures by pointer swap.
        Restoration mutates ``self.relations`` in place — the database
        object itself keeps its identity, so live wrappers over it
        (``EdbKeyView``, a session's ``database`` attribute) stay
        valid.  A signature absent from ``saved`` is dropped: it did
        not exist pre-batch.
        """
        for sig in signatures:
            rel = saved.relations.get(sig)
            if rel is not None:
                self.relations[sig] = rel
            else:
                self.relations.pop(sig, None)

    def merge(self, other: "Database") -> "Database":
        """A new database holding the union of facts."""
        merged = self.copy()
        for (name, arity), rel in other.relations.items():
            target = merged.relation(name, arity)
            for fact in rel:
                target.add(fact)
        return merged

    def restrict(self, signatures: Iterable[Signature]) -> "Database":
        """A new database containing only the named relations."""
        keep = set(signatures)
        out = Database(self.dictionary)
        for sig, rel in self.relations.items():
            if sig in keep:
                out.relations[sig] = rel.copy()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {sig: rel.tuples for sig, rel in self.relations.items() if rel.tuples}
        theirs = {sig: rel.tuples for sig, rel in other.relations.items() if rel.tuples}
        return mine == theirs

    def __repr__(self) -> str:
        return f"Database({self.total_facts()} facts, {len(self.relations)} relations)"


def unwrap_rows(rows: Iterable[Sequence[Term]]) -> Set[Tuple]:
    """Answer rows with constants unwrapped to plain Python values."""
    return {
        tuple([t.value if isinstance(t, Constant) else t for t in row])
        for row in rows
    }


def load_program_facts(program, db: Database) -> int:
    """Copy ground fact rules from a program into ``db``.

    The paper treats magic seeds (``m_tbf(5).``) as program rules; the
    evaluators call this so such rules participate as facts.
    Returns the number of facts added.
    """
    added = 0
    for rule in program.rules:
        if rule.is_fact():
            if db.relation(rule.head.predicate, rule.head.arity).add(rule.head.args):
                added += 1
    return added
