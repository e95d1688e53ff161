"""Columnar batch execution: σ/π/⋈ over whole delta slices at once.

The compiled-plan executor (:meth:`repro.engine.plan.RulePlan.execute`)
is tuple-at-a-time: one recursive descent per partial binding, one
Python-level ``Term.__hash__`` per probe key, one slot list per call.
This module executes the *same* plan batch-at-a-time over the interned
columnar image (:meth:`~repro.engine.database.Relation.ensure_columns`):
the working set is a list of **rows** — tuples of interned ids, one
entry per bound slot, in slot order — and each step transforms the
whole list in one pass.  Scans zip column slices directly, probes are
int-keyed ``dict.get`` against persistent
:meth:`~repro.engine.database.Relation.col_index` tables, existence
checks are int-row membership in
:meth:`~repro.engine.database.Relation.col_set`, and the head projects
rows with an ``itemgetter``.  Nothing is decoded until a derived fact
turns out to be *new*.

**Counter parity is by construction.**  :func:`execute_columnar`
mirrors the tuple executor's per-call resolution loop exactly — the
same sequential constant-key probes, the same early returns on missing
or empty sources — and replaces each per-row ``run(i)`` entry with one
``stats.probes += len(rows)`` per resolved step (step 0's input is the
single virtual empty row, matching the single ``run(0)`` call).
Duplicate row multiplicity is preserved, so ``inferences`` agree; join
orders come from the same :class:`~repro.engine.plan.PlanCache`, and
the int-keyed indexes report the same distinct-key statistics as their
tuple twins, so the cost planner plans identically.  The tuple path
stays on as the differential-fuzz oracle (``exec="tuple"``).

**Fallback is always safe.**  A plan the kernel cannot run (compound
templates, unbound-head rules, provenance ``on_match``) or a call
whose sources are not columnar-capable returns ``None`` from a
zero-side-effect capability check *before any counting*, and the
caller runs the plan down the tuple path with identical statistics.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Mapping, Optional

from repro.engine.database import Database, RelationView, RowTuple
from repro.engine.plan import (
    H_SLOT,
    K_SLOT,
    K_TEMPLATE,
    O_MATCH,
    O_STORE,
    RulePlan,
)

def decode_rows(terms, rows) -> List[tuple]:
    """Decode interned rows back to term tuples, column-wise.

    Transposing twice keeps the per-term work inside C-level ``zip``
    and a flat list comprehension instead of a nested generator per
    row — this sits on the round-end absorption path.
    """
    if not rows:
        return []
    if not rows[0]:
        return [()] * len(rows)  # nullary: there are no columns to zip
    return list(zip(*([terms[i] for i in col] for col in zip(*rows))))


#: Per-step spec kinds precompiled by :func:`_compile_kernel`.
S_SCAN, S_GROUND, S_EXISTS, S_BUCKET, S_PROBE = 0, 1, 2, 3, 4


def _compile_kernel(plan: RulePlan):
    """The static columnar spec for ``plan``, or ``False``.

    ``False`` marks a plan the kernel cannot run: a head that is not
    pure constants/slots (range-unrestricted or compound-building), a
    probe key built from a compound template, or a candidate matcher
    that decomposes compounds (``O_MATCH``).  Those shapes need real
    term structure, which interned ids deliberately erase — the opaque
    id of ``f(X)`` cannot be taken apart.  Everything else (scans,
    slot/constant probes, existence checks, slot stores and equality
    checks) works on ids alone.

    An eligible plan compiles to ``(shape, payload, specs)`` — the head
    emitter plus one static spec tuple per step, so the per-call
    resolution loop reads plain tuples instead of re-deriving step
    shape from attributes.  Key parts whose builders are all slots are
    baked in here; parts with constant components stay ``None`` and
    are interned per call (the dictionary is a call-time input).
    """
    if not plan.head_fast:
        return False
    for step in plan.steps:
        for tag, _ in step.key_builders or ():
            if tag == K_TEMPLATE:
                return False
        for _, tag, _ in step.post_ops:
            if tag == O_MATCH:
                return False
    specs = []
    for step in plan.steps:
        builders = step.key_builders
        if builders is None:
            post = step.post_ops
            # All positions fresh variables, stored in position order:
            # eligible for the vectorized batch-entry fast path.
            fresh_all = (
                bool(post)
                and len(post) == step.arity
                and all(tag == O_STORE for _, tag, _ in post)
            )
            specs.append((S_SCAN, post, fresh_all))
            continue
        parts = None
        if step.const_key is None and all(tag == K_SLOT for tag, _ in builders):
            parts = tuple((True, payload) for _, payload in builders)
        if step.all_bound:
            if step.const_key is not None:
                specs.append((S_GROUND, step.const_key))
            else:
                specs.append((S_EXISTS, parts, builders))
        elif step.const_key is not None:
            specs.append((S_BUCKET, step.key_positions, step.const_key, step.post_ops))
        else:
            specs.append(
                (
                    S_PROBE,
                    step.key_positions,
                    parts,
                    builders,
                    step.single_slot_key,
                    step.single_store,
                    step.post_ops,
                )
            )
    if plan._head_getter is not None:
        return ("getter", plan._head_getter, tuple(specs))
    # head_fast with no all-slot getter: a mix of constants and slots.
    return ("mixed", plan.head_ops, tuple(specs))


def execute_columnar(
    plan: RulePlan,
    db: Database,
    overrides: Optional[Mapping[int, object]],
    stats=None,
) -> Optional[List[RowTuple]]:
    """Run ``plan`` batch-at-a-time; the interned head rows, in order.

    Returns ``None`` — with **no** side effects, counters included —
    when this call cannot run columnar (ineligible plan, no database
    dictionary, a source on a different dictionary, a nullary source):
    the caller must then fall back to ``plan.execute``.  Otherwise
    returns the emitted head rows (duplicates preserved — the caller
    counts ``inferences`` from the length), updating ``stats.probes``
    exactly as the tuple executor would have.
    """
    kernel = plan._columnar
    if kernel is None:
        kernel = _compile_kernel(plan)
        plan._columnar = kernel
    if kernel is False:
        return None
    dictionary = db.dictionary
    if dictionary is None:
        return None

    steps = plan.steps
    # Pure capability pass: resolve every step's source exactly like the
    # executor will, but touch nothing.  A missing source is *capable*
    # (both paths early-return identically); an incompatible one is not.
    sources = []
    for step in steps:
        rel = None
        if step.role is not None and overrides is not None:
            rel = overrides.get(step.role)
        if rel is None:
            rel = db.get(step.name, step.arity)
        if rel is not None and (
            step.arity == 0
            or getattr(rel, "dictionary", None) is not dictionary
        ):
            return None
        sources.append(rel)

    intern = dictionary.intern
    counting = stats is not None
    specs = kernel[2]

    # Per-step resolution, mirroring RulePlan.execute:
    # (_SCAN, cols, lo, hi, post, fresh_all) | (_ROWS, row_tuples) |
    # (_BUCKET, cols, row_indexes, post) |
    # (_PROBE, cols, index, key_parts, single_slot, single_store, post) |
    # (_EXISTS, row_set, key_parts) | (_PASS,)
    _SCAN, _BUCKET, _PROBE, _EXISTS, _PASS, _ROWS = 0, 1, 2, 3, 4, 5
    resolved: List[tuple] = []
    virgin = True  # no step before this one narrowed the batch
    for spec, rel in zip(specs, sources):
        if rel is None:
            return []
        if len(rel) == 0:
            return []
        kind = spec[0]
        if kind == S_SCAN:
            _, post, fresh_all = spec
            if type(rel) is RelationView:
                parent = rel.relation
                lo, hi = rel.start, rel.stop
                if fresh_all and virgin:
                    last = parent._last_rows
                    if last is not None and last[0] == lo and last[1] == hi:
                        # Batch-entry delta scan over exactly the span
                        # of the last bulk append: reuse those row
                        # tuples verbatim, no column read at all.
                        resolved.append((_ROWS, last[2]))
                        virgin = False
                        continue
                cols = parent.ensure_columns()
            else:
                cols = rel.ensure_columns()
                lo, hi = 0, len(cols[0])
            resolved.append((_SCAN, cols, lo, hi, post, fresh_all))
            virgin = False
        elif kind == S_PROBE:
            _, key_positions, parts, builders, single_slot, single_store, post = spec
            if type(rel) is RelationView:
                cols = rel.relation.ensure_columns()
            else:
                cols = rel.ensure_columns()
            if parts is None:
                parts = tuple(
                    (tag == K_SLOT, payload if tag == K_SLOT else intern(payload))
                    for tag, payload in builders
                )
            resolved.append(
                (
                    _PROBE,
                    cols,
                    rel.col_index(key_positions),
                    parts,
                    single_slot,
                    single_store,
                    post,
                )
            )
            virgin = False
        elif kind == S_GROUND:
            # Ground literal: its truth is fixed for the whole run.
            if counting:
                stats.probes += 1
            key = tuple(intern(term) for term in spec[1])
            if key not in rel.col_set():
                return []
            resolved.append((_PASS,))
        elif kind == S_EXISTS:
            _, parts, builders = spec
            if parts is None:
                parts = tuple(
                    (tag == K_SLOT, payload if tag == K_SLOT else intern(payload))
                    for tag, payload in builders
                )
            resolved.append((_EXISTS, rel.col_set(), parts))
            virgin = False
        else:  # S_BUCKET: constant-only filter, one bucket for the run.
            _, key_positions, const_key, post = spec
            if counting:
                stats.probes += 1
            if len(key_positions) == 1:
                key = intern(const_key[0])
            else:
                key = tuple(intern(term) for term in const_key)
            bucket = rel.col_index(key_positions).get(key)
            if bucket is None:
                return []
            if type(rel) is RelationView:
                cols = rel.relation.ensure_columns()
            else:
                cols = rel.ensure_columns()
            resolved.append((_BUCKET, cols, bucket, post))
            virgin = False

    # The batch loop.  ``rows`` holds one tuple of interned slot values
    # per surviving partial binding; slot ids are allocated in step
    # order, so slot i is always index i of the row and appending a
    # store keeps the layout aligned.
    rows: List[RowTuple] = [()]
    for st in resolved:
        kind = st[0]
        if kind == _PASS:
            continue
        if counting:
            # One tuple-mode run(i) entry per partial row reaching the
            # step; an emptied batch adds 0, like the pruned recursion.
            stats.probes += len(rows)
        if not rows:
            continue
        if kind == _PROBE:
            _, cols, index, parts, single_slot, single_store, post = st
            get = index.get
            out: List[RowTuple] = []
            if single_slot is not None:
                if single_store is not None:
                    # The hot hash-join loop: one slot key, one stored
                    # column — a flat comprehension keeps every probe,
                    # concat, and append at C level.
                    col = cols[single_store[0]]
                    empty: tuple = ()
                    rows = [
                        row + (col[i],)
                        for row in rows
                        for i in get(row[single_slot], empty)
                    ]
                    continue
                for row in rows:
                    bucket = get(row[single_slot])
                    if bucket is None:
                        continue
                    _filter_bucket(cols, bucket, row, post, out)
                rows = out
                continue
            for row in rows:
                key = tuple(
                    row[payload] if is_slot else payload
                    for is_slot, payload in parts
                )
                bucket = get(key)
                if bucket is None:
                    continue
                if single_store is not None:
                    col = cols[single_store[0]]
                    for i in bucket:
                        out.append(row + (col[i],))
                else:
                    _filter_bucket(cols, bucket, row, post, out)
            rows = out
        elif kind == _ROWS:
            # Cached batch entry: by construction the working set is
            # still the single virtual empty row.
            rows = st[1]
        elif kind == _SCAN:
            _, cols, lo, hi, post, fresh_all = st
            if not post:
                # No free and no checked positions: pure multiplicity.
                rows = [row for row in rows for _ in range(lo, hi)]
                continue
            if fresh_all and len(rows) == 1 and not rows[0]:
                # Vectorized first step: all positions are fresh
                # variables, so the batch is the column slices zipped.
                ordered = [cols[pos] for pos, _, _ in post]
                if lo or hi != len(cols[0]):
                    rows = list(zip(*(col[lo:hi] for col in ordered)))
                else:
                    rows = list(zip(*ordered))
                continue
            out = []
            for row in rows:
                _filter_bucket(cols, range(lo, hi), row, post, out)
            rows = out
        elif kind == _BUCKET:
            _, cols, bucket, post = st
            if not post:
                rows = [row for row in rows for _ in bucket]
                continue
            out = []
            for row in rows:
                _filter_bucket(cols, bucket, row, post, out)
            rows = out
        else:  # _EXISTS
            _, row_set, parts = st
            rows = [
                row
                for row in rows
                if tuple(
                    row[payload] if is_slot else payload
                    for is_slot, payload in parts
                )
                in row_set
            ]

    if not rows:
        return rows
    shape, payload, _ = kernel
    if shape == "getter":
        return list(map(payload, rows))
    head_parts = tuple(
        (tag == H_SLOT, slot_or_term if tag == H_SLOT else intern(slot_or_term))
        for tag, slot_or_term in payload
    )
    return [
        tuple(row[p] if is_slot else p for is_slot, p in head_parts)
        for row in rows
    ]


def _filter_bucket(cols, indexes, row, post, out) -> None:
    """Extend ``out`` with ``row`` ⋈ each candidate row in ``indexes``.

    The general per-candidate path: apply the step's slot stores and
    equality checks position by position.  Slot ids equal row indexes
    (slots are allocated in step order), so a check against a slot
    stored earlier — in a previous step or earlier in this one — is a
    plain tuple read.
    """
    for i in indexes:
        vals = row
        ok = True
        for pos, tag, slot in post:
            value = cols[pos][i]
            if tag == O_STORE:
                vals = vals + (value,)
            elif vals[slot] != value:
                ok = False
                break
        if ok:
            out.append(vals)
