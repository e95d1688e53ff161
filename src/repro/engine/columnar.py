"""Columnar batch execution: σ/π/⋈ over whole delta slices at once.

The compiled-plan executor (:meth:`repro.engine.plan.RulePlan.execute`)
is tuple-at-a-time: one recursive descent per partial binding, one
Python-level ``Term.__hash__`` per probe key, one slot list per call.
This module executes the *same* plan batch-at-a-time over the interned
columnar image (:meth:`~repro.engine.database.Relation.ensure_columns`):
the working set is a list of **rows** — tuples of interned ids, one
entry per slot still read downstream — and each step transforms the
whole list in one pass.  Scans zip column slices directly, probes are
int-keyed ``dict.get`` against persistent
:meth:`~repro.engine.database.Relation.col_index` tables, existence
checks are int-row membership in
:meth:`~repro.engine.database.Relation.col_set`.  Nothing is decoded
until a derived fact turns out to be *new*.

**Generated, not interpreted.**  The passes are not dispatched step by
step: each plan *shape* (:func:`_compile_kernel`) is written out once
as the source of one Python function (:func:`kernel_source`) — a
comprehension per step, the last one building the head tuple — which
is compiled on first execution and shared by every plan of that shape
(:func:`kernel_function`).  Columns are plain lists holding the
:class:`~repro.engine.intern.TermDictionary`'s own int objects, so a
value read from a column into a row is a pointer copy and derived rows
share their ids with the dictionary.

**Counter parity is by construction.**  :func:`execute_columnar`
mirrors the tuple executor's per-call resolution loop exactly — the
same sequential constant-key probes, the same early returns on missing
or empty sources — and replaces each per-row ``run(i)`` entry with one
``n += len(rows)`` per generated step (step 0's input is the single
virtual empty row, matching the single ``run(0)`` call).
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

from typing import List, Mapping, Optional

from repro.engine.database import Database, RelationView, RowTuple
from repro.engine.plan import (
    H_SLOT,
    K_SLOT,
    K_TEMPLATE,
    O_CHECK,
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


#: Step kinds of a kernel shape (see :func:`_compile_kernel`).
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

    An eligible plan compiles to ``(shape, consts, head_consts, entry)``.
    ``shape`` is everything the batch function depends on and nothing
    more: per step ``(kind, post_ops, key)``, ``key`` being the probe
    key as slots with ``None`` for a constant, and the head likewise —
    integers only, so plans that differ in predicates, constants or
    indexed positions share one shape and one generated function
    (:func:`kernel_function`).  The constants abstracted out of it sit
    beside it, per step and for the head, and are interned per call
    (the dictionary is a call-time input); ``entry`` is
    :func:`_entry_step` of the shape.
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
    steps = []
    consts = []
    for step in plan.steps:
        builders = step.key_builders or ()
        if not builders:
            kind = S_SCAN
        elif step.const_key is None:
            kind = S_EXISTS if step.all_bound else S_PROBE
        else:
            kind = S_GROUND if step.all_bound else S_BUCKET
        key = None
        if kind == S_EXISTS or kind == S_PROBE:
            key = tuple(p if tag == K_SLOT else None for tag, p in builders)
        steps.append((kind, step.post_ops, key))
        consts.append(tuple(p for tag, p in builders if tag != K_SLOT))
    head = tuple(p if tag == H_SLOT else None for tag, p in plan.head_ops)
    head_consts = tuple(p for tag, p in plan.head_ops if tag != H_SLOT)
    steps = tuple(steps)
    return (steps, head), tuple(consts), head_consts, _entry_step(steps)


def _entry_step(steps) -> Optional[int]:
    """The step whose result enters the batch function ready-made.

    That is the first non-ground step when it scans only fresh
    variables: its rows are the source's own rows — the cached span of
    the last bulk append or the column slices zipped — so no code is
    generated for it.  ``None`` when the batch starts from the single
    empty binding instead.
    """
    for j, (kind, post, _) in enumerate(steps):
        if kind != S_GROUND:
            fresh = bool(post) and all(tag == O_STORE for _, tag, _ in post)
            return j if kind == S_SCAN and fresh else None
    return None


#: Per step kind: the locals its ``resolved`` entry unpacks into, and
#: the candidate loop of its comprehension (``i`` is a row position).
_RESOLVED = {
    S_SCAN: "cols{j} lo{j} hi{j}",
    S_BUCKET: "cols{j} bucket{j}",
    S_PROBE: "cols{j} get{j}",
    S_EXISTS: "known{j}",
}
_CANDIDATES = {
    S_SCAN: " for i in range(lo{j}, hi{j})",
    S_BUCKET: " for i in bucket{j}",
    S_PROBE: " for i in get{j}({key}, ())",
}


def _tuple(items) -> str:
    items = list(items)
    return "(" + ", ".join(items) + (",)" if len(items) == 1 else ")")


def kernel_source(shape) -> str:
    """Python source of the batch function for one kernel shape.

    One comprehension per non-ground step after the entry, in plan
    order.  A partial binding is a tuple of the slots a later key or
    the head still reads; a step unpacks it into locals (``s3`` is slot
    3), writes its probe key, equality checks and existence test out
    positionally, reads stored values straight from the source's
    columns (``c2_0`` is column 0 of step 2's source) and builds the
    narrowed tuple for the next step — the last step builds the head
    tuple itself, and a pure filter passes its rows through.  ``n`` is
    the tuple executor's ``probes``: the batch size entering each step.
    The text holds generated names and integers only; whatever came
    from the program (columns, indexes, interned constants) arrives in
    ``resolved`` and ``head``.
    """
    steps, head = shape
    entry = _entry_step(steps)
    todo = [j for j, s in enumerate(steps) if s[0] != S_GROUND and j != entry]
    numbers = iter(range(len(head)))
    emitted = [f"h{next(numbers)}" if slot is None else slot for slot in head]
    lines = ["def kernel(rows, resolved, head):"]
    if None in head:
        lines.append(f"    {_tuple(x for x in emitted if type(x) is str)} = head")
    lines.append(f"    n = {0 if entry is None else 1}")
    # after[j]: the slots read once step j is done, by later keys (a
    # check only ever reads a slot its own step stored) and the head.
    after = {}
    reads = {slot for slot in head if slot is not None}
    for j in reversed(todo):
        after[j] = set(reads)
        reads.update(slot for slot in steps[j][2] or () if slot is not None)
    layout = [] if entry is None else [slot for _, _, slot in steps[entry][1]]
    for r, j in enumerate(todo or [None]):  # None: only the head is left to build
        kind, post, key = (None, (), None) if j is None else steps[j]
        stored = {slot: f"c{j}_{pos}[i]" for pos, tag, slot in post if tag == O_STORE}
        if j is None or j == todo[-1]:
            out = emitted
        else:
            out = [slot for slot in layout + list(stored) if slot in after[j]]
        keep = out == layout  # nothing to rebuild: the row passes through

        def ref(item) -> str:
            if type(item) is str:
                return item
            if item in stored:
                return stored[item]
            return f"r[{layout.index(item)}]" if keep else f"s{item}"

        numbers = iter(range(len(key or ())))
        parts = [
            f"k{j}_{next(numbers)}" if slot is None else ref(slot)
            for slot in key or ()
        ]
        conds = [
            f" if c{j}_{pos}[i] == {ref(slot)}"
            for pos, tag, slot in post
            if tag == O_CHECK
        ]
        if kind == S_EXISTS:
            conds.append(f" if {_tuple(parts)} in known{j}")
        candidates = _CANDIDATES.get(kind, "").format(
            j=j, key=parts[0] if len(parts) == 1 else _tuple(parts)
        )
        if keep and not candidates and not conds:
            body = "rows[:]"
        else:
            result = "r" if keep else _tuple(map(ref, out))
            pattern = "r" if keep else _tuple(f"s{s}" for s in layout) if layout else "_"
            body = f"[{result} for {pattern} in rows{candidates}{''.join(conds)}]"
        if j is not None:
            names = _RESOLVED[kind].format(j=j).split()
            names += [part for part, slot in zip(parts, key or ()) if slot is None]
            lines.append(f"    {_tuple(names)} = resolved[{r}]")
            lines += [  # the columns the comprehension reads
                f"    c{j}_{pos} = cols{j}[{pos}]"
                for pos, _, _ in post
                if f"c{j}_{pos}[" in body
            ]
            lines.append("    n += len(rows)")
        lines.append(f"    rows = {body}")
        layout = out
    lines.append("    return rows, n")
    return "\n".join(lines) + "\n"


#: shape -> generated function.  Filled lazily; threads racing on one
#: shape compile it twice at worst and agree on the first one stored.
_KERNELS: dict = {}


def kernel_function(shape):
    """The batch function for ``shape``, generated on first request.

    ``kernel(rows, resolved, head)`` takes the entry rows (``[()]``
    without an entry step), one tuple of resolved containers per
    generated step and the interned head constants, and returns the
    head rows plus the probe count.  The source is not kept.
    """
    kernel = _KERNELS.get(shape)
    if kernel is None:
        namespace: dict = {}
        exec(compile(kernel_source(shape), "<kernel>", "exec"), namespace)
        kernel = _KERNELS.setdefault(shape, namespace["kernel"])
    return kernel


def execute_columnar(
    plan: RulePlan,
    db: Database,
    overrides: Optional[Mapping[int, object]],
    stats=None,
    capable: Optional[set] = None,
) -> Optional[List[RowTuple]]:
    """Run ``plan`` batch-at-a-time; the interned head rows, in order.

    Returns ``None`` — with **no** side effects, counters included —
    when this call cannot run columnar (ineligible plan, no database
    dictionary, a source on a different dictionary, a nullary source):
    the caller must then fall back to ``plan.execute``.  Otherwise
    returns the emitted head rows (duplicates preserved — the caller
    counts ``inferences`` from the length), updating ``stats.probes``
    exactly as the tuple executor would have.

    ``capable`` is the calling run's memory of the plans whose sources
    passed the capability check: which relations a plan reads, and on
    which dictionary they sit, is fixed for one fixpoint over one
    database, so there the check runs once per plan, not once per call.
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
    if capable is None or plan not in capable:
        # Pure capability pass: resolve every step's source exactly like
        # the executor will, but touch nothing.  A missing source is
        # *capable* (both paths early-return identically).
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
        if capable is not None:
            capable.add(plan)

    intern = dictionary.intern
    counting = stats is not None
    shape, consts, head_consts, entry = kernel

    # Per-step resolution, mirroring RulePlan.execute: the same early
    # returns and constant-key probes, in the same order — an empty
    # delta at the first step ends the call here.  Each generated step
    # gets one tuple, laid out as :data:`_RESOLVED` names it plus the
    # step's interned key constants.
    resolved: List[tuple] = []
    rows: List[RowTuple] = [()]
    span = None  # the entry scan's (cols, lo, hi) when its rows are not cached
    for j, step in enumerate(steps):
        rel = None
        if step.role is not None and overrides is not None:
            rel = overrides.get(step.role)
        if rel is None:
            rel = db.get(step.name, step.arity)
            if rel is None:
                return []
        if len(rel) == 0:
            return []
        kind = shape[0][j][0]
        if kind == S_SCAN:
            if type(rel) is RelationView:
                parent = rel.relation
                lo, hi = rel.start, rel.stop
                if j == entry:
                    last = parent._last_rows
                    if last is not None and last[0] == lo and last[1] == hi:
                        # Batch-entry delta scan over exactly the span
                        # of the last bulk append: reuse those row
                        # tuples verbatim, no column read at all.
                        rows = last[2]
                        continue
                cols = parent.ensure_columns()
            else:
                cols = rel.ensure_columns()
                lo, hi = 0, len(cols[0])
            if j == entry:
                span = (cols, lo, hi)
            else:
                resolved.append((cols, lo, hi))
        elif kind == S_PROBE:
            if type(rel) is RelationView:
                cols = rel.relation.ensure_columns()
            else:
                cols = rel.ensure_columns()
            keys = consts[j] and [intern(term) for term in consts[j]]
            resolved.append((cols, rel.col_index(step.key_positions).get, *keys))
        elif kind == S_GROUND:
            # Ground literal: its truth is fixed for the whole run.
            if counting:
                stats.probes += 1
            key = tuple(intern(term) for term in consts[j])
            if key not in rel.col_set():
                return []
        elif kind == S_EXISTS:
            keys = consts[j] and [intern(term) for term in consts[j]]
            resolved.append((rel.col_set(), *keys))
        else:  # S_BUCKET: constant-only filter, one bucket for the run.
            key_positions = step.key_positions
            if counting:
                stats.probes += 1
            if len(key_positions) == 1:
                key = intern(consts[j][0])
            else:
                key = tuple(intern(term) for term in consts[j])
            bucket = rel.col_index(key_positions).get(key)
            if bucket is None:
                return []
            if type(rel) is RelationView:
                cols = rel.relation.ensure_columns()
            else:
                cols = rel.ensure_columns()
            resolved.append((cols, bucket))

    if span is not None:
        # Vectorized entry: all positions are fresh variables, so the
        # batch is the column slices zipped.
        cols, lo, hi = span
        if lo or hi != len(cols[0]):
            rows = list(zip(*(col[lo:hi] for col in cols)))
        else:
            rows = list(zip(*cols))
    run = plan._kernel
    if run is None:
        run = plan._kernel = kernel_function(shape)
    rows, n = run(
        rows, resolved, head_consts and [intern(term) for term in head_consts]
    )
    if counting:
        # One tuple-mode run(i) entry per partial row reaching each
        # step; an emptied batch adds 0, like the pruned recursion.
        stats.probes += n
    return rows
