"""Intra-component partitioning: hash-partitioned delta execution.

All parallelism elsewhere in the engine is *across* SCCs — the
scheduler's depth batches overlap mutually independent components, so a
program that is one giant component (transitive closure, same
generation) gets nothing from ``jobs``/``backend`` at all.  This module
splits work *inside* one :class:`~repro.engine.scheduler.ComponentRun`
fixpoint: each round's delta rows are hash-partitioned by the compiled
plan's first probe/join key (whole-row hashing when the plan is a
keyless scan), the same compiled :class:`~repro.engine.plan.RulePlan`
runs on every disjoint partition in order on the calling thread, and
the per-partition emission logs are concatenated in partition order at
the round barrier, before the usual dedup/statistics update.  It runs
the same way in the parent and inside a process-pool worker: the
backend decides only where depth batches run.

**Why any disjoint split is correct.**  A semi-naive delta variant
enumerates the ground body instantiations whose designated occurrence
matches a delta fact; every other body occurrence reads a relation the
split does not touch.  Each delta fact lands in exactly one partition,
so the union of the per-partition emission multisets *is* the
unpartitioned emission multiset — ``inferences`` (emission counts),
``facts`` (the round-end set difference), and ``iterations`` (the round
structure, which only looks at whether the round produced anything new)
are bit-identical to ``partitions=1``.  Only ``probes`` may differ:
shared non-delta steps are resolved once per partition instead of once
per call, exactly like the DRed maintenance caveat documented for the
columnar kernel.

:attr:`EngineConfig.partitions <repro.engine.config.EngineConfig>`
sets the partition count (default 1 — the unpartitioned path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.columnar import columnar_capable, execute_columnar
from repro.engine.database import Database, FactTuple, Relation, RelationView, Row
from repro.engine.database import columns_of, rows_of
from repro.engine.plan import K_SLOT, O_STORE, RulePlan
from repro.engine.stats import EvalStats

# ----------------------------------------------------------------------
# Partition-key selection and splitting
# ----------------------------------------------------------------------


def partition_columns(
    plan: RulePlan, delta_pos: int
) -> Optional[Tuple[int, ...]]:
    """The delta columns to hash on, or ``None`` for whole-row hashing.

    Only meaningful when the delta literal *drives* the join
    (``plan.steps[0].role == delta_pos`` — :func:`run_partitioned`
    declines otherwise): the key is the delta columns whose stored slots
    feed the first subsequent probe, i.e. the join key the partitioned
    rows will actually be probed *from*.  Plans whose later steps read
    nothing from the delta (cross products, constant-only filters) fall
    back to whole-row hashing — any disjoint assignment is correct, the
    key choice only shapes locality.
    """
    first = plan.steps[0]
    slot_to_col: Dict[int, int] = {}
    for pos, tag, payload in first.post_ops:
        if tag == O_STORE:
            slot_to_col[payload] = pos
    if not slot_to_col:
        return None
    for step in plan.steps[1:]:
        builders = step.key_builders
        if not builders:
            continue
        cols = [
            slot_to_col[payload]
            for tag, payload in builders
            if tag == K_SLOT and payload in slot_to_col
        ]
        if cols:
            return tuple(cols)
    return None


def split_indices(
    items, cols: Optional[Tuple[int, ...]], nparts: int
) -> List[List[int]]:
    """Disjoint index buckets for ``items`` under the hash assignment.

    Returns ``nparts`` lists of positions into ``items``; every item
    lands in exactly one bucket.  ``cols`` selects the key columns
    (``None`` hashes the whole item).  Works identically on term facts
    and interned rows; the assignment only has to be a function of the
    item.
    """
    buckets: List[List[int]] = [[] for _ in range(nparts)]
    if cols is None:
        for i, item in enumerate(items):
            buckets[hash(item) % nparts].append(i)
    elif len(cols) == 1:
        c = cols[0]
        for i, item in enumerate(items):
            buckets[hash(item[c]) % nparts].append(i)
    else:
        for i, item in enumerate(items):
            buckets[hash(tuple(item[j] for j in cols)) % nparts].append(i)
    return buckets


def _delta_rows(delta: RelationView) -> Optional[List[Row]]:
    """The delta window's facts in log order as interned rows, or ``None``."""
    parent = delta.relation
    last = parent._last_rows
    if last is not None and last[0] == delta.start and last[1] == delta.stop:
        return last[2]
    cols = parent.ensure_columns()
    if cols is None:
        return None
    return list(rows_of(cols, delta.start, delta.stop))


def _facts_partition(name: str, arity: int, facts: List[FactTuple]) -> Relation:
    """A throwaway relation holding one tuple-mode delta partition.

    The facts come from a relation log, so they are already distinct;
    the tuple set and log are populated directly.
    """
    rel = Relation(name, arity)
    rel._tuples = set(facts)
    rel._logrows = facts
    return rel


def _rows_partition(
    name: str, arity: int, rows: List[Row], dictionary
) -> Relation:
    """A throwaway relation holding one columnar delta partition.

    Built columns-first: the rows are already-interned ids, so the
    partition shares the run's dictionary and the columnar executor
    reads it like any other source.  The term-tuple mirror stays
    pending and is only decoded if a tuple fallback actually reads it.
    """
    rel = Relation(name, arity, dictionary)
    rel._cols = [list(col) for col in columns_of(rows, arity)]
    rel._pending_n = len(rows)
    return rel


# ----------------------------------------------------------------------
# Partitioned execution
# ----------------------------------------------------------------------


def run_partitioned(
    plan: RulePlan,
    db: Database,
    overrides,
    delta_pos: int,
    stats: EvalStats,
    interned: bool,
    nparts: int,
) -> Optional[list]:
    """One delta variant split ``nparts`` ways; its emissions, or ``None``.

    Runs ``plan`` on each partition of the delta at ``delta_pos``, in
    order on the calling thread, and returns the emissions concatenated
    in partition order — interned rows when ``interned`` (through the
    batch kernel), term facts otherwise.  ``None`` means this call is
    not partitioned and the caller runs the variant exactly as
    ``partitions=1`` would: the delta does not drive the join (a probed
    delta would make every partition redo the full outer loop), it holds
    fewer than two facts or is nullary, or — for interned rows — the
    kernel cannot run the plan on these sources.  Capability is the
    same for every partition (the partition relations share the run's
    dictionary), so a partitioned kernel call never falls back
    mid-flight.
    """
    steps = plan.steps
    if not steps or steps[0].role != delta_pos:
        return None
    delta = overrides.get(delta_pos)  # a log window (ComponentRun._fixpoint)
    if delta is None or delta.arity == 0 or len(delta) < 2:
        return None
    if interned:
        if not columnar_capable(plan, db, overrides):
            return None
        items = _delta_rows(delta)
        if items is None:
            return None
    else:
        items = delta.scan()
    # Hash on the term facts for both representations: interned ids
    # are insertion-order artifacts, so hashing them would give the
    # kernel and the tuple executor different bucket assignments —
    # and therefore different probe totals and skew — for the same
    # data.  The log's term tuples are position-aligned with the
    # rows, so the assignment carries over index for index.
    keys = delta.scan() if interned else items
    buckets = split_indices(keys, partition_columns(plan, delta_pos), nparts)
    skew = max(map(len, buckets)) * nparts / len(items)
    if skew > stats.partition_skew:
        stats.partition_skew = skew
    out: list = []
    for bucket in buckets:
        if not bucket:
            continue
        part = [items[i] for i in bucket]
        od = dict(overrides)
        if interned:
            od[delta_pos] = _rows_partition(
                delta.name, delta.arity, part, delta.dictionary
            )
            out.extend(execute_columnar(plan, db, od, stats))
        else:
            od[delta_pos] = _facts_partition(delta.name, delta.arity, part)
            plan.execute(db, od, out.append, stats)
    return out
