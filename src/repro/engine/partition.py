"""Intra-component data parallelism: hash-partitioned delta execution.

All parallelism elsewhere in the engine is *across* SCCs — the
scheduler's depth batches overlap mutually independent components, so a
program that is one giant component (transitive closure, same
generation) gets no speedup from ``jobs``/``backend`` at all.  This
module parallelizes *inside* one :class:`~repro.engine.scheduler.ComponentRun`
fixpoint: each round's delta rows are hash-partitioned by the compiled
plan's first probe/join key (whole-row hashing when the plan is a
keyless scan), the same compiled :class:`~repro.engine.plan.RulePlan`
runs on every disjoint partition, and the per-partition emission logs
are concatenated in partition order at the round barrier, before the
usual dedup/statistics update.

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

Two partition executors mirror the SCC-level backends and are chosen
by the owning scheduler's backend name:

* ``serial`` — partitions run in order on the calling thread (the
  reference interleaving; also what process-pool *workers* use, since a
  daemonic worker cannot spawn its own children);
* ``process`` — partitions run on a persistent group of worker
  processes owned by the component run.  Read relations are shipped
  **once per round as append-only log suffixes** (a static relation
  like ``edge`` crosses the boundary exactly once per fixpoint), delta
  partitions travel as log positions into the already-synced copy, and
  workers return decoded facts plus their probe count.  Worker loss
  degrades the component to unpartitioned execution and counts a
  ``backend_fallbacks``.

:attr:`EngineConfig.partitions <repro.engine.config.EngineConfig>`
sets the partition count (default 1 — the unpartitioned path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.config import EngineConfig
from repro.engine.database import Database, FactTuple, Relation, RelationView, RowTuple
from repro.engine.plan import K_SLOT, O_STORE, RulePlan
from repro.engine.stats import EvalStats

Signature = Tuple[str, int]

# ----------------------------------------------------------------------
# Partition-key selection and splitting
# ----------------------------------------------------------------------


def partition_columns(
    plan: RulePlan, delta_pos: int
) -> Optional[Tuple[int, ...]]:
    """The delta columns to hash on, or ``None`` for whole-row hashing.

    Only meaningful when the delta literal *drives* the join
    (``plan.steps[0].role == delta_pos`` — the partition executors
    decline otherwise): the key is the delta columns whose stored slots
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
    and interned rows — the assignment is computed on the parent side
    only, so it never has to agree across processes, just be a
    function of the item.
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


def _delta_facts(delta) -> List[FactTuple]:
    """The delta's facts in log order (term tuples)."""
    if type(delta) is RelationView:
        return delta.scan()
    return list(delta._log)


def _delta_rows(delta) -> Optional[List[RowTuple]]:
    """The delta's facts in log order as interned rows, or ``None``."""
    if type(delta) is RelationView:
        parent = delta.relation
        last = parent._last_rows
        if last is not None and last[0] == delta.start and last[1] == delta.stop:
            return last[2]
        cols = parent.ensure_columns()
        if cols is None:
            return None
        return list(zip(*(col[delta.start : delta.stop] for col in cols)))
    cols = delta.ensure_columns()
    if cols is None:
        return None
    return list(zip(*cols))


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
    name: str, arity: int, rows: List[RowTuple], dictionary
) -> Relation:
    """A throwaway relation holding one columnar delta partition.

    Built columns-first: the rows are already-interned ids, so the
    partition shares the run's dictionary and the columnar executor
    reads it like any other source.  The term-tuple mirror stays
    pending and is only decoded if a tuple fallback actually reads it.
    """
    rel = Relation(name, arity, dictionary)
    rel._cols = [list(col) for col in zip(*rows)]
    rel._pending_n = len(rows)
    return rel


def columnar_capable(
    plan: RulePlan, db: Database, overrides
) -> bool:
    """Whether :func:`~repro.engine.columnar.execute_columnar` can run.

    Replays the kernel's zero-side-effect capability pass (eligible
    plan shape, a database dictionary, every present source columnar
    and on the *same* dictionary) without executing anything.  The
    partition executors check this once per variant: capability is
    identical for every partition (the partition relations share the
    run's dictionary by construction), so a partitioned columnar call
    can never be surprised by a tuple fallback mid-flight.
    """
    from repro.engine.columnar import _compile_kernel

    kernel = plan._columnar
    if kernel is None:
        kernel = _compile_kernel(plan)
        plan._columnar = kernel
    if kernel is False:
        return False
    dictionary = db.dictionary
    if dictionary is None:
        return False
    for step in plan.steps:
        rel = None
        if step.role is not None and overrides is not None:
            rel = overrides.get(step.role)
        if rel is None:
            rel = db.get(step.name, step.arity)
        if rel is not None and (
            step.arity == 0
            or getattr(rel, "dictionary", None) is not dictionary
        ):
            return False
    return True


# ----------------------------------------------------------------------
# Partition executors
# ----------------------------------------------------------------------


def make_partition_executor(
    config: EngineConfig,
) -> Optional["PartitionExecutor"]:
    """The partition executor for a component run, or ``None``.

    ``None`` (``partitions == 1``) means the run takes the
    unpartitioned path with zero overhead.  The executor family
    follows the SCC-level backend name so one knob pair describes the
    whole execution: ``backend=process, partitions=4`` partitions with
    processes, ``backend=serial`` partitions in order on the calling
    thread.
    """
    if config.partitions == 1:
        return None
    if config.backend == "process":
        return ProcessPartitionExecutor(config)
    return SerialPartitionExecutor(config.partitions)


class PartitionExecutor:
    """Shared driver: split a variant's delta, run the plan per partition.

    :meth:`run` returns the concatenated emissions (term facts in tuple
    mode, interned rows in columnar mode) in partition order, or
    ``None`` when this call cannot (or should not) be partitioned —
    the caller then executes the variant exactly as ``partitions=1``
    would.  Decline conditions depend only on the plan, the delta, and
    the execution mode — never on the executor family — so the
    ``partition_rounds`` counter agrees across backends.
    """

    def __init__(self, partitions: int):
        self.nparts = partitions

    def run(
        self,
        plan: RulePlan,
        db: Database,
        overrides,
        delta_pos: int,
        stats: EvalStats,
        columnar: bool,
    ):
        steps = plan.steps
        if not steps or steps[0].role != delta_pos:
            # Partitioning only pays (and only prunes probes) when the
            # delta drives the join; a probed delta would make every
            # partition redo the full outer loop.
            return None
        delta = overrides.get(delta_pos)
        if delta is None or delta.arity == 0 or len(delta) < 2:
            return None
        if columnar:
            if not columnar_capable(plan, db, overrides):
                return None
            items = _delta_rows(delta)
            if items is None:
                return None
        else:
            items = _delta_facts(delta)
        if self._declines(db, overrides):
            return None
        cols = partition_columns(plan, delta_pos)
        # Hash on the term facts in BOTH modes: interned ids are
        # insertion-order artifacts, so hashing them would give the
        # columnar and tuple executors different bucket assignments —
        # and therefore different probe totals and skew — for the same
        # data.  The log's term tuples are position-aligned with the
        # rows, so the assignment carries over index for index.
        keys = _delta_facts(delta) if columnar else items
        buckets = split_indices(keys, cols, self.nparts)
        largest = max(len(b) for b in buckets)
        skew = largest * self.nparts / len(items)
        if skew > stats.partition_skew:
            stats.partition_skew = skew
        return self._execute(
            plan, db, overrides, delta_pos, delta, items, buckets, stats, columnar
        )

    def _declines(self, db: Database, overrides) -> bool:
        return False

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class SerialPartitionExecutor(PartitionExecutor):
    """Partitions run in order on the calling thread.

    The reference interleaving: emissions and probe accounting are
    exactly what the process executor reproduces at its barrier.
    Also the executor forced inside process-pool workers, where
    spawning children is off the table.
    """

    def _execute(
        self, plan, db, overrides, delta_pos, delta, items, buckets, stats, columnar
    ) -> list:
        out: list = []
        for bucket in buckets:
            if bucket:
                out.extend(
                    self._run_one(
                        plan, db, overrides, delta_pos, delta, items, bucket,
                        stats, columnar,
                    )
                )
        return out

    def _run_one(
        self, plan, db, overrides, delta_pos, delta, items, bucket, stats, columnar
    ) -> list:
        """One partition, counting into ``stats``."""
        from repro.engine.columnar import execute_columnar

        part_items = [items[i] for i in bucket]
        od = dict(overrides)
        if columnar:
            od[delta_pos] = _rows_partition(
                delta.name, delta.arity, part_items, delta.dictionary
            )
            rows = execute_columnar(plan, db, od, stats)
            if rows is None:  # unreachable after columnar_capable(); stay safe
                facts: List[FactTuple] = []
                plan.execute(db, od, facts.append, stats)
                intern = db.dictionary.intern
                rows = [tuple(intern(t) for t in fact) for fact in facts]
            return rows
        od[delta_pos] = _facts_partition(delta.name, delta.arity, part_items)
        emitted: List[FactTuple] = []
        plan.execute(db, od, emitted.append, stats)
        return emitted


# ----------------------------------------------------------------------
# Process partition workers
# ----------------------------------------------------------------------


def _partition_worker(conn, config: EngineConfig) -> None:
    """Worker-process loop for :class:`ProcessPartitionExecutor`.

    Module-level so it imports cleanly under any multiprocessing start
    method.  The worker keeps a private database mirroring the parent's
    read relations (grown by append-only ``sync`` suffixes, so log
    offsets agree with the parent's) and a private plan cache warm
    across rounds.  It may execute columnar internally, but results
    cross back as *decoded term facts* — worker-side intern ids mean
    nothing to the parent.  Probe counts ride along; every other
    counter is owned by the parent (which fetched the plan itself), so
    plan-cache statistics stay identical to ``partitions=1``.
    """
    from repro.engine.columnar import decode_rows, execute_columnar
    from repro.engine.plan import PlanCache

    columnar = config.exec == "columnar"
    db = Database()
    if columnar:
        db.ensure_dictionary()
    cache = PlanCache(config.planner)
    scratch = EvalStats()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        kind = msg[0]
        if kind == "close":
            return
        try:
            if kind == "sync":
                for (name, arity), facts in msg[1].items():
                    rel = db.relation(name, arity)
                    for fact in facts:
                        rel.add(fact)
                continue
            _, rule, roles, encoded = msg
            overrides = {}
            for pos, spec in encoded:
                if spec[0] == "window":
                    _, name, arity, start, stop = spec
                    overrides[pos] = db.relation(name, arity).view(start, stop)
                else:  # ("rows", name, arity, positions)
                    _, name, arity, positions = spec
                    log = db.relation(name, arity)._log
                    part = _facts_partition(
                        name, arity, [log[i] for i in positions]
                    )
                    if columnar:
                        part.dictionary = db.dictionary
                    overrides[pos] = part
            stats = EvalStats()
            plan = cache.plan(rule, roles, scratch, db=db, overrides=overrides)
            facts_out: Optional[List[FactTuple]] = None
            if columnar:
                rows = execute_columnar(plan, db, overrides, stats)
                if rows is not None:
                    facts_out = decode_rows(db.dictionary.terms, rows)
            if facts_out is None:
                facts_out = []
                plan.execute(db, overrides, facts_out.append, stats)
            conn.send(("ok", facts_out, stats.probes))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            try:
                conn.send(("err", repr(exc)))
            except (OSError, ValueError):
                return


class _PartitionGroupBroken(RuntimeError):
    """A partition worker died or misbehaved; the group is unusable."""


class ProcessPartitionExecutor(PartitionExecutor):
    """Partitions run on a persistent group of worker processes.

    One worker per partition, created lazily on the first partitioned
    variant and kept for the whole component fixpoint.  Read relations
    ship **once per round, as log suffixes**: the parent tracks how
    much of each relation every worker has seen and broadcasts only the
    append-only tail, so a static relation crosses the boundary exactly
    once and a growing head relation ships only its last round's delta.
    Delta partitions then travel as plain log positions into the
    already-synced copy — no fact is ever shipped twice.

    On any worker failure the group is terminated, ``backend_fallbacks``
    is counted, and the component degrades to unpartitioned execution
    for its remaining rounds — same results, no parallelism, mirroring
    the process backend's fall back to serial on a broken pool.
    """

    def __init__(self, config: EngineConfig):
        super().__init__(config.partitions)
        self.config = config
        self._workers: Optional[List[tuple]] = None  # (Process, Connection)
        self._sent: Dict[Signature, int] = {}
        self._failed = False

    def _declines(self, db: Database, overrides) -> bool:
        if self._failed:
            return True
        for view in overrides.values():
            # Everything shipped is reconstructed from database logs on
            # the far side; an override that is not a window over a live
            # database relation (ad-hoc relations from maintenance
            # passes) has no wire form here.
            if type(view) is not RelationView:
                return True
            if db.get(view.name, view.arity) is not view.relation:
                return True
        return False

    def _ensure_workers(self) -> List[tuple]:
        if self._workers is None:
            import multiprocessing

            ctx = multiprocessing.get_context()
            workers = []
            for _ in range(self.nparts):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_partition_worker,
                    args=(child_conn, self.config),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                workers.append((proc, parent_conn))
            self._workers = workers
        return self._workers

    def _sync(self, plan, db: Database, overrides) -> None:
        """Broadcast un-shipped log suffixes of every step source."""
        needed: Dict[Signature, Relation] = {}
        for step in plan.steps:
            src = None
            if step.role is not None:
                src = overrides.get(step.role)
            if src is not None:
                rel = src.relation
            else:
                rel = db.get(step.name, step.arity)
                if rel is None:
                    continue
            needed[(rel.name, rel.arity)] = rel
        payload = {}
        for sig, rel in needed.items():
            log = rel._log
            sent = self._sent.get(sig, 0)
            if len(log) > sent:
                payload[sig] = log[sent:]
                self._sent[sig] = len(log)
        if payload:
            for _, conn in self._workers:
                conn.send(("sync", payload))

    def _execute(
        self, plan, db, overrides, delta_pos, delta, items, buckets, stats, columnar
    ):
        try:
            self._ensure_workers()
            self._sync(plan, db, overrides)
            window_spec = [
                (pos, ("window", v.name, v.arity, v.start, v.stop))
                for pos, v in overrides.items()
                if pos != delta_pos
            ]
            base = delta.start  # log offsets are absolute parent positions
            jobs = []
            for wi, bucket in enumerate(buckets):
                if not bucket:
                    continue
                encoded = window_spec + [
                    (
                        delta_pos,
                        ("rows", delta.name, delta.arity,
                         [base + i for i in bucket]),
                    )
                ]
                conn = self._workers[wi][1]
                conn.send(("exec", plan.rule, plan.roles, encoded))
                jobs.append(conn)
            out: list = []
            for conn in jobs:  # partition order, deterministic
                reply = conn.recv()
                if reply[0] != "ok":
                    raise _PartitionGroupBroken(reply[1])
                _, facts, probes = reply
                out.extend(facts)
                stats.probes += probes
        except (
            _PartitionGroupBroken, EOFError, OSError, BrokenPipeError
        ):
            self._abandon()
            self._failed = True
            stats.backend_fallbacks += 1
            return None  # caller re-runs the variant unpartitioned
        if columnar:
            intern = db.dictionary.intern
            return [tuple(intern(t) for t in fact) for fact in out]
        return out

    def _abandon(self) -> None:
        if self._workers is None:
            return
        for proc, conn in self._workers:
            try:
                conn.close()
            except OSError:
                pass
            proc.terminate()
        for proc, _ in self._workers:
            proc.join(timeout=1.0)
        self._workers = None

    def close(self) -> None:
        if self._workers is None:
            return
        for _, conn in self._workers:
            try:
                conn.send(("close",))
            except (OSError, BrokenPipeError):
                pass
        for proc, conn in self._workers:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            try:
                conn.close()
            except OSError:
                pass
        self._workers = None
        self._sent = {}
