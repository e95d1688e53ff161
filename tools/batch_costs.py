#!/usr/bin/env python
"""What one maintenance batch costs, phase by phase.

Replays the ``serve_rw`` write script of the benchmark (``perf/
workloads.py``: 45 three-fact batches, two inserts to one delete, on
linear TC over eight blocks) against an in-process
``IncrementalSession`` and times the phases of ``apply_batch``:

* **detach** — ``_begin_undo``: the copy-on-write ``Relation.copy`` of
  the batch's dirty closure;
* **over-delete**, **prune** (``Relation.remove_facts``), **rederive**
  (the existence probes of ``_rederive``, its forward delta excluded);
* **forward delta** — ``ComponentRun.resume``, the evaluator's driver
  continuing a component's fixpoint, for inserts and for DRed's
  restorations;
* **rest** — normalising the update, base-relation bookkeeping, stats.

Prints mean milliseconds per insert batch and per delete batch; the
table in ``docs/incremental.md`` is this output.  ``--src`` times
another checkout's ``src/`` (the parent commit, for the "before"
column) on the same inputs; a checkout from before maintenance ran on
the evaluator's driver is timed at the session's own loop instead.

Usage::

    python tools/batch_costs.py [--seed N] [--src PATH/TO/src]
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("detach", "over-delete", "prune", "rederive", "forward delta", "rest")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()
    sys.path[:0] = [args.src, os.path.join(ROOT, "perf")]

    import workloads
    from repro.datalog.parser import parse_program
    from repro.engine.database import Database, Relation
    from repro.engine.incremental import IncrementalSession
    from repro.engine.scheduler import ComponentRun

    spent = dict.fromkeys(PHASES, 0.0)
    stack = []  # nested phases: a phase's time excludes the phases inside it

    def timed(owner, attr, phase):
        original = getattr(owner, attr)

        def wrapper(*a, **k):
            stack.append(0.0)
            begin = perf_counter()
            try:
                return original(*a, **k)
            finally:
                whole = perf_counter() - begin
                spent[phase] += whole - stack.pop()
                if stack:
                    stack[-1] += whole

        setattr(owner, attr, wrapper)

    timed(IncrementalSession, "_begin_undo", "detach")
    timed(IncrementalSession, "_overdelete", "over-delete")
    timed(Relation, "remove_facts", "prune")
    timed(IncrementalSession, "_rederive", "rederive")
    if hasattr(ComponentRun, "resume"):
        timed(ComponentRun, "resume", "forward delta")
    else:  # an older checkout: the session's private delta loop
        [loop] = [n for n in vars(IncrementalSession) if n.endswith("delta_fixpoint")]
        timed(IncrementalSession, loop, "forward delta")
    timed(IncrementalSession, "apply_batch", "rest")

    inputs = workloads.GENERATORS["serve_rw"](args.seed, "full")
    edb = Database()
    edb.add_facts("e", inputs["base_edges"])
    session = IncrementalSession(parse_program(inputs["text"]), edb)

    totals = {"+": dict.fromkeys(PHASES, 0.0), "-": dict.fromkeys(PHASES, 0.0)}
    batches = {"+": 0, "-": 0}
    for sign, edges, _ in inputs["writes"]:
        for phase in PHASES:
            spent[phase] = 0.0
        pairs = [("e", edge) for edge in edges]
        if sign == "+":
            session.apply_batch(inserts=pairs)
        else:
            session.apply_batch(deletes=pairs)
        batches[sign] += 1
        for phase in PHASES:
            totals[sign][phase] += spent[phase]

    print(f"src={args.src} seed={args.seed}: "
          f"{batches['+']} insert and {batches['-']} delete batches, "
          f"{session.database.total_facts()} facts; mean ms per batch")
    print(f"{'phase':<14}{'insert':>9}{'delete':>9}")
    for phase in PHASES:
        print(f"{phase:<14}"
              f"{1000 * totals['+'][phase] / batches['+']:>9.2f}"
              f"{1000 * totals['-'][phase] / batches['-']:>9.2f}")
    print(f"{'total':<14}"
          f"{1000 * sum(totals['+'].values()) / batches['+']:>9.2f}"
          f"{1000 * sum(totals['-'].values()) / batches['-']:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
