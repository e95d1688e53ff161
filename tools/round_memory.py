#!/usr/bin/env python
"""What a fixpoint holds at its peak, against what it leaves behind.

Builds each ``materialize`` case of the benchmark (``perf/workloads.py``)
as ``perf/rep.py`` does — program, then the EDB, then ``seminaive_eval``
— and traces the evaluation alone with ``tracemalloc``.  Per case:

* ``final_MB``: what is still allocated when the evaluation returns
  (the model, its columns, row sets and indexes);
* ``peak_MB`` and ``over``: the highest point on the way, and how far
  above the final footprint it lies, ``(peak - final) / final``;
* ``kernel``/``novel``/``absorb``: the highest point inside each stage
  of a round — the plan executions that emit a rule's rows, the dedup
  against the head, and the append of the round's new rows;
* ``peak at``: the component, round and stage the peak lands in
  (``loop`` is the round loop between stages, ``setup`` what runs
  before the first round).

The stages are found by wrapping what a round calls: the kernel
(``execute_columnar`` as the scheduler binds it, and the tuple
executor ``RulePlan.execute``) opens ``kernel``, its return opens
``novel`` (the dedup that follows it), the head's appends
(``Relation.append_rows``/``add_row``/``add``) open ``absorb``, and the
next plan lookup (``PlanCache.plan``) or the end of an append returns
to ``loop``.  The round is the running ``ComponentRun``'s count, read
at each mark.  What the wrappers themselves keep is a label tuple per
stage.  The table in
``docs/engine.md`` ("What a round holds") is this output.  ``--src``
measures another checkout's ``src/`` (the parent commit, for the
"before" column) on the same inputs.

Usage::

    python tools/round_memory.py [--seed N] [--size quick|full] [--src PATH/TO/src]
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("kernel", "novel", "absorb")
MB = 1 << 20


class PeakWatch:
    """The traced peak of each stretch of an evaluation, by label."""

    def __init__(self):
        self.run = None  # the ComponentRun whose fixpoint is running
        self.label = ("-", 0, "setup")
        self.depth = 0
        self.stage_peaks = {}
        self.best = (0, self.label)

    def mark(self, stage):
        """Close the stretch since the last mark; start one of ``stage``."""
        _, peak = tracemalloc.get_traced_memory()
        last = self.label[2]
        self.stage_peaks[last] = max(self.stage_peaks.get(last, 0), peak)
        if peak > self.best[0]:
            self.best = (peak, self.label)
        tracemalloc.reset_peak()
        run = self.run
        if run is None:
            self.label = ("-", 0, stage)
        else:
            component = ",".join(sorted(name for name, _ in run.task.sigs))
            self.label = (component, run.rounds, stage)

    def staged(self, stage, after, method):
        """``method`` marking ``stage`` when called and ``after`` when
        it returns."""
        def wrapper(*args, **kwargs):
            if self.depth:  # a call inside a staged one
                return method(*args, **kwargs)
            self.depth += 1
            self.mark(stage)
            try:
                return method(*args, **kwargs)
            finally:
                self.depth -= 1
                self.mark(after)

        return wrapper

    def fixpoint(self, method):
        def wrapper(run, *args, **kwargs):
            self.run = run
            try:
                return method(run, *args, **kwargs)
            finally:
                self.run = None

        return wrapper


def install(scheduler, watch):
    """Wrap the stage entry points; returns what to restore."""
    from repro.engine.database import Relation
    from repro.engine.plan import PlanCache, RulePlan

    saved = []

    def wrap(owner, attr, wrapped):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped(getattr(owner, attr)))

    wrap(scheduler, "execute_columnar",
         lambda method: watch.staged("kernel", "novel", method))
    wrap(RulePlan, "execute", lambda method: watch.staged("kernel", "novel", method))
    for attr in ("append_rows", "add_row", "add"):
        wrap(Relation, attr, lambda method: watch.staged("absorb", "loop", method))
    wrap(PlanCache, "plan", lambda method: watch.staged("loop", "loop", method))
    wrap(scheduler.ComponentRun, "_fixpoint", watch.fixpoint)
    return saved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("quick", "full"), default="full")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()
    sys.path[:0] = [args.src, os.path.join(ROOT, "perf")]

    import workloads
    from repro.datalog import parser as datalog_parser
    from repro.engine import scheduler
    from repro.engine.database import Database
    from repro.engine.seminaive import seminaive_eval

    print(f"src={args.src} seed={args.seed} size={args.size}")
    print(f"{'case':<10}{'facts':>9}{'final_MB':>10}{'peak_MB':>9}{'over':>7}"
          f"{'kernel':>8}{'novel':>8}{'absorb':>8}  peak at")
    for case in workloads.GENERATORS["materialize"](args.seed, args.size):
        program = datalog_parser.parse_program(case["text"])
        edb = Database()
        for predicate, rows in case["facts"].items():
            edb.add_facts(predicate, rows)
        gc.collect()
        watch = PeakWatch()
        saved = install(scheduler, watch)
        tracemalloc.start()
        try:
            db, stats = seminaive_eval(program, edb)
            watch.mark("done")
            final, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            for owner, attr, method in saved:
                setattr(owner, attr, method)
        peak, (component, round_, stage) = watch.best
        by_stage = "".join(
            f"{watch.stage_peaks.get(s, 0) / MB:>8.1f}" for s in STAGES
        )
        print(f"{case['name']:<10}{stats.facts:>9}{final / MB:>10.1f}{peak / MB:>9.1f}"
              f"{(peak - final) / final:>7.3f}{by_stage}  "
              f"{component} round {round_} {stage}")
        del db, edb
    return 0


if __name__ == "__main__":
    sys.exit(main())
