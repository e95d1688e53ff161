#!/usr/bin/env python
"""What the cyclic collector costs an ``ask()``, and what a round costs.

Builds each ``ask_large`` case of the benchmark (``perf/workloads.py``)
in process exactly as ``perf/rep.py`` does — rules, facts, then the
case's queries through ``DeductiveDatabase.ask`` — and reports, per
case:

* **collections and seconds by generation**, split into those that ran
  *inside* an ``ask()`` and those that ran outside (load, teardown),
  from ``gc.callbacks``;
* the **load seconds** of the case's facts (``DeductiveDatabase.facts``)
  and the **tracked-object census** (``len(gc.get_objects())``) after
  the load and after the first ask has returned: what every full
  collection walks (the difference is the compiled entry and the
  indexes the ask built on the EDB, which persist; no overlay does);
* for ``tc3_chain``, **µs per round** of the warm ask (best of five
  repeats of the case's last query): factoring makes rounds tiny, so
  this is the fixed cost of the fixpoint loop.

The tables in ``docs/engine.md`` ("What a round costs") are this
output.  ``--src`` measures another checkout's ``src/`` (the parent
commit, for the "before" column) on the same inputs.

Usage::

    python tools/gc_costs.py [--seed N] [--size quick|full] [--src PATH/TO/src]
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--size", choices=("quick", "full"), default="full")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()
    sys.path[:0] = [args.src, os.path.join(ROOT, "perf")]

    import workloads
    from repro.session import DeductiveDatabase

    asking = False
    started = 0.0
    # (inside an ask?, generation) -> [collections, seconds]
    spent = {}

    def on_gc(phase, info):
        nonlocal started
        if phase == "start":
            started = perf_counter()
        else:
            entry = spent.setdefault((asking, info["generation"]), [0, 0.0])
            entry[0] += 1
            entry[1] += perf_counter() - started

    def ask(db, query):
        nonlocal asking
        asking = True
        begin = perf_counter()
        try:
            return db.ask(query, explain=True), perf_counter() - begin
        finally:
            asking = False

    print(f"src={args.src} seed={args.seed} size={args.size}")
    print(f"{'case':<12}{'facts':>7}{'asks':>5}{'ask_s':>8}"
          f"{'in: g0 g1 g2':>14}{'in_gc_s':>9}{'out: g0 g1 g2':>15}{'out_gc_s':>9}"
          f"{'load_s':>8}{'tracked@load':>13}{'@ask':>9}")
    gc.callbacks.append(on_gc)
    try:
        for case in workloads.GENERATORS["ask_large"](args.seed, args.size):
            spent.clear()
            db = DeductiveDatabase()
            db.rules(case["text"])
            begin = perf_counter()
            for predicate, rows in case["facts"].items():
                db.facts(predicate, rows)
            load_s = perf_counter() - begin
            facts = sum(len(rows) for rows in case["facts"].values())
            census = [len(gc.get_objects())]
            ask_s = 0.0
            for query in case["queries"]:
                report, seconds = ask(db, query)
                ask_s += seconds
                if len(census) == 1:
                    census.append(len(gc.get_objects()))
            rounds = None
            if case["name"] == "tc3_chain":
                tallied, spent = spent, {}  # the repeats are not the case's asks
                runs = [ask(db, case["queries"][-1]) for _ in range(5)]
                spent = tallied
                rounds = runs[0][0].stats.iterations
                best = min(seconds for _, seconds in runs)
            del db, report
            gc.collect()  # teardown is charged to this case, outside its asks

            def row(inside):
                counts = [spent.get((inside, g), (0, 0.0)) for g in range(3)]
                return (" ".join(str(c) for c, _ in counts),
                        sum(s for _, s in counts))

            (inside, in_s), (outside, out_s) = row(True), row(False)
            print(f"{case['name']:<12}{facts:>7}{len(case['queries']):>5}{ask_s:>8.3f}"
                  f"{inside:>14}{in_s:>9.3f}{outside:>15}{out_s:>9.3f}"
                  f"{load_s:>8.3f}{census[0]:>13}{census[1]:>9}")
            if rounds is not None:
                print(f"tc3_chain warm ask: {rounds} rounds, best of 5 "
                      f"{best:.4f} s = {1e6 * best / rounds:.2f} us per round")
    finally:
        gc.callbacks.remove(on_gc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
