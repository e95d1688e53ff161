#!/usr/bin/env python
"""What a cold ``ask()`` costs, stage by stage.

Replays the ``rewrite_many`` corpus of the benchmark (``perf/
workloads.py``: small programs, two cold query forms and one warm ask
each) in process exactly as ``perf/rep.py`` does — rules, facts, then
``DeductiveDatabase.ask`` per query — and times the asks by stage:

* the ``optimize`` stages as bound in ``core/pipeline.py`` (adorn,
  magic, classify, check, factor, simplify), with the simplifier's
  uniform-redundancy **chase** (``redundant_rules``) split out of
  simplify — the chase row includes the plans the chase compiles;
* **counting** (the rewrite ``CompiledQuery`` tries where ``optimize``
  did not factor) and the **rest of compiling a form**
  (``CompiledQuery.__init__``: glue, the full-head magic program, the
  scheduler's dependency graph);
* **plan compile** (``RulePlan.__init__`` outside the chase);
* the **overlay** runs (``CompiledQuery.ask``), the first run of each
  compiled form apart from later ones, and **diverged counting**
  attempts (a counting overlay ended by its budget, before the magic
  retry);
* the **rest of the ask** (parsing, the cache lookup, answers).

A stage's time excludes the stages inside it.  Below the table: the
chase's evaluations and ``RulePlan`` constructions (against the distinct
``(rule, roles)`` pairs each ``redundant_rules`` call compiles), the
first versus later overlay run per form with plan compiles included,
and the diverged counting attempts.  The tables in ``docs/query.md``
("What a cold ask costs") are this output.  ``--src`` measures another
checkout's ``src/`` (the parent commit, for the "before" column) on the
same inputs.

Usage::

    python tools/cold_costs.py [--seed N] [--size quick|full] [--src PATH/TO/src]
"""

from __future__ import annotations

import argparse
import os
import sys
import weakref
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = (
    "adorn", "magic", "classify", "check", "factor", "simplify", "chase",
    "counting", "compile, rest", "plan compile", "first overlay run",
    "later overlay run", "diverged counting", "ask, rest",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("quick", "full"), default="full")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()
    sys.path[:0] = [args.src, os.path.join(ROOT, "perf")]

    import workloads
    from repro.core import pipeline, simplify
    from repro.engine import query
    from repro.engine.plan import RulePlan
    from repro.engine.scheduler import SCCScheduler
    from repro.engine.stats import NonTerminationError
    from repro.session import DeductiveDatabase

    spent = dict.fromkeys(STAGES, 0.0)  # self seconds
    whole = dict.fromkeys(STAGES, 0.0)  # seconds with nested stages
    calls = dict.fromkeys(STAGES, 0)
    stack = []  # per open call: seconds of the stages nested in it
    chase = {"depth": 0, "calls": 0, "evaluations": 0, "plans": 0, "pairs": 0}
    pairs = set()  # (rule, roles) compiled in the current chase call
    seen = weakref.WeakSet()  # compiled forms that have run an overlay

    def timed(owner, attr, stage):
        """Charge ``owner.attr`` to ``stage(args, error)`` (or ``stage``
        itself); ``None`` leaves the call's time to its caller."""
        original = getattr(owner, attr)

        def wrapper(*a, **k):
            stack.append(0.0)
            begin = perf_counter()
            error = None
            try:
                return original(*a, **k)
            except BaseException as exc:
                error = exc
                raise
            finally:
                seconds = perf_counter() - begin
                nested = stack.pop()
                name = stage(a, error) if callable(stage) else stage
                if name is None:
                    seconds = nested  # only the stages inside are accounted
                else:
                    spent[name] += seconds - nested
                    whole[name] += seconds
                    calls[name] += 1
                if stack:
                    stack[-1] += seconds

        setattr(owner, attr, wrapper)

    def chase_call(a, error):
        chase["depth"] -= 1
        chase["calls"] += error is None  # not a refusal of function symbols
        chase["pairs"] += len(pairs)
        return "chase"

    def plan_compile(a, error):
        if chase["depth"]:
            chase["plans"] += 1
            pairs.add((a[1], a[2] if len(a) > 2 else ()))
            return None
        return "plan compile"

    def overlay(a, error):
        first = a[0] not in seen
        seen.add(a[0])
        return "first overlay run" if first else "later overlay run"

    def scheduler_run(a, error):
        chase["evaluations"] += chase["depth"] > 0
        return None

    for attr, stage in (
        ("adorn", "adorn"), ("magic_sets", "magic"),
        ("classify_program", "classify"), ("check_factorability", "check"),
        ("factor_magic", "factor"), ("simplify_factored", "simplify"),
    ):
        timed(pipeline, attr, stage)
    timed(simplify, "redundant_rules", chase_call)
    entered = simplify.redundant_rules

    def enter_chase(*a, **k):
        chase["depth"] += 1
        pairs.clear()
        return entered(*a, **k)

    simplify.redundant_rules = enter_chase
    timed(query, "counting", "counting")
    timed(query, "refine_counting", "counting")
    timed(query.CompiledQuery, "__init__", "compile, rest")
    timed(RulePlan, "__init__", plan_compile)
    timed(query.CompiledQuery, "ask", overlay)
    timed(query.CompiledQuery, "_run", lambda a, error: (
        "diverged counting" if isinstance(error, NonTerminationError) else None
    ))
    timed(SCCScheduler, "run", scheduler_run)
    timed(DeductiveDatabase, "ask", "ask, rest")

    cases = workloads.GENERATORS["rewrite_many"](args.seed, args.size)
    asks = 0
    for case in cases:
        db = DeductiveDatabase()
        db.rules(case["text"])
        for predicate, rows in case["facts"].items():
            db.facts(predicate, rows)
        for q in case["queries"]:
            db.ask(q, explain=True)
            asks += 1
        del db

    print(f"src={args.src} seed={args.seed} size={args.size}: "
          f"{len(cases)} programs, {asks} asks, "
          f"{sum(spent.values()):.3f} s inside them")
    print(f"{'stage':<20}{'calls':>7}{'seconds':>9}")
    for stage in STAGES:
        print(f"{stage:<20}{calls[stage]:>7}{spent[stage]:>9.3f}")
    print(f"{'total':<20}{'':>7}{sum(spent.values()):>9.3f}")
    print(f"chase: {chase['calls']} simplifications decided, "
          f"{chase['evaluations']} evaluations, {chase['plans']} RulePlans "
          f"built for {chase['pairs']} distinct (rule, roles) pairs")

    def mean_ms(stage):
        return 1000 * whole[stage] / max(1, calls[stage])

    print(f"overlay per form, plan compiles included: first run "
          f"{mean_ms('first overlay run'):.3f} ms ({calls['first overlay run']}), "
          f"later run {mean_ms('later overlay run'):.3f} ms "
          f"({calls['later overlay run']})")
    print(f"diverged counting attempts: {calls['diverged counting']}, "
          f"{whole['diverged counting']:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
