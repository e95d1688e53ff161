#!/usr/bin/env python
"""The batch kernels of a program, as the engine generates them.

For every rule — of PROGRAM as written, or of its Magic/factored
rewrite for QUERY — and every semi-naive delta variant the scheduler
fires, prints the greedy bound-first join order, the kernel's shape key
(``repro.engine.columnar._compile_kernel``: step kinds, slot stores and
checks, key slots — plans with equal keys share one function) and the
Python source generated for that shape.  The kernel runs wherever a
plan is eligible; a rule it cannot run (compound-building heads,
compound probe keys), or one in a recursive component with a nullary
head (whose rows stay term tuples), says so: it runs on the tuple
executor, the fallback the engine keeps for those cases and for
provenance runs.

Usage::

    python tools/show_kernel.py PROGRAM.dl ['t(1, Y)']
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("program", help="a Datalog program file")
    parser.add_argument("query", nargs="?", help="show the program rewritten for this goal")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from repro.core.pipeline import optimize
    from repro.datalog.parser import parse_program, parse_query
    from repro.engine.columnar import _compile_kernel, kernel_source
    from repro.engine.plan import compile_rule
    from repro.engine.scheduler import _FULL, SCCScheduler

    with open(args.program) as handle:
        program = parse_program(handle.read())
    if args.query is not None:
        program = optimize(program, parse_query(args.query)).best_program()

    shapes = set()
    scheduler = SCCScheduler(program)
    for task in scheduler.tasks:
        run = scheduler.component_run(task)
        term_rows = task.recursive and any(arity == 0 for _, arity in task.sigs)
        for rule in task.rules:
            variants = run._delta_variants(rule) if task.recursive else None
            for roles, _ in variants or _FULL:
                plan = compile_rule(rule, roles)
                tags = dict(roles)
                order = ", ".join(
                    f"{rule.body[i]}" + (f" [{tags[i]}]" if i in tags else "")
                    for i in plan.order
                )
                print(f"{rule}\n  join order: {order}")
                kernel = _compile_kernel(plan)
                if kernel is False or term_rows:
                    why = "nullary head in the component" if term_rows else "no batch kernel"
                    print(f"  {why}: runs on the tuple executor\n")
                    continue
                shapes.add(kernel[0])
                print(f"  shape: {kernel[0]}")
                for line in kernel_source(kernel[0]).splitlines():
                    print(f"    {line}")
                print()
    print(f"-- {len(shapes)} kernel shape(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
