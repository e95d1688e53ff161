#!/usr/bin/env python
"""What a fresh ``repro`` process pays before it answers.

Every number comes from new interpreters that write no bytecode (the
benchmark's container sets ``PYTHONDONTWRITEBYTECODE``, so there every
import is a compile).  The inputs are the benchmark's ``serve_rw``
workload (``perf/workloads.py``: linear TC over eight blocks) and a
journal of ``--batches`` three-fact batches written from its script.

Per command — ``import`` (a bare ``import repro``), ``run``,
``recover``, ``serve`` (up to its ``listening on`` line):

* the ``repro.*`` modules the process loaded (read off ``python -X
  importtime``) and their source lines;
* the median and fastest wall time of ``--runs`` processes, next to a
  bare ``python -c pass``.

Then ``repro recover`` split by phase, timers wrapped around the
functions in a fresh process per run: **import**, **load** (program,
facts, journal read), **fold** (``fold_batches``), **fixpoint**
(``IncrementalSession.__init__``), **apply_batch** (with its call
count — once, for the last batch), **dump**.  The tables in
``docs/incremental.md`` are this output; ``--src`` measures another
checkout's ``src/`` (the parent commit, for the "before" column) on
the same inputs.

Usage::

    python tools/startup_costs.py [--runs N] [--batches B] [--seed S]
                                  [--src PATH/TO/src] [COMMAND ...]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("import", "run", "recover", "serve")
PHASES = ("import", "load", "fold", "fixpoint", "apply_batch", "dump")

# Runs ``repro recover`` with a timer around each phase's functions and
# prints the seconds as JSON; its own start is the process's.
PROBE = """
import json, os, sys
from time import perf_counter
begin = perf_counter()
import repro.cli as cli
import repro.engine.journal as journal
from repro.engine.incremental import IncrementalSession
spent = {"import": perf_counter() - begin}
calls = {}
stack = []  # nested timers: a call's time excludes the timed calls inside it

def timed(owner, attr, phase):
    original = getattr(owner, attr, None)
    if original is None:  # an older checkout: no such step
        return
    def wrapper(*args, **kwargs):
        stack.append(0.0)
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            whole = perf_counter() - start
            spent[phase] = spent.get(phase, 0.0) + whole - stack.pop()
            calls[phase] = calls.get(phase, 0) + 1
            if stack:
                stack[-1] += whole
    setattr(owner, attr, wrapper)

timed(cli, "_load_program", "load")
timed(cli, "_load_edb", "load")
timed(journal, "replay_journal", "load")
timed(journal, "fold_batches", "fold")
timed(IncrementalSession, "__init__", "fixpoint")
timed(IncrementalSession, "apply_batch", "apply_batch")
start = perf_counter()
sys.stdout = open(os.devnull, "w")
code = cli.main(["recover", *sys.argv[1:]])
whole = perf_counter() - start
spent["dump"] = whole - sum(v for k, v in spent.items() if k != "import")
print(json.dumps({"code": code, "spent": spent, "calls": calls}), file=sys.__stdout__)
"""


def write_inputs(workdir, seed, batches):
    """program.dl, facts.dl and a ``batches``-record journal.rjn."""
    sys.path.insert(0, os.path.join(ROOT, "perf"))
    import workloads

    shape = dict(workloads.FULL["serve_rw"])
    shape["load_seconds"] = batches / shape["write_rate"]
    workloads.SIZES["startup_costs"] = {"serve_rw": shape}
    inputs = workloads.GENERATORS["serve_rw"](seed, "startup_costs")

    from repro.engine.journal import Journal

    paths = {
        name: os.path.join(workdir, name)
        for name in ("program.dl", "facts.dl", "journal.rjn")
    }
    with open(paths["program.dl"], "w") as handle:
        handle.write(inputs["text"])
    with open(paths["facts.dl"], "w") as handle:
        handle.write(inputs["facts_text"])
    with Journal(paths["journal.rjn"], fsync=False) as journal:
        for sign, edges, _ in inputs["writes"]:
            pairs = [("e", edge) for edge in edges]
            journal.append_batch(*((pairs, []) if sign == "+" else ([], pairs)))
    return paths


def until_listening(argv, env):
    """Run a server up to its ``listening on`` line; returns its stderr."""
    with tempfile.TemporaryFile() as errors:
        server = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=errors
        )
        try:
            line = server.stdout.readline()
            if not line.startswith(b"listening on"):
                raise SystemExit(f"serve did not start: {line!r}")
        finally:
            server.kill()
            server.wait()
        errors.seek(0)
        return errors.read().decode()


def run_once(argv, env, serve):
    """(wall seconds, stderr) of one fresh process."""
    begin = perf_counter()
    if serve:
        err = until_listening(argv, env)
    else:
        done = subprocess.run(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        if done.returncode != 0:
            raise SystemExit(f"{argv} failed:\n{done.stderr.decode()}")
        err = done.stderr.decode()
    return perf_counter() - begin, err


def loaded_modules(importtime_stderr):
    """The ``repro`` modules named in ``-X importtime`` output."""
    names = (
        line.rpartition("|")[2].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    )
    return sorted({n for n in names if n == "repro" or n.startswith("repro.")})


def source_lines(src, module):
    base = os.path.join(src, *module.split("."))
    path = base + ".py" if os.path.exists(base + ".py") else os.path.join(base, "__init__.py")
    with open(path) as handle:
        return sum(1 for _ in handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help=f"any of {', '.join(COMMANDS)} (default: all)")
    parser.add_argument("--runs", type=int, default=11)
    parser.add_argument("--batches", type=int, default=45)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()
    unknown = set(args.commands) - set(COMMANDS)
    if unknown:
        parser.error(f"unknown command(s) {sorted(unknown)}; expected {COMMANDS}")
    commands = [c for c in COMMANDS if c in args.commands] or list(COMMANDS)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    python = sys.executable

    with tempfile.TemporaryDirectory() as workdir:
        paths = write_inputs(workdir, args.seed, args.batches)
        program, facts, journal = (
            paths[n] for n in ("program.dl", "facts.dl", "journal.rjn")
        )
        argv = {
            "import": ["-c", "import repro"],
            "run": ["-m", "repro", "run", program, "t(0, Y)", "--facts", facts],
            "recover": ["-m", "repro", "recover", program, journal, "--facts", facts],
            "serve": ["-m", "repro", "serve", program, "--facts", facts,
                      "--workers", "2", "--port", "0"],
        }
        print(f"src={src} seed={args.seed}: {args.batches} batches "
              f"({os.path.getsize(journal)} journal bytes), "
              f"{args.runs} fresh interpreters per row")
        bare = [run_once([python, "-c", "pass"], env, False)[0] for _ in range(args.runs)]
        print(f"{'command':<10}{'modules':>8}{'lines':>8}{'median ms':>11}{'min ms':>9}")
        print(f"{'(bare)':<10}{'-':>8}{'-':>8}"
              f"{1000 * statistics.median(bare):>11.1f}{1000 * min(bare):>9.1f}")
        listing = []
        for command in commands:
            serve = command == "serve"
            walls = [run_once([python, *argv[command]], env, serve)[0]
                     for _ in range(args.runs)]
            _, err = run_once([python, "-X", "importtime", *argv[command]], env, serve)
            modules = loaded_modules(err)
            lines = sum(source_lines(src, m) for m in modules)
            print(f"{command:<10}{len(modules):>8}{lines:>8}"
                  f"{1000 * statistics.median(walls):>11.1f}{1000 * min(walls):>9.1f}")
            listing.append((command, modules))
        for command, modules in listing:
            print(f"\n{command} loads: "
                  + " ".join(m[len("repro."):] or "repro" for m in modules))

        if "recover" in commands:
            probes = []
            for _ in range(args.runs):
                done = subprocess.run(
                    [python, "-c", PROBE, program, journal, "--facts", facts],
                    env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    check=True,
                )
                probes.append(json.loads(done.stdout))
            assert all(p["code"] == 0 for p in probes)
            calls = probes[0]["calls"]
            print(f"\nrepro recover by phase, median ms of {args.runs} "
                  f"(apply_batch called {calls.get('apply_batch', 0)}x)")
            total = 0.0
            for phase in PHASES:
                ms = 1000 * statistics.median(p["spent"].get(phase, 0.0) for p in probes)
                total += ms
                print(f"{phase:<12}{ms:>9.1f}")
            print(f"{'total':<12}{total:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
