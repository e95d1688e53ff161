"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``classify``   Report each rule's class (and why classification fails),
               a static-argument reduction if one applies, and the
               factorability verdict for a program + query — the
               analysis ``DeductiveDatabase.plan_summary`` prints too.
``optimize``   Print every stage of the optimization pipeline;
               ``--evaluate STAGE`` runs a named stage (original,
               magic, factored, simplified) over ``--facts``.
``run``        Evaluate a query over a program and facts file.
``query``      Goal-directed serving: compile the query form
               (adornment + Magic Sets, or counting/factoring where a
               theorem certifies it) and evaluate it against the facts
               — the paper's query-serving configuration.
``validate``   Lint a program (safety, arities, singletons, ...).
``explain``    Print a derivation tree for one ground fact.
``serve``      Materialize the program and serve queries under EDB
               churn: an incremental-maintenance REPL (or ``--script``
               batch mode) with ``+ fact.`` / ``- fact.`` / ``? query``
               / ``explain fact`` commands.  ``--journal PATH``
               write-ahead-logs every update for crash recovery;
               ``--strict`` makes script errors fatal instead of
               report-and-continue.
``recover``    Recover a journal into a fresh session and dump the
               recovered database as sorted Datalog facts — the
               verification half of crash recovery (two runs that must
               agree produce byte-identical dumps).

Programs are Datalog text files; facts files are Datalog files of
ground facts (``e(1, 2).``), loaded as the EDB.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from typing import List, Optional

from repro.datalog.parser import parse_literal, parse_program, parse_query
from repro.datalog.program import Program
from repro.engine.config import EngineConfig, environment_knobs
from repro.engine.database import Database, load_program_facts
from repro.engine.stats import EvalStats, JournalError

# Everything else a command runs — the optimizer pipeline, provenance,
# the session/query stack, the journal, the server — is imported inside
# that command: a fresh ``repro run`` or ``repro recover`` compiles only
# the modules it executes (``tools/startup_costs.py`` lists them).


def _load_program(path: str) -> Program:
    with open(path) as handle:
        return parse_program(handle.read())


def _load_edb(path: Optional[str]) -> Database:
    db = Database()
    if path is None:
        return db
    facts = _load_program(path)
    load_program_facts(facts, db)
    return db


def cmd_classify(args) -> int:
    from repro.core.pipeline import optimize

    program = _load_program(args.program)
    goal = parse_query(args.query)
    print("\n".join(optimize(program, goal).describe()))
    return 0


def cmd_optimize(args) -> int:
    from repro.core.pipeline import optimize

    program = _load_program(args.program)
    goal = parse_query(args.query)
    # Resolve the engine knobs up front: a bad --jobs/--backend (or a
    # stage name evaluate_stage rejects) must fail before any printing
    # or evaluation, not halfway through.
    config = _engine_config(args)
    result = optimize(program, goal)
    if args.evaluate is not None:
        edb = _load_edb(args.facts)
        answers, stats = result.evaluate_stage(
            args.evaluate, edb, config=config
        )
        _print_answers(answers)
        print(
            f"-- stage {args.evaluate}: {len(answers)} answers; "
            f"{stats.facts} facts, {stats.inferences} inferences, "
            f"{stats.seconds * 1000:.1f} ms",
            file=sys.stderr,
        )
        return 0
    print("=== adorned ===")
    print(result.adorned.program)
    print("\n=== magic ===")
    print(result.magic.program)
    if result.factored is not None:
        print("\n=== factored ===")
        print(result.factored.program)
    if result.simplified is not None:
        print("\n=== simplified ===")
        print(result.simplified.program)
    if args.trace and result.trace is not None:
        print("\n=== simplification trace ===")
        for step in result.trace.steps:
            print(f"  {step}")
    return 0


def _engine_config(args) -> EngineConfig:
    """The command's flags over ``$REPRO_*`` over the defaults, checked
    up front so a bad knob is a clean CLI error before anything runs
    (the library never reads the variables)."""
    flags = {
        name: value
        for _, name, *_ in _ENGINE_FLAGS
        if (value := getattr(args, name, None)) is not None
    }
    return EngineConfig(**environment_knobs(os.environ, skip=flags), **flags)


def cmd_run(args) -> int:
    """``optimize`` for the goal itself (Lemma 5.1 reads its constants)
    behind ``QueryCompiler.entry``'s goal front."""
    from repro.core.pipeline import optimize
    from repro.datalog.validate import ensure_no_reserved_names
    from repro.transforms.bridge import bridged_program, stored_derived

    program = _load_program(args.program)
    ensure_no_reserved_names(program)
    goal = parse_query(args.query)
    edb = _load_edb(args.facts)
    config = _engine_config(args)
    if program.is_idb(goal.signature):
        bridged = stored_derived(program, edb.relations)
        result = optimize(*bridged_program(program, goal, bridged))
        answers, stats = result.answers(edb, config=config)
        strategy = result.strategy
    else:
        program.check_query(goal.signature)
        stats, strategy = EvalStats(), "edb"
        begin = time.perf_counter()
        answers = edb.answers(goal)
        stats.seconds = time.perf_counter() - begin
    _print_answers(answers)
    print(
        f"-- {len(answers)} answers via {strategy}; {stats.facts} facts, "
        f"{stats.inferences} inferences, {stats.seconds * 1000:.1f} ms",
        file=sys.stderr,
    )
    if args.stats:
        _print_stats(config, stats)
    return 0


def _print_stats(config: EngineConfig, stats) -> None:
    """The knobs the run resolved to and its full counter dump
    (``repro run --stats``)."""
    print(f"-- config: {config}", file=sys.stderr)
    print("-- stats:", file=sys.stderr)
    for counter in fields(stats):
        value = getattr(stats, counter.name)
        shown = f"{value:.4f}" if isinstance(value, float) else value
        print(f"--   {counter.name}: {shown}", file=sys.stderr)


def cmd_query(args) -> int:
    from repro.datalog.validate import ensure_no_reserved_names
    from repro.engine.query import QueryCompiler

    program = _load_program(args.program)
    ensure_no_reserved_names(program)
    goal = parse_query(args.query)
    edb = _load_edb(args.facts)
    compiler = QueryCompiler(program, config=_engine_config(args))
    answer = compiler.ask(goal, edb)
    _print_answers(answer.answers)
    certified = f" ({answer.certified_by})" if answer.certified_by else ""
    print(
        f"-- {len(answer.answers)} answers via {answer.strategy}{certified}; "
        f"{answer.stats.facts} facts, {answer.stats.inferences} inferences, "
        f"{answer.stats.seconds * 1000:.1f} ms",
        file=sys.stderr,
    )
    return 0


def cmd_validate(args) -> int:
    from repro.datalog.validate import validate_program

    program = _load_program(args.program)
    report = validate_program(program)
    print(report)
    return 0 if report.ok else 1


def cmd_explain(args) -> int:
    from repro.engine.provenance import explain as explain_fact

    program = _load_program(args.program)
    edb = _load_edb(args.facts)
    fact = parse_literal(args.fact)
    try:
        tree = explain_fact(program, edb, fact, config=_engine_config(args))
    except KeyError as exc:  # NotDerivableError: "<fact> is not derivable"
        print(exc, file=sys.stderr)
        return 1
    print(tree.render())
    return 0


def _print_answers(answers) -> None:
    for row in sorted(answers, key=str):
        print("\t".join(str(value) for value in row) if row else "true")


def _serve_session(args, program, edb):
    """Build (or recover) the serve session and its optional journal."""
    from repro.engine.incremental import IncrementalSession
    from repro.engine.journal import Journal, recover_session

    config = _engine_config(args)
    if args.journal and os.path.exists(args.journal):
        session, journal, replayed = recover_session(
            program, args.journal, edb, config=config
        )
        if replayed:
            print(
                f"recovered {replayed} batches from {args.journal}",
                file=sys.stderr,
            )
        return session, journal
    session = IncrementalSession(program, edb, config=config)
    journal = Journal(args.journal, program, edb) if args.journal else None
    return session, journal


def _serve_socket(args, server) -> int:
    """The concurrent socket front (serve --workers N)."""
    from repro.engine.server import SocketFront

    session = server.session
    front = SocketFront(
        server, host=args.host, port=args.port, workers=args.workers
    )
    host, port = front.start()
    print(
        f"materialized {session.database.total_facts()} facts in "
        f"{session.stats.seconds * 1000:.1f} ms; serving",
        file=sys.stderr,
    )
    # The machine-readable contract clients parse for ephemeral ports.
    print(f"listening on {host}:{port}", flush=True)
    try:
        front.wait()
    except KeyboardInterrupt:
        pass
    finally:
        front.shutdown()
        server.close()
    return 0


def cmd_serve(args) -> int:
    """The serve REPL (or ``--script``) and socket front: both run each
    command through :func:`repro.engine.server.handle_line` on one
    :class:`~repro.engine.server.DatalogServer`, whose update path is
    atomic and write-ahead-journaled.  The REPL prints what a socket
    client reads — ``= `` payload lines, then the status line — except
    that an error goes to stderr as ``error: line N: ...``."""
    from repro.engine import faults
    from repro.engine.server import DatalogServer, handle_line, reply

    program = _load_program(args.program)
    edb = _load_edb(args.facts)
    faults.active_plan()  # malformed $REPRO_FAULTS fails here, loudly
    if args.workers is not None:
        if args.workers < 1:
            raise ValueError(
                f"invalid workers={args.workers!r}; expected a "
                f"positive integer"
            )
        if args.script:
            raise ValueError(
                "--script and --workers are mutually exclusive: socket "
                "mode takes commands from client connections"
            )
    session, journal = _serve_session(args, program, edb)
    server = DatalogServer(session, journal=journal)
    if args.workers is not None:
        return _serve_socket(args, server)

    def run_line(line: str, lineno: Optional[int] = None) -> str:
        payload, status, quitting = handle_line(server, line)
        if status.startswith("error: "):
            where = f"line {lineno}: " if lineno else ""
            print(f"error: {where}{status[len('error: '):]}", file=sys.stderr)
            return "error"
        print(reply(payload, status), end="")
        return "quit" if quitting else "ok"

    print(
        f"materialized {session.database.total_facts()} facts in "
        f"{session.stats.seconds * 1000:.1f} ms; serving",
        file=sys.stderr,
    )
    try:
        if args.script:
            with open(args.script) as handle:
                for lineno, line in enumerate(handle, 1):
                    status = run_line(line, lineno)
                    if status == "quit":
                        break
                    if status == "error" and args.strict:
                        print(
                            f"aborting at line {lineno} (--strict); "
                            f"the failing command was rolled back",
                            file=sys.stderr,
                        )
                        return 1
            return 0
        while True:
            try:
                line = input("repro> ")
            except EOFError:
                break
            if run_line(line) == "quit":
                break
        return 0
    finally:
        server.close()


def cmd_recover(args) -> int:
    from repro.datalog.pretty import pretty_fact
    from repro.engine.journal import recover_session

    program = _load_program(args.program)
    edb = _load_edb(args.facts)
    session, journal, replayed = recover_session(
        program, args.journal, edb, config=_engine_config(args)
    )
    journal.close()
    print(
        f"replayed {replayed} batches; "
        f"{session.database.total_facts()} facts",
        file=sys.stderr,
    )
    # One write: under unbuffered output a print per fact is a
    # syscall per fact.
    relations = session.database.relations
    sys.stdout.write(
        "".join(
            pretty_fact(sig[0], fact) + ".\n"
            for sig in sorted(relations)
            for fact in sorted(relations[sig].tuples, key=str)
        )
    )
    return 0


#: (CLI flag, the :class:`EngineConfig` field it sets, metavar, help).
_ENGINE_FLAGS = (
    ("--jobs", "jobs", "N", "evaluate up to N independent SCCs concurrently"),
    (
        "--backend",
        "backend",
        "NAME",
        "execution backend for parallel SCC batches: serial or process",
    ),
    (
        "--partitions",
        "partitions",
        "N",
        "hash-split each delta round inside recursive components into N "
        "partitions, run in order in the process evaluating the component",
    ),
    (
        "--timeout",
        "max_seconds",
        "SECONDS",
        "per-component wall-clock budget: a runaway fixpoint raises (and "
        "an update rolls back) instead of hanging",
    ),
)


def _add_engine_options(parser, timeout: bool = False) -> None:
    """Evaluation knobs shared by the evaluating commands (``--timeout``
    on ``serve`` and ``recover`` only).

    Values stay text: :class:`EngineConfig` parses and checks them
    exactly like the ``$REPRO_*`` spelling.
    """
    for flag, name, metavar, text in _ENGINE_FLAGS:
        if flag == "--timeout" and not timeout:
            continue
        knob = EngineConfig.__dataclass_fields__[name]
        default = "unlimited" if knob.default is None else knob.default
        parser.add_argument(
            flag,
            dest=name,
            default=None,
            metavar=metavar,
            help=f"{text} (default: ${knob.metadata['env']} or {default}; "
            f"answers and counters are identical)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Argument reduction by factoring — Datalog optimizer CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a program for a query form")
    p.add_argument("program")
    p.add_argument("query")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("optimize", help="print all pipeline stages")
    p.add_argument("program")
    p.add_argument("query")
    p.add_argument("--trace", action="store_true", help="show deletions")
    p.add_argument(
        "--evaluate",
        default=None,
        metavar="STAGE",
        help="evaluate one pipeline stage over --facts instead of "
        "printing programs: original, magic, factored, or simplified "
        "(an unknown or unproduced stage fails before evaluation)",
    )
    p.add_argument("--facts", help="Datalog file of ground facts")
    _add_engine_options(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("run", help="answer a query over a facts file")
    p.add_argument("program")
    p.add_argument("query")
    p.add_argument("--facts", help="Datalog file of ground facts")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the full evaluation counter dump (probes, plan "
        "cache, SCC batches, partition rounds/skew) to stderr",
    )
    _add_engine_options(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "query",
        help="goal-directed answers via the compiled serving path",
    )
    p.add_argument("program")
    p.add_argument("query")
    p.add_argument("--facts", help="Datalog file of ground facts")
    _add_engine_options(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "serve",
        help="materialize the program and maintain it under EDB churn",
    )
    p.add_argument("program")
    p.add_argument("--facts", help="Datalog file of ground facts")
    p.add_argument(
        "--script",
        help="batch mode: read serve commands (+/-/?/explain/stats) from "
        "this file instead of stdin",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        help="write-ahead journal: log each update (fsync'd) before "
        "applying it; restart with the same program and --facts (the "
        "journal digests both): the committed batches are folded into "
        "those base facts and evaluated once, and the session resumes "
        "exactly where it left off",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="script mode: stop at the first failing line (exit 1) "
        "instead of report-and-continue; either way the failing "
        "command is rolled back",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="serve a line-oriented TCP protocol with up to N "
        "concurrent connections (snapshot-isolated readers, one "
        "writer) instead of the stdin REPL; see docs/serve.md",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="socket mode: address to bind (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="socket mode: port to bind; 0 picks a free port, printed "
        "as 'listening on HOST:PORT' on stdout (default: 0)",
    )
    _add_engine_options(p, timeout=True)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "recover",
        help="recover a journal and dump the recovered database",
    )
    p.add_argument("program")
    p.add_argument("journal", help="journal file written by serve --journal")
    p.add_argument(
        "--facts",
        help="Datalog file of the base facts the journaled run started "
        "from (the journal holds batches and a digest of these; other "
        "base facts are refused)",
    )
    _add_engine_options(p, timeout=True)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("validate", help="lint a program")
    p.add_argument("program")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("explain", help="derivation tree for a ground fact")
    p.add_argument("program")
    p.add_argument("fact")
    p.add_argument("--facts", help="Datalog file of ground facts")
    _add_engine_options(p)
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, JournalError) as exc:
        # Bad knob values (--jobs 0, --backend bogus, a malformed
        # $REPRO_* variable), unsafe rules, a program, facts or journal
        # path that cannot be read and a file that is not a journal are
        # user errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
