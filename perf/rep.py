"""One repetition of an in-process workload, in a fresh interpreter.

``run.py`` starts this file once per repetition of ``materialize``,
``ask_large`` or ``rewrite_many``.  Set-up (interpreter start, ``import
repro``, input generation) ends at ``ready``; the timed section follows;
every answer is then checked against the expectations the parent
computed with :mod:`oracle`.  The last line of standard output is one
JSON object.

Each query answered is recorded as a *read*; see README.md for what
that is on each workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from time import perf_counter

import oracle
import workloads
from calibrate import REFERENCE_MS, Stopwatch

COUNTERS = (
    "facts", "inferences", "probes", "iterations",
    "plans_compiled", "plan_cache_hits", "replans",
)


class Tally:
    """What one repetition did, beyond its timings."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.counts.update(rules_parsed=0, forms=0, certified=0, answers=0)
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def absorb(self, stats):
        for name in COUNTERS:
            self.counts[name] += getattr(stats, name)

    def check(self, label, got, want):
        self.attempted += 1
        self.digests.append(got)
        if got != want:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: got {got}, expected {want}")


def peak_rss_mb():
    """The process's resident-set high-water mark."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss():
    """Restart the high-water mark, so that what the answer checks
    allocate between cases is not charged to the program."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # then the mark also covers the checks; still an upper bound


def plain(rows):
    """Engine answer rows as tuples of Python values."""
    return [
        tuple(getattr(t, "value", t) for t in row) for row in rows
    ]


# ----------------------------------------------------------------------
# the three timed sections
# ----------------------------------------------------------------------

class Section:
    """The timed section of one repetition: a stopwatch, the windows
    the timers covered, and the resident-set peak inside them."""

    def __init__(self):
        self.watch = Stopwatch()
        self.windows = []
        self.peak_rss_mb = 0.0

    def case_done(self, name, begin, end):
        self.watch.add("case:" + name, end - begin)
        self.windows.append((begin, end))
        self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb())

    def checked(self):
        """The answers of a case are checked: start the next stretch."""
        reset_peak_rss()
        self.watch.close_segment()


def run_materialize(cases, expected, tally, full_check):
    from repro.datalog import parser
    from repro.engine.database import Database
    from repro.engine.seminaive import seminaive_eval

    section = Section()
    for case in cases:
        t0 = perf_counter()
        program = parser.parse_program(case["text"])
        edb = Database()
        for predicate, rows in case["facts"].items():
            edb.add_facts(predicate, rows)
        db, stats = seminaive_eval(program, edb)
        answers = []
        for query, _, _ in case["reads"]:
            begin = perf_counter()
            answers.append(db.query(parser.parse_query(query)))
            section.watch.add("read", perf_counter() - begin)
        section.case_done(case["name"], t0, perf_counter())

        tally.absorb(stats)
        tally.counts["rules_parsed"] += len(program.rules)
        want = expected[case["name"]]
        for (query, _, _), rows, digest in zip(case["reads"], answers, want["reads"]):
            tally.check(f"{case['name']} {query}", oracle.digest(plain(rows)), digest)
        for name, (count, total) in want["relations"].items():
            relation = db.get(name, 2)
            if full_check:
                got = oracle.digest(
                    (a.value, b.value) for a, b in relation.tuples
                )
            else:  # later repetitions of the same inputs: sizes only
                got = [len(relation), total]
            tally.check(f"{case['name']} {name}", got, [count, total])
        del db, edb, answers
        section.checked()
    return section


def _ask_cases(cases, expected, tally, cold_per_case, cases_per_segment):
    """Shared by ask_large and rewrite_many: build, then ask."""
    from repro.session import DeductiveDatabase

    section = Section()
    for index, case in enumerate(cases):
        t0 = perf_counter()
        db = DeductiveDatabase()
        db.rules(case["text"])
        for predicate, rows in case["facts"].items():
            db.facts(predicate, rows)
        reports = []
        for i, query in enumerate(case["queries"]):
            begin = perf_counter()
            report = db.ask(query, explain=True)
            elapsed = perf_counter() - begin
            section.watch.add("read", elapsed)
            section.watch.add("cold" if i < cold_per_case(case) else "warm", elapsed)
            reports.append(report)
        section.case_done(case["name"], t0, perf_counter())

        tally.counts["rules_parsed"] += len(db.program.rules)
        for i, (report, want) in enumerate(zip(reports, expected[case["name"]])):
            tally.absorb(report.stats)
            tally.counts["answers"] += len(report.answers)
            if i < cold_per_case(case):
                tally.counts["forms"] += 1
                tally.counts["certified"] += report.strategy in ("factored", "counting")
            tally.check(
                f"{case['name']} {case['queries'][i][:40]}",
                oracle.digest(report.answers), want,
            )
        if case["name"].startswith("tc3_"):
            tally.counts.setdefault("tc3_facts", 0)
            tally.counts.setdefault("tc3_answers", 0)
            for report in reports:
                tally.counts["tc3_facts"] += report.stats.facts
                tally.counts["tc3_answers"] += len(report.answers)
        del db, reports
        if (index + 1) % cases_per_segment == 0:
            section.checked()
    section.checked()
    return section


def run_ask_large(cases, expected, tally, full_check):
    # every query form of a case is cold exactly once: sg has two forms
    forms = {"ask_sg_tree": 2}
    return _ask_cases(
        cases, expected, tally, lambda case: forms.get(case["name"], 1), 1
    )


def run_rewrite_many(cases, expected, tally, full_check):
    # ~10 ms per program: a speed check every 16 programs
    return _ask_cases(cases, expected, tally, lambda case: 2, 16)


RUNNERS = {
    "materialize": run_materialize,
    "ask_large": run_ask_large,
    "rewrite_many": run_rewrite_many,
}


# ----------------------------------------------------------------------
# traced extras: measured once per traced repetition, after the timed
# section, because default knobs bypass these paths entirely
# ----------------------------------------------------------------------

def bypassed_variants(size):
    """default time / variant time on tc_chain (ROADMAP item 3 baseline)."""
    from repro.datalog.parser import parse_program
    from repro.engine.database import Database
    from repro.engine.seminaive import seminaive_eval

    program = parse_program(workloads.TC_TEXT)
    edges = workloads.chain_edges(workloads.SIZES[size]["variants_chain"])

    def timed(**knobs):
        edb = Database()
        edb.add_facts("e", edges)
        begin = perf_counter()
        seminaive_eval(program, edb, **knobs)
        return perf_counter() - begin

    default = timed()
    return {
        "engine.partition.part2_ratio": default / timed(partitions=2),
        "engine.backends.proc2_ratio": default / timed(jobs=2, backend="process"),
    }


def paper_anchor(size):
    """Magic vs factored on three-rule TC over a chain (Theorem 4.1)."""
    from repro.core.pipeline import optimize
    from repro.datalog.parser import parse_program, parse_query
    from repro.engine.database import Database

    n = workloads.SIZES[size]["anchor_chain"]
    edb = Database()
    edb.add_facts("e", workloads.chain_edges(n))
    result = optimize(parse_program(workloads.TC3_TEXT), parse_query("t(0, Y)"))
    out = {}
    for stage in ("magic", "simplified"):
        begin = perf_counter()
        answers, stats = result.evaluate_stage(stage, edb)
        out[stage] = (perf_counter() - begin, stats.facts, len(answers))
    if out["magic"][2] != n - 1 or out["simplified"][2] != n - 1:
        raise AssertionError(f"anchor answers wrong: {out}")
    return {
        "core.magic_over_factored_facts": out["magic"][1] / out["simplified"][1],
        "core.magic_over_factored_s": out["magic"][0] / out["simplified"][0],
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--expect", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (part of set-up, as for any user)

    cases = workloads.GENERATORS[args.workload](args.seed, args.size)
    with open(args.expect) as handle:
        expected = json.load(handle)

    recorder = dictionaries = None
    gc_log = []
    if args.traced:
        import layers
        from trace import Recorder

        recorder = Recorder()
        dictionaries = layers.install(recorder)

        def on_gc(phase, info):
            gc_log.append((phase, info["generation"], perf_counter()))

        gc.callbacks.append(on_gc)

    tally = Tally()
    ready = time.time()
    section = RUNNERS[args.workload](cases, expected, tally, args.rep == 0)
    watch = section.watch

    def per_case(scaled):
        return {
            kind[len("case:"):]: seconds * (watch.factor(segment) if scaled else 1.0)
            for segment, kind, seconds in watch.samples
            if kind.startswith("case:")
        }

    def to_ms(kind, scaled=True):
        return [x * 1000.0 for x in watch.seconds(kind, scaled)]

    case_s = per_case(True)
    raw_wall_s = sum(per_case(False).values())
    result = {
        "workload": args.workload, "rep": args.rep, "traced": args.traced,
        # set-up ends where the first speed check begins
        "setup_s": (ready - args.spawned) * REFERENCE_MS / watch.checks[0],
        "raw_setup_s": ready - args.spawned,
        # answers are checked between cases, so the timed section is
        # the sum of the per-case timers, not begin-to-end
        "wall_s": sum(case_s.values()),
        "raw_wall_s": raw_wall_s,
        "raw_measured_s": raw_wall_s,
        "peak_rss_mb": section.peak_rss_mb,
        "reads_ms": to_ms("read"),
        "cold_ms": to_ms("cold"),
        "warm_ms": to_ms("warm"),
        "case_s": case_s,
        "spin_ms": statistics.median(watch.checks),
        # the repetition that decodes and digests whole closures leaves
        # the allocator fragmented and the caches cold: it verifies, and
        # its timings and memory are not used
        "verification": args.workload == "materialize" and args.rep == 0,
        "counts": tally.counts,
        "digest": oracle.digest(tuple(d) for d in tally.digests)[1],
        "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors,
    }

    if args.traced:
        gc.callbacks.remove(on_gc)
        layer = {}
        starts = {}
        gc_s, gen2 = 0.0, 0
        for phase, generation, at in gc_log:
            if phase == "start":
                starts[generation] = at
            elif any(lo <= starts[generation] <= hi for lo, hi in section.windows):
                gc_s += at - starts[generation]
                gen2 += generation == 2
        layer["runtime.gc_s"] = gc_s
        layer["runtime.gc_gen2"] = gen2
        terms, seconds = layers.intern_again(dictionaries)
        layer["engine.intern.terms"] = terms
        layer["engine.intern.intern_s"] = seconds
        recorder.unwrap_all()
        if args.workload == "materialize":
            layer.update(bypassed_variants(args.size))
        if args.workload == "ask_large":
            layer.update(paper_anchor(args.size))
        result["layer"] = layer
        result["span_counts"] = recorder.counts
        # answers are checked between cases; spans opened there (a lazy
        # column drain, say) are not part of the timed section
        windows = section.windows
        recorder.spans = [
            span for span in recorder.spans
            if any(lo <= span[2] <= hi for lo, hi in windows)
        ]
        recorder.dump(args.trace_out, args.workload, args.rep)

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
