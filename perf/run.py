"""The benchmark: four workloads, every answer checked, every metric named.

Two ways to run it, same machinery underneath:

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
        one workload for about S seconds of repetitions; the last line
        of standard output is the JSON object BENCHMARK.json describes
        (end-to-end metrics with --trace 0, per-layer with --trace 1).

    python3 perf/run.py [--seed N] [--reps R] [--out FILE] [--quick]
        all four workloads, R untraced repetitions each, interleaved
        round-robin, plus one traced repetition per workload; prints
        every metric and writes FILE for compare.py.

Every repetition runs in a fresh process at the engine's default knobs
(every ``REPRO_*`` variable scrubbed, ``PYTHONHASHSEED=0``).  Exit code
1 means a wrong answer, a failed operation, or a count that did not
repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("materialize", "ask_large", "rewrite_many", "serve_rw")

MIN_REPS = 3
REP_TIMEOUT = 150


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env(hashseed="0"):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def percentile(samples, p):
    """The p-th percentile by nearest rank — always an observed sample,
    never a midpoint between two clusters of a mixed workload — or None
    with fewer than ten samples beyond it."""
    n = len(samples)
    if n == 0 or (p > 50 and n * (100 - p) / 100.0 < 10):
        return None
    return sorted(samples)[max(0, -(-n * p // 100) - 1)]


def median(samples):
    return statistics.median(samples) if samples else 0.0


def quartiles(samples):
    if len(samples) < 2:
        return (samples[0], samples[0]) if samples else (0.0, 0.0)
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


# ----------------------------------------------------------------------
# one workload's repetitions
# ----------------------------------------------------------------------

class Workload:
    """Inputs, expectations and the repetition records of one workload."""

    def __init__(self, name, seed, size, hashseed="0"):
        import oracle
        import workloads

        self.name, self.seed, self.size = name, seed, size
        self.env = child_env(hashseed)
        self.records = []
        self.problems = []
        os.makedirs(OUT, exist_ok=True)
        self.inputs = workloads.GENERATORS[name](seed, size)
        self.expected = oracle.EXPECT[name](self.inputs)
        self.expect_path = os.path.join(OUT, f"expect-{name}-{os.getpid()}.json")
        with open(self.expect_path, "w") as handle:
            json.dump(self.expected, handle)
        self.trace_path = os.path.join(OUT, f"trace-{name}.jsonl")

    def repeat(self, traced):
        rep = len(self.records)
        if self.name == "serve_rw":
            record = self._serve_rep(rep, traced)
        else:
            record = self._process_rep(rep, traced)
        record["rep"] = rep
        self.records.append(record)
        if record["failed"]:
            self.problems.append(
                f"{self.name} rep {rep}: {record['failed']} failed operations: "
                + "; ".join(record["errors"])
            )
        return record

    def _process_rep(self, rep, traced):
        command = [
            sys.executable, os.path.join(HERE, "rep.py"),
            "--workload", self.name, "--seed", str(self.seed),
            "--size", self.size, "--rep", str(rep),
            "--traced", str(int(traced)), "--expect", self.expect_path,
            "--trace-out", self.trace_path,
            "--spawned", repr(time.time()),
        ]
        done = subprocess.run(
            command, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
            timeout=REP_TIMEOUT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{self.name} repetition exited {done.returncode}")
        return json.loads(done.stdout.decode().strip().splitlines()[-1])

    def _serve_rep(self, rep, traced):
        import serve_load

        workdir = os.path.join(OUT, f"serve-{os.getpid()}")
        record = serve_load.run_rep(
            self.inputs, self.expected, workdir, sys.executable, self.env,
            traced, ROOT,
        )
        if traced:
            self._merge_serve_spans(record)
        return record

    def _merge_serve_spans(self, record):
        """One span file per workload: server rows, then recover rows."""
        import trace

        server, recover = (trace.load(path) for path in record["spans"])
        record["server_meta"] = server[0]["meta"]
        record["span_counts"] = record["server_meta"].pop("span_counts")
        rows = server[1:]
        offset = len(rows)
        for row in recover[1:]:
            row["id"] += offset
            if row["parent"] is not None:
                row["parent"] += offset
            rows.append(row)
        with open(self.trace_path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")

    def cleanup(self):
        if os.path.exists(self.expect_path):
            os.remove(self.expect_path)
        shutil.rmtree(os.path.join(OUT, f"serve-{os.getpid()}"), ignore_errors=True)

    # -- checks ----------------------------------------------------------

    def check_repeatable(self, expected_counts):
        """Counts and answer digests must be identical in every repetition
        and, for a seed recorded in expected.json, equal to the record."""
        if not self.records:
            return
        first = self.records[0]
        for record in self.records[1:]:
            if record["counts"] != first["counts"]:
                self.problems.append(
                    f"{self.name}: counts differ between repetitions 0 and "
                    f"{record['rep']}: {first['counts']} vs {record['counts']}"
                )
        # rep 0 may digest whole relations where later ones check sizes
        if len({r["digest"] for r in self.records[1:]}) > 1:
            self.problems.append(f"{self.name}: answer digests differ between repetitions")
        key = f"{self.size}/{self.seed}/{self.name}"
        if key in expected_counts:
            # an untraced run has fewer counts than the record: compare
            # the ones it has
            recorded = expected_counts[key]
            differing = {
                name: (value, recorded.get(name))
                for name, value in self.exact_counts().items()
                if recorded.get(name) != value
            }
            if differing:
                self.problems.append(
                    f"{self.name}: counts differ from perf/expected.json[{key!r}] "
                    f"(got, recorded): {differing}"
                )

    def exact_counts(self):
        """The ``#`` counts of this workload: must repeat exactly."""
        first = self.records[0]
        counts = dict(first["counts"])
        counts["digest"] = first["digest"]
        for record in self.records:
            if record["traced"]:
                for name in EXACT_TRACED.get(self.name, EXACT_TRACED[None]):
                    if name in record.get("layer", {}):
                        counts[name] = record["layer"][name]
                break
        return counts


#: counts that only a traced repetition can see (read from its
#: ``layer``).  The server's read count varies with its speed, so of its
#: counts only the write path's repeat exactly.
EXACT_TRACED = {
    "serve_rw": (
        "engine.journal.fsyncs", "engine.incremental.incr_rounds",
        "engine.incremental.rederived",
    ),
    None: (
        "engine.columnar.calls", "engine.query.compiles",
        "engine.query.cache_hits", "engine.intern.terms",
        "transforms.rules_out", "engine.plan.lookups",
        "engine.database.column_syncs",
    ),
}


# ----------------------------------------------------------------------
# from repetition records to named metrics
# ----------------------------------------------------------------------

def measured_records(workload):
    """Untraced repetitions, without the verification repetition."""
    return [
        r for r in workload.records
        if not r["traced"] and not r.get("verification")
    ]


def end_to_end(workload):
    """The end-to-end metrics, from untraced repetitions only.

    Each is ``{"value", "reps", "n"}``: the median over repetitions
    (``reps``) of the repetition's set-up, wall, memory, or median
    read; ``n`` counts the samples behind it.
    """
    records = measured_records(workload)

    def over_reps(key):
        reps = [r[key] for r in records]
        return {"value": median(reps), "reps": reps, "n": len(reps)}

    def median_op(key):
        """Median over repetitions of the repetition's median operation.
        (Pooling first would, for the few and unlike operations of the
        batch workloads, pick the extreme of a cluster.)"""
        reps = [statistics.median(r[key]) for r in records if r[key]]
        return {"value": median(reps), "reps": reps, "n": sum(len(r[key]) for r in records)}

    return {
        "setup_s": over_reps("setup_s"),
        "wall_s": over_reps("wall_s"),
        "peak_rss_mb": over_reps("peak_rss_mb"),
        "read_p50_ms": median_op("reads_ms"),
    }


def per_layer(workload, cli_times):
    """Every per-layer metric this workload can fill; the rest stay 0."""
    import layers
    import trace

    untraced = measured_records(workload)
    traced = [r for r in workload.records if r["traced"]]
    out = {}
    for name in {n for r in untraced for n in r["case_s"]}:
        out[f"case.{name}_s"] = median([r["case_s"][name] for r in untraced if name in r["case_s"]])
    out["runtime.spin_ms"] = median([r["spin_ms"] for r in workload.records])
    out.update(cli_times)

    reads = [ms for r in untraced for ms in r["reads_ms"]]
    if workload.name == "serve_rw":
        serve = [r["serve"] for r in untraced]
        writes = [ms for r in untraced for ms in r["writes_ms"]]
        out["engine.server.read_p95_ms"] = percentile(reads, 95)
        out["engine.server.read_p99_ms"] = percentile(reads, 99)
        out["engine.server.write_p50_ms"] = median([statistics.median(r["writes_ms"]) for r in untraced])
        out["engine.server.write_p95_ms"] = percentile(writes, 95)
        out["engine.server.reads_per_s"] = median([s["reads_per_s"] for s in serve])
        out["engine.server.insert_p50_ms"] = percentile([x for s in serve for x in s["insert_ms"]], 50)
        out["engine.server.delete_p50_ms"] = percentile([x for s in serve for x in s["delete_ms"]], 50)
        out["engine.server.write_late_ms"] = percentile([x for s in serve for x in s["late_ms"]], 50)
        out["engine.server.over_limit_share"] = median([s["over_limit_share"] for s in serve])
        out["engine.server.reply_bytes"] = median([s["reply_bytes"] for s in serve])
        out["engine.journal.bytes_per_fact"] = median([s["journal_bytes_per_fact"] for s in serve])
        out["engine.journal.recover_s"] = median([r["wall_s"] for r in untraced])
    else:
        cold = [ms for r in untraced for ms in r["cold_ms"]]
        warm = [ms for r in untraced for ms in r["warm_ms"]]
        out["engine.query.cold_ask_p50_ms"] = percentile(cold, 50)
        out["engine.query.cold_ask_p95_ms"] = percentile(cold, 95)
        out["engine.query.warm_ask_p50_ms"] = percentile(warm, 50)

    if not traced:
        return out
    record = traced[-1]
    counts = record["counts"]
    rows = trace.load(workload.trace_path)
    if workload.name == "serve_rw":
        metrics, calls, _ = layers.layer_metrics(rows)
        wall = traced_wall(workload, rows)
        covered = sum(
            r["end"] - r["start"] for r in rows
            if r["name"] == "engine.server.handle_line"
        )
        counts = dict(record["server_meta"], **counts)
        batches = sorted(
            (r for r in rows if r["name"] == "engine.incremental.apply_batch"),
            key=lambda r: r["start"],
        )
        by_sign = {"+": [], "-": []}
        for (sign, _, _), row in zip(workload.inputs["writes"], batches):
            by_sign[sign].append((row["end"] - row["start"]) * 1000.0)
        out["engine.incremental.insert_batch_ms"] = statistics.fmean(by_sign["+"]) if by_sign["+"] else 0.0
        out["engine.incremental.delete_batch_ms"] = statistics.fmean(by_sign["-"]) if by_sign["-"] else 0.0
        initial = [r for r in rows if r["name"] == "engine.incremental.materialize"]
        if batches and initial:
            # the one from-scratch evaluation the server ran, whole span
            recompute = initial[0]["end"] - initial[0]["start"]
            metrics["engine.incremental.materialize_s"] = recompute
            mean_batch = statistics.fmean(r["end"] - r["start"] for r in batches)
            out["engine.incremental.vs_recompute"] = mean_batch / recompute
        out["engine.incremental.incr_rounds"] = counts.get("incr_rounds", 0)
        out["engine.incremental.rederived"] = counts.get("rederived", 0)
        out["engine.journal.fsyncs"] = calls.get("engine.journal.fsync", 0)
        out["engine.server.noop_rtt_ms"] = median(record["serve"]["noop_ms"])
        base = out["engine.server.reads_per_s"]
        if base:
            out["runtime.trace_overhead_pct"] = (base / record["serve"]["reads_per_s"] - 1.0) * 100.0
    else:
        metrics, calls, covered = layers.layer_metrics(rows)
        wall = traced_wall(workload, rows)
        # spans are raw seconds: bring them to reference speed like wall_s
        scale = record["wall_s"] / record["raw_wall_s"]
        for name in metrics:
            if name.endswith("_s"):
                metrics[name] *= scale
        base = median([r["wall_s"] for r in untraced])
        if base:
            out["runtime.trace_overhead_pct"] = (record["wall_s"] / base - 1.0) * 100.0
    out.update(metrics)
    out.update(record.get("layer", {}))
    out["runtime.unattributed_share"] = max(0.0, wall - covered) / wall
    record["traced_wall_s"] = wall

    asks = calls.get("engine.query.ask", 0)
    compiles = calls.get("engine.query.compile", 0)
    out["engine.query.compiles"] = compiles
    out["engine.query.cache_hits"] = max(0, asks - compiles)
    out["engine.query.hit_ratio"] = max(0, asks - compiles) / asks if asks else 0.0
    span_counts = record.get("span_counts", {})
    out["engine.columnar.calls"] = (
        calls.get("engine.columnar.execute", 0)
        + span_counts.get("engine.columnar.execute", 0)
    )
    out["transforms.rules_out"] = span_counts.get("transforms.magic", 0)
    out["engine.plan.lookups"] = span_counts.get("engine.plan.lookups", 0)
    out["engine.database.column_syncs"] = span_counts.get("engine.database.column_syncs", 0)
    out["datalog.rules_parsed"] = counts.get("rules_parsed", 0)
    out["engine.plan.compiled"] = counts.get("plans_compiled", 0)
    out["engine.plan.cache_hits"] = counts.get("plan_cache_hits", 0)
    out["engine.plan.replans"] = counts.get("replans", 0)
    rounds = counts.get("iterations", 0) + counts.get("incr_rounds", 0)
    out["engine.scheduler.rounds"] = rounds
    if rounds and workload.name != "serve_rw":  # the server's reads run rounds it does not count
        out["engine.scheduler.us_per_round"] = out["engine.scheduler.self_s"] / rounds * 1e6
    out["engine.facts"] = counts.get("facts", 0)
    out["engine.inferences"] = counts.get("inferences", 0)
    out["engine.probes"] = counts.get("probes", 0)
    if counts.get("inferences"):
        out["engine.novel_ratio"] = counts["facts"] / counts["inferences"]
    if counts.get("forms"):
        out["core.certified_share"] = counts["certified"] / counts["forms"]
    if counts.get("tc3_answers"):
        out["core.facts_per_answer"] = counts["tc3_facts"] / counts["tc3_answers"]
    # exact counts a later check reads back from the record
    exact = EXACT_TRACED.get(workload.name, EXACT_TRACED[None])
    record.setdefault("layer", {}).update(
        {name: out[name] for name in exact if name in out}
    )
    return out


def traced_wall(workload, rows):
    """The raw seconds a traced repetition's spans are accounted
    against: the timed section — or, for the server, its two
    connections over the stretch their ``handle_line`` spans cover, so
    that what is left over is socket waits, the client's turn and the
    writer's pacing."""
    record = [r for r in workload.records if r["traced"]][-1]
    if workload.name != "serve_rw":
        return record["raw_wall_s"]
    served = [r for r in rows if r["name"] == "engine.server.handle_line"]
    return 2.0 * (max(r["end"] for r in served) - min(r["start"] for r in served))


def measure_cli(env):
    """Process start + import, and one tiny ``repro run`` end to end."""
    begin = perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"], env=env, check=True, cwd=ROOT)
    import_s = perf_counter() - begin
    os.makedirs(OUT, exist_ok=True)
    program = os.path.join(OUT, "small.dl")
    facts = os.path.join(OUT, "small-facts.dl")
    with open(program, "w") as handle:
        handle.write("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n")
    with open(facts, "w") as handle:
        handle.write("e(1, 2).\ne(2, 3).\ne(3, 4).\n")
    begin = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", program, "t(1, Y)", "--facts", facts],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    run_small_s = perf_counter() - begin
    if done.returncode != 0 or done.stdout.decode().split() != ["2", "3", "4"]:
        raise RuntimeError("repro run gave a wrong answer on the 3-fact program")
    return {"cli.import_s": import_s, "cli.run_small_s": run_small_s}


def fingerprint():
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

def value_of(entry):
    """A metric's reported number; 0 stands for "not measured here"."""
    if isinstance(entry, dict):
        entry = entry["value"]
    return 0.0 if entry is None else entry


def print_table(title, spec_rows, values):
    print(f"\n{title}")
    for spec in spec_rows:
        name, unit = spec["name"], spec["unit"]
        entry = values.get(name)
        if entry is None or (isinstance(entry, dict) and entry["value"] is None):
            print(f"  {name:42s} {'-':>14s} {unit}")
        elif isinstance(entry, dict):
            q1, q3 = quartiles(entry["reps"])
            print(
                f"  {name:42s} {entry['value']:14.4f} {unit:6s} "
                f"n={entry['n']} reps: median={median(entry['reps']):.4f} "
                f"q1={q1:.4f} q3={q3:.4f}"
            )
        else:
            print(f"  {name:42s} {entry:14.4f} {unit}")


def result_line(spec_rows, values, workloads_run):
    attempted = sum(r["attempted"] for w in workloads_run for r in w.records)
    failed = sum(r["failed"] for w in workloads_run for r in w.records)
    problems = [p for w in workloads_run for p in w.problems]
    return {
        "correct": not problems and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": value_of(values.get(spec["name"])), "unit": spec["unit"]}
            for spec in spec_rows
        },
    }


def load_expected_counts():
    path = os.path.join(HERE, "expected.json")
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    return {}


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------

def run_driver(args, spec):
    """--workload W --seed N --seconds S --trace T"""
    size = "quick" if args.quick else "full"
    workload = Workload(args.workload, args.seed, size)
    try:
        cli_times = measure_cli(workload.env) if args.trace else {}
        # "measure for S seconds": repetitions until their set-up and
        # timed sections add up to S (answer checks are not measuring)
        measured = 0.0
        while True:
            rep = len(workload.records)
            record = workload.repeat(bool(args.trace) and rep % 2 == 1)
            if not record.get("verification"):
                measured += record["raw_setup_s"] + record["raw_measured_s"]
            enough = len(measured_records(workload)) >= (1 if args.quick else MIN_REPS)
            if enough and (args.quick or measured >= args.seconds):
                break
        workload.check_repeatable(load_expected_counts())
        if args.trace:
            values, rows = per_layer(workload, cli_times), spec["per_layer"]
        else:
            values, rows = end_to_end(workload), spec["end_to_end"]
        print_table(f"{args.workload} (seed {args.seed}, {len(workload.records)} repetitions)", rows, values)
        for problem in workload.problems:
            print("PROBLEM:", problem, file=sys.stderr)
        line = result_line(rows, values, [workload])
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    finally:
        workload.cleanup()


def run_report(args, spec):
    """All four workloads, interleaved, plus one traced repetition each."""
    size = "quick" if args.quick else "full"
    chosen = [Workload(name, args.seed, size) for name in WORKLOADS]
    try:
        cli_times = measure_cli(chosen[0].env)
        while any(len(measured_records(w)) < args.reps for w in chosen):
            for workload in chosen:
                if len(measured_records(workload)) < args.reps:
                    workload.repeat(False)
        for workload in chosen:
            workload.repeat(True)
        report = {"fingerprint": fingerprint(), "seed": args.seed, "size": size, "workloads": {}}
        expected_counts = load_expected_counts()
        for workload in chosen:
            e2e = end_to_end(workload)
            layer = per_layer(workload, cli_times)
            workload.check_repeatable(expected_counts)
            print_table(f"== {workload.name}: end to end ({args.reps} untraced repetitions)", spec["end_to_end"], e2e)
            print_table(f"== {workload.name}: per layer (one traced repetition)", spec["per_layer"], layer)
            attempted = sum(r["attempted"] for r in workload.records)
            failed = sum(r["failed"] for r in workload.records)
            print(f"  fail_share {failed / max(1, attempted):.6f} ratio ({failed} of {attempted} operations)")
            report["workloads"][workload.name] = {
                "end_to_end": e2e,
                "per_layer": {name: value_of(v) for name, v in layer.items()},
                "traced_wall_s": workload.records[-1]["traced_wall_s"],
                "counts": workload.exact_counts(),
                "attempted": attempted, "failed": failed,
                "fail_share": failed / max(1, attempted),
                "spin_ms": [r["spin_ms"] for r in workload.records],
            }
        report["fingerprint"]["runtime.spin_ms"] = median(
            [x for w in report["workloads"].values() for x in w["spin_ms"]]
        )
        print("\nmachine:", json.dumps(report["fingerprint"]))
        print()
        baseline = {w.name: w.records[0] for w in chosen} if size == "quick" else None
        problems = hashseed_check(args.seed, baseline)
        problems += [p for w in chosen for p in w.problems]
        for problem in problems:
            print("PROBLEM:", problem, file=sys.stderr)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(report, handle, indent=1)
        if args.write_expected:
            path = os.path.join(HERE, "expected.json")
            recorded = load_expected_counts()
            for workload in chosen:
                recorded[f"{size}/{args.seed}/{workload.name}"] = workload.exact_counts()
            with open(path, "w") as handle:
                json.dump(recorded, handle, indent=1, sort_keys=True)
        return 1 if problems else 0
    finally:
        for workload in chosen:
            workload.cleanup()


def hashseed_check(seed, baseline=None):
    """``materialize`` and ``rewrite_many`` at quick size under
    ``PYTHONHASHSEED=1``: the counts and the answer digests must equal
    those under hash seed 0 (``baseline`` when a quick run just made
    them).  Returns the problems found."""
    problems = []
    for name in ("materialize", "rewrite_many"):
        seen = {}
        for hashseed in ("0", "1"):
            if hashseed == "0" and baseline is not None:
                record = baseline[name]
            else:
                workload = Workload(name, seed, "quick", hashseed)
                try:
                    record = workload.repeat(False)
                finally:
                    workload.cleanup()
            seen[hashseed] = (record["counts"], record["digest"], record["failed"])
        same = seen["0"] == seen["1"] and seen["0"][2] == 0
        print(f"hash seed 0 vs 1, {name}: {'same counts and digests' if same else 'DIFFERENT'}")
        if not same:
            problems.append(f"{name}: PYTHONHASHSEED changes counts or answers: {seen}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    parser.add_argument("--write-expected", action="store_true", help="record this run's exact counts in perf/expected.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perf/run.py: no src/repro next to perf/: nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))  # input generation only
    spec = benchmark_spec()
    if args.workload:
        return run_driver(args, spec)
    return run_report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
