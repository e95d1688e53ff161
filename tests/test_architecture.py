"""Architecture fences: each test pins one removal or one single owner.

Every mechanism this repo retired left names behind that a later change
could quietly bring back.  Each test here searches the tree for those
names (the way ``grep -rn`` would: text files only, byte caches
skipped) and says why they stay gone.  This file is excluded from every
search, because it has to spell the names out.
"""

import os
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()


def grep(pattern, *paths, include=None, exclude=()):
    """``path:line: text`` for every line under ``paths`` matching
    ``pattern`` (a regular expression).

    ``include`` keeps only files whose names end with it; ``exclude``
    drops files by base name.  Paths that do not exist are skipped.
    """
    regex = re.compile(pattern)
    hits = []
    for path in _files(*paths):
        name = path.rsplit("/", 1)[-1]
        if path == SELF or name in exclude:
            continue
        if include is not None and not name.endswith(include):
            continue
        try:
            text = (ROOT / path).read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError):
            continue  # binary, as grep -I skips it
        for number, line in enumerate(text.splitlines(), 1):
            if regex.search(line):
                hits.append(f"{path}:{number}: {line.strip()}")
    return hits


def _files(*paths):
    for top in paths:
        full = ROOT / top
        if full.is_file():
            yield top
            continue
        for directory, subdirs, names in os.walk(full):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(names):
                yield (Path(directory) / name).relative_to(ROOT).as_posix()


def test_the_retired_interpreter_tier_stays_retired():
    """Every evaluator runs compiled plans through one fixpoint driver;
    the ``use_plans`` switch to the old interpreter tier is gone.  The
    excluded test file pins that the removed keyword fails loudly."""
    assert grep(
        "use_plans", "src", "tests", "benchmarks", "docs", "README.md",
        exclude=("test_config.py",),
    ) == []


def test_maintenance_private_fixpoint_loop_stays_retired():
    """IncrementalSession resumes the evaluator's driver
    (``ComponentRun.resume``); its own loop, round guard and partitioner
    are gone, and partitioning has one call site."""
    assert grep(
        "_component_delta_fixpoint|_guard_rounds|_round_partitioned",
        "src", "tools", "docs",
    ) == []
    calls = [
        hit
        for hit in grep(re.escape("run_partitioned("), "src", include=".py")
        if "def run_partitioned" not in hit
    ]
    assert len(calls) == 1, calls
    assert grep(re.escape("run_partitioned("), "src/repro/engine/scheduler.py")
    assert grep(r"repro\.engine\.partition", "src/repro/engine/incremental.py") == []


def test_maintenance_has_one_algorithm():
    """Every IncrementalSession maintains facts by forward deltas and
    DRed; derivation trees are computed from the EDB when asked
    (docs/incremental.md, "Explaining a fact"), so the provenance mode,
    its flag and its support indexes are gone.  The two excluded test
    files pin that the removed keyword and flag fail loudly."""
    assert grep(
        "record_provenance|--provenance|_recompute_after_delete"
        "|_recompute_affected|_rdeps|_deriv_by_sig",
        "src", "tests", "docs", "README.md", ".github",
        exclude=("ci.yml", "test_config.py", "test_cli.py"),
    ) == []


def test_the_strategy_decision_keeps_one_author():
    """``core/pipeline.py::optimize`` classifies, certifies, factors and
    simplifies; CompiledQuery and the session read its result
    (PlanCache's own ``_plans`` in engine/plan.py is another thing)."""
    names = "check_factorability|factor_magic|simplify_factored"
    calls = [
        hit
        for hit in grep(rf"({names})\(", "src", include=".py")
        if not hit.startswith("src/repro/core/pipeline.py:")
        and not re.search(rf"def ({names})\(", hit)
    ]
    assert calls == []
    assert len(grep("def _recursive_adorned_predicate", "src")) == 1
    assert grep(r"_needs_replan|_plans\b|optimize\(", "src/repro/session.py") == []


def test_the_chase_is_one_evaluation_context():
    """``analysis/uniform.py`` chases every candidate through one
    resolved config and one plan cache (``_Chase``); ``naive_eval`` is
    left only for ``uniformly_contained``'s one evaluation of P2 over
    the empty database (docs/query.md, "What a cold ask costs")."""
    uniform = "src/repro/analysis/uniform.py"
    assert len(grep(re.escape("naive_eval("), uniform)) == 1
    assert grep(re.escape("model, _ = naive_eval(p2, Database(), chase.config)"), uniform)


def test_the_collector_has_one_switch():
    """``engine/arena.py`` pauses collection around a throwaway
    evaluation (docs/query.md, "What an ask allocates, and who frees
    it"); ``engine/backends.py`` freezes a pool worker's inherited heap.
    Nothing else under src/ touches the switch."""
    hits = grep(r"gc\.(disable|enable|freeze)\(", "src", include=".py")
    assert [
        hit
        for hit in hits
        if not re.match(r"src/repro/engine/(arena|backends)\.py:", hit)
    ] == []


def test_engine_config_stays_the_only_reader_of_the_environment():
    """``engine/faults.py`` reads REPRO_FAULTS (fault injection, not a
    knob) and ``bench/harness.py`` REPRO_BENCH_SCALE; every REPRO_*
    execution knob is parsed by ``engine/config.py`` alone."""
    readers = {hit.split(":", 1)[0] for hit in grep(r"os\.environ", "src/repro")}
    allowed = {
        "src/repro/engine/config.py",
        "src/repro/engine/faults.py",
        "src/repro/bench/harness.py",
    }
    assert readers <= allowed, sorted(readers - allowed)
    assert grep(
        r"def resolve_(jobs|backend|retries|exec|planner|partitions|timeout)\b",
        "src/repro",
    ) == []


def test_parallelism_has_one_mechanism():
    """Depth batches run serially or on a process pool; delta partitions
    run in order in the process evaluating their component.  The thread
    backend, component staging, pool retries, grouped shipping and the
    process partition group are gone (docs/engine.md, "Execution
    backends")."""
    assert grep(
        "ThreadPoolExecutor|adopt_stage|evaluate_component_batch|REPRO_RETRIES",
        "src",
    ) == []
    assert grep(
        "ProcessPartitionExecutor|_partition_worker|make_partition_executor",
        "src",
    ) == []
    assert grep("multiprocessing", "src/repro/engine/partition.py") == []


def test_one_reference_evaluator():
    """``engine/reference.py`` (naive rounds over plain sets, no engine
    storage) is what every evaluator is checked against; the
    ``joins.py`` interpreter and the exec knob are gone, and the batch
    kernel runs wherever a plan is eligible (docs/engine.md, "Columnar
    execution").  The excluded test file pins that importing the
    interpreter module fails."""
    assert grep(r"REPRO_EXEC|config\.exec\b", "src") == []
    assert grep(
        r"repro\.engine\.joins",
        "src", "tests", "benchmarks", "tools", "docs", "perf", "examples",
        "README.md",
        exclude=("test_reference.py",),
    ) == []
    assert len(grep("def join_rule", "src")) == 1
    assert grep("^def join_rule", "src/repro/engine/reference.py")
    assert len(grep("def naive_fixpoint_reference", "src")) == 1
    assert grep("^def naive_fixpoint_reference", "src/repro/engine/reference.py")


def test_one_join_order():
    """The greedy bound-first order (``engine/plan.py::_join_order``) is
    the only join order: the cost planner, the relation statistics it
    read and the planner knob are gone (docs/engine.md, "The plan")."""
    assert grep(
        r"cost_join_order|REPRO_PLANNER|config\.planner|RelationStatistics"
        r"|distinct_count|record_estimate",
        "src",
    ) == []
    assert grep(
        r"repro\.engine\.cost\b|from repro\.engine import cost\b",
        "src", "tests", "benchmarks", "tools", "docs", "perf", "examples",
        "README.md",
    ) == []


def test_one_benchmark():
    """``perf/run.py`` is the one performance instrument; the second
    engine benchmark, its JSON record and the CI job that ran it are
    gone, so only perf/ and the history (CHANGES.md, ROADMAP.md) may
    name them.  The paper's tables are the ``benchmarks/bench_*.py``
    tests."""
    assert grep(
        "run_bench|BENCH_engine",
        "src", "tests", "benchmarks", "tools", "docs", "examples",
        ".github", ".claude", "README.md", "setup.py",
    ) == []
