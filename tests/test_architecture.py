"""Architecture fences: the layering, and one test per removal or owner.

``LAYERS`` is the package's layering, checked against the import graph
(``test_imports_follow_layers``).  Every mechanism this repo retired
left names behind that a later change could quietly bring back.  The
other tests search the tree for those names (the way ``grep -rn``
would: text files only, byte caches skipped) and say why they stay
gone.  This file is excluded from every search, because it has to
spell the names out.
"""

import ast
import inspect
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
        "use_plans", "src", "tests", "docs", "README.md",
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
    """``analysis/uniform.py`` chases every candidate, and evaluates P2
    for ``uniformly_contained``'s facts, through one config built from
    its own budgets and one plan cache (``_Chase``): one naive
    ``SCCScheduler``, no evaluator frontend, no resolution
    (docs/query.md, "What a cold ask costs").  ``naive_eval`` and its
    module are gone; ``seminaive_eval`` is the one frontend."""
    uniform = "src/repro/analysis/uniform.py"
    assert len(grep(re.escape("SCCScheduler("), uniform)) == 1
    assert grep(r"_eval\b|EngineConfig\.resolve", uniform) == []
    assert not (ROOT / "src/repro/engine/naive.py").exists()
    assert grep(r"\bnaive_eval\b", "src", "tests", "tools") == []
    assert grep(r"engine\.naive\b", "src", "tools") == []


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
    """The library takes its execution knobs from its caller: the
    ``REPRO_*`` knob variables are read by the CLI alone, through
    ``engine/config.py``'s ``environment_knobs``, under its flags.
    ``engine/faults.py`` reads REPRO_FAULTS (fault injection, not a
    knob).  Only the entry points resolve (keyword over ``config=``
    over the defaults): ``seminaive_eval``, the two compilers and the
    session; the scheduler and the chase use what they are handed
    (docs/engine.md, "Configuration")."""
    readers = {hit.split(":", 1)[0] for hit in grep(r"os\.environ", "src/repro")}
    assert readers == {
        "src/repro/cli.py",
        "src/repro/engine/faults.py",
    }
    lookups = [
        hit
        for hit in grep(r"environment_knobs\(", "src/repro")
        if "def environment_knobs" not in hit
    ]
    assert [hit.split(":", 1)[0] for hit in lookups] == ["src/repro/cli.py"]
    resolvers = [hit.split(":", 1)[0] for hit in grep(r"\.resolve\(", "src/repro")]
    assert sorted(resolvers) == [
        "src/repro/engine/incremental.py",
        "src/repro/engine/query.py",
        "src/repro/engine/seminaive.py",
        "src/repro/session.py",
    ]
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
        "src", "tests", "tools", "docs", "perf", "examples", "README.md",
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
        "src", "tests", "tools", "docs", "perf", "examples", "README.md",
    ) == []


def test_one_benchmark():
    """``perf/run.py`` is the one performance instrument; the second
    engine benchmark, its JSON record and the CI job that ran it are
    gone, so only perf/ and the history (CHANGES.md, ROADMAP.md) may
    name them.  The paper's claims are tier-1 tests,
    ``tests/test_paper.py``."""
    assert grep(
        "run_bench|BENCH_engine",
        "src", "tests", "tools", "docs", "examples",
        ".github", ".claude", "README.md", "setup.py",
    ) == []


def test_the_paper_has_one_test_runner():
    """The paper's claims are fact and inference counts, determinate at
    a fixed size, so ``tests/test_paper.py`` checks them in tier-1 with
    literal sizes.  The second suite that sized them by a scale
    variable, its harness package and the timing plugin it needed stay
    gone."""
    assert grep(
        r"REPRO_BENCH_SCALE|repro\.bench|bench_scale|pytest-benchmark",
        "src", "tests", "tools", "docs", "examples",
        ".github", ".claude", "README.md", "setup.py",
    ) == []


def test_derivation_trees_stay_outside_the_fixpoint_loop():
    """A derivation tree is read off a least model by one search in
    ``engine/provenance.py`` (docs/engine.md, "Derivation trees"), so
    the evaluator, its plans, its backends, the batch kernel and the
    partitioner carry no recording hook for one caller, and the search
    reaches into no part of the scheduler: no second round loop."""
    assert grep(
        "recorder|on_match|DerivationRecorder|absorb_derivations",
        *(
            f"src/repro/engine/{name}.py"
            for name in ("scheduler", "plan", "backends", "columnar", "partition")
        ),
    ) == []
    assert grep(
        r"repro\.engine\.scheduler|from repro\.engine import .*scheduler",
        "src/repro/engine/provenance.py",
    ) == []


def test_answers_are_decoded_once_at_the_edge():
    """``Database.answers`` decodes an overlay's ids straight to plain
    values through the dictionary's ``values`` table, inside the ask's
    arena (docs/engine.md, "The read path"); no second pass may rebuild
    term rows as values, so the old row unwrapper and a ``values``
    method on ``QueryAnswer`` stay gone."""
    assert grep(r"unwrap_rows|def values\(", "src") == []


def test_stored_derived_facts_have_one_bridge():
    """Rows stored under a derived predicate's own name are bridged in
    one place, ``engine/query.py::bridged_program``, under a reserved
    ``~idb`` name (docs/query.md, "Stored facts on derived
    predicates"): the session's ``__base`` copy, the incremental
    subclass that renamed updates into it, the ask report that copied
    ``QueryAnswer`` and the compiler's full-evaluation fallback stay
    gone."""
    assert grep(
        "_BridgedIncrementalSession|_effective|QueryReport|__base", "src"
    ) == []
    assert grep(r"""["']materialize["']""", "src/repro/engine/query.py") == []


def test_the_server_has_one_read_path():
    """``?`` is one selection over the pinned view the writer already
    maintains (docs/serve.md, "What `?` reads"): the view holds what a
    goal-directed read would re-derive, so the server's per-read
    fixpoint, its thread-local compilers and their import stay gone."""
    assert grep(
        r"QueryCompiler|query_goal|threading\.local", "src/repro/engine/server.py"
    ) == []


def test_the_journal_holds_batches_only():
    """Recovery folds every committed batch but the last into the
    caller's base facts and evaluates once: the fold is the checkpoint
    (docs/incremental.md, "The write-ahead journal").  Snapshot records
    only added a pickled copy of the EDB to a journal that is never
    compacted and always read whole: on a 2-vCPU Xeon, 300 one-fact
    batches over a 20 000-edge EDB recovered in 0.6-0.8 s from a
    0.03 MB journal without them, and in 9-11 s from 12.1 MB with one
    every 10 batches.  So the record kind, its server policy, its
    counter and its flag stay gone."""
    assert grep(r"(?i)checkpoint", "src/repro") == []


def test_a_journal_batch_is_fact_text():
    """A batch is journaled as the ground fact text a ``+``/``-`` line
    carries and read back by the parser those lines go through
    (docs/incremental.md, "The write-ahead journal"): reading a journal
    runs no code, and there is one batch format, not two."""
    assert grep(r"pickle", "src/repro/engine/journal.py") == []


def test_determinate_counters_are_declared_once():
    """Which counters a kind of pass determines is the row of each
    ``EvalStats`` field, read through ``engine/stats.py::determinate``
    (docs/engine.md, "Configuration"): no test but the table's own
    (``tests/test_stats.py``) restates a tuple of those counters' names
    or attributes, and ``absorb`` and ``repro run --stats`` loop over
    the table instead of naming fields."""
    from repro.cli import _print_stats
    from repro.engine.stats import EvalStats

    table = EvalStats.__dataclass_fields__
    named = "|".join(name for name, row in table.items() if row.metadata["determined_by"])
    item = rf"(?:\b(?:\w+\.)+(?:{named})\b|[\"'](?:{named})[\"'])"
    listed = re.compile(rf"{item}\s*,\s*{item}")  # across lines, too
    assert [
        f"{path}: {match.group()}"
        for path in _files("tests")
        if path.endswith(".py") and path not in (SELF, "tests/test_stats.py")
        for match in listed.finditer((ROOT / path).read_text(encoding="utf-8"))
    ] == []
    for function in (EvalStats.absorb, _print_stats):
        source = inspect.getsource(function)
        assert not re.search(rf"\b(?:{'|'.join(table)})\b", source), function.__qualname__


#: Bottom to top: a module may import from its own layer and the layers
#: below it, never from one above.  Names are relative to ``repro``; a
#: module belongs to the longest name that prefixes it, so
#: ``engine.query`` (which compiles through ``core``) sits on top while
#: the rest of ``engine`` sits below ``core``, which evaluates through
#: it.  ``""`` is the ``repro`` package itself (docs/engine.md,
#: "Layering").
LAYERS = (
    {"datalog"},
    {"analysis"},
    {"transforms"},
    {"engine"},
    {"core"},
    {"engine.query", "session", "cli", "workloads", "__main__", ""},
)

#: Upward edges still standing, each named with the change that removes
#: it.  The list may only shrink: an edge listed here that the code no
#: longer has fails the test as well.
LAYER_EXCEPTIONS = {
    # Sagiv's uniform-redundancy chase evaluates candidates on the
    # engine; ROADMAP item 3 removes it.
    ("analysis.uniform", "engine.config"),
    ("analysis.uniform", "engine.database"),
    ("analysis.uniform", "engine.plan"),
    ("analysis.uniform", "engine.scheduler"),
    ("analysis.uniform", "engine.stats"),
}


def _layer(module):
    owners = [
        (len(name), rank)
        for rank, names in enumerate(LAYERS)
        for name in names
        if module == name or (name and module.startswith(name + "."))
    ]
    assert owners, f"repro.{module} is in no layer of LAYERS"
    return max(owners)[1]


def import_graph():
    """``{(importer, imported)}`` over ``src/repro``, names relative to
    ``repro``: every ``import``/``from ... import`` statement, at module
    level or inside a function, except ``from repro import _facade``
    (the helper every package ``__init__`` builds its exports with)."""
    package = ROOT / "src" / "repro"
    modules = {}
    for path in package.rglob("*.py"):
        parts = path.relative_to(package).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    edges = set()
    for name, path in modules.items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert not node.level, f"relative import in repro.{name}"
                targets = [
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if (node.module, alias.name) != ("repro", "_facade")
                ]
            else:
                continue
            for target in targets:
                if target != "repro" and not target.startswith("repro."):
                    continue
                target = target[len("repro."):] if target != "repro" else ""
                # ``from repro.engine import faults`` names a module;
                # ``from repro.engine.plan import PlanCache`` a name in one.
                if target not in modules:
                    target = target.rpartition(".")[0]
                edges.add((name, target))
    return edges


def test_imports_follow_layers():
    """No module imports from a layer above its own (``LAYERS``), apart
    from the edges ``LAYER_EXCEPTIONS`` names and which the code still
    has."""
    climbing = {
        (importer, imported)
        for importer, imported in import_graph()
        if _layer(imported) > _layer(importer)
    }
    assert sorted(climbing - LAYER_EXCEPTIONS) == []
    assert sorted(LAYER_EXCEPTIONS - climbing) == []
