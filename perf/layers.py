"""Which entry points are traced, and what the spans mean per layer.

``install`` rebinds the program's public entry points to span wrappers
(:mod:`trace`); ``layer_metrics`` turns one traced repetition's spans
into the per-layer numbers of BENCHMARK.json.  A layer is a module of
``src/repro``; its time is the *self* time of its spans, so the layers
of one repetition add up to the time covered by root spans and
``runtime.unattributed_share`` is what is left of the traced wall time.
"""

from __future__ import annotations

import importlib

# (module, class or None, attribute, span name)
TIMED = [
    # datalog: parse_program/parse_query as bound where requests enter
    ("repro.datalog.parser", None, "parse_program", "datalog.parse"),
    ("repro.datalog.parser", None, "parse_query", "datalog.parse"),
    ("repro.session", None, "parse_program", "datalog.parse"),
    ("repro.session", None, "parse_query", "datalog.parse"),
    ("repro.cli", None, "parse_program", "datalog.parse"),
    ("repro.cli", None, "parse_query", "datalog.parse"),
    ("repro.engine.server", None, "parse_query", "datalog.parse"),
    ("repro.engine.incremental", None, "parse_program", "datalog.parse"),
    ("repro.engine.incremental", None, "parse_query", "datalog.parse"),
    # the rewrite front end, as bound in the serving compiler and in
    # the optimize() pipeline
    ("repro.engine.query", None, "adorn", "analysis.adorn"),
    ("repro.core.pipeline", None, "adorn", "analysis.adorn"),
    ("repro.engine.query", None, "classify_program", "analysis.classify"),
    ("repro.core.pipeline", None, "classify_program", "analysis.classify"),
    ("repro.engine.query", None, "magic_sets", "transforms.magic"),
    ("repro.core.pipeline", None, "magic_sets", "transforms.magic"),
    ("repro.engine.query", None, "counting", "transforms.counting"),
    ("repro.engine.query", None, "refine_counting", "transforms.counting"),
    ("repro.engine.query", None, "check_factorability", "core.check_factorability"),
    ("repro.core.pipeline", None, "check_factorability", "core.check_factorability"),
    ("repro.engine.query", None, "factor_magic", "core.factor"),
    ("repro.core.pipeline", None, "factor_magic", "core.factor"),
    ("repro.engine.query", None, "simplify_factored", "core.simplify"),
    ("repro.core.pipeline", None, "simplify_factored", "core.simplify"),
    ("repro.engine.query", "CompiledQuery", "__init__", "engine.query.compile"),
    ("repro.engine.query", "QueryCompiler", "ask", "engine.query.ask"),
    ("repro.engine.plan", "RulePlan", "__init__", "engine.plan.compile"),
    ("repro.engine.scheduler", None, "execute_columnar", "engine.columnar.execute"),
    ("repro.engine.incremental", None, "execute_columnar", "engine.columnar.execute"),
    ("repro.engine.database", "Relation", "append_rows", "engine.database.append"),
    ("repro.engine.database", "Relation", "add_row", "engine.database.append"),
    ("repro.engine.database", "Relation", "col_index", "engine.database.index_build"),
    ("repro.engine.database", "Relation", "ensure_index", "engine.database.index_build"),
    ("repro.engine.database", "Relation", "remove_facts", "engine.database.remove"),
    ("repro.engine.database", "Database", "add_facts", "engine.database.load"),
    ("repro.engine.database", "Database", "pin", "engine.database.pin"),
    ("repro.engine.scheduler", "SCCScheduler", "run", "engine.scheduler.run"),
    ("repro.engine.scheduler", "ComponentRun", "execute", "engine.scheduler.run"),
    ("repro.engine.incremental", None, "seminaive_eval", "engine.incremental.materialize"),
    ("repro.engine.incremental", "IncrementalSession", "apply_batch", "engine.incremental.apply_batch"),
    ("repro.engine.journal", "Journal", "append_batch", "engine.journal.append"),
    ("os", None, "fsync", "engine.journal.fsync"),
    ("repro.engine.journal", None, "replay_journal", "engine.journal.replay"),
    ("repro.engine.server", None, "handle_line", "engine.server.handle_line"),
    ("repro.engine.server", "DatalogServer", "_pin", "engine.server.publish"),
]

# Entry points whose span wrapper cost more than 5 % of a workload
# (tens of thousands of sub-microsecond calls on ask_large and
# serve_rw): reduced to a call count.  Their time stays inside the
# caller's self time.
COUNTED = [
    ("repro.engine.plan", "PlanCache", "plan", "engine.plan.lookups"),
    ("repro.engine.database", "Relation", "ensure_columns", "engine.database.column_syncs"),
    ("repro.engine.database", "Relation", "col_set", "engine.database.column_syncs"),
]

# In the traced *server* a read lasts about half a millisecond and runs
# these per-round entry points dozens of times, so there they are
# counted too; the in-process workloads time them on the same code.
# ``execute_columnar`` as bound in ``incremental`` (the write path's
# maintenance joins) stays timed.
SERVER_COUNTED = {
    ("repro.engine.scheduler", None, "execute_columnar"),
    ("repro.engine.scheduler", "ComponentRun", "execute"),
    ("repro.engine.database", "Relation", "append_rows"),
    ("repro.engine.database", "Relation", "add_row"),
    ("repro.engine.database", "Relation", "col_index"),
    ("repro.engine.database", "Relation", "ensure_index"),
}

# span name -> per-layer metric holding its summed self time
SELF_TIME = {
    "datalog.parse": "datalog.parse_s",
    "analysis.adorn": "analysis.adorn_s",
    "analysis.classify": "analysis.classify_s",
    "transforms.magic": "transforms.magic_s",
    "transforms.counting": "transforms.counting_s",
    "core.check_factorability": "core.check_factorability_s",
    "core.factor": "core.factor_s",
    "core.simplify": "core.simplify_s",
    "engine.query.compile": "engine.query.compile_s",
    "engine.query.ask": "engine.query.ask_s",
    "engine.plan.compile": "engine.plan.compile_s",
    "engine.columnar.execute": "engine.columnar.execute_s",
    "engine.database.load": "engine.database.load_s",
    "engine.database.append": "engine.database.append_s",
    "engine.database.index_build": "engine.database.index_build_s",
    "engine.database.remove": "engine.database.remove_s",
    "engine.database.pin": "engine.database.pin_s",
    "engine.scheduler.run": "engine.scheduler.self_s",
    "engine.incremental.materialize": "engine.incremental.materialize_s",
    "engine.incremental.apply_batch": "engine.incremental.apply_batch_s",
    "engine.journal.append": "engine.journal.append_s",
    "engine.journal.fsync": "engine.journal.fsync_s",
    "engine.journal.replay": "engine.journal.replay_s",
    "engine.server.handle_line": "engine.server.handle_line_s",
    "engine.server.publish": "engine.server.publish_s",
}


# work done as a count, read off the wrapped call's result
TALLY = {"transforms.magic": lambda result: len(result.program.rules)}


def install(recorder, counted=frozenset()):
    """Wrap every traced entry point; returns the created dictionaries.

    Entries of ``TIMED`` named in ``counted`` get the count-only wrapper.

    ``TermDictionary.__init__`` is wrapped separately so that the
    repetition can count the terms it interned and time interning them
    again (``engine.intern.*``) without a wrapper on the per-term path.
    """
    for module_name, class_name, attr, name in TIMED:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        if (module_name, class_name, attr) in counted:
            recorder.count(owner, attr, name)
        else:
            recorder.wrap(owner, attr, name, TALLY.get(name))
    for module_name, class_name, attr, name in COUNTED:
        recorder.count(getattr(importlib.import_module(module_name), class_name), attr, name)

    from repro.engine.intern import TermDictionary

    dictionaries = []

    def make(original):
        def remember(self):
            original(self)
            dictionaries.append(self)
        return remember

    recorder.rebind(TermDictionary, "__init__", make)
    return dictionaries


def intern_again(dictionaries):
    """(terms, seconds): intern every term the repetition interned into
    fresh dictionaries — the cost of hashing and numbering them once."""
    from time import perf_counter

    from repro.engine.intern import TermDictionary

    terms = 0
    begin = perf_counter()
    for dictionary in list(dictionaries):
        intern = TermDictionary().intern
        for term in dictionary.terms:
            intern(term)
        terms += len(dictionary.terms)
    return terms, perf_counter() - begin


def layer_metrics(rows):
    """(self seconds per layer metric, calls per span name, seconds
    covered by root spans)."""
    from trace import self_times

    by_name, covered = self_times(rows)
    metrics = {metric: 0.0 for metric in SELF_TIME.values()}
    calls = {}
    for name, (count, seconds) in by_name.items():
        calls[name] = count
        if name in SELF_TIME:
            metrics[SELF_TIME[name]] += seconds
    return metrics, calls, covered
