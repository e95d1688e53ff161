"""``EngineConfig``: the one declaration, parser and checker of the knobs.

One table per field (good values, bad values, environment spellings),
the resolution order (explicit > environment > default), and three
defects probed on an earlier commit as regression cases.  The per-module
``resolve_*`` tests this file replaced map onto rows of ``GOOD``/``BAD``/
``ENV_GOOD``/``ENV_BAD`` and ``test_precedence`` (see docs/engine.md,
"Configuration").
"""

import dataclasses
import math
import pickle
import re
from pathlib import Path

import pytest

from repro.cli import _ENGINE_FLAGS, build_parser
from repro.datalog.parser import parse_program
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.incremental import IncrementalSession
from repro.engine.naive import naive_eval
from repro.engine.provenance import provenance_eval
from repro.engine.query import QueryCompiler
from repro.engine.seminaive import seminaive_eval
from repro.session import DeductiveDatabase

ROOT = Path(__file__).resolve().parent.parent
FIELDS = {f.name: f for f in dataclasses.fields(EngineConfig)}
ENV = {name: f.metadata["env"] for name, f in FIELDS.items()}

TC = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for env in ENV.values():
        if env:
            monkeypatch.delenv(env, raising=False)


def edb():
    return Database.from_dict({"e": [(1, 2), (2, 3)]})


def test_exactly_the_six_knobs_and_their_defaults():
    assert dataclasses.asdict(EngineConfig()) == {
        "jobs": 1,
        "backend": "serial",
        "partitions": 1,
        "max_iterations": None,
        "max_facts": None,
        "max_seconds": None,
    }
    assert ENV == {
        "jobs": "REPRO_JOBS",
        "backend": "REPRO_BACKEND",
        "partitions": "REPRO_PARTITIONS",
        "max_iterations": None,
        "max_facts": None,
        "max_seconds": "REPRO_TIMEOUT",
    }
    assert EngineConfig.resolve() == EngineConfig()


# field, accepted spelling, resolved value
GOOD = [
    ("jobs", 1, 1),
    ("jobs", 3, 3),
    ("jobs", "4", 4),
    ("backend", "serial", "serial"),
    ("backend", "process", "process"),
    ("backend", "  Process ", "process"),
    ("partitions", 2, 2),
    ("partitions", " 3 ", 3),
    ("max_iterations", 1, 1),
    ("max_iterations", 500, 500),
    ("max_facts", 10, 10),
    ("max_seconds", 0.02, 0.02),
    ("max_seconds", 3, 3.0),
    ("max_seconds", "2.5", 2.5),
]

# field, rejected value, what the message says was expected
BAD = [
    ("jobs", 0, "a positive integer"),
    ("jobs", -2, "a positive integer"),
    ("jobs", 2.7, "a positive integer"),
    ("jobs", True, "a positive integer"),
    ("jobs", "many", "a positive integer"),
    ("backend", "bogus", "one of serial, process"),
    ("backend", "gpu", "one of serial, process"),
    ("backend", "thread", "one of serial, process"),
    ("partitions", 0, "a positive integer"),
    ("partitions", -1, "a positive integer"),
    ("partitions", -8, "a positive integer"),
    ("partitions", 2.5, "a positive integer"),
    ("partitions", False, "a positive integer"),
    ("max_iterations", 0, "a positive integer"),
    ("max_iterations", -1, "a positive integer"),
    ("max_iterations", "x", "a positive integer"),
    ("max_iterations", 1.5, "a positive integer"),
    ("max_facts", 0, "a positive integer"),
    ("max_facts", -5, "a positive integer"),
    ("max_seconds", 0, "a positive number of seconds"),
    ("max_seconds", "0", "a positive number of seconds"),
    ("max_seconds", -1, "a positive number of seconds"),
    ("max_seconds", "-1", "a positive number of seconds"),
    ("max_seconds", "abc", "a positive number of seconds"),
    ("max_seconds", "nan", "a positive number of seconds"),
    ("max_seconds", math.inf, "a positive number of seconds"),
    ("max_seconds", True, "a positive number of seconds"),
]


@pytest.mark.parametrize("name, value, resolved", GOOD)
def test_good_values(name, value, resolved):
    config = EngineConfig.resolve(**{name: value})
    assert getattr(config, name) == resolved
    assert type(getattr(config, name)) is type(resolved)
    # ... and the constructor and replace() agree with resolve()
    assert EngineConfig(**{name: value}) == config
    assert dataclasses.replace(EngineConfig(), **{name: value}) == config


@pytest.mark.parametrize("name, value, expected", BAD)
def test_bad_values_name_the_keyword(name, value, expected):
    message = re.escape(f"invalid {name}={value!r}; expected {expected}")
    with pytest.raises(ValueError, match=message):
        EngineConfig.resolve(**{name: value})
    with pytest.raises(ValueError, match=message):
        EngineConfig(**{name: value})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(EngineConfig(), **{name: value})


# field, environment text, resolved value
ENV_GOOD = [
    ("jobs", "3", 3),
    ("jobs", " 3 ", 3),
    ("backend", "process", "process"),
    ("backend", " Serial", "serial"),
    ("partitions", " 3 ", 3),
    ("max_seconds", "2.5", 2.5),
]

ENV_BAD = [
    ("jobs", "many"),
    ("jobs", "0"),
    ("backend", "bogus"),
    ("backend", "thread"),
    ("partitions", "many"),
    ("partitions", "junk"),
    ("max_seconds", "soon"),
]


@pytest.mark.parametrize("name, raw, resolved", ENV_GOOD)
def test_environment_spellings(monkeypatch, name, raw, resolved):
    monkeypatch.setenv(ENV[name], raw)
    assert getattr(EngineConfig.resolve(), name) == resolved
    # the constructor is pure: only resolve() reads the environment
    assert getattr(EngineConfig(), name) == FIELDS[name].default


@pytest.mark.parametrize("name, raw", ENV_BAD)
def test_bad_environment_names_the_variable(monkeypatch, name, raw):
    monkeypatch.setenv(ENV[name], raw)
    with pytest.raises(ValueError, match=f"invalid {ENV[name]}={raw!r}; expected"):
        EngineConfig.resolve()
    # an explicit argument never consults the variable
    explicit = FIELDS[name].default or 1.0
    assert getattr(EngineConfig.resolve(**{name: explicit}), name) == explicit


@pytest.mark.parametrize("name", [n for n, env in ENV.items() if env])
@pytest.mark.parametrize("blank", ["", "   "])
def test_empty_means_unset_for_every_variable(monkeypatch, name, blank):
    monkeypatch.setenv(ENV[name], blank)
    assert EngineConfig.resolve() == EngineConfig()


@pytest.mark.parametrize(
    "name, env_value, explicit",
    [
        ("jobs", "3", 2),
        ("backend", "process", "serial"),
        ("partitions", "8", 2),
        ("max_seconds", "2.5", 7.0),
    ],
)
def test_precedence(monkeypatch, name, env_value, explicit):
    default = FIELDS[name].default
    assert getattr(EngineConfig.resolve(), name) == default
    monkeypatch.setenv(ENV[name], env_value)
    from_env = getattr(EngineConfig.resolve(), name)
    assert from_env != default and from_env != explicit
    assert getattr(EngineConfig.resolve(**{name: explicit}), name) == explicit
    # None is "not passed"
    assert getattr(EngineConfig.resolve(**{name: None}), name) == from_env
    # a ready config already consulted the environment: it wins over it,
    # and explicit keywords win over the config
    ready = EngineConfig()
    assert EngineConfig.resolve(ready) is ready
    assert getattr(EngineConfig.resolve(ready, **{name: explicit}), name) == explicit


def test_unknown_keyword_is_a_type_error():
    with pytest.raises(TypeError, match="use_plans"):
        EngineConfig.resolve(use_plans=True)
    with pytest.raises(TypeError, match="threads"):
        seminaive_eval(TC, edb(), threads=2)
    with pytest.raises(TypeError):
        IncrementalSession(TC, edb(), threads=2)
    with pytest.raises(TypeError):
        QueryCompiler(TC, threads=2)
    with pytest.raises(TypeError):
        DeductiveDatabase(threads=2)


# every surface that takes engine knobs
KNOB_TAKERS = {
    "EngineConfig": lambda **k: EngineConfig(**k),
    "EngineConfig.resolve": lambda **k: EngineConfig.resolve(**k),
    "seminaive_eval": lambda **k: seminaive_eval(TC, edb(), **k),
    "naive_eval": lambda **k: naive_eval(TC, edb(), **k),
    "provenance_eval": lambda **k: provenance_eval(TC, edb(), **k),
    "IncrementalSession": lambda **k: IncrementalSession(TC, edb(), **k),
    "QueryCompiler": lambda **k: QueryCompiler(TC, **k),
    "DeductiveDatabase": lambda **k: DeductiveDatabase(**k),
}


@pytest.mark.parametrize("surface", sorted(KNOB_TAKERS))
def test_removed_retries_knob_is_unknown(surface):
    # the process backend no longer retries a broken pool, so there is
    # no retry count to pass
    with pytest.raises(TypeError, match="retries"):
        KNOB_TAKERS[surface](retries=1)


def test_removed_retries_variable_is_not_read(monkeypatch):
    monkeypatch.setenv("REPRO_RETRIES", "junk")
    assert EngineConfig.resolve() == EngineConfig()
    db, _ = seminaive_eval(TC, edb(), jobs=2, backend="process")
    assert len(db.relation("t", 2)) == 3


@pytest.mark.parametrize("surface", sorted(KNOB_TAKERS))
def test_removed_exec_knob_is_unknown(surface):
    # the batch kernel runs wherever a plan is eligible and the tuple
    # executor wherever it is not, so there is no mode to pick
    with pytest.raises(TypeError, match="exec"):
        KNOB_TAKERS[surface](exec="tuple")


def test_removed_exec_variable_is_not_read(monkeypatch):
    _, plain = seminaive_eval(TC, edb())
    monkeypatch.setenv("REPRO_EXEC", "tuple")
    assert EngineConfig.resolve() == EngineConfig()
    db, stats = seminaive_eval(TC, edb())
    assert db.dictionary is not None  # the kernel's term dictionary was minted
    assert len(db.relation("t", 2)) == 3
    assert (stats.facts, stats.inferences, stats.iterations, stats.probes) == (
        plain.facts, plain.inferences, plain.iterations, plain.probes,
    )


@pytest.mark.parametrize("surface", sorted(KNOB_TAKERS))
def test_removed_planner_knob_is_unknown(surface):
    # the greedy bound-first order is the only join order, so there is
    # no planner to pick
    with pytest.raises(TypeError, match="planner"):
        KNOB_TAKERS[surface](planner="cost")


def test_removed_planner_variable_is_not_read(monkeypatch):
    plain_db, plain = seminaive_eval(TC, edb())
    monkeypatch.setenv("REPRO_PLANNER", "cost")
    assert EngineConfig.resolve() == EngineConfig()
    db, stats = seminaive_eval(TC, edb())
    assert db == plain_db
    assert (
        stats.facts, stats.inferences, stats.iterations, stats.probes,
        stats.plans_compiled, stats.plan_cache_hits, stats.replans,
    ) == (
        plain.facts, plain.inferences, plain.iterations, plain.probes,
        plain.plans_compiled, plain.plan_cache_hits, 0,
    )


def _recover(tmp_path, **knobs):
    from repro.engine.journal import Journal, recover_session

    path = tmp_path / "wal.rjn"
    Journal(path).close()
    session, journal, _ = recover_session(TC, path, edb(), **knobs)
    journal.close()
    return session


# every surface that used to take the provenance-mode keyword
SESSION_MAKERS = {
    "IncrementalSession": lambda tmp_path, **k: IncrementalSession(TC, edb(), **k),
    "recover_session": _recover,
    "DeductiveDatabase.materialize": lambda tmp_path, **k: DeductiveDatabase().materialize(**k),
}


@pytest.mark.parametrize("surface", sorted(SESSION_MAKERS))
def test_removed_record_provenance_keyword_is_unknown(surface, tmp_path):
    # derivation trees are computed from the EDB on demand, so there is
    # no provenance mode to turn on
    with pytest.raises(TypeError, match="record_provenance"):
        SESSION_MAKERS[surface](tmp_path, record_provenance=True)
    SESSION_MAKERS[surface](tmp_path)  # ... and nothing else is refused


def test_frozen_hashable_and_picklable():
    config = EngineConfig(jobs=2, backend="process", max_seconds=1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jobs = 3
    assert pickle.loads(pickle.dumps(config)) == config
    assert hash(config) == hash(dataclasses.replace(config))


def test_str_is_the_stats_line():
    assert str(EngineConfig(jobs=2)) == (
        "jobs=2 backend=serial partitions=1 "
        "max_iterations=None max_facts=None max_seconds=None"
    )


def test_config_module_imports_nothing_of_the_engine():
    source = (ROOT / "src/repro/engine/config.py").read_text()
    imported = set(re.findall(r"^(?:import|from) (\w+)", source, re.M))
    assert imported <= {"__future__", "os", "math", "dataclasses", "typing"}


# -- three defects probed on an earlier commit ------------------------


@pytest.mark.parametrize(
    "knobs", [{"max_seconds": 0}, {"jobs": 0}, {"backend": "bogus"}]
)
def test_compilers_reject_a_bad_knob_when_constructed(knobs):
    with pytest.raises(ValueError, match="invalid"):
        QueryCompiler(TC, **knobs)
    with pytest.raises(ValueError, match="invalid"):
        DeductiveDatabase(**knobs)


@pytest.mark.parametrize(
    "knobs",
    [{"jobs": 2.7}, {"partitions": 2.5}, {"max_iterations": -1}, {"max_iterations": "x"}],
)
def test_evaluator_rejects_before_any_rule_runs(knobs):
    unsafe = parse_program("p(X) :- q(Y).")  # raises once a rule runs
    with pytest.raises(ValueError, match="invalid"):
        seminaive_eval(unsafe, Database.from_dict({"q": [(1,)]}), **knobs)
    with pytest.raises(ValueError, match="invalid"):
        IncrementalSession(TC, edb(), **knobs)


def test_valid_keyword_calls_behave_as_before():
    knobs = dict(jobs=2, backend="process", partitions=2, max_seconds=1.5)
    base_db, base = seminaive_eval(TC, edb())
    for run in (
        lambda: seminaive_eval(TC, edb(), **knobs),
        lambda: seminaive_eval(TC, edb(), config=EngineConfig(**knobs)),
        lambda: seminaive_eval(TC, edb(), EngineConfig(jobs=2), **knobs),
    ):
        db, stats = run()
        assert db == base_db
        assert (stats.facts, stats.inferences, stats.iterations) == (
            base.facts, base.inferences, base.iterations,
        )
    session = IncrementalSession(TC, edb(), **knobs)
    assert session.config == EngineConfig(**knobs)
    assert session.database == base_db
    assert session.query_compiler.config is session.config
    assert QueryCompiler(TC, **knobs).config == session.config
    dd = DeductiveDatabase(**knobs).rules("t(X, Y) :- e(X, Y).").fact("e", 1, 2)
    assert dd.ask("t(1, Y)") == {(2,)}
    materialized = dd.materialize(jobs=1)
    assert materialized.config == EngineConfig(**{**knobs, "jobs": 1})


# -- docs: the README table is the knob list ------------------------------


def test_readme_knob_table_matches_the_config():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Engine knobs", 1)[1].split("\n## ", 1)[0]
    rows = {}
    values = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        names = re.findall(r"`([^`]+)`", cells[0])
        keyword = [n[:-1] for n in names if n.endswith("=")]
        if len(keyword) == 1:  # a keyword row names a field, or is stale
            rows[keyword[0]] = (
                {n for n in names if n.startswith("REPRO_")},
                {n for n in names if n.startswith("--")},
            )
            values[keyword[0]] = cells[1]
    flags = {name: {flag} for flag, name, *_ in _ENGINE_FLAGS}
    assert rows == {
        name: ({ENV[name]} if ENV[name] else set(), flags.get(name, set()))
        for name in FIELDS
    }
    # ... every choice knob's values column lists exactly its choices,
    # with the field default (and only it) marked "(default)"
    for name, knob in FIELDS.items():
        expected = knob.metadata["expected"]
        if not expected.startswith("one of "):
            continue
        listed = re.findall(r"`([^`]+)`", values[name])
        assert sorted(listed) == sorted(expected[len("one of "):].split(", ")), name
        assert re.findall(r"`([^`]+)` \(default\)", values[name]) == [knob.default], name
        assert values[name].count("(default)") == 1, name
    # ... and the CLI really has those flags, with those destinations
    parser = build_parser()
    serve = parser._subparsers._group_actions[0].choices["serve"]
    dests = {a.option_strings[0]: a.dest for a in serve._actions if a.option_strings}
    for flag, name, *_ in _ENGINE_FLAGS:
        assert dests[flag] == name
