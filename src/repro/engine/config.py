"""The engine's execution knobs: declared, parsed and checked here only.

Every knob picks a *schedule* for the one evaluator the paper's cost
model is stated for — semi-naive bottom-up evaluation of the
SCC-stratified program — never a different fixpoint: for every valid
:class:`EngineConfig` the derived database and the
``facts``/``inferences``/``iterations`` counters are identical; only
join order, probe counts and wall time vary.

The public entry points (``seminaive_eval``, ``naive_eval``,
``provenance_eval``, ``IncrementalSession``, ``QueryCompiler``,
``DeductiveDatabase``, ``recover_session``, the CLI) accept the knobs
as keywords or a ready ``config=``, call :meth:`EngineConfig.resolve`
once, and hand the frozen object down; nothing below them reads the
environment or re-validates.  A place that needs a variant says so with
:func:`dataclasses.replace`, which re-validates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional


def _choice(*names):
    def parse(value):
        if isinstance(value, str):
            value = value.strip().lower()
        if value not in names:
            raise ValueError(value)
        return value

    return parse, "one of " + ", ".join(names)


def _positive(value):
    if isinstance(value, str):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(value)
    return value


_INTEGER = (_positive, "a positive integer")


def _seconds(value):
    if isinstance(value, bool):
        raise ValueError(value)
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(value)
    return value


def _knob(default, env: Optional[str], check):
    """One row of the knob table: default, ``REPRO_*`` name, (parser, expected)."""
    parse, expected = check
    return field(
        default=default,
        metadata={"env": env, "parse": parse, "expected": expected},
    )


@dataclass(frozen=True)
class EngineConfig:
    """One resolved set of execution knobs (the field list is the table).

    ``planner``
        Join order of compiled plans: ``"greedy"`` (the deterministic
        syntactic bound-first heuristic) or ``"cost"`` (ordering from
        runtime statistics, re-planned between delta rounds when
        cardinalities drift).
    ``jobs``
        How many mutually independent SCCs (one topological depth
        batch) evaluate concurrently; 1 is the sequential reference
        schedule and never consults ``backend``.
    ``backend``
        Where parallel work runs: ``"serial"`` (in order, on the
        calling thread) or ``"process"`` (declarative component specs
        shipped to worker processes, which recompile plans locally).
        Partition executors follow the same name.
    ``exec``
        How a compiled plan executes: ``"columnar"`` (batch-at-a-time
        over interned id columns) or ``"tuple"`` (tuple-at-a-time, the
        counter-level oracle).  Provenance runs and naive fixpoints are
        tuple-at-a-time whatever this says.
    ``partitions``
        Hash-split each delta round *inside* a recursive component's
        semi-naive fixpoint into this many disjoint partitions
        (:mod:`repro.engine.partition`); 1 is the unpartitioned path.
        ``probes`` may differ across values; naive mode and provenance
        runs have no delta stream to split and ignore it.
    ``max_iterations``
        Cap on the fixpoint rounds of any *single* component; past it
        :class:`~repro.engine.stats.NonTerminationError` is raised.
    ``max_facts``
        Cap on the facts one whole evaluation derives (re-checked at
        parallel batch barriers); same error.
    ``max_seconds``
        Per-component wall-clock watchdog checked at round boundaries:
        :class:`~repro.engine.stats.ComponentTimeout`, and a
        maintenance batch rolls back.

    ``None`` leaves a budget unlimited.  Constructing (or
    :func:`dataclasses.replace`-ing) a config validates every field and
    never reads the environment; :meth:`resolve` does.
    """

    planner: str = _knob("greedy", "REPRO_PLANNER", _choice("greedy", "cost"))
    jobs: int = _knob(1, "REPRO_JOBS", _INTEGER)
    backend: str = _knob("serial", "REPRO_BACKEND", _choice("serial", "process"))
    exec: str = _knob("columnar", "REPRO_EXEC", _choice("columnar", "tuple"))
    partitions: int = _knob(1, "REPRO_PARTITIONS", _INTEGER)
    max_iterations: Optional[int] = _knob(None, None, _INTEGER)
    max_facts: Optional[int] = _knob(None, None, _INTEGER)
    max_seconds: Optional[float] = _knob(
        None, "REPRO_TIMEOUT", (_seconds, "a positive number of seconds")
    )

    def __post_init__(self):
        for knob in fields(self):
            value = getattr(self, knob.name)
            if value is not None or knob.default is not None:
                object.__setattr__(self, knob.name, check_knob(knob.name, value))

    @classmethod
    def resolve(cls, config: Optional["EngineConfig"] = None, **knobs) -> "EngineConfig":
        """Explicit argument, else ``config``/environment, else default.

        A knob passed as ``None`` counts as not passed.  Without
        ``config`` the ``REPRO_*`` variables fill what is left
        (stripped; empty means unset); with one, it already did.
        Unknown keywords raise ``TypeError``, bad values ``ValueError``
        naming their source (``invalid REPRO_EXEC='x'; expected …`` vs
        ``invalid exec='x'; …``).
        """
        unknown = sorted(set(knobs) - set(cls.__dataclass_fields__))
        if unknown:
            raise TypeError(f"unknown engine knob(s): {', '.join(unknown)}")
        given = {name: v for name, v in knobs.items() if v is not None}
        if config is not None:
            return replace(config, **given) if given else config
        for knob in fields(cls):
            env = knob.metadata["env"]
            if env is not None and knob.name not in given:
                raw = os.environ.get(env, "").strip()
                if raw:
                    given[knob.name] = check_knob(knob.name, raw, env)
        return cls(**given)

    def __str__(self) -> str:
        return " ".join(f"{k.name}={getattr(self, k.name)}" for k in fields(self))


def check_knob(name: str, value, source: Optional[str] = None):
    """``value`` as knob ``name`` stores it, or the one ``ValueError``
    (``source`` is what the message calls it: the keyword by default)."""
    row = EngineConfig.__dataclass_fields__[name].metadata
    try:
        return row["parse"](value)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid {source or name}={value!r}; expected {row['expected']}"
        ) from None
