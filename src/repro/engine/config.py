"""The engine's execution knobs: declared, parsed and checked here only.

Every knob picks a *schedule* for the one evaluator the paper's cost
model is stated for — semi-naive bottom-up evaluation of the
SCC-stratified program — never a different fixpoint: for every valid
:class:`EngineConfig` the derived database and the counters that
:func:`repro.engine.stats.determinate` reads are identical; only the
mechanical counters and wall time vary.

The library's entry points (``seminaive_eval``, ``explain``,
``IncrementalSession``, ``QueryCompiler``, ``DeductiveDatabase``,
``recover_session``) call :meth:`EngineConfig.resolve` once and hand
the frozen object down; nothing below them resolves or re-validates.
The ``REPRO_*`` names in the knob table are the CLI's
(:func:`environment_knobs`): the library never reads the environment.
A place that needs a variant says so with :func:`dataclasses.replace`,
which re-validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Optional


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

    ``jobs``
        How many mutually independent SCCs (one topological depth
        batch) evaluate concurrently; 1 is the sequential reference
        schedule and never consults ``backend``.
    ``backend``
        Where parallel work runs: ``"serial"`` (in order, on the
        calling thread) or ``"process"`` (declarative component specs
        shipped to worker processes, which recompile plans locally).
    ``partitions``
        Hash-split each delta round *inside* a recursive component's
        semi-naive fixpoint into this many disjoint partitions
        (:mod:`repro.engine.partition`); 1 is the unpartitioned path.
        ``probes`` may differ across values; naive mode has no delta
        stream to split and ignores it.
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
    :func:`dataclasses.replace`-ing) a config validates every field.
    """

    jobs: int = _knob(1, "REPRO_JOBS", _INTEGER)
    backend: str = _knob("serial", "REPRO_BACKEND", _choice("serial", "process"))
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
        """Explicit argument, else ``config``, else the field default.

        A knob passed as ``None`` counts as not passed.  Unknown
        keywords raise ``TypeError``, bad values ``ValueError``
        (``invalid backend='x'; expected …``).
        """
        unknown = sorted(set(knobs) - set(cls.__dataclass_fields__))
        if unknown:
            raise TypeError(f"unknown engine knob(s): {', '.join(unknown)}")
        given = {name: v for name, v in knobs.items() if v is not None}
        if config is None:
            return cls(**given)
        return replace(config, **given) if given else config

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


def environment_knobs(environ: Mapping[str, str], skip=()) -> dict:
    """The knobs the ``REPRO_*`` variables of ``environ`` set, but not
    those in ``skip`` (the CLI's flags win): stripped, empty meaning
    unset, a bad one a ``ValueError`` naming the variable."""
    knobs = {}
    for knob in fields(EngineConfig):
        env = knob.metadata["env"]
        if env is not None and knob.name not in skip:
            raw = environ.get(env, "").strip()
            if raw:
                knobs[knob.name] = check_knob(knob.name, raw, env)
    return knobs
