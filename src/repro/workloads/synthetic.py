"""Random unit-program generation for fuzzing the factoring pipeline.

:func:`random_rlc_program` draws programs from a grammar whose every
production is RLC-stable *and* syntactically selection-pushing: rules
have empty ``left``/``right`` conjunctions (the conditions of
Definition 4.6 then hold trivially), so Theorem 4.1 promises the
factored Magic program is answer-equivalent on **every** database.
The fuzz tests exploit exactly that: generate a program, certify it,
and compare all pipeline stages against the naive-evaluation oracle on
random EDBs.

A second generator, :func:`random_program`, drops the class guarantees
(shifting occurrences, extra conjunctions) to exercise the *rejection*
paths of the classifier.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.engine.database import Database

_X, _Y = Variable("X"), Variable("Y")


def _edb_name(rng: random.Random, pool: int) -> str:
    return f"e{rng.randrange(pool)}"


def random_rlc_program(
    seed: int,
    rules: int = 3,
    edb_pool: int = 3,
    predicate: str = "p",
) -> Program:
    """A random RLC-stable, selection-pushing unit program.

    ``rules`` recursive rules drawn from {left-linear, right-linear,
    combined, nonlinear-combined} plus one exit rule.  All conjunctions
    that Definition 4.6 constrains are empty, so the program is
    certified syntactically.
    """
    rng = random.Random(seed)
    out: List[Rule] = []
    for _ in range(max(1, rules)):
        shape = rng.choice(("left", "right", "combined", "nonlinear"))
        w, u, v = Variable("W"), Variable("U"), Variable("V")
        p = predicate
        if shape == "left":
            # p(X, Y) :- p(X, W), e_i(W, Y).
            out.append(
                Rule(
                    Literal(p, (_X, _Y)),
                    (
                        Literal(p, (_X, w)),
                        Literal(_edb_name(rng, edb_pool), (w, _Y)),
                    ),
                )
            )
        elif shape == "right":
            # p(X, Y) :- e_i(X, V), p(V, Y).
            out.append(
                Rule(
                    Literal(p, (_X, _Y)),
                    (
                        Literal(_edb_name(rng, edb_pool), (_X, v)),
                        Literal(p, (v, _Y)),
                    ),
                )
            )
        elif shape == "combined":
            # p(X, Y) :- p(X, U), e_i(U, V), p(V, Y).
            out.append(
                Rule(
                    Literal(p, (_X, _Y)),
                    (
                        Literal(p, (_X, u)),
                        Literal(_edb_name(rng, edb_pool), (u, v)),
                        Literal(p, (v, _Y)),
                    ),
                )
            )
        else:
            # p(X, Y) :- p(X, U), p(U, Y).   (empty center)
            out.append(
                Rule(
                    Literal(p, (_X, _Y)),
                    (Literal(p, (_X, u)), Literal(p, (u, _Y))),
                )
            )
    # Exactly one exit rule (Definition 4.4).
    out.append(
        Rule(
            Literal(predicate, (_X, _Y)),
            (Literal(_edb_name(rng, edb_pool), (_X, _Y)),),
        )
    )
    return Program(out)


def random_program(
    seed: int,
    rules: int = 3,
    edb_pool: int = 3,
    predicate: str = "p",
) -> Program:
    """A random unit program with *no* class guarantees.

    Adds shifting occurrences and side conjunctions with some
    probability, producing a mix of factorable and non-factorable
    programs — the classifier-rejection fuzz corpus.
    """
    rng = random.Random(seed)
    base = random_rlc_program(seed, rules, edb_pool, predicate)
    out: List[Rule] = []
    for rule in base.rules:
        roll = rng.random()
        if roll < 0.25 and rule.body_literals(predicate):
            # same-generation-style shifting rule
            u, v = Variable("U"), Variable("V")
            out.append(
                Rule(
                    Literal(predicate, (_X, _Y)),
                    (
                        Literal(_edb_name(rng, edb_pool), (_X, u)),
                        Literal(predicate, (u, v)),
                        Literal(_edb_name(rng, edb_pool), (v, _Y)),
                    ),
                )
            )
        elif roll < 0.45:
            # add a filter on the free side (breaks free_exit ⊑ free)
            out.append(
                Rule(
                    rule.head,
                    (*rule.body, Literal(f"r{rng.randrange(edb_pool)}", (_Y,))),
                )
            )
        else:
            out.append(rule)
    return Program(out)


def wide_dag_program(width: int = 4) -> Program:
    """The parallel-scheduler separation workload: a wide, shallow DAG.

    ``width`` mutually independent transitive closures feed one
    collector::

        t0(X, Y) :- e0(X, Y).        t0(X, Y) :- e0(X, W), t0(W, Y).
        ...
        reach(X, Y) :- t0(X, Y).     ... reach(X, Y) :- t{w-1}(X, Y).

    Every ``t{i}`` is its own recursive SCC depending only on its own
    EDB relation, so all ``width`` components land in the *same*
    topological depth batch — the shape where ``jobs > 1`` can overlap
    component fixpoints — with ``reach`` one depth deeper.  Any job
    count derives the identical fixpoint with identical ``facts``/
    ``inferences`` counters.
    """
    from repro.datalog.parser import parse_program

    lines = []
    for i in range(max(1, width)):
        lines.append(f"t{i}(X, Y) :- e{i}(X, Y).")
        lines.append(f"t{i}(X, Y) :- e{i}(X, W), t{i}(W, Y).")
        lines.append(f"reach(X, Y) :- t{i}(X, Y).")
    return parse_program("\n".join(lines))


def wide_dag_edb(width: int = 4, length: int = 40) -> Database:
    """One disjoint chain per component for :func:`wide_dag_program`.

    ``e{i}`` is a ``length``-edge chain over its own node namespace, so
    each closure holds ``length * (length + 1) / 2`` tuples and the
    components share no data at all.
    """
    db = Database()
    for i in range(max(1, width)):
        base = i * (length + 1)
        db.add_facts(
            f"e{i}", ((base + j, base + j + 1) for j in range(length))
        )
    return db


def coarse_components_program(width: int = 4) -> Program:
    """The process-backend separation workload: few, *heavy* components.

    ``width`` mutually independent **nonlinear** transitive closures::

        t0(X, Y) :- e0(X, Y).        t0(X, Y) :- t0(X, W), t0(W, Y).
        ...
        t{w-1}(X, Y) :- e{w-1}(X, Y). ...

    all in one depth-0 batch, with nothing downstream of them (the
    wide-DAG workload's ``reach`` collector is a second, *serial*
    component roughly as large as all the closures combined, which
    caps any parallel speedup near 2x — Amdahl).  The nonlinear rule
    is the point: on a chain of ``n`` edges it performs ``Θ(n³)``
    inferences to derive ``Θ(n²)`` facts, so per-component *compute*
    dwarfs what the process backend serializes (the EDB snapshot out,
    the delta log back) — the coarse grain where shipping a component
    to another process pays for itself and real multi-core wall-time
    wins appear.  The linear closure, by contrast, does one inference
    per derived fact and the delta-log transfer swallows the win.
    """
    from repro.datalog.parser import parse_program

    lines = []
    for i in range(max(1, width)):
        lines.append(f"t{i}(X, Y) :- e{i}(X, Y).")
        lines.append(f"t{i}(X, Y) :- t{i}(X, W), t{i}(W, Y).")
    return parse_program("\n".join(lines))


def coarse_components_edb(width: int = 4, length: int = 50) -> Database:
    """Disjoint chains for :func:`coarse_components_program`.

    Same shape as :func:`wide_dag_edb` (one ``length``-edge chain per
    component over a private node namespace): ``length`` edges in,
    ``length * (length + 1) / 2`` closure facts out — and, through the
    nonlinear rule, ``Θ(length³)`` inferences — per component.
    """
    return wide_dag_edb(width, length)


def churn_program() -> Program:
    """The incremental-maintenance workload: linear transitive closure.

    ::

        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, W), t(W, Y).

    Single recursive SCC over one EDB relation — the shape where a
    point update touches a small cone of the closure but a recompute
    pays the whole Θ(n²) fixpoint again.
    """
    from repro.datalog.parser import parse_program

    return parse_program(
        """
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, W), t(W, Y).
        """
    )


def _churn_block_edges(n: int, width: int) -> List[Tuple[int, int]]:
    """The deterministic initial edge set behind :func:`churn_edb`."""
    length = max(2, n // max(1, width))
    edges: List[Tuple[int, int]] = []
    for b in range(max(1, width)):
        base = b * length
        edges.extend((base + i, base + i + 1) for i in range(length - 1))
        edges.extend((base + i, base + i + 2) for i in range(0, length - 2, 3))
    return edges


def churn_edb(n: int = 120, width: int = 6) -> Database:
    """A regionalized graph for :func:`churn_program`.

    ``width`` disjoint blocks of ``n // width`` vertices, each a chain
    with a skip edge every third vertex.  The blocks model the serving
    scenario incremental maintenance targets: the closure is large (it
    spans every block) but a point update only touches the cone inside
    one block, so maintenance work is a fraction ``~1/width`` of a
    recompute even for the worst-case delete.  The skips matter for
    deletion: a deleted chain edge usually leaves an alternate path, so
    DRed's re-derivation phase (not just the over-delete) is genuinely
    exercised.
    """
    db = Database()
    db.add_facts("e", _churn_block_edges(n, width))
    return db


def churn_script(
    seed: int, updates: int, n: int = 120, width: int = 6
) -> List[Tuple[str, str, Tuple[int, int]]]:
    """A deterministic update script against :func:`churn_edb`.

    Returns ``updates`` operations ``("+"|"-", "e", (a, b))``: deletes
    pick a live edge (tracking the mutations the script itself makes),
    inserts pick a random vertex pair within one block, roughly half
    and half.  The same arguments always yield the same script, so
    benchmark rows and fuzz failures are reproducible.
    """
    rng = random.Random(seed)
    length = max(2, n // max(1, width))
    live = set(_churn_block_edges(n, width))
    ops: List[Tuple[str, str, Tuple[int, int]]] = []
    for _ in range(max(0, updates)):
        if live and rng.random() < 0.5:
            edge = rng.choice(sorted(live))
            live.discard(edge)
            ops.append(("-", "e", edge))
        else:
            base = rng.randrange(max(1, width)) * length
            edge = (base + rng.randrange(length), base + rng.randrange(length))
            live.add(edge)
            ops.append(("+", "e", edge))
    return ops


def random_edb(
    seed: int,
    n: int = 8,
    edb_pool: int = 3,
    facts_per_relation: int = 16,
    unary_pool: int = 3,
) -> Database:
    """A random EDB covering the relation names the generators emit."""
    rng = random.Random(seed)
    db = Database()
    for i in range(edb_pool):
        db.add_facts(
            f"e{i}",
            {
                (rng.randrange(n), rng.randrange(n))
                for _ in range(facts_per_relation)
            },
        )
    for i in range(unary_pool):
        db.add_facts(f"r{i}", {(rng.randrange(n),) for _ in range(n)})
    return db
