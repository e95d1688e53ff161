"""Seeded inputs for the four benchmark workloads.

Everything here is plain data — program text, Python fact tuples and
query strings — so the program under test receives only generated
inputs and the oracles in :mod:`oracle` can check it without the
engine.  ``rewrite_many`` is the one exception on the *generation*
side: its programs come from the repository's own seeded program
generators and example catalogue, rendered to text before the timed
section starts.

Sizes are constants, not flags.  ``FULL`` was calibrated once so that
one repetition's timed section takes about 3 s on the 2-core reference
box (see README.md, "Sizing"); ``QUICK`` is the smoke-test size.
"""

from __future__ import annotations

import random

from oracle import reachable, successors

TC_TEXT = """t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W), t(W, Y).
"""

TC3_TEXT = """t(X, Y) :- t(X, W), t(W, Y).
t(X, Y) :- e(X, W), t(W, Y).
t(X, Y) :- t(X, W), e(W, Y).
t(X, Y) :- e(X, Y).
"""

SG_TEXT = """sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
sg(X, Y) :- flat(X, Y).
"""

PMEM_TEXT = """pmem(X, [X | T]) :- p(X).
pmem(X, [H | T]) :- pmem(X, T).
"""

FULL = {
    "materialize": {
        "chain": 1100, "grid": 34, "random": 520, "tree": 10,
        "coarse_width": 4, "coarse_length": 96, "reads": 20,
    },
    "ask_large": {
        "random": 14000, "random_warm": 5, "chain": 9000, "pmem": 500,
        "tree": 12,
    },
    "rewrite_many": {"programs": 240},
    "serve_rw": {
        "n": 240, "width": 8, "load_seconds": 4.5, "write_rate": 10,
        "checks": 50, "recoveries": 3,
    },
    # the "bypassed layers" baseline and the paper anchor (traced only)
    "variants_chain": 400,
    "anchor_chain": 200,
}

QUICK = {
    "materialize": {
        "chain": 60, "grid": 8, "random": 40, "tree": 5,
        "coarse_width": 2, "coarse_length": 12, "reads": 4,
    },
    "ask_large": {
        "random": 300, "random_warm": 2, "chain": 200, "pmem": 30,
        "tree": 6,
    },
    "rewrite_many": {"programs": 12},
    "serve_rw": {
        "n": 60, "width": 3, "load_seconds": 0.5, "write_rate": 10,
        "checks": 10, "recoveries": 1,
    },
    "variants_chain": 40,
    "anchor_chain": 30,
}

SIZES = {"full": FULL, "quick": QUICK}


# ----------------------------------------------------------------------
# graph shapes
# ----------------------------------------------------------------------

def chain_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def grid_edges(side):
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return edges


def random_edges(rng, n, m):
    seen = set()
    while len(seen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            seen.add((u, v))
    return sorted(seen)


def tree_facts(depth):
    """Binary tree numbered breadth-first, sibling ``flat`` links."""
    up, down, flat = [], [], []
    next_id, frontier = 1, [0]
    for _ in range(depth):
        new_frontier = []
        for parent in frontier:
            left, right = next_id, next_id + 1
            next_id += 2
            for child in (left, right):
                up.append((child, parent))
                down.append((parent, child))
            flat.append((left, right))
            new_frontier += [left, right]
        frontier = new_frontier
    return {"up": up, "down": down, "flat": flat}


def churn_block_edges(n, width):
    """``width`` disjoint chains with a skip edge every third vertex."""
    length = max(2, n // width)
    edges = []
    for b in range(width):
        base = b * length
        edges += [(base + i, base + i + 1) for i in range(length - 1)]
        edges += [(base + i, base + i + 2) for i in range(0, length - 2, 3)]
    return edges


# ----------------------------------------------------------------------
# materialize
# ----------------------------------------------------------------------

def materialize(seed, size):
    """Five full-fixpoint cases; the last one is also read.

    Reading a materialized relation decodes it into term tuples, which
    on the million-fact closures costs several times the fixpoint this
    workload is about.  So only ``coarse`` — four relations of a few
    thousand facts — answers selection queries (``Database.query``, the
    materialized read path the server's ``ReadView`` uses too); the big
    closures are decoded outside the timed section, to be checked.
    """
    s = SIZES[size]["materialize"]
    rng = random.Random(seed)
    n_random = s["random"]
    width, length = s["coarse_width"], s["coarse_length"]
    coarse_text = "".join(
        f"t{i}(X, Y) :- e{i}(X, Y).\nt{i}(X, Y) :- t{i}(X, W), t{i}(W, Y).\n"
        for i in range(width)
    )
    coarse_facts = {
        f"e{i}": [
            (i * (length + 1) + j, i * (length + 1) + j + 1)
            for j in range(length)
        ]
        for i in range(width)
    }
    coarse_reads = [
        (i % width, (i % width) * (length + 1) + rng.randrange(length))
        for i in range(s["reads"])
    ]
    return [
        {
            "name": "tc_chain", "text": TC_TEXT,
            "facts": {"e": chain_edges(s["chain"])}, "reads": [],
            "closed_form": s["chain"] * (s["chain"] - 1) // 2,
        },
        {
            "name": "tc_grid", "text": TC_TEXT,
            "facts": {"e": grid_edges(s["grid"])}, "reads": [],
        },
        {
            "name": "tc_random", "text": TC_TEXT,
            "facts": {"e": random_edges(rng, n_random, 3 * n_random)},
            "reads": [],
        },
        {
            "name": "sg_tree", "text": SG_TEXT,
            "facts": tree_facts(s["tree"]), "reads": [],
        },
        {
            "name": "coarse", "text": coarse_text, "facts": coarse_facts,
            "reads": [(f"t{i}({a}, Y)", f"e{i}", a) for i, a in coarse_reads],
            "closed_form": width * length * (length + 1) // 2,
        },
    ]


# ----------------------------------------------------------------------
# ask_large
# ----------------------------------------------------------------------

def ask_large(seed, size):
    """Goal-directed cases: (name, text, facts, [query strings]).

    The first query of each form is the cold one; constants are fresh
    per query so nothing but the compiled form can be reused.
    """
    s = SIZES[size]["ask_large"]
    rng = random.Random(seed)
    n = s["random"]
    random_graph = random_edges(rng, n, 3 * n)
    # a twentieth of the vertices reach next to nothing; asking from
    # those would make this case's cost a coin toss per seed
    adjacency = successors(random_graph)
    random_sources = []
    while len(random_sources) < 1 + s["random_warm"]:
        a = rng.randrange(n)
        if a not in random_sources and len(reachable(adjacency, a)) > n // 2:
            random_sources.append(a)
    chain_sources = rng.sample(range(s["chain"] // 10), 2)
    m = s["pmem"]
    pmem_list = "[" + ", ".join(str(i) for i in range(m)) + "]"
    # p holds for every element except a seeded tenth
    holds = sorted(set(range(m)) - set(rng.sample(range(m), m // 10)))
    leaves = 2 ** s["tree"] - 1
    sg_nodes = rng.sample(range(leaves, 2 * leaves + 1), 4)
    return [
        {
            "name": "tc3_random", "kind": "tc", "text": TC3_TEXT,
            "facts": {"e": random_graph},
            "queries": [f"t({a}, Y)" for a in random_sources],
        },
        {
            "name": "tc3_chain", "kind": "tc", "text": TC3_TEXT,
            "facts": {"e": chain_edges(s["chain"])},
            "queries": [f"t({a}, Y)" for a in chain_sources],
        },
        {
            "name": "pmem", "kind": "pmem", "text": PMEM_TEXT,
            "facts": {"p": [(x,) for x in holds]},
            "queries": [f"pmem(X, {pmem_list})"] * 2,
            "list": list(range(m)),
        },
        {
            "name": "ask_sg_tree", "kind": "sg", "text": SG_TEXT,
            "facts": tree_facts(s["tree"]),
            "queries": [
                f"sg({sg_nodes[0]}, Y)", f"sg(X, {sg_nodes[1]})",
                f"sg({sg_nodes[2]}, Y)", f"sg(X, {sg_nodes[3]})",
            ],
        },
    ]


# ----------------------------------------------------------------------
# rewrite_many
# ----------------------------------------------------------------------

DOMAIN = 8  # constants per small EDB, as in the repository's fuzz corpus


def _plain_rule(rule):
    """An engine Rule as plain data for the oracle: variables are
    ``("?", name)`` pairs, constants their Python values."""
    from repro.datalog.terms import Constant, Variable

    def term(t):
        if isinstance(t, Variable):
            return ("?", t.name)
        if isinstance(t, Constant):
            return t.value
        raise ValueError(f"function term {t} has no plain form")

    def lit(literal):
        return (literal.predicate, tuple(term(a) for a in literal.args))

    return (lit(rule.head), [lit(b) for b in rule.body])


def _small_edb(rng, program):
    """At most 100 random facts over the program's EDB predicates."""
    sigs = sorted(program.edb_signatures)
    per_relation = min(16, 100 // max(1, len(sigs)))
    return {
        name: sorted(
            {
                tuple(rng.randrange(DOMAIN) for _ in range(arity))
                for _ in range(per_relation)
            }
        )
        for name, arity in sigs
    }


def _two_patterns(rng, predicate, arity, last_bound=True):
    """Cold on two binding patterns, warm on the first again.

    The patterns are first-argument-bound and last-argument-bound.
    Programs without a class guarantee (``random_program``) take
    first-bound and both-bound instead: with only the last argument
    bound, a side filter on that argument (``r(Y)``) gets some of them
    certified by Theorem 4.1 and answered wrongly — about one ask in ten
    thousand, found by this benchmark's oracle and recorded in
    README.md.  Workloads contain no operation known to fail.
    """
    def goal(bound):
        args = [f"V{i}" for i in range(arity)]
        for position, value in bound.items():
            args[position] = str(value)
        return f"{predicate}({', '.join(args)})"

    a, b, c = rng.sample(range(DOMAIN), 3)
    second = {arity - 1: b} if last_bound else {0: a, arity - 1: b}
    return [goal({0: a}), goal(second), goal({0: c})]


def rewrite_many(seed, size):
    """Many small programs: the front end and the query cache do the work."""
    from repro.workloads import examples, lists, synthetic

    count = SIZES[size]["rewrite_many"]["programs"]
    rng = random.Random(seed)
    named = [
        ("three_rule_tc", examples.three_rule_tc_program(), "t", 2),
        ("example_43", examples.example_43_program(), "p", 2),
        ("example_44", examples.example_44_program(), "p", 2),
        ("example_45", examples.example_45_program(), "p", 2),
        ("example_51", examples.example_51_program(), "p", 3),
        ("example_52", examples.example_52_program(), "p", 3),
        ("example_71", examples.example_71_program(), "t", 3),
        ("same_generation", examples.same_generation_program(), "sg", 2),
    ]
    cases = []
    for name, program, predicate, arity in named[: max(2, count // 4)]:
        cases.append(
            {
                "name": name, "text": str(program) + "\n",
                "rules": [_plain_rule(r) for r in program.rules],
                "facts": _small_edb(rng, program),
                "queries": _two_patterns(rng, predicate, arity),
            }
        )
    # Example 1.2 has function symbols: its oracle is list membership.
    elements = rng.sample(range(3 * DOMAIN), DOMAIN)
    as_list = "[" + ", ".join(map(str, elements)) + "]"
    shuffled = "[" + ", ".join(map(str, reversed(elements))) + "]"
    cases.append(
        {
            "name": "pmem", "text": str(lists.pmem_program()) + "\n",
            "rules": None, "list": elements,
            "facts": {"p": [(x,) for x in sorted(elements[::2])]},
            "queries": [
                f"pmem(X, {as_list})",
                f"pmem({elements[0]}, {as_list})",
                f"pmem(X, {shuffled})",
            ],
        }
    )
    index = 0
    while len(cases) < count:
        program_seed = seed * 100003 + index
        make = (
            synthetic.random_rlc_program if index % 2 == 0
            else synthetic.random_program
        )
        program = make(program_seed, rules=3 + index % 3)
        cases.append(
            {
                "name": f"random_{index}", "text": str(program) + "\n",
                "rules": [_plain_rule(r) for r in program.rules],
                "facts": _small_edb(rng, program),
                "queries": _two_patterns(rng, "p", 2, last_bound=index % 2 == 0),
            }
        )
        index += 1
    return cases


# ----------------------------------------------------------------------
# serve_rw
# ----------------------------------------------------------------------

def serve_rw(seed, size):
    """Server inputs plus the write script and read mix, all seeded.

    Each write is one ``+``/``-`` line of three facts.  Every three
    writes are two inserts and one delete in a seeded order, and the
    blocks take turns, so that every seed's script costs about the same
    (a delete re-derives, and costs three to five inserts).  Deletes pick
    live edges (the script tracks its own mutations), inserts pick
    vertex pairs inside one block, so closure changes stay local.
    ``live`` is the generator's own edge set after the last write — the
    end-state oracle reads it, never the server.
    """
    s = SIZES[size]["serve_rw"]
    rng = random.Random(seed)
    n, width = s["n"], s["width"]
    length = max(2, n // width)
    base_edges = churn_block_edges(n, width)
    live = set(base_edges)
    writes = []
    blocks = list(range(width))
    rng.shuffle(blocks)
    signs = []
    while len(signs) < int(s["load_seconds"] * s["write_rate"]):
        signs += rng.sample(["+", "+", "-"], 3)
    for k, sign in enumerate(signs[: int(s["load_seconds"] * s["write_rate"])]):
        block = blocks[k % width] * length
        inside = range(block, block + length)
        if sign == "-":
            candidates = sorted(e for e in live if e[0] in inside)
            edges = rng.sample(candidates, 3)
            live.difference_update(edges)
        else:
            edges = set()
            while len(edges) < 3:
                u, v = rng.choice(inside), rng.choice(inside)
                if u != v and (u, v) not in live:
                    edges.add((u, v))
            edges = sorted(edges)
            live.update(edges)
        writes.append(
            (sign, edges, sign + " " + " ".join(f"e({u}, {v})." for u, v in edges))
        )
    vertices = width * length

    def read_query(r):
        a, b = r.randrange(vertices), r.randrange(vertices)
        roll = r.random()
        if roll < 0.7:
            return f"? t({a}, Y)"
        if roll < 0.9:
            return f"? t(X, {b})"
        return f"? t({a}, {b})"

    read_rng = random.Random(seed + 1)
    reads = [read_query(read_rng) for _ in range(4096)]  # cycled by the reader
    check_rng = random.Random(seed + 2)
    checks = [read_query(check_rng) for _ in range(s["checks"])]
    return {
        "text": TC_TEXT,
        "facts_text": "".join(f"e({u}, {v}).\n" for u, v in base_edges),
        "base_edges": base_edges,
        "writes": writes,
        "reads": reads,
        "checks": checks,
        "live": sorted(live),
        "write_rate": s["write_rate"],
        "load_seconds": s["load_seconds"],
        "recoveries": s["recoveries"],
    }


GENERATORS = {
    "materialize": materialize,
    "ask_large": ask_large,
    "rewrite_many": rewrite_many,
    "serve_rw": serve_rw,
}
