"""Answer checks that never call the engine.

Every expectation here is computed by plain Python over the generated
inputs of :mod:`workloads`: breadth-first reachability for the
transitive-closure cases and the server's end-state queries, a
memoised walk for same-generation, list membership for ``pmem``, closed
forms for chain counts, and — for the arbitrary small programs of
``rewrite_many`` — a naive bottom-up evaluation of the *unrewritten*
rules followed by a filter.

Large answer sets are compared by ``(count, digest)``; the digest is an
order-independent sum, so neither side has to sort a million tuples.
"""

from __future__ import annotations

import zlib
from collections import deque

_MASK = (1 << 61) - 1


def digest(rows):
    """Order-independent digest of an iterable of value tuples."""
    total = 0
    count = 0
    for row in rows:
        count += 1
        if len(row) == 2 and type(row[0]) is int and type(row[1]) is int:
            mixed = (row[0] * 1000003 + row[1] + 0x9E37) * 0x9E3779B97F4A7C15
        else:
            mixed = zlib.crc32(repr(row).encode()) * 0x9E3779B97F4A7C15
        total = (total + (mixed & _MASK)) & _MASK
    return [count, total]


def successors(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    return adj


def reachable(adj, source):
    """Vertices reachable from ``source`` by one or more edges."""
    seen = set()
    queue = deque(adj.get(source, ()))
    while queue:
        v = queue.popleft()
        if v not in seen:
            seen.add(v)
            queue.extend(adj.get(v, ()))
    return seen


def closure_rows(edges):
    """Every (source, target) pair of the transitive closure."""
    adj = successors(edges)
    for source in adj:
        for target in reachable(adj, source):
            yield (source, target)


# ----------------------------------------------------------------------
# same generation
# ----------------------------------------------------------------------

class SameGeneration:
    """sg(X, Y) :- flat(X, Y).  sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."""

    def __init__(self, facts):
        self.parents = successors(facts["up"])
        self.children = successors(facts["down"])
        self.flat = successors(facts["flat"])
        self.flat_back = successors((b, a) for a, b in facts["flat"])
        self.down_back = successors((c, p) for p, c in facts["down"])
        self.up_back = successors((p, c) for c, p in facts["up"])
        self._forward = {}
        self._backward = {}

    def forward(self, x):
        """{Y : sg(x, Y)}"""
        if x not in self._forward:
            out = set(self.flat.get(x, ()))
            for u in self.parents.get(x, ()):
                for v in self.forward(u):
                    out.update(self.children.get(v, ()))
            self._forward[x] = out
        return self._forward[x]

    def backward(self, y):
        """{X : sg(X, y)}"""
        if y not in self._backward:
            out = set(self.flat_back.get(y, ()))
            for v in self.down_back.get(y, ()):
                for u in self.backward(v):
                    out.update(self.up_back.get(u, ()))
            self._backward[y] = out
        return self._backward[y]

    def all_rows(self, nodes):
        for x in nodes:
            for y in self.forward(x):
                yield (x, y)


# ----------------------------------------------------------------------
# naive evaluation of small function-free programs
# ----------------------------------------------------------------------

def _is_var(term):
    return type(term) is tuple and len(term) == 2 and term[0] == "?"


_UNBOUND = object()


class _Relations:
    """Fact sets with one-column hash indexes, built on first use."""

    def __init__(self, facts):
        self.rows = {name: set(rows) for name, rows in facts.items()}
        self._indexes = {}

    def candidates(self, predicate, args, binding):
        """Rows that can match: by the first bound argument, if any."""
        for position, term in enumerate(args):
            value = binding.get(term[1], _UNBOUND) if _is_var(term) else term
            if value is not _UNBOUND:
                index = self._indexes.get((predicate, position))
                if index is None:
                    index = {}
                    for row in self.rows.get(predicate, ()):
                        if position < len(row):
                            index.setdefault(row[position], []).append(row)
                    self._indexes[predicate, position] = index
                return index.get(value, ())
        return self.rows.get(predicate, ())

    def add(self, predicate, derived):
        """Merge ``derived``; True when something was new."""
        target = self.rows.setdefault(predicate, set())
        if derived <= target:
            return False
        target |= derived
        for key in [k for k in self._indexes if k[0] == predicate]:
            del self._indexes[key]
        return True


def _join(body, relations, binding, at=0):
    if at == len(body):
        yield binding
        return
    predicate, args = body[at]
    for row in relations.candidates(predicate, args, binding):
        if len(row) != len(args):
            continue
        extended = binding
        for term, value in zip(args, row):
            if _is_var(term):
                bound = extended.get(term[1], _UNBOUND)
                if bound is _UNBOUND:
                    if extended is binding:
                        extended = dict(binding)
                    extended[term[1]] = value
                elif bound != value:
                    break
            elif term != value:
                break
        else:
            yield from _join(body, relations, extended, at + 1)


def naive_fixpoint(rules, facts):
    """Least model of plain ``(head, body)`` rules over ``facts``."""
    relations = _Relations(facts)
    changed = True
    while changed:
        changed = False
        for (head_predicate, head_args), body in rules:
            derived = {
                tuple(binding[t[1]] if _is_var(t) else t for t in head_args)
                for binding in _join(body, relations, {})
            }
            if relations.add(head_predicate, derived):
                changed = True
    return relations.rows


def select(rows, pattern):
    """Bindings of the ``None`` slots of ``pattern`` over matching rows."""
    free = [i for i, p in enumerate(pattern) if p is None]
    return {
        tuple(row[i] for i in free)
        for row in rows
        if len(row) == len(pattern)
        and all(p is None or p == v for p, v in zip(pattern, row))
    }


def parse_goal(query):
    """``"t(3, Y)"`` -> ``("t", (3, None))`` for integer-constant goals."""
    predicate, _, rest = query.partition("(")
    pattern = tuple(
        None if arg.strip()[:1].isupper() else int(arg)
        for arg in rest.rstrip(") ").split(",")
    )
    return predicate.strip(), pattern


# ----------------------------------------------------------------------
# per-workload expectations (JSON-ready)
# ----------------------------------------------------------------------

def expect_materialize(cases):
    expected = {}
    for case in cases:
        facts = case["facts"]
        if "up" in facts:
            sg = SameGeneration(facts)
            nodes = {c for c, _ in facts["up"]} | {0}
            full = {"sg": digest(sg.all_rows(sorted(nodes)))}
        else:
            full = {
                "t" + name[1:]: digest(closure_rows(edges))
                for name, edges in facts.items()
            }
        total = sum(count for count, _ in full.values())
        if case.get("closed_form") not in (None, total):
            raise AssertionError(
                f"oracle disagrees with the closed form on {case['name']}: "
                f"{total} != {case['closed_form']}"
            )
        expected[case["name"]] = {
            "relations": full,
            "reads": [
                digest((y,) for y in reachable(successors(facts[edges]), a))
                for _, edges, a in case["reads"]
            ],
        }
    return expected


def expect_ask_large(cases):
    expected = {}
    for case in cases:
        answers = []
        if case["kind"] == "tc":
            adj = successors(case["facts"]["e"])
            for query in case["queries"]:
                _, pattern = parse_goal(query)
                answers.append(reachable(adj, pattern[0]))
        elif case["kind"] == "pmem":
            holds = {x for (x,) in case["facts"]["p"]}
            member = {x for x in case["list"] if x in holds}
            answers = [member for _ in case["queries"]]
        else:
            sg = SameGeneration(case["facts"])
            for query in case["queries"]:
                _, pattern = parse_goal(query)
                answers.append(
                    sg.forward(pattern[0]) if pattern[1] is None
                    else sg.backward(pattern[1])
                )
        expected[case["name"]] = [
            digest((v,) for v in a) for a in answers
        ]
    return expected


def expect_rewrite_many(cases):
    expected = {}
    for case in cases:
        if case["rules"] is None:  # pmem: list membership
            holds = {x for (x,) in case["facts"]["p"]}
            answers = []
            for query in case["queries"]:
                head = query[len("pmem("):].split(",", 1)[0].strip()
                listed = [
                    int(x) for x in
                    query[query.index("[") + 1: query.index("]")].split(",")
                ]
                member = {x for x in listed if x in holds}
                if head[:1].isupper():
                    answers.append({(x,) for x in member})
                else:
                    answers.append({()} if int(head) in member else set())
        else:
            model = naive_fixpoint(case["rules"], case["facts"])
            answers = []
            for query in case["queries"]:
                predicate, pattern = parse_goal(query)
                answers.append(select(model.get(predicate, ()), pattern))
        expected[case["name"]] = [digest(a) for a in answers]
    return expected


def expect_serve_rw(inputs):
    """Replies to the end-state check queries over the live edge set."""
    adj = successors(inputs["live"])
    back = successors((v, u) for u, v in inputs["live"])
    expected = []
    for line in inputs["checks"]:
        _, pattern = parse_goal(line[1:].strip())
        a, b = pattern
        if a is not None and b is not None:
            expected.append(["true"] if b in reachable(adj, a) else [])
        elif b is None:
            expected.append(sorted(str(y) for y in reachable(adj, a)))
        else:
            expected.append(sorted(str(x) for x in reachable(back, b)))
    return {"checks": expected, "live": [list(e) for e in inputs["live"]]}


EXPECT = {
    "materialize": expect_materialize,
    "ask_large": expect_ask_large,
    "rewrite_many": expect_rewrite_many,
    "serve_rw": expect_serve_rw,
}
