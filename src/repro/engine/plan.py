"""Compiled rule plans: slot-based join execution for the bottom-up engine.

An interpreter (:func:`repro.engine.reference.join_rule`) recomputes
bound positions per candidate probe, copies a ``Dict[Variable, Term]``
per matched tuple, and unifies argument by argument through the
generic :func:`~repro.datalog.unify.match_term`.  This module compiles
each ``(rule, override-configuration)`` pair *once* into a flat
:class:`RulePlan`:

* variables map to integer **slots**, so a set of bindings is a
  fixed-size list indexed by position instead of a dict copied per
  candidate tuple;
* the body is reordered by a greedy **bound-first** heuristic (most
  bound argument positions wins; semi-naive delta literals break
  ties, so deltas — the smallest relations — drive the join);
* every body literal becomes a :class:`LiteralStep` whose bound/free
  positions are precomputed, with specialized fast paths: an
  **all-bound** literal is a single membership test, a **constant-only**
  probe key is built at compile time, and an **all-free** literal is a
  direct scan with no key construction at all;
* the head emitter is a flat tuple of slot indexes and constants.

Because boundness is static once the join order is fixed, the executor
never needs to undo slot writes on backtracking: a slot is only ever
read at steps where the compiler proved it was written earlier.

Plans are cached per evaluation run by :class:`PlanCache`; the
evaluators report cache behaviour through the ``plans_compiled`` /
``plan_cache_hits`` / ``probes`` counters on
:class:`~repro.engine.stats.EvalStats`.  :meth:`RulePlan.execute`, the
tuple-at-a-time executor, runs what the batch kernel
(:mod:`repro.engine.columnar`) does not: naive recursive components,
nullary or foreign-dictionary heads, compound terms.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.datalog.literals import Literal
from repro.datalog.rules import Rule, UnsafeRuleError
from repro.datalog.terms import Compound, Constant, Term, Variable
from repro.engine.database import Database, FactTuple

#: One override role: (body position, role tag such as "delta"/"old").
Role = Tuple[int, str]
RoleSpec = Tuple[Role, ...]

# Compiled pattern / template node tags.
P_CONST = 0    # ground term; match by equality / emit as-is
P_STORE = 1    # first occurrence of a variable: write the slot
P_CHECK = 2    # variable with a known slot: compare (or read, in templates)
P_COMPOUND = 3  # nested compound: recurse into arguments

# Probe-key builder tags.
K_CONST = 0
K_SLOT = 1
K_TEMPLATE = 2

# Post-fetch operation tags (non-key positions of a candidate tuple).
O_STORE = 0
O_CHECK = 1
O_MATCH = 2

# Head emitter tags.
H_CONST = 0
H_SLOT = 1
H_TEMPLATE = 2
H_UNBOUND = 3

_Pattern = tuple  # recursive (tag, ...) nodes; see the P_* constants


def _compile_pattern(term: Term, var_slots: Dict[Variable, int]) -> _Pattern:
    """A slot-aware matcher for a (possibly partial) compound pattern.

    Allocates slots for first-occurrence variables; repeated variables
    compile to equality checks against the already-written slot.
    """
    if term.is_ground():
        return (P_CONST, term)
    if type(term) is Variable:
        slot = var_slots.get(term)
        if slot is None:
            slot = len(var_slots)
            var_slots[term] = slot
            return (P_STORE, slot)
        return (P_CHECK, slot)
    return (
        P_COMPOUND,
        term.functor,
        tuple(_compile_pattern(arg, var_slots) for arg in term.args),
    )


def _compile_template(term: Term, var_slots: Dict[Variable, int]) -> _Pattern:
    """A builder for a term whose variables all have slots already."""
    if term.is_ground():
        return (P_CONST, term)
    if type(term) is Variable:
        return (P_CHECK, var_slots[term])
    return (
        P_COMPOUND,
        term.functor,
        tuple(_compile_template(arg, var_slots) for arg in term.args),
    )


def _match(node: _Pattern, value: Term, slots: List[Optional[Term]]) -> bool:
    """Match a compiled pattern against a ground term, writing slots."""
    tag = node[0]
    if tag == P_CONST:
        return node[1] == value
    if tag == P_STORE:
        slots[node[1]] = value
        return True
    if tag == P_CHECK:
        return slots[node[1]] == value
    # P_COMPOUND
    if (
        type(value) is not Compound
        or value.functor != node[1]
        or len(value.args) != len(node[2])
    ):
        return False
    for sub, arg in zip(node[2], value.args):
        if not _match(sub, arg, slots):
            return False
    return True


def _build(node: _Pattern, slots: List[Optional[Term]]) -> Term:
    """Instantiate a compiled template from the current slots."""
    tag = node[0]
    if tag == P_CONST:
        return node[1]
    if tag == P_CHECK:
        return slots[node[1]]
    return Compound(node[1], tuple(_build(sub, slots) for sub in node[2]))


class LiteralStep:
    """One body literal, compiled: where to probe and what to bind.

    ``key_positions``/``key_builders`` describe the hash-index probe
    key (constants, slot reads, and bound compound templates);
    ``post_ops`` are the per-candidate operations on the remaining
    positions (slot writes, repeated-variable checks, partial-compound
    matches).  ``all_bound`` marks the existence-check fast path and
    ``const_key`` the compile-time-constant probe key.
    """

    __slots__ = (
        "name",
        "arity",
        "sig",
        "role",
        "key_positions",
        "key_builders",
        "const_key",
        "all_bound",
        "post_ops",
        "single_slot_key",
        "single_store",
    )

    def __init__(
        self,
        name: str,
        arity: int,
        role: Optional[int],
        key_positions: Tuple[int, ...],
        key_builders: Optional[Tuple[Tuple[int, object], ...]],
        const_key: Optional[FactTuple],
        all_bound: bool,
        post_ops: Tuple[Tuple[int, int, object], ...],
    ):
        self.name = name
        self.arity = arity
        self.sig = (name, arity)  # the key of Database.relations
        self.role = role
        self.key_positions = key_positions
        self.key_builders = key_builders
        self.const_key = const_key
        self.all_bound = all_bound
        self.post_ops = post_ops
        # Fast-path specializations for the two overwhelmingly common
        # literal shapes: a probe keyed on one already-bound variable,
        # and a single free variable to bind per candidate.
        self.single_slot_key: Optional[int] = None
        if key_builders is not None and len(key_builders) == 1:
            tag, payload = key_builders[0]
            if tag == K_SLOT:
                self.single_slot_key = payload
        self.single_store: Optional[Tuple[int, int]] = None
        if len(post_ops) == 1 and post_ops[0][1] == O_STORE:
            self.single_store = (post_ops[0][0], post_ops[0][2])

    def __repr__(self) -> str:
        mode = (
            "exists" if self.all_bound
            else "scan" if not self.key_positions
            else f"probe{self.key_positions}"
        )
        return f"LiteralStep({self.name}/{self.arity}, {mode})"


def _compile_step(
    literal: Literal, role: Optional[int], var_slots: Dict[Variable, int]
) -> LiteralStep:
    """Compile one body literal given the variables bound before it.

    ``var_slots`` holds the slots written by earlier steps (and by the
    head, for an :class:`ExistencePlan`); first-occurrence variables of
    this literal are allocated slots in it.
    """
    prior = set(var_slots)  # variables bound by earlier steps
    key_positions: List[int] = []
    builders: List[Tuple[int, object]] = []
    post: List[Tuple[int, int, object]] = []
    for pos, arg in enumerate(literal.args):
        if arg.is_ground():
            key_positions.append(pos)
            builders.append((K_CONST, arg))
        elif type(arg) is Variable:
            if arg in prior:
                key_positions.append(pos)
                builders.append((K_SLOT, var_slots[arg]))
            elif arg in var_slots:
                # repeated variable within this literal
                post.append((pos, O_CHECK, var_slots[arg]))
            else:
                slot = len(var_slots)
                var_slots[arg] = slot
                post.append((pos, O_STORE, slot))
        else:  # compound containing variables
            if all(v in prior for v in arg.variables()):
                key_positions.append(pos)
                builders.append((K_TEMPLATE, _compile_template(arg, var_slots)))
            else:
                post.append((pos, O_MATCH, _compile_pattern(arg, var_slots)))
    const_key: Optional[FactTuple] = None
    if builders and all(tag == K_CONST for tag, _ in builders):
        const_key = tuple(payload for _, payload in builders)
    return LiteralStep(
        name=literal.predicate,
        arity=literal.arity,
        role=role,
        key_positions=tuple(key_positions),
        key_builders=tuple(builders) if builders else None,
        const_key=const_key,
        all_bound=literal.arity > 0 and len(key_positions) == literal.arity,
        post_ops=tuple(post),
    )


def _join_order(
    body: Sequence[Literal], roles: Mapping[int, str], bound: Sequence[Variable] = ()
) -> List[int]:
    """Greedy bound-first ordering of the body.

    Repeatedly picks the literal with the most bound argument
    positions; ties prefer the semi-naive delta occurrence (the
    smallest relation), then constant selectivity, then source order.
    ``bound`` names variables already bound before the body starts
    (the head's, for an :class:`ExistencePlan`).
    """
    remaining = list(range(len(body)))
    bound = set(bound)
    order: List[int] = []
    while remaining:
        best_idx = remaining[0]
        best_score: Optional[Tuple[int, int, int, int]] = None
        for idx in remaining:
            literal = body[idx]
            bound_count = 0
            const_count = 0
            for arg in literal.args:
                if arg.is_ground():
                    bound_count += 1
                    const_count += 1
                elif all(v in bound for v in arg.variables()):
                    bound_count += 1
            score = (
                bound_count,
                1 if roles.get(idx) == "delta" else 0,
                const_count,
                -idx,
            )
            if best_score is None or score > best_score:
                best_score = score
                best_idx = idx
        order.append(best_idx)
        remaining.remove(best_idx)
        bound.update(body[best_idx].iter_variables())
    return order


class RulePlan:
    """A rule compiled for slot-based execution.

    Execution enumerates exactly the body instantiations that
    :func:`repro.engine.reference.join_rule` would (in a different
    order), and calls ``emit`` with the ground head tuple of each.
    """

    __slots__ = (
        "rule",
        "roles",
        "order",
        "var_slots",
        "num_slots",
        "steps",
        "head_ops",
        "head_fast",
        "_head_getter",
        "_columnar",
        "_kernel",
    )

    def __init__(
        self,
        rule: Rule,
        roles: RoleSpec = (),
        order: Optional[Sequence[int]] = None,
    ):
        self.rule = rule
        self.roles = roles
        roles_map = dict(roles)
        # The join order is the greedy bound-first one; ``order`` pins
        # another permutation (the kernel tests run every one of them).
        self.order = (
            list(order) if order is not None else _join_order(rule.body, roles_map)
        )
        var_slots: Dict[Variable, int] = {}
        steps = [
            _compile_step(
                rule.body[idx], idx if idx in roles_map else None, var_slots
            )
            for idx in self.order
        ]
        self.var_slots = var_slots
        self.num_slots = len(var_slots)
        self.steps = tuple(steps)

        head_ops: List[Tuple[int, object]] = []
        head_fast = True
        for arg in rule.head.args:
            if arg.is_ground():
                head_ops.append((H_CONST, arg))
            elif type(arg) is Variable:
                slot = var_slots.get(arg)
                if slot is None:
                    head_ops.append((H_UNBOUND, arg))
                    head_fast = False
                else:
                    head_ops.append((H_SLOT, slot))
            else:
                if all(v in var_slots for v in arg.variables()):
                    head_ops.append((H_TEMPLATE, _compile_template(arg, var_slots)))
                else:
                    head_ops.append((H_UNBOUND, arg))
                head_fast = False
        self.head_ops = tuple(head_ops)
        self.head_fast = head_fast
        # All-slot heads (the overwhelmingly common case) emit through a
        # C-level itemgetter instead of a per-inference comprehension.
        self._head_getter: Optional[Callable[[List[Optional[Term]]], FactTuple]] = None
        if head_fast and all(tag == H_SLOT for tag, _ in head_ops):
            slots_only = [payload for _, payload in head_ops]
            if not slots_only:
                self._head_getter = lambda slots: ()
            elif len(slots_only) == 1:
                only = slots_only[0]
                self._head_getter = lambda slots: (slots[only],)
            else:
                self._head_getter = itemgetter(*slots_only)
        # Columnar kernel (repro.engine.columnar): the static spec,
        # compiled lazily on the first columnar execution of this plan
        # (False marks a plan the columnar path cannot run — it falls
        # back to execute()), and the generated batch function of the
        # spec's shape, fetched when a call first reaches the batch.
        self._columnar = None
        self._kernel = None

    def _emit_head_general(self, slots: List[Optional[Term]]) -> FactTuple:
        out: List[Term] = []
        for tag, payload in self.head_ops:
            if tag == H_CONST:
                out.append(payload)
            elif tag == H_SLOT:
                out.append(slots[payload])
            elif tag == H_TEMPLATE:
                out.append(_build(payload, slots))
            else:
                raise UnsafeRuleError(
                    f"rule is not range-restricted; head variable unbound in {self.rule}"
                )
        return tuple(out)

    def execute(
        self,
        db: Database,
        overrides: Optional[Mapping[int, object]],
        emit: Callable[[FactTuple], None],
        stats=None,
    ) -> None:
        """Run the plan; ``emit`` receives each ground head tuple.

        ``overrides`` maps *original* body positions to replacement
        relations (semi-naive delta/old views); a missing or ``None``
        entry falls back to the database relation.

        Each step is resolved once per call to a raw container — a
        scan sequence, an index dict, or a fact set — so the inner
        loops are C-level ``dict.get``/``set`` operations.  A step over
        an empty or missing relation, or a constant-only probe with an
        empty bucket, short-circuits the whole execution.
        """
        # Per-step resolution: (_SCAN, candidates, post) |
        # (_PROBE, index, builders, single_slot, single_store, post) |
        # (_EXISTS, fact_set, builders) | (_PASS,)
        _SCAN, _PROBE, _EXISTS, _PASS = 0, 1, 2, 3
        resolved: List[tuple] = []
        for step in self.steps:
            rel = None
            role = step.role
            if role is not None and overrides is not None:
                rel = overrides.get(role)
            if rel is None:
                rel = db.relations.get(step.sig)
                if rel is None:
                    return
            if len(rel) == 0:
                return
            builders = step.key_builders
            if builders is None:
                resolved.append((_SCAN, rel.scan(), step.post_ops))
            elif step.all_bound:
                if step.const_key is not None:
                    # Ground literal: its truth is fixed for the whole run.
                    if stats is not None:
                        stats.probes += 1
                    if step.const_key not in rel.fact_set():
                        return
                    resolved.append((_PASS,))
                else:
                    resolved.append((_EXISTS, rel.fact_set(), builders))
            elif step.const_key is not None:
                # Constant-only filter: one bucket serves every invocation.
                if stats is not None:
                    stats.probes += 1
                bucket = rel.ensure_index(step.key_positions).get(step.const_key)
                if bucket is None:
                    return
                resolved.append((_SCAN, bucket, step.post_ops))
            else:
                resolved.append(
                    (
                        _PROBE,
                        rel.ensure_index(step.key_positions),
                        builders,
                        step.single_slot_key,
                        step.single_store,
                        step.post_ops,
                    )
                )

        slots: List[Optional[Term]] = [None] * self.num_slots
        nsteps = len(resolved)
        head_ops = self.head_ops
        head_fast = self.head_fast
        head_getter = self._head_getter

        def run(i: int) -> None:
            if i == nsteps:
                if head_getter is not None:
                    emit(head_getter(slots))
                elif head_fast:
                    emit(tuple([slots[p] if t else p for t, p in head_ops]))
                else:
                    emit(self._emit_head_general(slots))
                return
            st = resolved[i]
            mode = st[0]
            nexti = i + 1
            if mode == _PROBE:
                if stats is not None:
                    stats.probes += 1
                single_slot = st[3]
                if single_slot is not None:
                    key = (slots[single_slot],)
                else:
                    builders = st[2]
                    parts: List[Term] = []
                    for tag, payload in builders:
                        if tag == K_CONST:
                            parts.append(payload)
                        elif tag == K_SLOT:
                            parts.append(slots[payload])
                        else:
                            parts.append(_build(payload, slots))
                    key = tuple(parts)
                bucket = st[1].get(key)
                if bucket is None:
                    return
                single_store = st[4]
                if single_store is not None:
                    pos, slot = single_store
                    for fact in bucket:
                        slots[slot] = fact[pos]
                        run(nexti)
                    return
                post = st[5]
                for fact in bucket:
                    ok = True
                    for pos, tag, payload in post:
                        value = fact[pos]
                        if tag == O_STORE:
                            slots[payload] = value
                        elif tag == O_CHECK:
                            if slots[payload] != value:
                                ok = False
                                break
                        elif not _match(payload, value, slots):
                            ok = False
                            break
                    if ok:
                        run(nexti)
                return
            if mode == _SCAN:
                if stats is not None:
                    stats.probes += 1
                post = st[2]
                if not post:
                    for fact in st[1]:
                        run(nexti)
                    return
                for fact in st[1]:
                    ok = True
                    for pos, tag, payload in post:
                        value = fact[pos]
                        if tag == O_STORE:
                            slots[payload] = value
                        elif tag == O_CHECK:
                            if slots[payload] != value:
                                ok = False
                                break
                        elif not _match(payload, value, slots):
                            ok = False
                            break
                    if ok:
                        run(nexti)
                return
            if mode == _EXISTS:
                if stats is not None:
                    stats.probes += 1
                parts = []
                for tag, payload in st[2]:
                    if tag == K_CONST:
                        parts.append(payload)
                    elif tag == K_SLOT:
                        parts.append(slots[payload])
                    else:
                        parts.append(_build(payload, slots))
                if tuple(parts) in st[1]:
                    run(nexti)
                return
            run(nexti)  # _PASS

        try:
            run(0)
        finally:
            del run  # it refers to itself through its cell: a cycle

    def __repr__(self) -> str:
        return f"RulePlan({self.rule}, order={self.order}, slots={self.num_slots})"


def _key_function(builders) -> Callable[[List[Optional[Term]]], FactTuple]:
    """A callable building one step's probe key from the slots."""
    if all(tag == K_SLOT for tag, _ in builders):
        if len(builders) == 1:
            only = builders[0][1]
            return lambda slots: (slots[only],)
        return itemgetter(*[payload for _, payload in builders])

    def key(slots):
        return tuple(
            [
                payload if tag == K_CONST
                else slots[payload] if tag == K_SLOT
                else _build(payload, slots)
                for tag, payload in builders
            ]
        )

    return key


class ExistencePlan:
    """A rule compiled to answer "does this head fact have a derivation?".

    The head-bound adornment of the rule, which is what DRed's
    re-derivation step asks of every over-deleted fact: the candidate
    fact writes the head's variables, the body is ordered bound-first
    from there (:func:`_join_order`), each literal is compiled to the
    same :class:`LiteralStep` a :class:`RulePlan` uses — probe
    positions, key, per-candidate slot writes.  :meth:`witnesses`
    enumerates the body instances deriving a head fact (the search
    :mod:`repro.engine.provenance` reads derivation trees with), and
    :meth:`holds` is that walk stopped at its first witness.

    Compiled once per rule; :meth:`bind` resolves the steps to the raw
    containers they probe (an index ``dict``, a fact ``set``), which
    :class:`~repro.engine.database.Relation` updates in place on
    ``add`` — so one binding serves a whole pass of candidates and
    each sees the facts restored before it.
    """

    __slots__ = ("rule", "head", "steps", "source_steps", "keys", "num_slots")

    def __init__(self, rule: Rule):
        self.rule = rule
        var_slots: Dict[Variable, int] = {}
        self.head = tuple(
            _compile_pattern(arg, var_slots) for arg in rule.head.args
        )
        order = _join_order(rule.body, {}, tuple(var_slots))
        self.steps = tuple(
            _compile_step(rule.body[idx], None, var_slots) for idx in order
        )
        #: Per body literal in source order, the step that matches it.
        self.source_steps = tuple(order.index(idx) for idx in range(len(order)))
        self.keys = tuple(
            None if step.key_builders is None else _key_function(step.key_builders)
            for step in self.steps
        )
        self.num_slots = len(var_slots)

    def bind(self, db: Database) -> Optional[List[object]]:
        """Per step, the container it probes in ``db``.

        ``None`` when a body relation does not exist: nothing can be
        derived through this rule.
        """
        sources: List[object] = []
        for step in self.steps:
            rel = db.get(step.name, step.arity)
            if rel is None:
                return None
            if step.key_builders is None:
                sources.append(rel.scan())
            elif step.all_bound:
                sources.append(rel.fact_set())
            else:
                sources.append(rel.ensure_index(step.key_positions))
        return sources

    def holds(self, sources: List[object], fact: FactTuple, stats) -> bool:
        """True when the rule derives ``fact`` from the bound relations:
        the walk of :meth:`witnesses`, stopped at its first witness."""
        for _ in self.witnesses(sources, fact, stats):
            return True
        return False

    def witnesses(
        self, sources: List[object], fact: FactTuple, stats
    ) -> Iterator[Tuple[FactTuple, ...]]:
        """Every body instance that derives ``fact`` from the bound
        relations: per witness, the matched fact of each body literal,
        in source order.

        Counts one probe per literal visited, like the plan executor.
        """
        slots: List[Optional[Term]] = [None] * self.num_slots
        for node, value in zip(self.head, fact):
            if not _match(node, value, slots):
                return
        chosen: List[Optional[FactTuple]] = [None] * len(self.steps)
        for _ in self._walk(0, sources, slots, chosen, stats):
            yield tuple([chosen[step] for step in self.source_steps])

    def _walk(self, i: int, sources, slots, chosen, stats) -> Iterator[None]:
        if i == len(self.steps):
            yield
            return
        stats.probes += 1
        step = self.steps[i]
        candidates = sources[i]
        key = self.keys[i]
        if key is not None:
            probe = key(slots)
            if step.all_bound:
                candidates = (probe,) if probe in candidates else ()
            else:
                candidates = candidates.get(probe, ())
        post = step.post_ops
        for candidate in candidates:
            for pos, tag, payload in post:
                value = candidate[pos]
                if tag == O_STORE:
                    slots[payload] = value
                elif tag == O_CHECK:
                    if slots[payload] != value:
                        break
                elif not _match(payload, value, slots):
                    break
            else:
                chosen[i] = candidate
                yield from self._walk(i + 1, sources, slots, chosen, stats)

    def __repr__(self) -> str:
        return f"ExistencePlan({self.rule}, steps={list(self.steps)})"


class PlanCache:
    """Compiled plans keyed by ``(rule, override-role spec)``.

    One cache lives for the duration of an evaluator run, so each
    (rule, configuration) pair is compiled once and reused across all
    delta rounds.  Rules and role specs are hashable, so the cache is a
    plain dict.
    """

    __slots__ = ("_plans",)

    def __init__(self):
        self._plans: Dict[Tuple[Rule, RoleSpec], RulePlan] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def plan(self, rule: Rule, roles: RoleSpec = (), stats=None) -> RulePlan:
        """The compiled plan for ``(rule, roles)``, compiling it once."""
        key = (rule, roles)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = RulePlan(rule, roles)
            if stats is not None:
                stats.plans_compiled += 1
        elif stats is not None:
            stats.plan_cache_hits += 1
        return plan


def compile_rule(rule: Rule, roles: Union[RoleSpec, Mapping[int, str]] = ()) -> RulePlan:
    """Compile ``rule`` into a :class:`RulePlan`.

    ``roles`` marks body positions carrying semi-naive overrides, as
    either a mapping ``{position: role}`` or a tuple of pairs; the role
    tags ("delta"/"old") key the plan cache and bias the join order.
    """
    if isinstance(roles, Mapping):
        roles = tuple(sorted(roles.items()))
    return RulePlan(rule, roles)
