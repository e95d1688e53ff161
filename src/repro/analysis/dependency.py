"""Predicate dependency graphs, SCCs, and recursion structure.

The semi-naive evaluator stratifies a program by the strongly connected
components of this graph; the classifiers use it to find the recursive
predicate of a unit program and to check linearity.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.datalog.program import Program
from repro.datalog.rules import Rule

Signature = Tuple[str, int]


def strongly_connected_components(
    nodes: Iterable, edges: Dict
) -> List[List]:
    """Tarjan's algorithm, iterative (no recursion-depth limits).

    ``edges[n]`` is the iterable of successors of ``n``.  Returns SCCs
    in reverse topological order (callees before callers), which is the
    evaluation order the engine wants.
    """
    index: Dict = {}
    lowlink: Dict = {}
    on_stack: Set = set()
    stack: List = []
    sccs: List[List] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


class DependencyGraph:
    """Dependencies among the predicates of a program.

    There is an edge ``q -> p`` when ``q`` occurs in the body of a rule
    whose head is ``p`` (``p`` depends on ``q``).
    """

    def __init__(self, program: Program):
        self.program = program
        self.successors: Dict[Signature, Set[Signature]] = {}
        self.predecessors: Dict[Signature, Set[Signature]] = {}
        nodes: Set[Signature] = set()
        for rule in program.rules:
            head_sig = rule.head.signature
            nodes.add(head_sig)
            for lit in rule.body:
                body_sig = lit.signature
                nodes.add(body_sig)
                self.successors.setdefault(body_sig, set()).add(head_sig)
                self.predecessors.setdefault(head_sig, set()).add(body_sig)
        self.nodes: FrozenSet[Signature] = frozenset(nodes)
        self._sccs: List[List[Signature]] = strongly_connected_components(
            sorted(self.nodes), {n: sorted(self.successors.get(n, ())) for n in self.nodes}
        )
        self._scc_of: Dict[Signature, int] = {}
        for i, scc in enumerate(self._sccs):
            for sig in scc:
                self._scc_of[sig] = i

    # ------------------------------------------------------------------

    def sccs(self) -> List[List[Signature]]:
        """SCCs in evaluation order (dependencies before dependents).

        Tarjan emits components in reverse topological order of the
        condensation along ``body -> head`` edges — consumers first —
        so the evaluation order is the reverse of the emission order.
        """
        return [list(scc) for scc in reversed(self._sccs)]

    def same_scc(self, a: Signature, b: Signature) -> bool:
        return (
            a in self._scc_of
            and b in self._scc_of
            and self._scc_of[a] == self._scc_of[b]
        )

    def is_recursive(self, signature: Signature) -> bool:
        """True if the predicate depends (transitively) on itself."""
        if signature not in self._scc_of:
            return False
        scc = self._sccs[self._scc_of[signature]]
        if len(scc) > 1:
            return True
        return signature in self.successors.get(signature, ()) or self._has_self_loop(
            signature
        )

    def _has_self_loop(self, signature: Signature) -> bool:
        return signature in self.successors.get(signature, ())

    def recursive_signatures(self) -> Set[Signature]:
        return {sig for sig in self.nodes if self.is_recursive(sig)}

    def recursive_rules(self) -> List[Rule]:
        """Rules with at least one body literal mutually recursive with the head."""
        return [rule for rule in self.program.rules if self.rule_is_recursive(rule)]

    def rule_is_recursive(self, rule: Rule) -> bool:
        head = rule.head.signature
        return any(self.same_scc(head, lit.signature) for lit in rule.body) and (
            self.is_recursive(head)
        )
