#!/usr/bin/env python
"""Derivation trees (Definition 2.1): explaining answers.

The paper's proofs are inductions over derivation trees; the engine can
materialize them.  This example derives a route through a small network
with the *factored* program and prints the derivation tree for one
answer — showing how the unary m_/f_ predicates chain where the binary
`route` relation used to be.

Usage:  python examples/derivation_trees.py
"""

from repro import explain, optimize, parse_literal, parse_program, parse_query
from repro.engine.database import Database


def main() -> None:
    program = parse_program(
        """
        route(X, Y) :- hop(X, Y).
        route(X, Y) :- hop(X, W), route(W, Y).
        """
    )
    edb = Database.from_dict(
        {
            "hop": [
                ("msn", "ord"),
                ("ord", "den"),
                ("den", "sfo"),
                ("sfo", "hnl"),
            ]
        }
    )
    goal = parse_query("route(msn, Y)")

    print("=== original program ===")
    print(program)

    print("\n--- original program: why is hnl reachable? ---")
    tree = explain(program, edb, parse_literal("route(msn, hnl)"))
    print(tree.render())
    print(f"(height {tree.height()}, {tree.size()} nodes)")

    result = optimize(program, goal)
    print("\n=== factored program ===")
    print(result.simplified.program)

    print("\n--- factored program: why is hnl an answer? ---")
    tree = explain(
        result.simplified.program, edb, parse_literal("f_route@bf(hnl)")
    )
    print(tree.render())
    print(
        f"\nThe factored derivation carries only unary facts: the magic "
        f"chain m_route@bf walks the hops, and each f_route@bf answer is "
        f"one rule application away — {tree.size()} nodes for the same "
        "conclusion."
    )


if __name__ == "__main__":
    main()
