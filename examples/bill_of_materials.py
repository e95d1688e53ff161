#!/usr/bin/env python
"""Domain scenario: bill-of-materials traversal + a non-factorable query.

Two queries over a parts hierarchy:

1. ``uses(widget, P)`` — which parts does a widget (transitively)
   contain?  A right/left-linear recursion: factorable, evaluated with
   a unary recursive predicate.
2. ``same_level(P, Q)`` — which parts sit at the same depth of the
   assembly?  This is the same-generation shape the paper names as the
   canonical *non*-factorable recursion; the session falls back to
   Magic Sets and stays correct.

Usage:  python examples/bill_of_materials.py
"""

from repro.session import DeductiveDatabase


def build_bom() -> DeductiveDatabase:
    db = DeductiveDatabase()
    db.rules(
        """
        uses(X, Y) :- part_of(Y, X).
        uses(X, Y) :- part_of(W, X), uses(W, Y).

        same_level(X, Y) :- sibling(X, Y).
        same_level(X, Y) :- part_of(X, U), same_level(U, V), part_of(Y, V).
        """
    )
    assembly = {
        "widget": ["frame", "motor", "panel"],
        "frame": ["beam", "bolt"],
        "motor": ["rotor", "stator", "bolt"],
        "panel": ["screen", "button"],
        "rotor": ["shaft", "magnet"],
        "screen": ["glass"],
    }
    for parent, children in assembly.items():
        for child in children:
            db.fact("part_of", child, parent)
        for a, b in zip(children, children[1:]):
            db.fact("sibling", a, b)
    return db


def main() -> None:
    db = build_bom()

    print("=== query 1: uses(widget, P)? — factorable ===")
    report = db.explain("uses(widget, P)")
    print(f"strategy: {report.strategy} ({report.certified_by})")
    parts = sorted(p for (p,) in report.answers)
    print(f"widget transitively uses {len(parts)} parts:")
    print("  " + ", ".join(parts))
    print(f"cost: {report.stats.facts} facts, {report.stats.inferences} inferences")

    print("\ncompiled program (one per query form; ask() adds the seed "
          "m_uses@bf(widget) as a fact):")
    print(db.compiled_program("uses(widget, P)"))

    print("\n=== query 2: same_level(rotor, Q)? — not factorable ===")
    report2 = db.explain("same_level(rotor, Q)")
    print(f"strategy: {report2.strategy}  (classifier rejected factoring: "
          "the recursive occurrence shifts both arguments)")
    peers = sorted(q for (q,) in report2.answers)
    print(f"parts at rotor's level: {', '.join(peers) if peers else '(none)'}")
    print(f"cost: {report2.stats.facts} facts, {report2.stats.inferences} inferences")

    print("\n=== query 3: ground check ===")
    print(f"does the motor use a magnet? "
          f"{'yes' if db.holds('uses(motor, magnet)') else 'no'}")
    print(f"does the panel use a magnet? "
          f"{'yes' if db.holds('uses(panel, magnet)') else 'no'}")


if __name__ == "__main__":
    main()
