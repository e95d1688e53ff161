"""Measurement records and table rendering for the experiment suite.

The paper's claims are about *who wins and by how much* as inputs grow,
so every benchmark produces a :class:`Series` of :class:`Measurement`
rows — facts, inferences, iterations, wall time per configuration — and
prints it as a paper-style table.  ``REPRO_BENCH_SCALE`` scales the
input sizes (default 1.0) so the same code runs as a smoke test or a
full sweep.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


def bench_scale() -> float:
    """The global input-size multiplier from ``REPRO_BENCH_SCALE``.

    A malformed value (not a number, not finite, or not positive) warns
    (naming the bad value) and falls back to 1.0 instead of silently
    rescaling the whole suite: ``nan``/``inf`` cannot size an input and
    ``0`` or a negative would pin every size to its minimum.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if math.isfinite(scale) and scale > 0:
        return scale
    warnings.warn(
        f"ignoring malformed REPRO_BENCH_SCALE={raw!r} "
        "(not a finite positive number); defaulting to 1.0",
        RuntimeWarning,
        stacklevel=2,
    )
    return 1.0


@dataclass
class Measurement:
    """One row: a labelled configuration and its counters."""

    label: str
    n: int
    facts: int = 0
    inferences: int = 0
    iterations: int = 0
    seconds: float = 0.0
    answers: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def row(self) -> List[str]:
        cells = [
            self.label,
            str(self.n),
            str(self.answers),
            str(self.facts),
            str(self.inferences),
            str(self.iterations),
            f"{self.seconds * 1000:.2f}",
        ]
        cells.extend(str(v) for v in self.extra.values())
        return cells

    def header(self) -> List[str]:
        base = ["config", "n", "answers", "facts", "inferences", "iters", "ms"]
        base.extend(self.extra.keys())
        return base


@dataclass
class Series:
    """A titled collection of measurements (one experiment's table)."""

    title: str
    measurements: List[Measurement] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, measurement: Measurement) -> None:
        self.measurements.append(measurement)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        if not self.measurements:
            return f"== {self.title} ==\n(no measurements)"
        header = self.measurements[0].header()
        rows = [m.row() for m in self.measurements]
        table = render_table(header, rows)
        parts = [f"== {self.title} ==", table]
        parts.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(parts)

    def show(self) -> None:
        print()
        print(self.render())


def render_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Monospace-aligned table rendering."""
    rows = [list(r) for r in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(
            str(cell).ljust(widths[i]) for i, cell in enumerate(cells)
        )
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def speedup(baseline: Measurement, improved: Measurement, metric: str = "inferences") -> float:
    """Ratio baseline/improved on a counter (guarding zero)."""
    base = getattr(baseline, metric)
    new = getattr(improved, metric)
    if new == 0:
        return float("inf") if base else 1.0
    return base / new
