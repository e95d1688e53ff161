"""One span recorder, installed from the benchmark's side.

``Recorder.wrap(owner, attr, span_name)`` rebinds a public entry point
of the program (a module function or a method on a class) to a wrapper
that records ``[name, parent, start, end]`` around the call; nothing
under ``src/`` is edited and :meth:`Recorder.unwrap_all` restores every
binding.  Spans stay in memory until :meth:`Recorder.dump` writes them
as JSON lines.  ``Recorder.count`` is the cheap form for entry points
too hot to time: it only counts calls.

A span's parent is whichever span was open on the same thread when it
started, so a layer's *self time* is its duration minus its children's
(:func:`self_times`).
"""

from __future__ import annotations

import json
import threading
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans = []  # [name, parent record or None, start, end]
        self.counts = {}
        self._local = threading.local()
        self._restore = []

    def rebind(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`unwrap_all`."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        replacement = make(original)
        replacement.__wrapped__ = original
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def wrap(self, owner, attr, name, tally=None):
        """Record a span around every call of ``owner.attr``.

        ``tally(result)`` adds a number to ``counts[name]`` per call —
        work done as a count, read off the returned value.
        """
        spans, local, counts = self.spans, self._local, self.counts
        if tally is not None:
            counts.setdefault(name, 0)

        def make(original):
            def traced(*args, **kwargs):
                try:
                    stack = local.stack
                except AttributeError:
                    stack = local.stack = []
                record = [name, stack[-1] if stack else None, perf_counter(), 0.0]
                spans.append(record)
                stack.append(record)
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[3] = perf_counter()
                    stack.pop()
                if tally is not None:
                    counts[name] += tally(result)
                return result
            return traced

        self.rebind(owner, attr, make)

    def count(self, owner, attr, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def make(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted

        self.rebind(owner, attr, make)

    def unwrap_all(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def rows(self, workload, repetition):
        """Finished spans as JSON-ready dicts with integer ids."""
        done = [record for record in self.spans if record[3]]
        ids = {id(record): i for i, record in enumerate(done)}
        return [
            {
                "id": i, "parent": None if parent is None else ids.get(id(parent)),
                "name": name, "start": start, "end": end,
                "workload": workload, "rep": repetition,
            }
            for i, (name, parent, start, end) in enumerate(done)
        ]

    def dump(self, path, workload, repetition, extra=()):
        with open(path, "w") as handle:
            for row in list(extra) + self.rows(workload, repetition):
                handle.write(json.dumps(row) + "\n")


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(rows):
    """``{name: [calls, self seconds]}`` plus the root spans' total.

    Self time is a span's duration minus the duration of its direct
    children, so the self times of all spans sum to the time covered by
    root spans; whatever the traced wall time holds beyond that was
    spent outside every wrapped layer.
    """
    child_time = {}
    for row in rows:
        if row["parent"] is not None:
            child_time[row["parent"]] = (
                child_time.get(row["parent"], 0.0) + row["end"] - row["start"]
            )
    by_name = {}
    covered = 0.0
    for row in rows:
        duration = row["end"] - row["start"]
        entry = by_name.setdefault(row["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += duration - child_time.get(row["id"], 0.0)
        if row["parent"] is None:
            covered += duration
    return by_name, covered
