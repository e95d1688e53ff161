"""Keep the cyclic collector out of an evaluation that frees by refcount.

An ``ask()`` (and ``repro run``'s stage evaluation) builds a throwaway
database, reads one relation out of it and drops it: everything it
allocated dies by reference count with that database, so a collection
*during* the evaluation reclaims nothing of it — but its allocations
buy promotions, and those buy full collections that re-walk the
long-lived EDB (docs/query.md, "What an ask allocates, and who frees
it").  The only module under ``src/`` besides
:mod:`repro.engine.backends`' worker initializer that touches ``gc``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

#: Facts an evaluation must start from for :func:`arena` to engage.
#: Below it no full collection lands inside an ask, and a closed-loop
#: reader would hold the process-wide switch off for most of a writer
#: thread's run time; docs/query.md has the table that placed it.
ARENA_MIN_FACTS = 4096


@contextmanager
def arena(facts: int):
    """Automatic collection off while a throwaway evaluation that starts
    from ``facts`` facts runs; leave once its database is released.

    Restores what it found: it does nothing under a caller's
    ``gc.disable()``, inside another arena, or below
    :data:`ARENA_MIN_FACTS`.  The switch is process-wide, so of two
    threads the first to leave re-enables collection for both — a pause
    cut short, never a collector left off.
    """
    if facts < ARENA_MIN_FACTS or not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
