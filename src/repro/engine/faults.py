"""Deterministic fault injection for robustness testing.

The transaction layer's guarantees — atomic rollback, journaled
recovery, graceful backend degradation — are only as good as the
failures they have been exercised against.  This module provides the
failures: a :class:`FaultPlan` is a deterministic script of fault
*events* fired at instrumented boundaries, so a test (or a CI job, via
the ``REPRO_FAULTS`` environment variable) can make the engine raise,
die, or stall at an exactly reproducible point and then assert the
visible state equals a from-scratch evaluation of either the pre- or
post-batch EDB — never anything in between.

Instrumented sites
------------------

* ``component`` — fired by :class:`~repro.engine.scheduler.ComponentRun`
  at the start of every component fixpoint, in whichever process runs
  it (the parent for serial/maintenance work, a pool worker under the
  process backend).
* ``worker`` — fired by
  :func:`~repro.engine.backends.evaluate_component` on entry, i.e.
  only inside process-pool workers.  A ``kill`` here is how the test
  suite produces a real ``BrokenProcessPool``.
* ``journal`` — fired by :class:`~repro.engine.journal.Journal` before
  each record write.  The ``torn`` kind is specific to this site: the
  journal writes only a prefix of the record and raises, simulating a
  crash mid-write (the recovery path must treat the tail as
  uncommitted).

Kinds: ``raise`` (raise :class:`FaultInjected`), ``kill``
(``os._exit`` — no cleanup, equivalent to ``kill -9``), ``delay``
(sleep, for exercising the wall-clock watchdog), ``torn`` (journal
site only, see above).

Plans are scripted as ``site:kind:nth[:delay]`` events, comma
separated — ``"component:raise:2"`` raises at the second component
boundary, ``"journal:torn:3"`` tears the third journal write,
``"component:delay:1:0.2"`` sleeps 0.2 s at the first component.
Counters are per-process (workers count their own boundaries), which
is what makes plans deterministic under any start method.  Malformed
specs fail loudly with the accepted grammar, mirroring how
:class:`~repro.engine.config.EngineConfig` rejects a bad knob
(:func:`~repro.engine.config.check_knob`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Environment variable supplying the session-wide fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Instrumented boundaries, in documentation order.
SITES = ("component", "worker", "journal")

#: Recognized fault kinds. ``torn`` is only valid at the journal site.
KINDS = ("raise", "kill", "delay", "torn")

#: Exit status used by ``kill`` faults — distinctive enough that a test
#: watching a subprocess can tell an injected death from a real crash.
KILL_STATUS = 137  # what the shell reports for SIGKILL


class FaultInjected(RuntimeError):
    """Raised by an armed fault plan at an instrumented boundary."""


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: fire ``kind`` at the ``nth`` hit of ``site``."""

    site: str
    kind: str
    nth: int
    delay: float = 0.0

    def __str__(self) -> str:
        suffix = f":{self.delay:g}" if self.kind == "delay" else ""
        return f"{self.site}:{self.kind}:{self.nth}{suffix}"


class FaultPlan:
    """A deterministic script of fault events with per-site counters.

    ``fire(site)`` increments the site's counter and executes every
    event scheduled for that hit.  Counters are per-plan (and therefore
    per-process: workers build their own plan from the inherited
    environment), so the same plan against the same workload fires at
    the same boundaries every run.
    """

    def __init__(self, events: List[FaultEvent]):
        self.events = tuple(events)
        self._counts: Dict[str, int] = {}

    def reset(self) -> None:
        """Zero the site counters (a fresh run of the same plan)."""
        self._counts.clear()

    def fire(self, site: str, torn_length: Optional[int] = None) -> Optional[int]:
        """Count one hit of ``site``; execute any events due at it.

        Returns the byte offset at which a ``torn`` event wants the
        caller (the journal) to cut its write, or ``None``.  ``delay``
        events sleep before any ``raise``/``kill`` at the same hit, so
        a plan can combine them.
        """
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        cut: Optional[int] = None
        due = [e for e in self.events if e.site == site and e.nth == count]
        for event in due:
            if event.kind == "delay":
                time.sleep(event.delay)
        for event in due:
            if event.kind == "torn" and torn_length is not None:
                cut = max(1, torn_length // 2)
        for event in due:
            if event.kind == "raise":
                raise FaultInjected(f"injected fault at {site} boundary #{count}")
            if event.kind == "kill":
                os._exit(KILL_STATUS)
        return cut

    def __repr__(self) -> str:
        return f"FaultPlan({','.join(str(e) for e in self.events)!r})"


def parse_faults(spec: str, source: str = "faults") -> FaultPlan:
    """Parse a ``site:kind:nth[:delay]`` event list into a plan.

    Raises ``ValueError`` naming the accepted sites and kinds on any
    malformed field — the same loud-failure contract as
    :func:`~repro.engine.config.check_knob` gives every engine knob.
    """

    def bad(reason: str) -> ValueError:
        return ValueError(
            f"invalid {source}={spec!r}: {reason}; expected comma-separated "
            f"site:kind:nth[:delay] events with site in "
            f"{{{', '.join(SITES)}}} and kind in {{{', '.join(KINDS)}}}"
        )

    events: List[FaultEvent] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (3, 4):
            raise bad(f"event {chunk!r} has {len(parts)} fields")
        site, kind, nth_text = parts[0].strip(), parts[1].strip(), parts[2].strip()
        if site not in SITES:
            raise bad(f"unknown site {site!r}")
        if kind not in KINDS:
            raise bad(f"unknown kind {kind!r}")
        if kind == "torn" and site != "journal":
            raise bad(f"kind 'torn' is only valid at site 'journal', not {site!r}")
        try:
            nth = int(nth_text)
        except ValueError:
            raise bad(f"event {chunk!r} has non-integer position {nth_text!r}") from None
        if nth < 1:
            raise bad(f"event {chunk!r} has position {nth} < 1")
        delay = 0.0
        if len(parts) == 4:
            if kind != "delay":
                raise bad(f"only 'delay' events take a fourth field, got {chunk!r}")
            try:
                delay = float(parts[3])
            except ValueError:
                raise bad(f"event {chunk!r} has non-numeric delay {parts[3]!r}") from None
            if not delay > 0:
                raise bad(f"event {chunk!r} has non-positive delay")
        elif kind == "delay":
            raise bad(f"'delay' events need a seconds field, got {chunk!r}")
        events.append(FaultEvent(site, kind, nth, delay))
    if not events:
        raise bad("no events")
    return FaultPlan(events)


def resolve_faults(spec: Optional[str] = None) -> Optional[FaultPlan]:
    """Normalize a fault-plan choice, honouring ``REPRO_FAULTS``.

    ``None`` falls back to the environment; an empty/unset environment
    means no plan (the overwhelmingly common case).  Malformed specs
    raise ``ValueError`` with the accepted grammar so typos fail loudly
    instead of silently injecting nothing.
    """
    source = "faults"
    if spec is None:
        raw = os.environ.get(FAULTS_ENV, "").strip()
        if not raw:
            return None
        spec, source = raw, FAULTS_ENV
    return parse_faults(spec, source=source)


# ----------------------------------------------------------------------
# The process-wide active plan
# ----------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
_ENV_CHECKED = False


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, lazily loading ``REPRO_FAULTS`` once."""
    global _PLAN, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        if _PLAN is None:
            _PLAN = resolve_faults()
    return _PLAN


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` (counters reset) as this process's fault plan."""
    global _PLAN, _ENV_CHECKED
    _ENV_CHECKED = True
    _PLAN = plan
    if plan is not None:
        plan.reset()


def clear() -> None:
    """Drop any installed plan and re-arm the environment lookup."""
    global _PLAN, _ENV_CHECKED
    _PLAN = None
    _ENV_CHECKED = False


def fire(site: str, torn_length: Optional[int] = None) -> Optional[int]:
    """Fire one boundary hit against the active plan (no-op without one)."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.fire(site, torn_length)
