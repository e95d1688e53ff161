"""Evaluation statistics and engine errors.

Every evaluator returns an :class:`EvalStats` alongside its database.
The two quantities the paper reasons about are:

* ``facts`` — distinct derived facts; bounded by ``n**k`` where ``k``
  is the predicate arity, which is exactly the bound factoring improves
  by reducing ``k`` (Section 1);
* ``inferences`` — successful rule instantiations, including ones that
  rederive a known fact; the per-step cost of semi-naive evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Cap on recorded (estimated, actual) pairs so long evaluations don't
#: grow the stats object without bound.
MAX_ESTIMATE_SAMPLES = 10_000


class NonTerminationError(RuntimeError):
    """Raised when a fixpoint exceeds its iteration or fact budget.

    The Counting transformation applied to programs with left-linear
    rules produces exactly this behaviour (Section 6.4); the error is
    how benchmarks observe "Counting diverges".
    """

    def __init__(self, message: str, iterations: int, facts: int):
        super().__init__(message)
        self.iterations = iterations
        self.facts = facts

    def __reduce__(self):
        # BaseException's default pickling replays only ``args`` (the
        # message), which would drop the counters and crash on the
        # three-argument constructor; the process execution backend
        # needs the full error to cross back from a worker.
        # ``type(self)`` keeps subclasses (ComponentTimeout) intact.
        return (type(self), (self.args[0], self.iterations, self.facts))


class ComponentTimeout(NonTerminationError):
    """Raised when a component fixpoint exceeds its wall-clock budget.

    The per-component watchdog (``max_seconds`` on the evaluators,
    ``--timeout`` on the CLI, ``REPRO_TIMEOUT`` in the environment)
    turns a runaway fixpoint into this error at the next round
    boundary — inside a maintenance pass that means a clean rollback
    instead of a hang.  Subclasses :class:`NonTerminationError` because
    it is the same phenomenon observed on a different axis: a budget
    (wall clock rather than rounds or facts) exceeded by a divergent
    or pathologically slow component.
    """


class MaintenanceError(RuntimeError):
    """A maintenance batch failed and the session was rolled back.

    Raised by :meth:`repro.engine.incremental.IncrementalSession.apply_batch`
    (and therefore ``insert``/``delete``) after the database, the EDB,
    and the provenance store have been restored to their pre-batch
    state — the session remains exactly a from-scratch evaluation of
    the pre-batch EDB.  ``phase`` names the half of the combined pass
    that failed (``"delete"`` or ``"insert"``); ``__cause__`` carries
    the original failure (:class:`NonTerminationError`,
    :class:`ComponentTimeout`, a worker loss, an injected fault, ...).
    """

    def __init__(self, message: str, phase: str = "?"):
        super().__init__(message)
        self.phase = phase

    def __reduce__(self):
        return (type(self), (self.args[0], self.phase))


class JournalError(RuntimeError):
    """The journal file is not usable (bad magic, unreadable, ...).

    Raised by :mod:`repro.engine.journal` for damage that is *not* a
    torn tail: a torn tail is an expected crash artifact that replay
    handles by stopping early, while a wrong magic number or an
    unreadable file means this is not (or no longer is) a journal and
    continuing would corrupt data.
    """


@dataclass
class EvalStats:
    """Counters produced by one evaluator run.

    Beyond the paper's two quantities, the compiled-plan engine
    attributes its speedup through three more counters: ``probes``
    (candidate-fetch operations — index lookups, scans, and existence
    checks — the unit of join work), ``plans_compiled`` (distinct
    (rule, override-configuration) pairs compiled), and
    ``plan_cache_hits`` (plan reuses across delta rounds; high hit
    counts mean compilation cost is amortized away).

    The cost-based planner adds two accuracy counters: ``replans``
    (cached plans recompiled because observed cardinalities drifted
    past the invalidation threshold) and ``estimated_vs_actual``
    (per-execution pairs of predicted result rows vs. emissions
    actually observed; :meth:`planner_accuracy` summarizes them).

    The SCC scheduler adds ``scc_count`` (components with rules that
    were actually evaluated) and ``scc_parallel_batches`` (topological
    depth batches holding two or more such components — the batches
    where ``jobs > 1`` can overlap work).

    Columnar execution adds ``columnar_fallbacks``: rule executions the
    batch kernel declined (ineligible plan, a source outside the run's
    term dictionary) and the tuple executor ran instead.  The counters
    above are identical either way; a non-zero value names a perf
    cliff, not an error.

    Incremental view maintenance (:mod:`repro.engine.incremental`)
    adds ``incr_rounds`` (delta fixpoint rounds run by maintenance
    passes — insertion propagation, DRed over-deletion, and
    re-derivation all count their rounds here, never in
    ``iterations``) and ``rederived`` (facts DRed over-deleted and
    then restored because an alternate derivation survived).

    Backend fault tolerance adds ``backend_fallbacks``: depth batches
    that lost a process-pool worker (``BrokenProcessPool``) and ran on
    the serial backend instead, and partitioned components whose
    worker group broke.  It stays zero on healthy runs — the
    determinism fuzz suite relies on that.

    Intra-component partitioning (:mod:`repro.engine.partition`) adds
    ``partition_rounds`` (fixpoint rounds in which at least one delta
    variant actually executed partitioned) and ``partition_skew`` (the
    worst observed ``max/mean`` partition size over all splits — 1.0
    is a perfectly even hash, ``partitions`` means everything landed
    in one bucket).  Rounds sum across components; skew merges by
    maximum, so a barrier absorb reports the worst split anywhere in
    the evaluation.
    """

    facts: int = 0
    inferences: int = 0
    iterations: int = 0
    seconds: float = 0.0
    probes: int = 0
    plans_compiled: int = 0
    plan_cache_hits: int = 0
    replans: int = 0
    scc_count: int = 0
    scc_parallel_batches: int = 0
    columnar_fallbacks: int = 0
    incr_rounds: int = 0
    rederived: int = 0
    backend_fallbacks: int = 0
    partition_rounds: int = 0
    partition_skew: float = 0.0
    estimated_vs_actual: List[Tuple[float, int]] = field(default_factory=list)
    per_predicate: Dict[Tuple[str, int], int] = field(default_factory=dict)

    def record_fact(self, signature: Tuple[str, int]) -> None:
        self.facts += 1
        self.per_predicate[signature] = self.per_predicate.get(signature, 0) + 1

    def record_facts(self, signature: Tuple[str, int], count: int) -> None:
        """Batched :meth:`record_fact` — one call per round-end fresh set."""
        self.facts += count
        self.per_predicate[signature] = (
            self.per_predicate.get(signature, 0) + count
        )

    def record_estimate(self, estimated: float, actual: int) -> None:
        """Log one (predicted rows, observed emissions) sample (capped)."""
        if len(self.estimated_vs_actual) < MAX_ESTIMATE_SAMPLES:
            self.estimated_vs_actual.append((estimated, actual))

    def planner_accuracy(self) -> float:
        """Mean relative error of the cost model, 0.0 when perfect.

        Each sample contributes ``|estimated - actual| / max(actual, 1)``;
        returns 0.0 when no samples were recorded (greedy planner).
        """
        if not self.estimated_vs_actual:
            return 0.0
        total = sum(
            abs(est - actual) / max(actual, 1)
            for est, actual in self.estimated_vs_actual
        )
        return total / len(self.estimated_vs_actual)

    def merge(self, other: "EvalStats") -> "EvalStats":
        """A new stats object accumulating ``self`` then ``other``.

        Defined through :meth:`absorb` so the two accumulation paths
        can never drift field-by-field — a counter added to the
        dataclass only needs :meth:`absorb` taught once.
        """
        merged = EvalStats()
        merged.absorb(self)
        merged.absorb(other)
        return merged

    def absorb(self, other: "EvalStats") -> None:
        """Accumulate ``other`` in place.

        The process backend returns every component of a parallel
        batch with a private stats object and absorbs them at the batch
        barrier in batch order, so the totals are identical to the
        sequential schedule.
        """
        self.facts += other.facts
        self.inferences += other.inferences
        self.iterations += other.iterations
        self.seconds += other.seconds
        self.probes += other.probes
        self.plans_compiled += other.plans_compiled
        self.plan_cache_hits += other.plan_cache_hits
        self.replans += other.replans
        self.scc_count += other.scc_count
        self.scc_parallel_batches += other.scc_parallel_batches
        self.columnar_fallbacks += other.columnar_fallbacks
        self.incr_rounds += other.incr_rounds
        self.rederived += other.rederived
        self.backend_fallbacks += other.backend_fallbacks
        self.partition_rounds += other.partition_rounds
        if other.partition_skew > self.partition_skew:
            self.partition_skew = other.partition_skew
        room = MAX_ESTIMATE_SAMPLES - len(self.estimated_vs_actual)
        if room > 0:
            self.estimated_vs_actual.extend(other.estimated_vs_actual[:room])
        for sig, count in other.per_predicate.items():
            self.per_predicate[sig] = self.per_predicate.get(sig, 0) + count

    def __str__(self) -> str:
        return (
            f"facts={self.facts} inferences={self.inferences} "
            f"iterations={self.iterations} seconds={self.seconds:.4f} "
            f"probes={self.probes} plans={self.plans_compiled} "
            f"(+{self.plan_cache_hits} cached, {self.replans} replans) "
            f"sccs={self.scc_count}"
        )
