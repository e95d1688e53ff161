"""Fault-injection harness tests and the differential fault property.

Covers the `REPRO_FAULTS` grammar and its loud-failure validation, the
deterministic fire semantics of :class:`FaultPlan`, and the robustness
properties the harness exists to check:

* **Atomic rollback** — after any injected fault inside a maintenance
  batch, the session's visible state is bit-identical to a from-scratch
  evaluation of the *pre-batch* EDB (statistics and explained trees
  included), and retrying without the fault reaches the *post-batch*
  oracle.  Never anything in between.
* **Backend fault tolerance** — a killed pool worker makes its batch
  run on the serial backend at once instead of failing the evaluation,
  with identical results and the event logged in ``EvalStats``; the
  next batch builds a fresh pool.
* **Watchdog** — a delayed component plus a wall-clock budget turns a
  would-be hang into a clean rollback.
"""

import pytest

from repro.datalog.parser import parse_program
from repro.engine import faults
from repro.engine.backends import BrokenExecutor, ProcessBackend
from repro.engine.database import Database
from repro.engine.faults import (
    FAULTS_ENV,
    FaultInjected,
    FaultPlan,
    parse_faults,
    resolve_faults,
)
from repro.engine.incremental import IncrementalSession
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import ComponentTimeout, MaintenanceError
from repro.workloads.synthetic import wide_dag_edb, wide_dag_program
from tests.conftest import assert_trees_are_those_of

TC_TEXT = """
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), t(Z, Y).
"""


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends with no installed fault plan."""
    faults.clear()
    yield
    faults.clear()


def tc_session(**kwargs) -> IncrementalSession:
    program = parse_program(TC_TEXT)
    edb = Database.from_dict({"e": [(1, 2), (2, 3), (3, 4)]})
    return IncrementalSession(program, edb, **kwargs)


def visible_state(session):
    """Everything a batch must leave untouched on failure."""
    relations = {
        sig: frozenset(rel.tuples)
        for sig, rel in session.database.relations.items()
        if rel.tuples
    }
    edb = {
        sig: frozenset(rel.tuples)
        for sig, rel in session.edb.relations.items()
        if rel.tuples
    }
    counters = (session.stats.facts, session.stats.inferences)
    return relations, edb, counters


class TestParseFaults:
    def test_single_event(self):
        plan = parse_faults("component:raise:2")
        assert plan.events == (faults.FaultEvent("component", "raise", 2),)

    def test_multiple_events_and_delay(self):
        plan = parse_faults("worker:kill:1, journal:torn:3, component:delay:2:0.5")
        assert len(plan.events) == 3
        assert plan.events[2].delay == 0.5

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "garbage",
            "bogus:raise:1",            # unknown site
            "component:explode:1",      # unknown kind
            "component:raise:zero",     # non-integer position
            "component:raise:0",        # position < 1
            "component:torn:1",         # torn outside the journal site
            "component:delay:1",        # delay without seconds
            "component:delay:1:-1",     # non-positive delay
            "component:raise:1:0.5",    # fourth field on a non-delay
        ],
    )
    def test_malformed_specs_fail_loudly(self, spec):
        with pytest.raises(ValueError, match="site:kind:nth"):
            parse_faults(spec)

    def test_error_lists_accepted_sites_and_kinds(self):
        with pytest.raises(ValueError) as exc_info:
            parse_faults("nope:raise:1")
        message = str(exc_info.value)
        for name in faults.SITES + faults.KINDS:
            assert name in message

    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert resolve_faults() is None
        monkeypatch.setenv(FAULTS_ENV, "  ")
        assert resolve_faults() is None
        monkeypatch.setenv(FAULTS_ENV, "component:raise:1")
        plan = resolve_faults()
        assert plan is not None and plan.events[0].site == "component"

    def test_bad_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "junk")
        with pytest.raises(ValueError, match=FAULTS_ENV):
            resolve_faults()


class TestFirePlan:
    def test_fires_at_exact_hit_only(self):
        plan = parse_faults("component:raise:3")
        plan.fire("component")
        plan.fire("component")
        plan.fire("worker")  # separate counter
        with pytest.raises(FaultInjected, match="boundary #3"):
            plan.fire("component")
        plan.fire("component")  # hit 4: past the event, quiet again

    def test_reset_restarts_counters(self):
        plan = parse_faults("component:raise:1")
        with pytest.raises(FaultInjected):
            plan.fire("component")
        plan.fire("component")
        plan.reset()
        with pytest.raises(FaultInjected):
            plan.fire("component")

    def test_torn_returns_a_cut_inside_the_record(self):
        plan = parse_faults("journal:torn:1")
        cut = plan.fire("journal", torn_length=100)
        assert 1 <= cut < 100

    def test_module_fire_is_noop_without_plan(self):
        faults.install(None)
        assert faults.fire("component") is None

    def test_install_resets_counters(self):
        plan = parse_faults("component:raise:1")
        with pytest.raises(FaultInjected):
            plan.fire("component")
        faults.install(plan)
        with pytest.raises(FaultInjected):
            faults.fire("component")


class TestDifferentialFaultProperty:
    """Post-fault state == pre-batch oracle; retry == post-batch oracle."""

    @pytest.mark.parametrize("nth", [1, 2])
    def test_component_raise_rolls_back_cleanly(self, nth):
        session = tc_session()
        pre_edb = session.edb.copy()
        before = visible_state(session)
        pre_oracle, _ = seminaive_eval(session.program, session.edb)
        assert session.database == pre_oracle

        faults.install(parse_faults(f"component:raise:{nth}"))
        with pytest.raises(MaintenanceError) as exc_info:
            session.apply_batch(
                inserts=[("e", (4, 5)), ("e", (5, 6))],
                deletes=[("e", (1, 2))],
            )
        assert isinstance(exc_info.value.__cause__, FaultInjected)
        faults.install(None)

        assert visible_state(session) == before
        assert session.database == pre_oracle  # pre-batch oracle holds
        assert_trees_are_those_of(session, pre_edb)

        # Retrying without the fault lands exactly on the post-batch oracle.
        session.apply_batch(
            inserts=[("e", (4, 5)), ("e", (5, 6))], deletes=[("e", (1, 2))]
        )
        post_edb = Database.from_dict(
            {"e": [(2, 3), (3, 4), (4, 5), (5, 6)]}
        )
        post_oracle, _ = seminaive_eval(session.program, post_edb)
        assert session.database == post_oracle
        assert_trees_are_those_of(session, post_edb)

    def test_failed_batch_leaves_session_statistics_untouched(self):
        session = tc_session()
        counters = (session.stats.facts, session.stats.inferences)
        faults.install(parse_faults("component:raise:1"))
        with pytest.raises(MaintenanceError):
            session.insert([("e", (4, 5))])
        assert (session.stats.facts, session.stats.inferences) == counters

    def test_timeout_turns_delay_into_clean_rollback(self):
        session = tc_session(max_seconds=0.02)
        before = visible_state(session)
        faults.install(parse_faults("component:delay:1:0.1"))
        with pytest.raises(MaintenanceError) as exc_info:
            session.insert([("e", (4, 5))])
        assert isinstance(exc_info.value.__cause__, ComponentTimeout)
        assert exc_info.value.phase == "insert"
        assert visible_state(session) == before

    def test_rollback_drops_relations_created_by_the_batch(self):
        program = parse_program("p(X) :- q(X).")
        session = IncrementalSession(program, Database())
        faults.install(parse_faults("component:raise:1"))
        with pytest.raises(MaintenanceError):
            session.insert([("q", (1,))])
        faults.install(None)
        assert session.database.facts("p") == set()
        assert session.database.facts("q") == set()
        assert session.edb.facts("q") == set()


class _AlwaysBroken(ProcessBackend):
    """Every batch submission finds a broken pool."""

    def __init__(self):
        super().__init__()
        self.attempts = 0

    def _ship_batch(self, scheduler, batch, db, stats):
        self.attempts += 1
        raise BrokenExecutor("simulated worker loss")


class _BrokenFirstBatch(ProcessBackend):
    """The first batch's pool breaks; later batches ship for real."""

    def __init__(self):
        super().__init__()
        self.pools = []

    def _ensure_pool(self, workers):
        pool = super()._ensure_pool(workers)
        if not self.pools or self.pools[-1] is not pool:
            self.pools.append(pool)
        return pool

    def _ship_batch(self, scheduler, batch, db, stats):
        if not self.pools:
            self._ensure_pool(scheduler.config.jobs)
            raise BrokenExecutor("simulated worker loss")
        super()._ship_batch(scheduler, batch, db, stats)


# Two depth batches of two independent components each.
TWO_BATCHES = """
a(X, Y) :- e(X, Y).
a(X, Y) :- a(X, Z), e(Z, Y).
b(X, Y) :- f(X, Y).
b(X, Y) :- b(X, Z), f(Z, Y).
c(X) :- a(X, Y).
d(X) :- b(X, Y).
"""


def _counters(stats):
    return (stats.facts, stats.inferences, stats.iterations)


class TestBackendFaultTolerance:
    def test_broken_pool_falls_back_to_serial_at_once(self):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        base_db, base = seminaive_eval(program, edb, jobs=1)
        backend = _AlwaysBroken()
        db, stats = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert db == base_db
        assert _counters(stats) == _counters(base)
        assert backend.attempts == 1  # no second submission
        assert stats.backend_fallbacks == 1

    def test_next_batch_builds_a_fresh_pool(self):
        program = parse_program(TWO_BATCHES)
        edb = Database.from_dict(
            {"e": [(i, i + 1) for i in range(6)], "f": [(i, i + 2) for i in range(6)]}
        )
        base_db, base = seminaive_eval(program, edb, jobs=1)
        backend = _BrokenFirstBatch()
        db, stats = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert stats.scc_parallel_batches == 2
        assert db == base_db
        assert _counters(stats) == _counters(base)
        assert stats.backend_fallbacks == 1
        # The broken pool was discarded: the second batch shipped to a
        # pool of its own, not to the one the first batch lost.
        assert len(backend.pools) == 2

    def test_every_broken_batch_falls_back_on_its_own(self):
        program = parse_program(TWO_BATCHES)
        edb = Database.from_dict(
            {"e": [(i, i + 1) for i in range(6)], "f": [(i, i + 2) for i in range(6)]}
        )
        base_db, base = seminaive_eval(program, edb, jobs=1)
        backend = _AlwaysBroken()
        db, stats = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert db == base_db
        assert _counters(stats) == _counters(base)
        # One submission and one fallback per batch: a broken batch does
        # not make the backend give up on the batches after it.
        assert backend.attempts == stats.scc_parallel_batches == 2
        assert stats.backend_fallbacks == 2

    def test_injected_worker_kill_degrades_to_serial(self, monkeypatch):
        """A real SIGKILL'd pool worker: the batch falls back to the
        serial backend in the parent — which never fires the worker-only
        site — and still produces the exact fixpoint."""
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        base_db, base = seminaive_eval(program, edb, jobs=1)
        monkeypatch.setenv(FAULTS_ENV, "worker:kill:1")
        faults.clear()  # re-arm the env lookup in this (parent) process
        db, stats = seminaive_eval(program, edb, jobs=2, backend=ProcessBackend())
        assert db == base_db
        assert _counters(stats) == _counters(base)
        assert stats.backend_fallbacks == 1

    def test_real_errors_are_not_retried(self):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        from repro.engine.stats import NonTerminationError

        with pytest.raises(NonTerminationError):
            seminaive_eval(
                program, edb, max_facts=10, jobs=2, backend=ProcessBackend()
            )
