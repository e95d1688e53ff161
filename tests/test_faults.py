"""Fault-injection harness tests and the differential fault property.

Covers the `REPRO_FAULTS` grammar and its loud-failure validation, the
deterministic fire semantics of :class:`FaultPlan`, and the robustness
properties the harness exists to check:

* **Atomic rollback** — after any injected fault inside a maintenance
  batch, the session's visible state is bit-identical to a from-scratch
  evaluation of the *pre-batch* EDB (statistics and provenance
  included), and retrying without the fault reaches the *post-batch*
  oracle.  Never anything in between.
* **Backend fault tolerance** — a killed pool worker produces a retry
  (and eventually a graceful degrade to the serial backend) instead of
  a failed evaluation, with identical results and the event logged in
  ``EvalStats``.
* **Watchdog** — a delayed component plus a wall-clock budget turns a
  would-be hang into a clean rollback.
"""

import pytest

from repro.datalog.parser import parse_program
from repro.engine import faults
from repro.engine.backends import (
    BrokenExecutor,
    ProcessBackend,
    SerialBackend,
)
from repro.engine.database import Database
from repro.engine.faults import (
    FAULTS_ENV,
    FaultInjected,
    FaultPlan,
    parse_faults,
    resolve_faults,
)
from repro.engine.incremental import IncrementalSession
from repro.engine.provenance import provenance_eval
from repro.engine.seminaive import seminaive_eval
from repro.engine.stats import ComponentTimeout, MaintenanceError
from repro.workloads.synthetic import wide_dag_edb, wide_dag_program

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
    derivs = (
        dict(session._derivations) if session._derivations is not None else None
    )
    counters = (session.stats.facts, session.stats.inferences)
    return relations, edb, derivs, counters


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

    @pytest.mark.parametrize("provenance", [False, True])
    @pytest.mark.parametrize("nth", [1, 2])
    def test_component_raise_rolls_back_cleanly(self, provenance, nth):
        session = tc_session(record_provenance=provenance)
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

        # Retrying without the fault lands exactly on the post-batch oracle.
        session.apply_batch(
            inserts=[("e", (4, 5)), ("e", (5, 6))], deletes=[("e", (1, 2))]
        )
        post_edb = Database.from_dict(
            {"e": [(2, 3), (3, 4), (4, 5), (5, 6)]}
        )
        if provenance:
            post = provenance_eval(session.program, post_edb)
            assert session.database == post.database
            assert session._derivations == post.derivations
        else:
            post_oracle, _ = seminaive_eval(session.program, post_edb)
            assert session.database == post_oracle

    @pytest.mark.parametrize("provenance", [False, True])
    def test_failed_batch_leaves_session_statistics_untouched(self, provenance):
        session = tc_session(record_provenance=provenance)
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


class _FlakyOnce(ProcessBackend):
    """Fails the first batch submission with a broken pool, then recovers."""

    def __init__(self):
        super().__init__(retries=2, backoff=0.0)
        self.failures = 1

    def _run_batch_once(self, scheduler, batch, db, stats):
        if self.failures:
            self.failures -= 1
            raise BrokenExecutor("simulated worker loss")
        SerialBackend().run_batch(scheduler, batch, db, stats)


class _AlwaysBroken(ProcessBackend):
    def __init__(self, retries):
        super().__init__(retries=retries, backoff=0.0)
        self.attempts = 0

    def _run_batch_once(self, scheduler, batch, db, stats):
        self.attempts += 1
        raise BrokenExecutor("simulated worker loss")


class TestBackendFaultTolerance:
    def test_retry_recovers_from_one_worker_loss(self):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        base_db, base = seminaive_eval(program, edb, jobs=1)
        backend = _FlakyOnce()
        db, stats = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert db == base_db
        assert (stats.facts, stats.inferences) == (base.facts, base.inferences)
        assert stats.backend_retries == 1
        assert stats.backend_fallbacks == 0

    def test_exhausted_retries_degrade_to_serial(self):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        base_db, base = seminaive_eval(program, edb, jobs=1)
        backend = _AlwaysBroken(retries=2)
        db, stats = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert db == base_db
        assert (stats.facts, stats.inferences) == (base.facts, base.inferences)
        assert backend.attempts >= 3  # initial + 2 retries per batch
        assert stats.backend_retries >= 2
        assert stats.backend_fallbacks >= 1

    def test_zero_retries_degrades_immediately(self):
        program, edb = wide_dag_program(2), wide_dag_edb(2, 6)
        base_db, _ = seminaive_eval(program, edb, jobs=1)
        backend = _AlwaysBroken(retries=0)
        db, stats = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert db == base_db
        assert stats.backend_retries == 0
        assert stats.backend_fallbacks >= 1

    def test_injected_worker_kill_degrades_to_serial(self, monkeypatch):
        """A real SIGKILL'd pool worker: retries re-kill (fresh worker
        processes restart their fault counters), so the run must fall
        back to the serial backend in the parent — which never fires
        the worker-only site — and still produce the exact fixpoint."""
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        base_db, base = seminaive_eval(program, edb, jobs=1)
        monkeypatch.setenv(FAULTS_ENV, "worker:kill:1")
        faults.clear()  # re-arm the env lookup in this (parent) process
        backend = ProcessBackend(retries=1, backoff=0.0)
        db, stats = seminaive_eval(program, edb, jobs=2, backend=backend)
        assert db == base_db
        assert (stats.facts, stats.inferences) == (base.facts, base.inferences)
        assert stats.backend_fallbacks >= 1

    def test_real_errors_are_not_retried(self):
        program, edb = wide_dag_program(3), wide_dag_edb(3, 8)
        backend = ProcessBackend(retries=2, backoff=0.0)
        from repro.engine.stats import NonTerminationError

        with pytest.raises(NonTerminationError):
            seminaive_eval(
                program, edb, max_facts=10, jobs=2, backend=backend
            )
