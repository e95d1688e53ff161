"""Concurrent serving layer: snapshot isolation under a single writer.

The load-bearing property is *prefix consistency*: with one writer
applying batches and K reader threads answering queries, every answer
set a reader ever observes must equal the from-scratch oracle of some
prefix of the committed batch history — never a mid-batch state, and
never a batch that failed and rolled back.  ``TestPrefixConsistency``
enforces this against 200 randomized writer scripts (poison batches
included) with K=4 racing readers; the deterministic tests pin down
the individual guarantees (view immutability, abort invisibility,
journal compensation, the socket framing).
"""

import gc
import random
import socket
import threading
import time
import types

import pytest

from repro.datalog.parser import parse_literal, parse_program
from repro.engine import faults
from repro.engine.database import Database
from repro.engine.incremental import IncrementalSession
from repro.engine.journal import Journal, recover_session
from repro.engine.provenance import explain
from repro.engine import server as server_module
from repro.engine.server import (
    MAX_LINE_BYTES,
    DatalogServer,
    SocketFront,
    handle_line,
)
from repro.engine.stats import MaintenanceError

TC_TEXT = """
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), t(Z, Y).
"""

BASE = {"e": [(1, 2), (2, 3)]}

#: A chained-edge batch that blows a ``max_iterations=10`` round
#: budget: applying it raises ``MaintenanceError`` and rolls back.
POISON = [("e", (100 + i, 101 + i)) for i in range(25)]


def make_server(base=BASE, **knobs):
    program = parse_program(TC_TEXT)
    session = IncrementalSession(program, Database.from_dict(base), **knobs)
    return DatalogServer(session)


def served_answers(server, goal):
    """The answer set of ``? goal`` as a client reads it off the wire."""
    payload, status, _ = handle_line(server, f"? {goal}")
    assert status == f"ok {len(payload)} answers", status
    return frozenset(
        tuple(int(value) for value in line.split("\t")) for line in payload
    )


def oracle(edb_facts):
    """From-scratch answers for the probe query at one prefix."""
    program = parse_program(TC_TEXT)
    session = IncrementalSession(program, Database.from_dict(edb_facts))
    return frozenset(session.query("t(X, Y)"))


# ----------------------------------------------------------------------
# The randomized concurrency harness (the tentpole property)
# ----------------------------------------------------------------------


class TestPrefixConsistency:
    """K reader threads racing a scripted writer never observe a state
    outside the committed-prefix history."""

    READERS = 4
    ITERATIONS = 200

    @staticmethod
    def _random_script(rng):
        """A writer script: list of (inserts, deletes, poisoned) batches.

        Facts live on 6 nodes so chains stay far below the round
        budget; poisoned batches append the deterministic blow-up.
        """
        stored = [tuple(f) for f in BASE["e"]]
        script = []
        for _ in range(rng.randrange(3, 6)):
            if rng.random() < 0.25:
                script.append((list(POISON), [], True))
                continue
            inserts, deletes = [], []
            # Delete before choosing inserts so no batch both inserts
            # and deletes the same fact (ordering would be ambiguous).
            if stored and rng.random() < 0.4:
                victim = stored.pop(rng.randrange(len(stored)))
                deletes.append(("e", victim))
            for _ in range(rng.randrange(1, 3)):
                fact = (rng.randrange(6), rng.randrange(6))
                if fact not in stored and ("e", fact) not in deletes:
                    inserts.append(("e", fact))
                    stored.append(fact)
            if inserts or deletes:
                script.append((inserts, deletes, False))
        return script

    @staticmethod
    def _prefix_oracles(script):
        """Answer sets for every committed prefix, indexed by version."""
        edb = [("e", tuple(f)) for f in BASE["e"]]
        oracles = [oracle({"e": [args for _, args in edb]})]
        for inserts, deletes, poisoned in script:
            if poisoned:
                continue
            edb = [f for f in edb if f not in deletes] + inserts
            oracles.append(oracle({"e": [args for _, args in edb]}))
        return oracles

    def _run_round(self, seed):
        rng = random.Random(seed)
        script = self._random_script(rng)
        oracles = self._prefix_oracles(script)
        server = make_server(max_iterations=10)
        done = threading.Event()
        observed = [[] for _ in range(self.READERS)]
        errors = []

        def reader(slot):
            # Half the readers hold a view, half send ``?`` through the
            # wire handler; both must be prefix-consistent.
            over_the_wire = slot % 2 == 1
            try:
                while True:
                    view = server.view()
                    if over_the_wire:
                        answers = served_answers(server, "t(X, Y)")
                    else:
                        answers = frozenset(view.query("t(X, Y)"))
                    observed[slot].append((view.version, answers))
                    if done.is_set():
                        break
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(self.READERS)
        ]
        for thread in threads:
            thread.start()
        committed = aborted = 0
        for inserts, deletes, poisoned in script:
            if poisoned:
                with pytest.raises(MaintenanceError):
                    server.apply_batch(inserts=inserts)
                aborted += 1
            else:
                server.apply_batch(
                    inserts=inserts or None, deletes=deletes or None
                )
                committed += 1
        done.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "reader thread hung"
        assert not errors, errors

        valid = set(oracles)
        for slot, history in enumerate(observed):
            assert history, f"reader {slot} never completed a query"
            last_version = -1
            for version, answers in history:
                # Never a mid-batch or rolled-back state: every answer
                # set is the oracle of *some* committed prefix...
                assert answers in valid, (
                    f"seed {seed}: reader {slot} saw an answer set "
                    f"matching no committed prefix"
                )
                # ...and the view holders' pinned view pairs the version
                # with exactly that prefix's oracle.
                if slot % 2 == 0:
                    assert answers == oracles[version], (
                        f"seed {seed}: view version {version} answered "
                        f"a different prefix"
                    )
                assert version >= last_version, (
                    f"seed {seed}: reader {slot} saw versions go backwards"
                )
                last_version = version
        assert server.stats.version == committed
        assert server.stats.batches_committed == committed
        assert server.stats.batches_aborted == aborted
        assert frozenset(server.query("t(X, Y)")) == oracles[-1]

    def test_200_randomized_rounds(self):
        for seed in range(self.ITERATIONS):
            self._run_round(seed)


# ----------------------------------------------------------------------
# Deterministic guarantees
# ----------------------------------------------------------------------


class TestReadViews:
    def test_initial_view_answers_the_materialization(self):
        server = make_server()
        assert server.view().version == 0
        assert server.query("t(1, Y)") == {(2,), (3,)}
        assert server.holds("t(1, 3)")
        assert not server.holds("t(3, 1)")

    def test_old_views_stay_pinned_across_commits(self):
        server = make_server()
        before = server.view()
        old_answers = before.query("t(X, Y)")
        server.insert("e(3, 4).")
        after = server.view()
        assert after.version == before.version + 1
        # The old view is frozen: identical answers after the commit.
        assert before.query("t(X, Y)") == old_answers
        assert (3, 4) in after.query("t(X, Y)")
        assert (3, 4) not in before.query("t(X, Y)")

    def test_aborted_batches_are_never_published(self):
        server = make_server(max_iterations=10)
        before = server.view()
        with pytest.raises(MaintenanceError):
            server.apply_batch(inserts=POISON)
        assert server.view() is before  # same object: nothing published
        assert server.stats.batches_aborted == 1
        assert server.stats.version == 0
        assert server.query("t(X, Y)") == before.query("t(X, Y)")

    def test_a_served_read_tracks_the_published_version(self):
        server = make_server()
        assert served_answers(server, "t(1, Y)") == {(2,), (3,)}
        server.insert("e(3, 4).")
        assert served_answers(server, "t(1, Y)") == {(2,), (3,), (4,)}
        server.delete("e(3, 4).")
        assert served_answers(server, "t(1, Y)") == {(2,), (3,)}

    def test_a_goal_at_another_arity_is_an_error(self):
        """``t/3`` on a program defining ``t/2`` is refused by every
        read, not answered with an empty set."""
        server = make_server()
        message = (
            "query predicate t/3 is not defined by the program "
            "(t has arity 2)"
        )
        assert handle_line(server, "? t(1, 2, 3)") == (
            [], f"error: {message}", False
        )
        session = server.session
        for read in (server.query, server.view().query, session.query):
            with pytest.raises(ValueError, match=r"t/3 .*\(t has arity 2\)"):
                read("t(1, 2, 3)")
        assert server.query("e(1, 2, 3)") == set()  # not a derived predicate

    def test_snapshot_age_resets_on_publication(self):
        server = make_server()
        server.insert("e(3, 4).")
        assert 0 <= server.snapshot_age() < 60
        assert server.stats.queries_served == 0
        server.query("t(1, Y)")
        server.query("t(X, 3)")
        assert server.stats.queries_served == 2

    def test_explain_answers_from_the_published_view(self, monkeypatch):
        """A writer held inside a delete batch (its EDB copy already
        without ``e(2, 3)``) does not move what ``explain`` answers: the
        trees are those of the pre-batch EDB until the batch commits."""
        base = {"e": [(1, 2), (2, 3), (3, 4)]}
        server = make_server(base)
        program = server.session.program
        entered, release = threading.Event(), threading.Event()
        overdelete = IncrementalSession._overdelete

        def held(session, *args):
            entered.set()
            assert release.wait(30)
            return overdelete(session, *args)

        monkeypatch.setattr(IncrementalSession, "_overdelete", held)
        writer = threading.Thread(target=server.delete, args=("e(2, 3).",))
        writer.start()
        try:
            assert entered.wait(30)
            before = Database.from_dict(base)
            for fact in ("t(1, 3)", "t(1, 4)", "t(2, 4)", "e(2, 3)"):
                tree = explain(program, before, parse_literal(fact))
                assert server.explain(fact) == tree
        finally:
            release.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert server.stats.version == 1
        after = Database.from_dict({"e": [(1, 2), (3, 4)]})
        for fact in ("t(1, 2)", "t(3, 4)"):
            assert server.explain(fact) == explain(program, after, parse_literal(fact))
        with pytest.raises(KeyError):
            server.explain("t(1, 3)")


class TestJournaledServer:
    def test_commits_and_aborts_are_compensated(self, tmp_path):
        path = tmp_path / "wal.rjn"
        program = parse_program(TC_TEXT)
        session = IncrementalSession(
            program, Database.from_dict(BASE), max_iterations=10
        )
        journal = Journal(path, program, Database.from_dict(BASE))
        with DatalogServer(session, journal=journal) as server:
            server.insert("e(3, 4).")
            with pytest.raises(MaintenanceError):
                server.apply_batch(inserts=POISON)
            server.delete("e(1, 2).")
        recovered, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE), max_iterations=10
        )
        journal.close()
        assert replayed == 2  # the poisoned batch was compensated
        assert recovered.database == session.database
        assert recovered.edb == session.edb

    def test_a_batch_fact_text_cannot_carry_is_refused(self, tmp_path):
        """Neither journaled nor applied, and not a failed write: the
        journal takes the next batch."""
        path = tmp_path / "wal.rjn"
        program = parse_program(TC_TEXT)
        session = IncrementalSession(program, Database.from_dict(BASE))
        journal = Journal(path, program, Database.from_dict(BASE))
        with DatalogServer(session, journal=journal) as server:
            with pytest.raises(ValueError, match="cannot journal"):
                server.insert([("e", (3, 4.5))])
            server.insert("e(3, 4).")
            assert (server.stats.version, server.stats.batches_aborted) == (1, 0)
        recovered, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE)
        )
        journal.close()
        assert replayed == 1
        assert recovered.database == session.database

    def test_a_failed_append_stops_the_journal(self, tmp_path):
        """A torn append leaves a tail that replay stops at, so no later
        batch may be acknowledged: the journal refuses it instead."""
        path = tmp_path / "wal.rjn"
        program = parse_program(TC_TEXT)
        base = {"e": [(1, 2)]}
        session = IncrementalSession(program, Database.from_dict(base))
        journal = Journal(path, program, Database.from_dict(base))
        with DatalogServer(session, journal=journal) as server:
            assert handle_line(server, "+ e(2, 3).")[1].startswith("ok +")
            faults.install(faults.parse_faults("journal:torn:1"))
            try:
                torn = handle_line(server, "+ e(3, 4).")[1]
            finally:
                faults.install(None)
            assert torn.startswith("error: injected torn journal write")
            later = handle_line(server, "+ e(4, 5).")[1]
            assert later.startswith("error: journal") and "FaultInjected" in later
        recovered, journal, _ = recover_session(
            program, path, Database.from_dict(base)
        )
        journal.close()
        assert recovered.edb == session.edb
        assert recovered.database == session.database

    def test_a_failed_fsync_refuses_the_batch_for_recovery_too(
        self, tmp_path, monkeypatch
    ):
        """A batch whose fsync fails is answered ``error:`` and not
        applied; its bytes reached the file whole, so the journal cuts
        them back off — recovery must not bring the batch back."""
        import errno
        import os

        path = tmp_path / "wal.rjn"
        program = parse_program(TC_TEXT)
        base = {"e": [(1, 2)]}
        session = IncrementalSession(program, Database.from_dict(base))
        journal = Journal(path, program, Database.from_dict(base))
        with DatalogServer(session, journal=journal) as server:
            assert handle_line(server, "+ e(2, 3).")[1].startswith("ok +")

            def full_disk(fd):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            with monkeypatch.context() as patch:
                patch.setattr(os, "fsync", full_disk)
                refused = handle_line(server, "+ e(3, 4).")[1]
            assert refused.startswith("error: [Errno 28]")
            assert server.query("t(1, Y)") == {(2,), (3,)}
            later = handle_line(server, "+ e(4, 5).")[1]
            assert later.startswith("error: journal") and "OSError" in later
            assert "may replay" not in later  # the cut-back succeeded
        recovered, journal, replayed = recover_session(
            program, path, Database.from_dict(base)
        )
        journal.close()
        assert replayed == 1
        assert recovered.edb == session.edb
        assert recovered.database == session.database


class TestLineProtocol:
    def test_grammar_round_trip(self):
        server = make_server()
        payload, status, quitting = handle_line(server, "? t(1, Y)")
        assert payload == ["2", "3"]
        assert status == "ok 2 answers"
        assert not quitting
        payload, status, _ = handle_line(server, "+ e(3, 4).")
        assert payload == []
        assert status.startswith("ok +")
        payload, status, _ = handle_line(server, "stats")
        assert any("batches=1 committed" in line for line in payload)
        payload, status, quitting = handle_line(server, "quit")
        assert status == "ok bye" and quitting

    def test_errors_report_without_mutating(self):
        server = make_server()
        _, status, _ = handle_line(server, "bogus")
        assert status.startswith("error: unknown command")
        _, status, _ = handle_line(server, "+ e(1,")
        assert status.startswith("error:")
        assert server.stats.version == 0

    def test_workers_validation(self):
        server = make_server()
        with pytest.raises(ValueError, match="workers"):
            SocketFront(server, workers=0)


def _reachable(root, kind):
    """Instances of ``kind`` reachable from ``root`` through object
    references, not entering modules, classes or functions (whose
    globals reach everything)."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, kind):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) in seen or isinstance(
                ref, (types.ModuleType, type, types.FunctionType)
            ):
                continue
            seen.add(id(ref))
            stack.append(ref)
    return found


class TestSocketFront:
    @staticmethod
    def _exchange(sock_file, sock, line):
        """Send one command; collect payload lines and the status."""
        sock.sendall((line + "\n").encode("utf-8"))
        payload = []
        while True:
            reply = sock_file.readline().rstrip("\n")
            if reply.startswith("= "):
                payload.append(reply[2:])
            else:
                return payload, reply

    def test_served_session_over_tcp(self):
        server = make_server()
        with SocketFront(server, workers=2) as front:
            with socket.create_connection(
                (front.host, front.port), timeout=10
            ) as sock, sock.makefile("r", encoding="utf-8") as reader:
                payload, status = self._exchange(reader, sock, "? t(1, Y)")
                assert payload == ["2", "3"]
                assert status == "ok 2 answers"
                payload, status = self._exchange(reader, sock, "+ e(3, 4).")
                assert status.startswith("ok +")
                payload, status = self._exchange(reader, sock, "? t(1, Y)")
                assert payload == ["2", "3", "4"]
                # explain needs no flag and answers from the pinned view
                payload, status = self._exchange(reader, sock, "explain t(1, 4)")
                assert status == "ok"
                assert payload[0].startswith("t(1, 4)    [via")
                assert "e(3, 4)" in [line.strip() for line in payload]
                payload, status = self._exchange(reader, sock, "explain t(4, 1)")
                assert payload == [] and status.startswith("error:")
                payload, status = self._exchange(reader, sock, "quit")
                assert status == "ok bye"

    def test_an_undecodable_line_is_refused_not_the_connection(self):
        """Requests are decoded one line at a time: a line that is not
        UTF-8 gets an ``error:`` status, and the requests around it are
        answered on the same connection."""
        server = make_server()
        with SocketFront(server, workers=1) as front:
            with socket.create_connection(
                (front.host, front.port), timeout=10
            ) as sock, sock.makefile("rb") as reader:
                sock.sendall(b"? t(1, Y)\n\xff\xfe\n? t(2, Y)\nquit\n")
                replies = reader.read().decode("utf-8")
        assert replies == (
            "= 2\n= 3\nok 2 answers\n"
            "error: request is not valid UTF-8\n"
            "= 3\nok 1 answers\n"
            "ok bye\n"
        )

    def test_an_over_long_line_is_refused_not_the_connection(self):
        """A line past ``MAX_LINE_BYTES`` answers ``error:`` and is
        dropped without being held whole; the next line on the same
        connection is answered as usual."""
        server = make_server()
        with SocketFront(server, workers=1) as front:
            with socket.create_connection(
                (front.host, front.port), timeout=10
            ) as sock, sock.makefile("rb") as reader:
                sock.sendall(b"x" * (2 << 20) + b"\n? t(1, Y)\nquit\n")
                replies = reader.read().decode("utf-8")
        assert MAX_LINE_BYTES == 1 << 20
        assert replies == (
            "error: request line longer than 1048576 bytes\n"
            "= 2\n= 3\nok 2 answers\n"
            "ok bye\n"
        )

    def test_a_stalled_line_times_out_and_frees_its_slot(self, monkeypatch):
        """A client that stops mid-line is closed after
        ``READ_TIMEOUT_S``: with one worker slot, the next client is
        served instead of waiting behind it forever."""
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        with SocketFront(make_server(), workers=1) as front:
            with socket.create_connection(
                (front.host, front.port), timeout=10
            ) as stalled:
                stalled.sendall(b"? t(1")
                with socket.create_connection(
                    (front.host, front.port), timeout=2
                ) as sock, sock.makefile("r", encoding="utf-8") as reader:
                    payload, status = self._exchange(reader, sock, "? t(1, Y)")
                    assert (payload, status) == (["2", "3"], "ok 2 answers")
                # the stalled connection was closed, not answered
                assert stalled.recv(64) == b""

    def test_shutdown_stops_the_listener(self):
        """``shutdown`` wakes the thread blocked in ``accept``: it
        returns at once, the thread is gone, and a connect after it is
        refused rather than served."""
        front = SocketFront(make_server(), workers=1)
        front.start()
        with socket.create_connection(
            (front.host, front.port), timeout=10
        ) as sock, sock.makefile("r", encoding="utf-8") as reader:
            assert self._exchange(reader, sock, "quit") == ([], "ok bye")
        begin = time.monotonic()
        front.shutdown()
        assert time.monotonic() - begin < 1
        assert not front._accept_thread.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((front.host, front.port), timeout=5)

    def test_finished_handlers_are_not_kept(self):
        """Each connection's handler thread is dropped when it ends: after
        many connect/``quit`` cycles no finished thread is reachable
        from the front, so a long-running server does not grow with
        the connections it has served."""
        with SocketFront(make_server(), workers=1) as front:
            for _ in range(50):
                with socket.create_connection(
                    (front.host, front.port), timeout=10
                ) as sock, sock.makefile("r", encoding="utf-8") as reader:
                    assert self._exchange(reader, sock, "quit") == ([], "ok bye")
            finished = [
                thread
                for thread in _reachable(front, threading.Thread)
                if not thread.is_alive()
            ]
            assert finished == []

    def test_concurrent_clients_share_one_writer(self):
        server = make_server()
        with SocketFront(server, workers=4) as front:
            def client(k):
                with socket.create_connection(
                    (front.host, front.port), timeout=10
                ) as sock, sock.makefile("r", encoding="utf-8") as reader:
                    _, status = self._exchange(
                        reader, sock, f"+ e(1, {10 + k})."
                    )
                    assert status.startswith("ok +")
                    payload, status = self._exchange(reader, sock, "? t(1, Y)")
                    assert status.endswith("answers")

            threads = [
                threading.Thread(target=client, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        # All four inserts committed, serialized by the writer lock.
        assert server.stats.batches_committed == 4
        answers = server.query("t(1, Y)")
        assert {(10,), (11,), (12,), (13,)} <= answers
