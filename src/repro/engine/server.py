"""Concurrent serving: snapshot-isolated readers under a single writer.

:class:`DatalogServer` turns an
:class:`~repro.engine.incremental.IncrementalSession` into a served
system: one writer at a time applies journaled ``apply_batch``
maintenance while any number of reader threads answer queries against
*pinned read views*.

The MVCC scheme rests on two properties of the layers below:

* **Copy-on-write batches.**  ``apply_batch`` detaches its dirty
  closure — every relation the batch could touch is swapped for a copy
  and only the copies are mutated (see
  ``IncrementalSession._begin_undo``).  The relation objects any
  already-published view references are therefore frozen forever.
* **Atomic publication.**  After a batch commits, the server pins the
  session's database and EDB (:meth:`~repro.engine.database.Database.pin`
  — a dict of relation pointers sharing the term dictionary and column
  slabs by reference, not a copy) into a fresh :class:`ReadView` and
  installs it with a single reference assignment.  Readers grab the
  current view once per query and answer entirely from it.

Together these give *prefix consistency*: every answer a reader ever
produces equals a from-scratch evaluation of some prefix of the
committed batch history — never a mid-batch state, and never a batch
that failed and rolled back (`MaintenanceError`, injected faults,
timeouts), because failed batches leave the previous view installed.

Writes follow the journal's write-ahead contract (normalize, then
append, then apply; a rolled-back batch appends a compensating abort
record), so a SIGKILL at any moment — including while readers are
mid-query — recovers via :func:`repro.engine.journal.recover_session`
to exactly the committed prefix.

:class:`SocketFront` exposes the server over a line-oriented TCP
protocol reusing the ``+``/``-``/``?``/``stats`` serve grammar; see
``docs/serve.md`` for the framing.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional, Set, Tuple, Union

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_query
from repro.engine.database import Database, unwrap_rows
from repro.engine.query import QueryCompiler
from repro.engine.stats import EvalStats


@dataclass
class ServerStats:
    """Serving-side counters, in the :class:`EvalStats` house style.

    * ``batches_committed`` / ``batches_aborted`` — maintenance batches
      that published a new view vs. batches that failed, rolled back,
      and left the previous view installed (their journal records are
      compensated by abort markers);
    * ``queries_served`` — reads answered from a pinned view
      (:meth:`DatalogServer.query` and :meth:`DatalogServer.query_goal`
      both count);
    * ``checkpoints`` — journal checkpoints appended by the
      ``checkpoint_every`` policy;
    * ``version`` — the current view's version: the number of
      committed batches since the server started (version 0 is the
      initial materialization).
    """

    batches_committed: int = 0
    batches_aborted: int = 0
    queries_served: int = 0
    checkpoints: int = 0
    version: int = 0

    def __str__(self) -> str:
        return (
            f"batches={self.batches_committed} committed "
            f"{self.batches_aborted} aborted, "
            f"queries={self.queries_served}, "
            f"checkpoints={self.checkpoints}, "
            f"version={self.version}"
        )


class ReadView:
    """One published, immutable snapshot of the served state.

    ``database`` is the pinned materialized database (EDB + IDB) and
    ``edb`` the pinned base facts, both sharing their relations by
    reference with the frozen pre-publication objects.  A view never
    changes once constructed; readers may keep one across many queries
    for a transaction-like consistent read sequence.
    """

    __slots__ = ("version", "database", "edb", "published_at")

    def __init__(
        self, version: int, database: Database, edb: Database, published_at: float
    ):
        self.version = version
        self.database = database
        self.edb = edb
        self.published_at = published_at

    def query(self, query: Union[str, Literal]) -> Set[Tuple]:
        """Bindings of the goal's variables against this view.

        The materialized read: answers come straight from the pinned
        database, unwrapped to plain Python values exactly like
        :meth:`IncrementalSession.query`.
        """
        goal = parse_query(query) if isinstance(query, str) else query
        return unwrap_rows(self.database.query(goal))

    def holds(self, query: Union[str, Literal]) -> bool:
        """True when a ground query holds in this view."""
        return bool(self.query(query))

    def age(self) -> float:
        """Seconds since this view was published."""
        return time.monotonic() - self.published_at

    def __repr__(self) -> str:
        return f"ReadView(version={self.version}, age={self.age():.3f}s)"


class DatalogServer:
    """A concurrent front over one :class:`IncrementalSession`.

    Writes (:meth:`apply_batch`, :meth:`insert`, :meth:`delete`) are
    serialized by an internal lock — the session below is single-writer
    by design — and follow the write-ahead order when a journal is
    attached: normalize, append to the journal, apply, then atomically
    publish the new :class:`ReadView`; a failed batch appends a
    compensating abort record and publishes nothing.  Reads
    (:meth:`query`, :meth:`query_goal`, :meth:`view`) never block on
    the writer and never observe mid-batch state.

    ``checkpoint_every`` appends a journal checkpoint after every that
    many committed batches, exactly like the serve REPL's policy.
    """

    def __init__(
        self,
        session,
        *,
        journal=None,
        checkpoint_every: Optional[int] = None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"invalid checkpoint_every={checkpoint_every!r}; "
                f"expected a positive integer"
            )
        self.session = session
        self.journal = journal
        self.checkpoint_every = checkpoint_every
        self._since_checkpoint = 0
        self._write_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.stats = ServerStats()
        # Thread-local goal-directed compilers: each reader thread owns
        # one, so compiled-entry caches are mutated by a single thread
        # only; staleness is tracked against the view version.
        self._tls = threading.local()
        self._view = self._pin(0)

    # -- publication ---------------------------------------------------

    def _pin(self, version: int) -> ReadView:
        """Pin the session's current committed state as a view."""
        session = self.session
        return ReadView(
            version,
            session.database.pin(),
            session.edb.pin(),
            time.monotonic(),
        )

    def view(self) -> ReadView:
        """The currently published view (grab once, read many)."""
        return self._view

    def snapshot_age(self) -> float:
        """Seconds since the last view publication."""
        return self._view.age()

    # -- the write path ------------------------------------------------

    def insert(self, facts) -> EvalStats:
        """Insert EDB facts as one journaled, atomic batch."""
        return self.apply_batch(inserts=facts)

    def delete(self, facts) -> EvalStats:
        """Delete EDB facts as one journaled, atomic batch."""
        return self.apply_batch(deletes=facts)

    def apply_batch(self, inserts=None, deletes=None) -> EvalStats:
        """One atomic, journaled, published update batch.

        Input is normalized (parsed and arity-checked) *before* the
        journal append, so malformed requests never enter the log; the
        append happens *before* the apply (write-ahead order), so a
        crash mid-apply replays the batch on recovery.  On success the
        new state is published atomically; on failure the batch's
        journal record is compensated with an abort marker, the
        previous view stays installed, and the error propagates.
        """
        with self._write_lock:
            session = self.session
            ins = session._normalize(inserts) if inserts is not None else {}
            dels = session._normalize(deletes) if deletes is not None else {}
            ins_pairs = [
                (sig[0], row) for sig, rows in ins.items() for row in rows
            ]
            del_pairs = [
                (sig[0], row) for sig, rows in dels.items() for row in rows
            ]
            if self.journal is not None:
                self.journal.append_batch(ins_pairs, del_pairs)
            try:
                stats = session.apply_batch(
                    inserts=ins_pairs or None, deletes=del_pairs or None
                )
            except Exception:
                if self.journal is not None:
                    # The batch rolled back; compensate its journal
                    # record so recovery does not replay it.
                    self.journal.append_abort()
                with self._stats_lock:
                    self.stats.batches_aborted += 1
                raise
            version = self.stats.version + 1
            self._view = self._pin(version)
            with self._stats_lock:
                self.stats.batches_committed += 1
                self.stats.version = version
            if self.journal is not None and self.checkpoint_every:
                self._since_checkpoint += 1
                if self._since_checkpoint >= self.checkpoint_every:
                    self.journal.append_checkpoint(session.edb)
                    self._since_checkpoint = 0
                    with self._stats_lock:
                        self.stats.checkpoints += 1
            return stats

    # -- the read path -------------------------------------------------

    def _count_query(self) -> None:
        with self._stats_lock:
            self.stats.queries_served += 1

    def query(self, query: Union[str, Literal]) -> Set[Tuple]:
        """Materialized read against the current pinned view."""
        answers = self._view.query(query)
        self._count_query()
        return answers

    def holds(self, query: Union[str, Literal]) -> bool:
        """True when a ground query holds in the current pinned view."""
        return bool(self.query(query))

    def query_goal(self, query: Union[str, Literal], explain: bool = False):
        """Goal-directed read against the current pinned view's EDB.

        The compiled serving path of
        :meth:`IncrementalSession.query_goal`, made safe for N reader
        threads: each thread owns its own
        :class:`~repro.engine.query.QueryCompiler` (compiled entries
        cached per query form, invalidated when the published version
        moves), and evaluation runs against the pinned EDB — a query
        racing a maintenance batch answers from the last committed
        state, never a mid-batch one.
        """
        view = self._view
        state = self._tls
        compiler = getattr(state, "compiler", None)
        if compiler is None:
            compiler = self._make_compiler()
            state.compiler = compiler
            state.version = view.version
        elif state.version != view.version:
            compiler.note_edb_change()
            state.version = view.version
        goal = parse_query(query) if isinstance(query, str) else query
        answer = compiler.ask(goal, view.edb)
        self._count_query()
        if explain:
            return answer
        return answer.values()

    def _make_compiler(self):
        return QueryCompiler(self.session.program, config=self.session.config)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the attached journal, if any."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "DatalogServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"DatalogServer({self.stats})"


# ----------------------------------------------------------------------
# The socket front
# ----------------------------------------------------------------------

def handle_line(server: DatalogServer, line: str, *, provenance: bool = False):
    """Execute one serve-grammar command against a server.

    Returns ``(payload_lines, status_line, quit)``.  The grammar is the
    serve REPL's: ``+ facts.`` insert, ``- facts.`` delete, ``? query``
    ask (goal-directed, against the pinned EDB), ``explain fact``,
    ``stats``, ``quit``/``exit``; blank lines and ``#`` comments are
    no-ops.  Errors — including a rolled-back batch — report as an
    ``error:`` status and leave the served state untouched.
    """
    line = line.strip()
    payload = []
    if not line or line.startswith("#"):
        return payload, "ok", False
    try:
        if line.startswith("+"):
            stats = server.insert(line[1:].strip())
            return payload, (
                f"ok +{stats.facts} facts ({stats.incr_rounds} rounds, "
                f"{stats.seconds * 1000:.1f} ms)"
            ), False
        if line.startswith("-"):
            stats = server.delete(line[1:].strip())
            return payload, (
                f"ok deleted ({stats.incr_rounds} rounds, "
                f"{stats.rederived} rederived, "
                f"{stats.seconds * 1000:.1f} ms)"
            ), False
        if line.startswith("?"):
            answers = server.query_goal(line[1:].strip())
            for row in sorted(answers, key=str):
                payload.append(
                    "\t".join(str(value) for value in row) if row else "true"
                )
            return payload, f"ok {len(answers)} answers", False
        if line.startswith("explain "):
            if not provenance:
                raise ValueError("explain needs --provenance")
            tree = server.session.explain(line[len("explain "):].strip())
            payload.extend(tree.render().splitlines())
            return payload, "ok", False
        if line == "stats":
            payload.append(str(server.session.stats))
            payload.append(
                f"{server.stats}, snapshot_age="
                f"{server.snapshot_age() * 1000:.1f} ms"
            )
            return payload, "ok", False
        if line in ("quit", "exit"):
            return payload, "ok bye", True
        raise ValueError(f"unknown command {line!r}")
    except (ValueError, KeyError, RuntimeError) as exc:
        return payload, f"error: {exc}", False


class SocketFront:
    """A line-oriented TCP front over a :class:`DatalogServer`.

    Protocol: the client sends one command per line (the serve
    grammar); the server responds with zero or more payload lines, each
    prefixed ``"= "``, followed by exactly one status line starting
    ``ok`` or ``error:``.  ``quit`` answers ``ok bye`` and closes that
    connection only.

    ``workers`` bounds the number of concurrently served connections —
    the reader pool.  Updates arriving on any connection funnel through
    the server's single-writer lock, so the journal order is the apply
    order regardless of how many clients race.
    """

    def __init__(
        self,
        server: DatalogServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        provenance: bool = False,
    ):
        if workers < 1:
            raise ValueError(
                f"invalid workers={workers!r}; expected a positive integer"
            )
        self.server = server
        self.host = host
        self.port = port
        self.workers = workers
        self.provenance = provenance
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._slots = threading.BoundedSemaphore(workers)
        self._shutdown = threading.Event()
        self._handlers = []

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start accepting; returns ``(host, port)``.

        With ``port=0`` the OS picks a free port — the returned pair is
        the actual listening address.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen()
        self._sock = sock
        self.host, self.port = sock.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self.host, self.port

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                break  # listener closed by shutdown()
            self._slots.acquire()
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            self._handlers.append(handler)
            handler.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("r", encoding="utf-8") as reader:
                for line in reader:
                    payload, status, quitting = handle_line(
                        self.server, line, provenance=self.provenance
                    )
                    out = "".join(f"= {p}\n" for p in payload) + status + "\n"
                    conn.sendall(out.encode("utf-8"))
                    if quitting:
                        break
        except (OSError, ValueError):
            pass  # client went away mid-write; nothing to clean up
        finally:
            self._slots.release()

    def wait(self) -> None:
        """Block until :meth:`shutdown` (the CLI's serve-forever)."""
        while not self._shutdown.wait(timeout=0.5):
            pass

    def shutdown(self) -> None:
        """Stop accepting and wake :meth:`wait`; live handlers drain."""
        self._shutdown.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def __enter__(self) -> "SocketFront":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
