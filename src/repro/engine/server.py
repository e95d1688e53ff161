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
  current view once per query and answer entirely from it: a query is
  one selection over the view's materialized database, the relation
  the writer already maintains, so no read runs a fixpoint.

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
protocol reusing the ``+``/``-``/``?``/``explain``/``stats`` serve grammar; see
``docs/serve.md`` for the framing.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple, Union

from repro.datalog.literals import Literal
from repro.datalog.parser import parse_literal, parse_query
from repro.engine.database import Database
from repro.engine.incremental import normalized_pairs
from repro.engine.provenance import DerivationTree, derivation_tree
from repro.engine.stats import EvalStats

#: The longest request line the socket front reads, newline excluded
#: (about 25 000 ``e(i, j).`` facts in one ``+`` line).
MAX_LINE_BYTES = 1 << 20

#: Seconds the socket front waits on one read or write of a connection
#: (a client idle between requests, stopped mid-line, or not reading
#: its replies) before it closes the connection and frees its worker
#: slot.
READ_TIMEOUT_S = 60.0


@dataclass
class ServerStats:
    """Serving-side counters, in the :class:`EvalStats` house style.

    * ``batches_committed`` / ``batches_aborted`` — maintenance batches
      that published a new view vs. batches that failed, rolled back,
      and left the previous view installed (their journal records are
      compensated by abort markers);
    * ``queries_served`` — reads answered from a pinned view
      (:meth:`DatalogServer.query` and :meth:`DatalogServer.explain`
      both count);
    * ``version`` — the current view's version: the number of
      committed batches since the server started (version 0 is the
      initial materialization).
    """

    batches_committed: int = 0
    batches_aborted: int = 0
    queries_served: int = 0
    version: int = 0

    def __str__(self) -> str:
        return (
            f"batches={self.batches_committed} committed "
            f"{self.batches_aborted} aborted, "
            f"queries={self.queries_served}, "
            f"version={self.version}"
        )


class ReadView:
    """One published, immutable snapshot of the served state.

    ``database`` is the pinned materialized database (EDB + IDB) and
    ``edb`` the pinned base facts, both sharing their relations by
    reference with the frozen pre-publication objects; ``program``
    checks each goal's arity.  A view never
    changes once constructed; readers may keep one across many queries
    for a transaction-like consistent read sequence.
    """

    __slots__ = ("version", "program", "database", "edb", "published_at")

    def __init__(
        self,
        version: int,
        program,
        database: Database,
        edb: Database,
        published_at: float,
    ):
        self.version = version
        self.program = program
        self.database = database
        self.edb = edb
        self.published_at = published_at

    def query(self, query: Union[str, Literal]) -> Set[Tuple]:
        """Bindings of the goal's variables against this view.

        The materialized read: answers come straight from the pinned
        database, unwrapped to plain Python values exactly like
        :meth:`IncrementalSession.query`, and a derived predicate at an
        arity the program does not define raises ``ValueError``.
        """
        goal = parse_query(query) if isinstance(query, str) else query
        self.program.check_query(goal.signature)
        return self.database.answers(goal)

    def holds(self, query: Union[str, Literal]) -> bool:
        """True when a ground query holds in this view."""
        return bool(self.query(query))

    def explain(self, fact: Union[str, Literal]) -> DerivationTree:
        """The canonical derivation tree of a ground fact in this view
        (:func:`~repro.engine.provenance.derivation_tree`; raises like
        :meth:`IncrementalSession.explain`)."""
        goal = parse_literal(fact) if isinstance(fact, str) else fact
        return derivation_tree(self.program, self.database, self.edb, goal)

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
    (:meth:`query`, :meth:`explain`, :meth:`view`) never block on the
    writer and never observe mid-batch state.
    """

    def __init__(self, session, *, journal=None):
        self.session = session
        self.journal = journal
        self._write_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.stats = ServerStats()
        self._view = self._pin(0)

    # -- publication ---------------------------------------------------

    def _pin(self, version: int) -> ReadView:
        """Pin the session's current committed state as a view."""
        session = self.session
        return ReadView(
            version,
            session.program,
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
            ins_pairs = normalized_pairs(inserts) if inserts is not None else []
            del_pairs = normalized_pairs(deletes) if deletes is not None else []
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

    def explain(self, fact: Union[str, Literal]) -> DerivationTree:
        """The derivation tree of a ground fact in the current pinned view.

        Read off the view's database, with the view's EDB as its leaves
        (:meth:`ReadView.explain`): like every read, it never observes
        a mid-batch or rolled-back state.
        """
        tree = self._view.explain(fact)
        self._count_query()
        return tree

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

def handle_line(server: DatalogServer, line: str):
    """Execute one serve-grammar command against a server.

    Returns ``(payload_lines, status_line, quit)``.  The grammar is the
    serve REPL's: ``+ facts.`` insert, ``- facts.`` delete, ``? query``
    ask (one selection over the pinned view), ``explain fact`` (a tree
    read off the pinned view), ``stats``, ``quit``/``exit``; blank lines
    and ``#`` comments are no-ops.  Errors — including a rolled-back batch, a
    failed journal write and a goal at an arity the program does not
    define — report as an ``error:`` status and leave the served state
    untouched.
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
            answers = server.query(line[1:].strip())
            for row in sorted(answers, key=str):
                payload.append(
                    "\t".join(str(value) for value in row) if row else "true"
                )
            return payload, f"ok {len(answers)} answers", False
        if line.startswith("explain "):
            tree = server.explain(line[len("explain "):].strip())
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
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        return payload, f"error: {exc}", False


def reply(payload: List[str], status: str) -> str:
    """A :func:`handle_line` result as a client reads it: one ``= ``
    line per payload line, then the status line."""
    return "".join(f"= {p}\n" for p in payload) + status + "\n"


def _request_lines(reader):
    """``(line, None)`` per decoded request line, ``(None, reason)`` per
    refused one.  An over-long line is refused after
    :data:`MAX_LINE_BYTES` bytes; its rest is dropped in bounded chunks."""
    while True:
        raw = reader.readline(MAX_LINE_BYTES + 1)
        if not raw:
            return
        if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
            yield None, f"request line longer than {MAX_LINE_BYTES} bytes"
            while raw and not raw.endswith(b"\n"):
                raw = reader.readline(1 << 16)
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            yield None, "request is not valid UTF-8"
        else:
            yield line, None


class SocketFront:
    """A line-oriented TCP front over a :class:`DatalogServer`.

    Protocol: the client sends one command per line (the serve
    grammar); the server responds with zero or more payload lines, each
    prefixed ``"= "``, followed by exactly one status line starting
    ``ok`` or ``error:``.  ``quit`` answers ``ok bye`` and closes that
    connection only.  A line longer than :data:`MAX_LINE_BYTES` is
    refused, not buffered, and a connection whose read or write waits
    :data:`READ_TIMEOUT_S` seconds is closed.

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
    ):
        if workers < 1:
            raise ValueError(
                f"invalid workers={workers!r}; expected a positive integer"
            )
        self.server = server
        self.host = host
        self.port = port
        self.workers = workers
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._slots = threading.BoundedSemaphore(workers)
        self._shutdown = threading.Event()

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
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(READ_TIMEOUT_S)
            # Bytes in, one bounded line at a time: a refused line is
            # one refused request, not a dropped connection.
            with conn, conn.makefile("rb") as reader:
                for line, refused in _request_lines(reader):
                    if refused is None:
                        payload, status, quitting = handle_line(self.server, line)
                    else:
                        payload, status, quitting = [], f"error: {refused}", False
                    conn.sendall(reply(payload, status).encode("utf-8"))
                    if quitting:
                        break
        except (OSError, ValueError):
            pass  # client went away or timed out; nothing to clean up
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
                # close() alone does not wake a thread blocked in accept()
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
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
