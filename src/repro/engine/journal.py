"""A write-ahead journal for incremental maintenance batches.

:class:`~repro.engine.incremental.IncrementalSession` makes each batch
atomic in memory; this module makes the *sequence* of batches durable.
A :class:`Journal` is an append-only file of checksummed,
length-prefixed records.  ``repro serve --journal PATH`` appends every
batch (fsync'd) **before** applying it — classic write-ahead logging —
so a crash at any instant loses at most work the client was never told
succeeded, and :func:`recover_session` rebuilds the exact maintained
database (derivations included) from the last checkpoint and the
committed batches after it: all but the last folded into the EDB, one
evaluation, the last one re-applied.

File format
-----------

A four-byte magic header (``RJN1``), then records::

    kind (1 byte) | payload length (4 bytes, big-endian)
                  | CRC-32 of payload (4 bytes, big-endian) | payload

Kinds: ``B`` — a batch, payload pickles ``(inserts, deletes)`` as lists
of ``(predicate, args)`` pairs; ``A`` — an abort, empty payload,
compensating the immediately preceding batch (it was rolled back, do
not replay it); ``C`` — a checkpoint, payload pickles a compact
snapshot of the *EDB* at that point (the IDB is a deterministic
function of it, so checkpoints stay small and recovery re-derives).

Replay (:func:`replay_journal`) walks the records, starts from the last
checkpoint, drops aborted batches, and **stops at the first record that
fails validation** — a short header, a length running past the file, a
CRC mismatch — treating it as the torn tail of a crashed write.  The
torn tail is by construction uncommitted (the journal fsyncs before the
session applies, so an incomplete record means the apply never
started); :func:`recover_session` truncates it.  Recovery is therefore
deterministic: the fuzz suite holds recovered state bit-identical to a
run that never crashed.

A batch whose record *is* committed but whose apply failed pre-crash
(and whose abort record was lost with the crash) can only be the last
record of the file — the abort is the very next append.  That is why
:func:`recover_session` re-applies exactly the last batch: it re-fails
deterministically, the :class:`~repro.engine.stats.MaintenanceError` is
caught, and the recovered state matches the rolled-back one the client
observed.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.engine import faults
from repro.engine.database import Database
from repro.engine.faults import FaultInjected
from repro.engine.incremental import IncrementalSession, fold_batches
from repro.engine.stats import JournalError, MaintenanceError

#: File magic: "Repro JourNal", format 1.
MAGIC = b"RJN1"

KIND_BATCH = b"B"
KIND_ABORT = b"A"
KIND_CHECKPOINT = b"C"
_KINDS = (KIND_BATCH, KIND_ABORT, KIND_CHECKPOINT)

_HEADER = struct.Struct(">II")  # payload length, CRC-32

#: One batch as journaled: (inserts, deletes), each a list of
#: (predicate, args) pairs in the session's ``Updates`` pair shape.
BatchPairs = Tuple[list, list]


@dataclass
class JournalReplay:
    """The committed content of a journal, ready to re-apply.

    ``checkpoint`` is the EDB snapshot of the last checkpoint record
    (``None`` when the journal has none); ``batches`` the committed,
    unaborted batches after it, in append order; ``torn`` whether the
    file ends in an invalid record; ``tail_offset`` the byte offset of
    that torn tail (== file size when the journal is clean), the safe
    truncation point.
    """

    checkpoint: Optional[Database] = None
    batches: List[BatchPairs] = field(default_factory=list)
    torn: bool = False
    tail_offset: int = 0


class Journal:
    """An append-only, fsync'd record log at ``path``.

    Appending validates an existing file's magic (creating the file
    writes it); each append goes through the ``journal`` fault site, so
    the fault harness can tear or kill a write at a deterministic
    point.  ``fsync=False`` trades durability for speed (used by the
    journal-overhead benchmark to separate buffering from disk cost).

    Appends are serialized by an internal lock: the concurrent serving
    layer funnels every write through one writer lock anyway, but the
    journal must not rely on its callers for record integrity — two
    racing appends interleaving their bytes would corrupt the log
    past any torn-tail repair.
    """

    def __init__(self, path, fsync: bool = True):
        self.path = str(path)
        self.fsync = fsync
        self._append_lock = threading.Lock()
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        if not fresh:
            with open(self.path, "rb") as fh:
                magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise JournalError(
                    f"{self.path} is not a repro journal "
                    f"(bad magic {magic!r}, expected {MAGIC!r})"
                )
        self._fh = open(self.path, "ab")
        if fresh:
            self._fh.write(MAGIC)
            self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def _append(self, kind: bytes, payload: bytes) -> None:
        record = (
            kind
            + _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            + payload
        )
        with self._append_lock:
            cut = faults.fire("journal", torn_length=len(record))
            if cut is not None:
                # A torn write: persist only a prefix, then fail exactly
                # as a crash mid-write would have.
                self._fh.write(record[:cut])
                self._sync()
                raise FaultInjected(
                    f"injected torn journal write ({cut}/{len(record)} bytes)"
                )
            self._fh.write(record)
            self._sync()

    def append_batch(self, inserts: list, deletes: list) -> None:
        """Journal one batch (must precede applying it — WAL order)."""
        self._append(
            KIND_BATCH, pickle.dumps((list(inserts), list(deletes)))
        )

    def append_abort(self) -> None:
        """Compensate the preceding batch: it failed and rolled back."""
        self._append(KIND_ABORT, b"")

    def append_checkpoint(self, edb: Database) -> None:
        """Journal a compact EDB snapshot; replay restarts from here."""
        snap = edb.snapshot(sorted(edb.relations))
        self._append(KIND_CHECKPOINT, pickle.dumps(snap))

    def replay(self) -> JournalReplay:
        """Parse this journal's committed content (see module docs)."""
        self._fh.flush()
        return replay_journal(self.path)

    def truncate_tail(self, offset: int) -> None:
        """Drop a torn tail: cut the file to ``offset`` bytes.

        Safe alongside the append handle — it is opened with
        ``O_APPEND``, so later writes land at the (new) end regardless
        of any cached position.
        """
        with open(self.path, "r+b") as fh:
            fh.truncate(offset)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_journal(path) -> JournalReplay:
    """Walk a journal file; return its committed, unaborted content.

    Validation failures mid-file stop the walk and mark the replay
    ``torn`` at that record's offset — the torn-tail contract — while a
    short or wrong magic header raises :class:`JournalError` (the file
    was never a journal, there is nothing safe to replay).  A zero-byte
    file is an empty journal, as it is to :class:`Journal`.
    """
    with open(str(path), "rb") as fh:
        data = fh.read()
    if not data:
        # Created but never written: the process died before the header
        # reached the disk.  :class:`Journal` starts such a file afresh,
        # so it replays as the empty journal it is about to become.
        return JournalReplay()
    if data[: len(MAGIC)] != MAGIC:
        raise JournalError(
            f"{path} is not a repro journal (missing {MAGIC!r} header)"
        )
    out = JournalReplay()
    pos = len(MAGIC)
    start = pos
    while pos < len(data):
        start = pos
        if pos + 1 + _HEADER.size > len(data):
            break  # torn: header itself is incomplete
        kind = data[pos : pos + 1]
        length, crc = _HEADER.unpack_from(data, pos + 1)
        pos += 1 + _HEADER.size
        if kind not in _KINDS or pos + length > len(data):
            pos = start
            break
        payload = data[pos : pos + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            pos = start
            break
        try:
            if kind == KIND_BATCH:
                inserts, deletes = pickle.loads(payload)
                out.batches.append((inserts, deletes))
            elif kind == KIND_ABORT:
                if out.batches:
                    out.batches.pop()
            else:
                out.checkpoint = pickle.loads(payload)
                out.batches.clear()
        except Exception:
            pos = start
            break
        pos += length
        start = pos
    out.torn = start < len(data)
    out.tail_offset = start
    return out


def recover_session(
    program,
    path,
    edb: Optional[Database] = None,
    *,
    fsync: bool = True,
    **session_kwargs,
) -> Tuple[IncrementalSession, Journal, int]:
    """Rebuild a session from a journal; return it ready to serve.

    The base EDB is the journal's last checkpoint when it has one,
    else ``edb`` (the same base facts the original run started from).
    Every committed batch but the last is *folded* into a private copy
    of that base (:func:`~repro.engine.incremental.fold_batches`) — the
    EDB a checkpoint record written at that point would hold — and the
    session starts from it with one from-scratch evaluation.  Only the
    last batch goes through :meth:`IncrementalSession.apply_batch`: it
    is the one record whose abort can have died with the crash, and if
    so it deterministically re-fails and is skipped, reproducing the
    rollback the original run performed — and its abort record is
    appended now, because once later batches follow it the record would
    be folded, not re-tried.  A torn tail is truncated, and
    the returned :class:`Journal` is open for appending, so the caller
    continues exactly where the crashed process left off.

    Returns ``(session, journal, replayed)`` with ``replayed`` the
    number of batches the recovered state includes.
    """
    replay = replay_journal(path)
    if replay.checkpoint is not None:
        base = replay.checkpoint
    else:
        base = edb.copy() if edb is not None else Database()
    folded, last = replay.batches[:-1], replay.batches[-1:]
    fold_batches(base, folded)
    session = IncrementalSession(program, base, **session_kwargs)
    replayed = len(folded)
    refailed = False
    for inserts, deletes in last:
        try:
            session.apply_batch(
                inserts=inserts or None, deletes=deletes or None
            )
            replayed += 1
        except MaintenanceError:
            refailed = True  # the original run rolled this batch back too
    journal = Journal(path, fsync=fsync)
    if replay.torn:
        journal.truncate_tail(replay.tail_offset)
    if refailed:
        # Write the abort the crash swallowed: appends continue after
        # this record, and the next recovery folds everything before its
        # own last one without re-applying it.
        journal.append_abort()
    return session, journal, replayed
