"""A write-ahead journal for incremental maintenance batches.

:class:`~repro.engine.incremental.IncrementalSession` makes each batch
atomic in memory; this module makes the *sequence* of batches durable.
A :class:`Journal` is an append-only file of checksummed,
length-prefixed records.  ``repro serve --journal PATH`` appends every
batch (fsync'd) **before** applying it — classic write-ahead logging —
so a crash at any instant loses at most work the client was never told
succeeded, and :func:`recover_session` rebuilds the exact maintained
database (derivations included) from the caller's base EDB and the
committed batches: all but the last folded into the EDB, one
evaluation, the last one re-applied.

File format
-----------

The magic ``RJN2``, digests of the program and of the base EDB
(:func:`input_digests`), then records::

    kind (1 byte) | payload length (4 bytes, big-endian)
                  | CRC-32 of payload (4 bytes, big-endian) | payload

Kinds: ``B`` — a batch, payload the byte length of its inserts (4
bytes, big-endian), then inserts and deletes as the UTF-8 ground fact
text of ``+``/``-`` lines; ``A`` — an abort, empty payload,
compensating the immediately preceding batch (it was rolled back, do
not replay it).  There is no snapshot record: the IDB is a
deterministic function of the EDB, and the EDB is the base facts plus
the committed batches, so recovery folds those instead.  Any other
kind byte, or a batch that is not ground facts, is invalid like a CRC
mismatch.  A format-1 file (``RJN1``) is refused at its magic.

Replay (:func:`replay_journal`) walks the records, drops aborted
batches, and **stops at a last record that
fails validation** — a short header, a length running past the file, a
CRC mismatch — treating it as the torn tail of a crashed write.  The
torn tail is by construction uncommitted (the journal fsyncs before the
session applies, so an incomplete record means the apply never
started); :func:`recover_session` truncates it.  An invalid record
with more bytes after it cannot be a tear, and replay refuses the
file with :class:`~repro.engine.stats.JournalError` instead of
dropping the committed batches that follow it.  Recovery is therefore
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
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

# hashlib's own BLAKE2: ``import hashlib`` maps OpenSSL, 3.6 MB of RSS.
from _blake2 import blake2b

from repro.datalog.pretty import is_text_term, pretty_fact, pretty_rule
from repro.engine import faults
from repro.engine.database import Database
from repro.engine.faults import FaultInjected
from repro.engine.incremental import IncrementalSession, fold_batches, normalized_pairs
from repro.engine.stats import JournalError, MaintenanceError

#: File magic: "Repro JourNal", format 2.
MAGIC = b"RJN2"
_DIGEST = 32
#: The magic, then the digests of the program and of the base EDB.
HEADER_SIZE = len(MAGIC) + 2 * _DIGEST

KIND_BATCH = b"B"
KIND_ABORT = b"A"
_KINDS = (KIND_BATCH, KIND_ABORT)

_HEADER = struct.Struct(">II")  # payload length, CRC-32
_HALF = struct.Struct(">I")  # a batch's insert length


def input_digests(program, edb: Database) -> Tuple[bytes, bytes]:
    """BLAKE2b of ``program``'s rules and of ``edb``'s facts, each
    rendered and sorted: the inputs a journal's batches apply to."""
    rules = map(pretty_rule, program.rules)
    facts = (pretty_fact(p, f) for (p, _), r in edb.relations.items() for f in r.tuples)
    return tuple(
        blake2b("\n".join(sorted(text)).encode("utf-8"), digest_size=_DIGEST).digest()
        for text in (rules, facts)
    )


def _read_header(path, head: bytes) -> Tuple[bytes, bytes]:
    """The input digests of a journal that starts with ``head``."""
    if head[:4] != MAGIC or len(head) < HEADER_SIZE:
        what = "not a repro journal"
        if head[:4] == b"RJN1":
            what = "a format 1 repro journal, which this version does not read"
        raise JournalError(f"{path} is {what} (expected a {MAGIC!r} header)")
    return head[4:-_DIGEST], head[-_DIGEST:]


def _fact_text(updates) -> bytes:
    """One half of a batch as ground fact text."""
    lines = []
    for name, row in normalized_pairs(updates):
        if not all(map(is_text_term, row)):
            raise ValueError(f"cannot journal {name}{row}: not int/str terms")
        lines.append(pretty_fact(name, row) + ".")
    return "\n".join(lines).encode("utf-8")


@dataclass
class JournalReplay:
    """The committed content of a journal, ready to re-apply.

    ``batches`` are the committed, unaborted batches in append order;
    ``torn`` whether the file ends in an invalid record; ``tail_offset``
    the byte offset of that torn tail (== file size when the journal is
    clean), the safe truncation point.
    """

    batches: List[Tuple[list, list]] = field(default_factory=list)
    torn: bool = False
    tail_offset: int = 0


class Journal:
    """An append-only, fsync'd log at ``path`` of batches over
    ``program`` and the base EDB ``edb``.

    Opening a file whose magic or digests differ raises
    :class:`~repro.engine.stats.JournalError` naming the input.  Each
    append goes through the ``journal`` fault site, so the fault
    harness can tear or kill a write at a deterministic point.
    ``fsync=False`` trades durability for speed (for throwaway
    journals: the tests, ``tools/startup_costs.py``).

    Appends are serialized by an internal lock: the concurrent serving
    layer funnels every write through one writer lock anyway, but the
    journal must not rely on its callers for record integrity — two
    racing appends interleaving their bytes would corrupt the log
    past any torn-tail repair.

    A write or sync that raises an ``OSError`` (a full disk, a failed
    ``fsync``) refuses its batch, so the record is cut back off the
    file: left whole, recovery would replay a batch the client was told
    failed.  An injected tear (:class:`~repro.engine.faults.FaultInjected`)
    simulates a crash and keeps its bytes as a torn tail, where replay
    stops.  Either way the journal stops: every later append raises
    :class:`~repro.engine.stats.JournalError` naming that first
    failure, and no batch is acknowledged that recovery would drop.
    The file is written unbuffered, so a refused record leaves no bytes
    behind in user space to land after the cut.
    """

    def __init__(self, path, program, edb: Database, fsync: bool = True):
        self.path = str(path)
        self.fsync = fsync
        self._append_lock = threading.Lock()
        self._failed: Optional[BaseException] = None
        #: Why a failed record may still replay (its cut-back failed).
        self._uncut: Optional[OSError] = None
        inputs = input_digests(program, edb)
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        if not fresh:
            with open(self.path, "rb") as fh:
                recorded = _read_header(self.path, fh.read(HEADER_SIZE))
            for name, old, new in zip(("program", "base facts"), recorded, inputs):
                if old != new:
                    raise JournalError(
                        f"{self.path}: {name} digest mismatch: recover with "
                        f"the {name} the journal was started with"
                    )
        self._fh = open(self.path, "ab", buffering=0)
        if fresh:
            self._write(MAGIC + b"".join(inputs))
            self._sync()

    def _write(self, data: bytes) -> None:
        # An unbuffered write may be short (a filling disk); the retry
        # writes the rest or raises the disk's error.
        view = memoryview(data)
        while view:
            view = view[self._fh.write(view) :]

    def _sync(self) -> None:
        if self.fsync:
            os.fsync(self._fh.fileno())

    def _append(self, kind: bytes, payload: bytes) -> None:
        record = (
            kind
            + _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            + payload
        )
        with self._append_lock:
            if self._failed is not None:
                uncut = (
                    f"; cutting its record back failed too ({self._uncut}), "
                    f"so that batch may replay on recovery"
                    if self._uncut is not None
                    else ""
                )
                raise JournalError(
                    f"journal {self.path} stopped after a failed append: "
                    f"{type(self._failed).__name__}: {self._failed}{uncut}"
                )
            cut = faults.fire("journal", torn_length=len(record))
            size = os.fstat(self._fh.fileno()).st_size
            try:
                if cut is not None:
                    # A torn write: persist only a prefix, then fail
                    # exactly as a crash mid-write would have.
                    self._write(record[:cut])
                    self._sync()
                    raise FaultInjected(
                        f"injected torn journal write ({cut}/{len(record)} bytes)"
                    )
                self._write(record)
                self._sync()
            except FaultInjected as exc:
                self._failed = exc
                raise
            except OSError as exc:
                # The batch is refused: drop its bytes so recovery
                # cannot find the record whole (best effort).
                try:
                    os.ftruncate(self._fh.fileno(), size)
                except OSError as again:
                    self._uncut = again
                self._failed = exc
                raise

    def append_batch(self, inserts: list, deletes: list) -> None:
        """Journal one batch (must precede applying it — WAL order); a
        constant neither ``int`` nor ``str`` raises ``ValueError``."""
        ins = _fact_text(inserts)
        self._append(KIND_BATCH, _HALF.pack(len(ins)) + ins + _fact_text(deletes))

    def append_abort(self) -> None:
        """Compensate the preceding batch: it failed and rolled back."""
        self._append(KIND_ABORT, b"")

    def replay(self) -> JournalReplay:
        """Parse this journal's committed content (see module docs)."""
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

    A final record that fails validation and whose header or declared
    payload reaches the end of the file stops the walk and marks the
    replay ``torn`` at that record's offset — the torn-tail contract.
    Appends stop at the first failed write and cut a refused record
    back, so a tear is always the last record: an invalid record with
    bytes after its declared end is damage, and raises
    :class:`JournalError` naming its offset, as a short or wrong magic
    header does (the file was never a journal, there is nothing safe
    to replay).  A zero-byte file is an empty journal, as it is to
    :class:`Journal`.  A batch comes back as ``(inserts, deletes)``,
    normalized ``(predicate, args)`` pairs.
    """
    with open(str(path), "rb") as fh:
        data = fh.read()
    if not data:
        # Created but never written: the process died before the header
        # reached the disk.  :class:`Journal` starts such a file afresh,
        # so it replays as the empty journal it is about to become.
        return JournalReplay()
    _read_header(path, data[:HEADER_SIZE])
    out = JournalReplay()
    start = HEADER_SIZE
    while start < len(data):
        pos = start + 1 + _HEADER.size
        if pos > len(data):
            break  # torn: the header itself is incomplete
        kind = data[start : start + 1]
        length, crc = _HEADER.unpack_from(data, start + 1)
        end = pos + length
        payload = data[pos:end]
        reason = None
        if kind not in _KINDS:
            reason = f"unknown record kind {kind!r}"
        elif end > len(data) or zlib.crc32(payload) & 0xFFFFFFFF != crc:
            reason = "CRC mismatch"
        else:
            try:
                if kind == KIND_BATCH:
                    split = _HALF.size + _HALF.unpack_from(payload)[0]
                    if split > length:
                        raise ValueError("inserts run past the record")
                    halves = payload[_HALF.size : split], payload[split:]
                    batch = (normalized_pairs(half.decode()) for half in halves)
                    out.batches.append(tuple(batch))
                elif out.batches:  # an abort: drop the batch it compensates
                    out.batches.pop()
            except (ValueError, struct.error) as exc:
                reason = f"undecodable payload ({exc})"
        if reason is not None:
            if end < len(data):
                raise JournalError(
                    f"{path}: corrupt record at offset {start} ({reason}) "
                    f"with {len(data) - end} bytes after it; a torn write "
                    "is only ever the last record, so this is damage, "
                    "not a crash, and nothing is replayed or truncated"
                )
            break  # torn: the last record, reaching end of file
        start = end
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

    The base is ``edb``, the same base facts the original run started
    from (empty when ``None``); a journal over other inputs is refused
    before anything is folded.  Every committed batch but the last is
    *folded* into a private copy of it
    (:func:`~repro.engine.incremental.fold_batches`) and the session
    starts from that EDB with one from-scratch evaluation.  Only the
    last batch goes through :meth:`IncrementalSession.apply_batch`: it
    is the one record whose abort can have died with the crash, and if
    so it deterministically re-fails and is skipped, reproducing the
    rollback the original run performed — and its abort record is
    appended now, because once later batches follow it the record would
    be folded, not re-tried.  A torn tail is truncated; a corrupt
    record before the last raises
    :class:`~repro.engine.stats.JournalError` and leaves the file as it
    is.  The returned :class:`Journal` is open for appending, so the
    caller continues exactly where the crashed process left off.

    Returns ``(session, journal, replayed)`` with ``replayed`` the
    number of batches the recovered state includes.
    """
    replay = replay_journal(path)
    base = edb.copy() if edb is not None else Database()
    journal = Journal(path, program, base, fsync=fsync)
    try:
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
        if replay.torn:
            journal.truncate_tail(replay.tail_offset)
        if refailed:
            # Write the abort the crash swallowed: appends continue after
            # this record, and the next recovery folds everything before
            # its own last one without re-applying it.
            journal.append_abort()
    except BaseException:
        journal.close()
        raise
    return session, journal, replayed
