"""Write-ahead journal: record format, torn tails, and recovery.

The load-bearing property is *replay determinism*: a session recovered
from a journal — after a clean shutdown, a crash mid-batch, or a crash
mid-journal-write — is bit-identical (database, EDB, explained trees)
to a session that applied the same committed batches and never
crashed.
``TestRecoveryMatrix`` checks it across the full knob matrix, and the
torn-tail tests check it for a crash at *every byte offset* of the
final record.
"""

import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.parser import ParseError, parse_program
from repro.datalog.terms import Compound, Constant, make_list
from repro.engine import faults
from repro.engine.database import Database
from repro.engine.faults import FaultInjected, parse_faults
from repro.engine.incremental import (
    IncrementalSession,
    fold_batches,
    normalized_pairs,
)
from repro.engine.stats import MaintenanceError
from repro.engine.journal import (
    HEADER_SIZE,
    MAGIC,
    Journal,
    JournalError,
    _fact_text,
    recover_session,
    replay_journal,
)
from tests.conftest import assert_trees_are_those_of

TC_TEXT = """
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), t(Z, Y).
"""

BASE = {"e": [(1, 2), (2, 3)]}

#: The batch sequence every journal test replays.
SCRIPT = [
    ([("e", (3, 4))], []),
    ([("e", (4, 5)), ("e", (5, 6))], [("e", (1, 2))]),
    ([], [("e", (5, 6))]),
]


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def open_journal(path, fsync=True):
    """A journal over ``TC_TEXT`` and ``BASE``, the inputs of ``SCRIPT``."""
    return Journal(
        path, parse_program(TC_TEXT), Database.from_dict(BASE), fsync=fsync
    )


def normalized(batches):
    """``batches`` as replay returns them: normalized pairs."""
    return [tuple(normalized_pairs(half) for half in batch) for batch in batches]


def run_journaled(path, batches=SCRIPT, **session_kwargs):
    """Apply ``batches`` through a session while journaling each one."""
    program = parse_program(TC_TEXT)
    session = IncrementalSession(
        program, Database.from_dict(BASE), **session_kwargs
    )
    with open_journal(path) as journal:
        for inserts, deletes in batches:
            journal.append_batch(inserts, deletes)
            session.apply_batch(
                inserts=inserts or None, deletes=deletes or None
            )
    return session


def clean_session(batches=SCRIPT, **session_kwargs):
    program = parse_program(TC_TEXT)
    session = IncrementalSession(
        program, Database.from_dict(BASE), **session_kwargs
    )
    for inserts, deletes in batches:
        session.apply_batch(inserts=inserts or None, deletes=deletes or None)
    return session


def assert_same_state(recovered, clean):
    assert recovered.database == clean.database
    assert recovered.edb == clean.edb
    assert_trees_are_those_of(recovered, clean.edb)


#: Constants fact text carries: ints, plain atoms, and quoted atoms
#: holding quotes, backslashes, newlines, spaces and capitals.
_text_leaf = st.one_of(
    st.integers(-(10**20), 10**20),
    st.from_regex(r"[a-z][a-z0-9_@~#]{0,5}", fullmatch=True),
    st.text("aZ _'\\\n\t%.,()[]|:-é", max_size=6),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
).map(Constant)
_text_term = st.recursive(
    _text_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(make_list),
        st.builds(
            Compound, st.sampled_from(["f", "g#h"]), st.lists(inner, min_size=1, max_size=2)
        ),
    ),
    max_leaves=6,
)
_text_facts = st.lists(
    st.tuples(
        st.sampled_from(["e", "mark", "Caps", "two words"]),
        st.lists(_text_term, max_size=3).map(tuple),
    ),
    max_size=4,
)


class TestRecordFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.rjn"
        run_journaled(path)
        replay = replay_journal(path)
        assert replay.batches == normalized(SCRIPT)
        assert not replay.torn

    def test_a_batch_is_fact_text(self, tmp_path):
        """The record holds the text of a ``+``/``-`` line: an insert
        half, a delete half, each ground facts as the parser reads them."""
        path = tmp_path / "wal.rjn"
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[1])
        payload = path.read_bytes()[HEADER_SIZE + 9 :]
        assert payload == struct.pack(">I", 17) + b"e(4, 5).\ne(5, 6).e(1, 2)."

    def test_empty_journal_is_clean(self, tmp_path):
        path = tmp_path / "wal.rjn"
        open_journal(path).close()
        replay = replay_journal(path)
        assert replay.batches == []
        assert not replay.torn
        assert replay.tail_offset == HEADER_SIZE

    def test_abort_drops_the_preceding_batch(self, tmp_path):
        path = tmp_path / "wal.rjn"
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[0])
            journal.append_batch(*SCRIPT[1])
            journal.append_abort()
        replay = replay_journal(path)
        assert replay.batches == normalized([SCRIPT[0]])

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.rjn"
        path.write_bytes(b"NOPE" + b"x" * HEADER_SIZE)
        with pytest.raises(JournalError, match="not a repro journal"):
            replay_journal(path)
        with pytest.raises(JournalError, match="not a repro journal"):
            open_journal(path)

    def test_missing_magic_raises(self, tmp_path):
        path = tmp_path / "wal.rjn"
        path.write_bytes(b"RJ")
        with pytest.raises(JournalError):
            replay_journal(path)

    def test_zero_byte_file_replays_as_the_empty_journal(self, tmp_path):
        """Created, but the crash beat the header to the disk: `Journal`
        starts such a file afresh, so replay must not refuse it."""
        path = tmp_path / "wal.rjn"
        path.write_bytes(b"")
        replay = replay_journal(path)
        assert replay.batches == []
        assert not replay.torn and replay.tail_offset == 0
        program = parse_program(TC_TEXT)
        session, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE)
        )
        assert replayed == 0
        assert_same_state(session, clean_session(batches=[]))
        journal.append_batch(*SCRIPT[0])  # header written, appendable
        journal.close()
        assert replay_journal(path).batches == normalized([SCRIPT[0]])

    @pytest.mark.parametrize("head", [b"R", b"RJN", b"\x00\x00\x00\x00", b"RJN2" + b"B" * 9])
    def test_short_or_garbage_header_still_raises(self, tmp_path, head):
        path = tmp_path / "wal.rjn"
        path.write_bytes(head)
        with pytest.raises(JournalError, match="not a repro journal"):
            replay_journal(path)

    def test_crc_corruption_stops_replay_at_that_record(self, tmp_path):
        path = tmp_path / "wal.rjn"
        run_journaled(path)
        clean = replay_journal(path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the last payload
        path.write_bytes(bytes(data))
        replay = replay_journal(path)
        assert replay.torn
        assert replay.batches == clean.batches[:-1]
        assert replay.tail_offset < len(data)

    def test_unknown_kind_stops_replay(self, tmp_path):
        path = tmp_path / "wal.rjn"
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[0])
            offset = journal._fh.tell()
            journal.append_batch(*SCRIPT[1])
        data = bytearray(path.read_bytes())
        data[offset] = ord("Z")
        path.write_bytes(bytes(data))
        replay = replay_journal(path)
        assert replay.torn
        assert replay.batches == normalized([SCRIPT[0]])
        assert replay.tail_offset == offset

    @pytest.mark.parametrize(
        "payload",
        [
            b"ab",  # shorter than the insert length
            struct.pack(">I", 99) + b"e(1, 2).",  # inserts past the record
            struct.pack(">I", 2) + b"\xff\xfe",  # not UTF-8
            struct.pack(">I", 8) + b"e(X, 2).",  # not ground
            struct.pack(">I", 13) + b"t(X) :- e(X).",  # a rule
            struct.pack(">I", 9) + b"not facts",  # not the grammar
        ],
        ids=["short", "overrun", "utf8", "variable", "rule", "syntax"],
    )
    def test_a_valid_crc_payload_that_is_not_facts(self, tmp_path, payload):
        """Torn when it is the last record, refused when records follow."""
        record = b"B" + struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        path = tmp_path / "wal.rjn"
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[0])
            offset = journal._fh.tell()
            journal._fh.write(record)
        replay = replay_journal(path)
        assert replay.torn and replay.tail_offset == offset
        assert replay.batches == normalized([SCRIPT[0]])
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[1])
        before = path.read_bytes()
        refusal = rf"corrupt record at offset {offset} \(undecodable payload"
        with pytest.raises(JournalError, match=refusal):
            replay_journal(path)
        with pytest.raises(JournalError, match=refusal):
            recover_session(
                parse_program(TC_TEXT), path, Database.from_dict(BASE)
            )
        assert path.read_bytes() == before

    def test_corruption_before_the_last_record_is_refused(self, tmp_path):
        """Only the last record can be torn: a bad byte in the first of
        three raises, naming the record's offset, and recovery leaves
        all three on disk instead of truncating the two intact ones."""
        path = tmp_path / "wal.rjn"
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[0])
            first_end = journal._fh.tell()
            journal.append_batch(*SCRIPT[1])
            journal.append_batch(*SCRIPT[2])
        data = bytearray(path.read_bytes())
        data[first_end - 1] ^= 0xFF  # the first record's last payload byte
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match=f"record at offset {HEADER_SIZE} "):
            replay_journal(path)
        with pytest.raises(JournalError, match="CRC mismatch"):
            recover_session(
                parse_program(TC_TEXT), path, Database.from_dict(BASE)
            )
        assert path.read_bytes() == bytes(data)


class TestInputBinding:
    """The header's digests bind a journal to the program and the base
    facts its batches apply to: recovery over other inputs is refused
    before anything is folded, and the file is left as it is."""

    @pytest.mark.parametrize(
        "text, base, differs",
        [
            (TC_TEXT, None, "base facts"),
            (TC_TEXT, {"e": [(1, 2)]}, "base facts"),
            (TC_TEXT + "u(X) :- e(X, X).", BASE, "program"),
        ],
        ids=["no-facts", "other-facts", "other-program"],
    )
    def test_other_inputs_are_refused(self, tmp_path, monkeypatch, text, base, differs):
        from repro.engine import journal as journal_module

        path = tmp_path / "wal.rjn"
        run_journaled(path)
        before = path.read_bytes()
        monkeypatch.setattr(journal_module, "fold_batches", None)  # never reached
        edb = Database.from_dict(base) if base is not None else None
        refusal = f"{differs} digest mismatch"
        with pytest.raises(JournalError, match=refusal):
            recover_session(parse_program(text), path, edb)
        with pytest.raises(JournalError, match=refusal):
            Journal(path, parse_program(text), edb or Database())
        assert path.read_bytes() == before

    def test_the_order_of_rules_and_facts_does_not_count(self, tmp_path):
        path = tmp_path / "wal.rjn"
        run_journaled(path)
        rules = parse_program(TC_TEXT).rules
        recovered, journal, replayed = recover_session(
            parse_program("\n".join(map(str, reversed(rules)))),
            path,
            Database.from_dict({"e": list(reversed(BASE["e"]))}),
        )
        journal.close()
        assert replayed == len(SCRIPT)
        assert_same_state(recovered, clean_session())

    def test_a_format_1_journal_is_refused_untouched(self, tmp_path):
        """No reader of the old binary batches is kept beside fact text."""
        payload = b"old batch"
        path = tmp_path / "wal.rjn"
        for data in (
            b"RJN1",
            b"RJN1B" + struct.pack(">II", len(payload), zlib.crc32(payload)) + payload,
        ):
            path.write_bytes(data)
            with pytest.raises(JournalError, match="is a format 1 repro journal"):
                replay_journal(path)
            with pytest.raises(JournalError, match="is a format 1 repro journal"):
                open_journal(path)
            with pytest.raises(JournalError, match="is a format 1 repro journal"):
                recover_session(
                    parse_program(TC_TEXT), path, Database.from_dict(BASE)
                )
            assert path.read_bytes() == data


class TestFactText:
    """A batch record is ground fact text: what the text cannot carry
    is refused before a byte is written, and replay hands back exactly
    the normalized pairs that were appended."""

    @pytest.mark.parametrize(
        "term",
        [True, 1.5, None, (1, 2), Compound("F", (Constant(1),))],
        ids=["bool", "float", "none", "tuple", "capital-functor"],
    )
    def test_an_unencodable_fact_writes_nothing(self, tmp_path, term):
        path = tmp_path / "wal.rjn"
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[0])
            size = path.stat().st_size
            bad = [("e", (1, term))]
            for batch in ((bad, []), ([], bad), (bad + SCRIPT[1][0], [])):
                with pytest.raises(ValueError, match="cannot journal"):
                    journal.append_batch(*batch)
            assert path.stat().st_size == size
            journal.append_batch(*SCRIPT[1])  # the journal goes on
        assert replay_journal(path).batches == normalized(SCRIPT[:2])

    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(st.tuples(_text_facts, _text_facts), max_size=4))
    def test_replay_returns_the_normalized_pairs_appended(self, batches):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/wal.rjn"
            with open_journal(path, fsync=False) as journal:
                for inserts, deletes in batches:
                    journal.append_batch(inserts, deletes)
            replay = replay_journal(path)
        assert not replay.torn
        assert replay.batches == normalized(batches)

    @settings(max_examples=60, deadline=None)
    @given(facts=_text_facts)
    def test_an_error_after_the_text_sits_where_the_text_ends(self, facts):
        """Quoted atoms may hold raw newlines; the lines after them count."""
        text = _fact_text(facts).decode("utf-8")
        with pytest.raises(ParseError) as raised:
            parse_program(text + "\n$")
        assert (raised.value.line, raised.value.column) == (text.count("\n") + 2, 1)


class TestTornTail:
    def test_every_truncation_point_of_the_final_record(self, tmp_path):
        """Crash at any byte of the last write → replay the rest cleanly."""
        path = tmp_path / "wal.rjn"
        run_journaled(path)
        full = path.read_bytes()
        prefix = replay_journal(path)
        last_start = None
        data = full
        # Recompute record boundaries by walking the clean file.
        import struct

        pos = HEADER_SIZE
        while pos < len(data):
            last_start = pos
            length, _ = struct.unpack_from(">II", data, pos + 1)
            pos += 1 + 8 + length
        assert last_start is not None
        for cut in range(last_start + 1, len(full)):
            path.write_bytes(full[:cut])
            replay = replay_journal(path)
            assert replay.torn
            assert replay.tail_offset == last_start
            assert replay.batches == prefix.batches[:-1]

    def test_recover_truncates_torn_tail_and_continues(self, tmp_path):
        path = tmp_path / "wal.rjn"
        run_journaled(path)
        full = path.read_bytes()
        path.write_bytes(full[:-3])  # tear the final record
        program = parse_program(TC_TEXT)
        session, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE)
        )
        assert replayed == len(SCRIPT) - 1
        clean = clean_session(SCRIPT[:-1])
        assert_same_state(session, clean)
        # The torn tail is gone and the journal accepts new appends.
        journal.append_batch(*SCRIPT[-1])
        journal.close()
        assert replay_journal(path).batches == normalized(SCRIPT)
        assert not replay_journal(path).torn

    def test_injected_torn_write_behaves_like_a_crash(self, tmp_path):
        path = tmp_path / "wal.rjn"
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[0])
            faults.install(parse_faults("journal:torn:1"))
            with pytest.raises(FaultInjected, match="torn journal write"):
                journal.append_batch(*SCRIPT[1])
            faults.install(None)
        replay = replay_journal(path)
        assert replay.torn
        assert replay.batches == normalized([SCRIPT[0]])
        program = parse_program(TC_TEXT)
        session, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE)
        )
        journal.close()
        assert replayed == 1
        assert_same_state(session, clean_session(SCRIPT[:1]))

    def test_a_failed_cut_back_says_the_batch_may_replay(
        self, tmp_path, monkeypatch
    ):
        """A refused record is truncated off the file; when that fails
        too, the journal's refusal says the record may still replay."""
        import errno
        import os

        def fail(*args):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        path = tmp_path / "wal.rjn"
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[0])
            with monkeypatch.context() as patch:
                patch.setattr(os, "fsync", fail)
                patch.setattr(os, "ftruncate", fail)
                with pytest.raises(OSError, match="Input/output error"):
                    journal.append_batch(*SCRIPT[1])
            with pytest.raises(JournalError, match="may replay on recovery"):
                journal.append_batch(*SCRIPT[2])
        assert replay_journal(path).batches == normalized(SCRIPT[:2])


class TestRecoverSession:
    def test_recover_matches_clean_run(self, tmp_path):
        path = tmp_path / "wal.rjn"
        run_journaled(path)
        program = parse_program(TC_TEXT)
        session, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE)
        )
        journal.close()
        assert replayed == len(SCRIPT)
        assert_same_state(session, clean_session())

    def test_committed_batch_that_failed_refails_on_replay(self, tmp_path):
        """A batch journaled but rolled back (abort record lost in the
        crash) must re-fail deterministically during replay, leaving
        the recovered state equal to what the client observed.  The
        failure here is data-driven — a chained-edge batch that blows
        the round budget — so original run and replay fail alike."""
        path = tmp_path / "wal.rjn"
        program = parse_program(TC_TEXT)
        knobs = dict(max_iterations=10)
        poison = [("e", (100 + i, 101 + i)) for i in range(25)]
        session = IncrementalSession(
            program, Database.from_dict(BASE), **knobs
        )
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[0])
            session.apply_batch(inserts=SCRIPT[0][0])
            # The journal write succeeds (WAL order), then the apply
            # fails and the crash "loses" the abort record.
            journal.append_batch(poison, [])
            with pytest.raises(MaintenanceError):
                session.apply_batch(inserts=poison)
        recovered, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE), **knobs
        )
        journal.close()
        assert replayed == 1  # the poisoned batch re-failed and was skipped
        assert_same_state(recovered, session)

    def test_recover_empty_journal_is_the_base_state(self, tmp_path):
        path = tmp_path / "wal.rjn"
        open_journal(path).close()
        program = parse_program(TC_TEXT)
        session, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE)
        )
        journal.close()
        assert replayed == 0
        assert_same_state(session, clean_session(batches=[]))


class TestRecoveryMatrix:
    """Replay determinism across the full knob matrix (satellite c)."""

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(jobs=1, backend="serial"),
            dict(jobs=2, backend="process"),
            dict(jobs=2, backend="process", partitions=2),
        ],
        ids=["serial", "process", "process-partitions"],
    )
    def test_recovered_state_is_bit_identical(self, tmp_path, knobs):
        path = tmp_path / "wal.rjn"
        original = run_journaled(path, **knobs)
        program = parse_program(TC_TEXT)
        recovered, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE), **knobs
        )
        journal.close()
        assert replayed == len(SCRIPT)
        assert_same_state(recovered, original)

    def test_truncated_tail_matrix(self, tmp_path):
        """Torn final record + recovery."""
        path = tmp_path / "wal.rjn"
        run_journaled(path)
        full = path.read_bytes()
        path.write_bytes(full[: len(full) // 2 + len(MAGIC)])
        program = parse_program(TC_TEXT)
        recovered, journal, replayed = recover_session(
            program, path, Database.from_dict(BASE)
        )
        journal.close()
        clean = clean_session(SCRIPT[:replayed])
        assert_same_state(recovered, clean)


#: Programs the folded-recovery property runs over: linear recursion;
#: two EDB predicates feeding non-recursive strata below and above a
#: recursive one; non-linear recursion over a ground program rule (a
#: fact no delete may take away).  ``mark`` is unknown to the first and
#: the last, so their journals also carry facts no rule reads.
FOLD_PROGRAMS = {
    "tc": TC_TEXT,
    "strata": """
        hop2(X, Y) :- e(X, Z), e(Z, Y).
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
        top(X) :- t(X, Y), mark(Y).
    """,
    "seeded": """
        t(1, 2).
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), t(Z, Y).
    """,
}
FOLD_BASE = {"e": [(0, 1), (1, 2), (2, 3)], "mark": [(3,)]}

_node = st.integers(0, 4)  # 25 edges: collisions are the point
_fact = st.one_of(
    st.tuples(st.just("e"), st.tuples(_node, _node)),
    st.tuples(st.just("mark"), st.tuples(_node)),
)
_facts = st.lists(_fact, max_size=4)
_steps = st.lists(
    st.tuples(
        st.sampled_from(["batch"] * 5 + ["aborted"]),
        _facts,
        _facts,
    ),
    max_size=8,
)

E01, E12, E44 = ("e", (0, 1)), ("e", (1, 2)), ("e", (4, 4))
#: Named cases, spelled out: duplicates, a delete of an absent fact,
#: one fact on both sides of a batch, insert → delete → insert of one
#: fact across batches, an aborted batch mid-journal, a torn tail.
NAMED_STEPS = [
    ("batch", [E44, E44, ("mark", (0,))], [("e", (3, 0)), E01, E01]),
    ("batch", [E12], [E12, E44]),
    ("aborted", [("e", (2, 0)), ("mark", (2,))], [E12]),
    ("batch", [E44], []),
    ("batch", [], [E44, ("mark", (3,))]),
    ("aborted", [("e", (3, 4))], []),
    ("batch", [E44, E01], [("e", (2, 3))]),
]


def write_journal(path, program, steps, torn=None):
    """Journal ``steps`` the way a server would have.

    Returns the session that lived through them — every surviving batch
    applied one by one, an ``aborted`` one journaled, compensated and
    never applied — and the number of batches that survived.  ``torn``
    leaves that many bytes (modulo its length,
    at least one) of one more record at the end of the file.
    """
    model = IncrementalSession(program, Database.from_dict(FOLD_BASE))
    surviving = 0
    with Journal(
        path, program, Database.from_dict(FOLD_BASE), fsync=False
    ) as journal:
        for kind, inserts, deletes in steps:
            journal.append_batch(inserts, deletes)
            if kind == "aborted":
                journal.append_abort()
                continue
            model.apply_batch(inserts=inserts or None, deletes=deletes or None)
            surviving += 1
        if torn is not None:
            clean = journal._fh.tell()
            journal.append_batch([("e", (9, 9))], [("mark", (9,))])
            keep = 1 + torn % (journal._fh.tell() - clean - 1)
            journal.truncate_tail(clean + keep)
    return model, surviving


def recover_counting(program, path, edb=None, **knobs):
    """``recover_session`` plus how often it called ``apply_batch``."""
    calls = []
    original = IncrementalSession.apply_batch

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncrementalSession, "apply_batch", counted)
        session, journal, replayed = recover_session(
            program, path, edb, fsync=False, **knobs
        )
    return session, journal, replayed, len(calls)


class TestFoldedRecovery:
    """Recovery folds the committed prefix into the EDB and evaluates
    once; the state it reaches is the one stepwise maintenance reached
    and the one a fresh evaluation of the final EDB reaches."""

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(FOLD_PROGRAMS)),
        steps=_steps,
        torn=st.none() | st.integers(0, 200),
    )
    def test_recovery_equals_stepwise_and_fresh(self, name, steps, torn):
        self.check(name, steps, torn)

    @pytest.mark.parametrize("name", sorted(FOLD_PROGRAMS))
    @pytest.mark.parametrize("torn", [None, 7])
    def test_the_named_cases(self, name, torn):
        for stop in range(len(NAMED_STEPS) + 1):
            self.check(name, NAMED_STEPS[:stop], torn)

    @staticmethod
    def check(name, steps, torn):
        program = parse_program(FOLD_PROGRAMS[name])
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/wal.rjn"
            model, surviving = write_journal(path, program, steps, torn)
            recovered, journal, replayed, applies = recover_counting(
                program, path, Database.from_dict(FOLD_BASE)
            )
            journal.close()
            assert not replay_journal(path).torn
        assert applies <= 1
        assert replayed == surviving
        assert_same_state(recovered, model)
        assert recovered.database == IncrementalSession(program, model.edb).database

    def test_fold_is_the_edb_half_of_apply_batch(self):
        """Last writer wins per fact, a batch deletes before it inserts,
        absent deletes and present inserts change nothing."""
        edb = Database.from_dict(FOLD_BASE)
        fold_batches(
            edb,
            [(ins, dels) for kind, ins, dels in NAMED_STEPS if kind == "batch"],
        )
        assert edb == Database.from_dict(
            {"e": [(0, 1), (1, 2), (4, 4)], "mark": [(0,)]}
        )

    def test_aborted_batch_in_the_middle_never_reaches_the_fold(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import journal as journal_module

        folded = []

        def spy(edb, batches):
            folded.extend(batches)
            return fold_batches(edb, batches)

        monkeypatch.setattr(journal_module, "fold_batches", spy)
        path = tmp_path / "wal.rjn"
        poison = [("e", (100 + i, 101 + i)) for i in range(25)]
        with open_journal(path) as journal:
            journal.append_batch(*SCRIPT[0])
            journal.append_batch(poison, [])
            journal.append_abort()
            journal.append_batch(*SCRIPT[1])
            journal.append_batch(*SCRIPT[2])
        program = parse_program(TC_TEXT)
        recovered, journal, replayed, applies = recover_counting(
            program, path, Database.from_dict(BASE)
        )
        journal.close()
        assert folded == normalized([SCRIPT[0], SCRIPT[1]])
        assert (replayed, applies) == (3, 1)
        assert not recovered.edb.has_fact("e", (100, 101))
        assert_same_state(recovered, clean_session())

    def test_refailing_last_batch_gets_its_abort_written_back(self, tmp_path):
        """Several batches fold, the last one blows the round budget
        again (its abort died with the crash) and is skipped.  Recovery
        appends that abort: the *next* recovery folds everything before
        its own last record, and a record still lacking its abort there
        would be folded in instead of re-tried."""
        path = tmp_path / "wal.rjn"
        program = parse_program(TC_TEXT)
        knobs = dict(max_iterations=10)
        poison = [("e", (100 + i, 101 + i)) for i in range(25)]
        session = IncrementalSession(
            program, Database.from_dict(BASE), **knobs
        )
        with open_journal(path) as journal:
            for inserts, deletes in SCRIPT[:2]:
                journal.append_batch(inserts, deletes)
                session.apply_batch(
                    inserts=inserts or None, deletes=deletes or None
                )
            journal.append_batch(poison, [])
            with pytest.raises(MaintenanceError):
                session.apply_batch(inserts=poison)
        recovered, journal, replayed, applies = recover_counting(
            program, path, Database.from_dict(BASE), **knobs
        )
        assert (replayed, applies) == (2, 1)
        assert_same_state(recovered, session)
        assert replay_journal(path).batches == normalized(SCRIPT[:2])
        # Serve on, crash again: the poisoned record is mid-journal now.
        journal.append_batch(*SCRIPT[2])
        recovered.apply_batch(deletes=SCRIPT[2][1])
        journal.close()
        again, journal, replayed, applies = recover_counting(
            program, path, Database.from_dict(BASE), **knobs
        )
        journal.close()
        assert (replayed, applies) == (3, 1)
        assert_same_state(again, recovered)
        assert not again.edb.has_fact("e", (100, 101))

    def test_apply_batch_runs_once_however_long_the_journal(self, tmp_path):
        path = tmp_path / "wal.rjn"
        edges = set(BASE["e"])
        with open_journal(path, fsync=False) as journal:
            for i in range(450):
                new = [(10 + i, 11 + i), (10 + i, 12 + i), (i % 7, 10 + i)]
                gone = [(10 + i - 3, 11 + i - 3)] if i % 3 == 2 else []
                journal.append_batch(
                    [("e", edge) for edge in new],
                    [("e", edge) for edge in gone],
                )
                edges -= set(gone)
                edges |= set(new)
        program = parse_program(TC_TEXT)
        recovered, journal, replayed, applies = recover_counting(
            program, path, Database.from_dict(BASE)
        )
        journal.close()
        assert (replayed, applies) == (450, 1)
        fresh = IncrementalSession(program, Database.from_dict({"e": edges}))
        assert recovered.database == fresh.database
        assert recovered.edb == fresh.edb


class TestConcurrentCrashDrill:
    """SIGKILL a socket-mode serve while reader connections are
    mid-query; recovery must still be byte-identical to a run that
    never crashed (the CI crash-recovery smoke, concurrent edition)."""

    def test_sigkill_under_reader_load_recovers_bit_identical(
        self, tmp_path, capsys
    ):
        import os
        import signal
        import socket
        import subprocess
        import sys
        import threading

        import repro
        from repro.cli import main as cli_main

        program_file = str(tmp_path / "tc.dl")
        facts_file = str(tmp_path / "facts.dl")
        with open(program_file, "w") as fh:
            fh.write(TC_TEXT)
        with open(facts_file, "w") as fh:
            fh.write("e(1, 2).\ne(2, 3).\n")
        journal = str(tmp_path / "crash.rjn")

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                program_file, "--facts", facts_file, "--journal", journal,
                "--workers", "3", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        readers = []
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("listening on "), banner
            host, _, port = banner[len("listening on "):].rpartition(":")
            address = (host, int(port))

            def exchange(sock_file, sock, line):
                """One command in, payload + status out."""
                sock.sendall((line + "\n").encode("utf-8"))
                while True:
                    reply = sock_file.readline()
                    if not reply:
                        return None  # server died (the kill)
                    if not reply.startswith("= "):
                        return reply.strip()

            stop = threading.Event()
            served_one = [threading.Event() for _ in range(2)]

            def reader(slot):
                try:
                    with socket.create_connection(
                        address, timeout=10
                    ) as sock, sock.makefile("r", encoding="utf-8") as rfile:
                        while not stop.is_set():
                            status = exchange(rfile, sock, "? t(X, Y)")
                            if status is None:
                                return
                            assert status.endswith("answers"), status
                            served_one[slot].set()
                except OSError:
                    pass  # connection torn by the SIGKILL — expected

            readers = [
                threading.Thread(target=reader, args=(slot,), daemon=True)
                for slot in range(2)
            ]
            for thread in readers:
                thread.start()

            updates = ["+ e(3, 4).", "+ e(4, 5).", "- e(1, 2)."]
            with socket.create_connection(
                address, timeout=10
            ) as sock, sock.makefile("r", encoding="utf-8") as rfile:
                for line in updates:
                    status = exchange(rfile, sock, line)
                    assert status is not None and status.startswith("ok"), (
                        f"batch not acknowledged: {status!r}"
                    )
                # Only kill once both readers are actively querying, so
                # the SIGKILL provably lands under concurrent reads.
                for event in served_one:
                    assert event.wait(timeout=30), "reader never got an answer"
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            assert proc.returncode == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            stop = locals().get("stop")
            if stop is not None:
                stop.set()
            for thread in readers:
                thread.join(timeout=30)
                assert not thread.is_alive(), "reader thread hung"

        # The same updates through a clean scripted run, never killed.
        clean = str(tmp_path / "clean.rjn")
        script = tmp_path / "clean.txt"
        script.write_text("+ e(3, 4).\n+ e(4, 5).\n- e(1, 2).\nquit\n")
        assert cli_main(
            [
                "serve", program_file, "--facts", facts_file,
                "--script", str(script), "--journal", clean,
            ]
        ) == 0
        capsys.readouterr()

        assert cli_main(
            ["recover", program_file, journal, "--facts", facts_file]
        ) == 0
        crashed_dump = capsys.readouterr().out
        assert cli_main(
            ["recover", program_file, clean, "--facts", facts_file]
        ) == 0
        clean_dump = capsys.readouterr().out
        assert crashed_dump == clean_dump
        assert "t(2, 5)." in crashed_dump
        assert "t(1, 2)." not in crashed_dump  # the delete survived
