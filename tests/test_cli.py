"""Tests for the command-line interface."""

import itertools
import re
import time

import pytest

from repro.cli import main

TC_TEXT = """
t(X, Y) :- t(X, W), t(W, Y).
t(X, Y) :- e(X, W), t(W, Y).
t(X, Y) :- t(X, W), e(W, Y).
t(X, Y) :- e(X, Y).
"""

FACTS_TEXT = "e(1, 2).\ne(2, 3).\ne(3, 4).\n"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "tc.dl"
    path.write_text(TC_TEXT)
    return str(path)


@pytest.fixture
def facts_file(tmp_path):
    return facts_file_of(tmp_path, FACTS_TEXT)


def facts_file_of(tmp_path, text, name="facts.dl"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestClassify:
    def test_factorable(self, program_file, capsys):
        assert main(["classify", program_file, "t(1, Y)"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4.1" in out
        assert "combined" in out and "right-linear" in out

    def test_non_factorable(self, tmp_path, capsys):
        path = tmp_path / "sg.dl"
        path.write_text(
            "sg(X, Y) :- flat(X, Y).\n"
            "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"
        )
        assert main(["classify", str(path), "sg(1, Y)"]) == 0
        out = capsys.readouterr().out
        assert "factorable: not applicable" in out or "factorable: no" in out


class TestOptimize:
    def test_prints_stages(self, program_file, capsys):
        assert main(["optimize", program_file, "t(1, Y)"]) == 0
        out = capsys.readouterr().out
        for marker in ("=== adorned ===", "=== magic ===", "=== simplified ==="):
            assert marker in out
        assert "m_t@bf(1)." in out

    def test_trace_flag(self, program_file, capsys):
        assert main(["optimize", program_file, "t(1, Y)", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "prop-5.4a" in out


class TestRun:
    def test_answers(self, program_file, facts_file, capsys):
        assert main(["run", program_file, "t(1, Y)", "--facts", facts_file]) == 0
        captured = capsys.readouterr()
        assert set(captured.out.split()) == {"2", "3", "4"}
        assert "3 answers" in captured.err

    def test_ground_query_true(self, program_file, facts_file, capsys):
        assert main(["run", program_file, "t(1, 4)", "--facts", facts_file]) == 0
        assert "true" in capsys.readouterr().out

    def test_no_facts_file(self, program_file, capsys):
        assert main(["run", program_file, "t(1, Y)"]) == 0
        assert "0 answers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--jobs", "0", "error: invalid jobs='0'; expected a positive integer"),
            ("--jobs", "2.5", "error: invalid jobs='2.5'; expected a positive integer"),
            ("--backend", "nope", "error: invalid backend='nope'; expected one of serial, process"),
        ],
    )
    def test_bad_knob_is_one_error_line_and_exit_2(
        self, program_file, facts_file, capsys, flag, value, message
    ):
        code = main(
            ["run", program_file, "t(1, Y)", "--facts", facts_file, flag, value]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    @staticmethod
    def assert_usage_error(argv, capsys, removed):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {removed}" in captured.err

    def test_removed_exec_flag_is_a_usage_error(
        self, program_file, facts_file, capsys
    ):
        self.assert_usage_error(
            ["run", program_file, "t(1, Y)", "--facts", facts_file,
             "--exec", "tuple"],
            capsys, "--exec tuple",
        )

    def test_removed_planner_flag_is_a_usage_error(
        self, program_file, facts_file, capsys
    ):
        # there is one join order, so there is no planner to pick
        self.assert_usage_error(
            ["run", program_file, "t(1, Y)", "--facts", facts_file,
             "--planner", "cost"],
            capsys, "--planner cost",
        )

    def test_stats_leads_with_the_resolved_config(
        self, program_file, facts_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TIMEOUT", "30")  # environment knobs show too
        monkeypatch.setenv("REPRO_EXEC", "tuple")  # ... and removed ones do not
        monkeypatch.setenv("REPRO_PLANNER", "cost")
        code = main(
            ["run", program_file, "t(1, Y)", "--facts", facts_file,
             "--stats", "--jobs", "2", "--backend", "serial", "--partitions", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        first = lines.index("-- stats:") - 1
        assert lines[first] == (
            "-- config: jobs=2 backend=serial partitions=1 "
            "max_iterations=None max_facts=None max_seconds=30.0"
        )


class TestRunAnswersWhatAskAnswers:
    """``repro run`` keeps ``optimize``'s goal-specific rewrite (Lemma
    5.1 reads the goal's constants) behind the compiled path's goal
    front: a stored fact on a derived predicate is bridged, an EDB goal
    is read from its relation, and a wrong arity gets
    ``Program.check_query``'s message."""

    TC = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n"
    FACTS = "e(1, 2). e(2, 3). t(5, 6). t(3, 9).\n"

    def both(self, tmp_path, capsys, goal):
        program = tmp_path / "tc.dl"
        program.write_text(self.TC)
        facts = tmp_path / "facts.dl"
        facts.write_text(self.FACTS)
        outputs = []
        for command in ("run", "query"):
            code = main([command, str(program), goal, "--facts", str(facts)])
            out, err = capsys.readouterr()
            outputs.append((code, out.split(), err))
        return outputs

    @pytest.mark.parametrize(
        "goal, answers", [("t(1, Y)", ["2", "3", "9"]), ("t(5, Y)", ["6"])]
    )
    def test_stored_facts_on_a_derived_predicate_are_answers(
        self, tmp_path, capsys, goal, answers
    ):
        (run_code, run_out, _), (query_code, query_out, _) = self.both(
            tmp_path, capsys, goal
        )
        assert run_code == query_code == 0
        assert sorted(run_out) == sorted(query_out) == answers

    def test_an_edb_goal_is_read_from_its_relation(self, tmp_path, capsys):
        (run_code, run_out, run_err), (_, query_out, _) = self.both(
            tmp_path, capsys, "e(1, Y)"
        )
        assert run_code == 0
        assert run_out == query_out == ["2"]
        assert "via edb" in run_err

    def test_an_edb_read_is_timed_as_ask_times_it(
        self, tmp_path, capsys, monkeypatch
    ):
        # A tiny read can round to 0.0 ms, so the clock ticks one second
        # per reading: a timed read reports at least 1000 ms.
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        for code, out, err in self.both(tmp_path, capsys, "e(1, Y)"):
            assert code == 0 and out == ["2"]
            assert float(re.search(r"([\d.]+) ms", err).group(1)) >= 1000

    def test_a_wrong_arity_gets_the_one_message(self, tmp_path, capsys):
        run, query = self.both(tmp_path, capsys, "t(1, Y, Z)")
        message = (
            "error: query predicate t/3 is not defined by the program "
            "(t has arity 2)\n"
        )
        assert run == query == (2, [], message)

    def test_a_rewritten_stage_refuses_stored_derived_rows(self, tmp_path, capsys):
        program = tmp_path / "tc.dl"
        program.write_text(self.TC)
        facts = tmp_path / "facts.dl"
        facts.write_text(self.FACTS)
        argv = ["optimize", str(program), "t(1, Y)", "--facts", str(facts)]
        assert main([*argv, "--evaluate", "magic"]) == 2
        assert "derived predicate t/2" in capsys.readouterr().err
        assert main([*argv, "--evaluate", "original"]) == 0
        assert capsys.readouterr().out.split() == ["2", "3", "9"]


class TestValidate:
    def test_ok_program(self, program_file, capsys):
        assert main(["validate", program_file]) == 0

    def test_warnings_printed(self, tmp_path, capsys):
        path = tmp_path / "warn.dl"
        path.write_text("p(X) :- e(X, Orphan).\n")
        assert main(["validate", str(path)]) == 0
        assert "singleton-variable" in capsys.readouterr().out


class TestServe:
    def run_script(self, tmp_path, program_file, facts_file, script, *extra):
        path = tmp_path / "serve.txt"
        path.write_text(script)
        args = ["serve", program_file, "--script", str(path)]
        if facts_file is not None:
            args += ["--facts", facts_file]
        return main(args + list(extra))

    def test_query_insert_delete_cycle(
        self, tmp_path, program_file, facts_file, capsys
    ):
        script = (
            "# incremental smoke\n"
            "? t(1, Y)\n"
            "+ e(4, 5). e(5, 6).\n"
            "? t(1, Y)\n"
            "- e(2, 3).\n"
            "? t(1, Y)\n"
            "stats\n"
            "quit\n"
        )
        assert self.run_script(tmp_path, program_file, facts_file, script) == 0
        out = capsys.readouterr().out
        blocks = out.split("\n")
        # After the inserts the closure reaches 6; after deleting
        # e(2, 3) only t(1, 2) survives.
        assert "= 6" in blocks
        assert blocks.count("= 2") >= 3
        assert "facts=" in out
        assert "ok +" in out and "ok deleted" in out and blocks[-2:] == ["ok bye", ""]

    def test_bad_input_reports_and_continues(
        self, tmp_path, program_file, facts_file, capsys
    ):
        script = "+ e(1, X).\nbogus command\n? t(1, Y)\n"
        assert self.run_script(tmp_path, program_file, facts_file, script) == 0
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "2" in captured.out  # the query still ran

    def test_explain_needs_no_flag(
        self, tmp_path, program_file, facts_file, capsys
    ):
        # the tree is computed from the EDB the script has reached
        code = self.run_script(
            tmp_path, program_file, facts_file,
            "explain t(1, 3)\n- e(2, 3).\nexplain t(1, 3)\n+ e(1, 3).\n"
            "explain t(1, 3)\n",
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "= t(1, 3)    [via" in captured.out
        assert "error: line 3: " in captured.err  # gone with e(2, 3)
        # one step now, from the inserted edge
        assert captured.out.endswith(
            "= t(1, 3)    [via t(X, Y) :- e(X, Y).]\n=   e(1, 3)\nok\n"
        )

    @pytest.mark.parametrize("command", ["serve", "recover"])
    def test_removed_provenance_flag_is_a_usage_error(
        self, tmp_path, program_file, command, capsys
    ):
        # explain is always available, so there is nothing to turn on
        target = [] if command == "serve" else [str(tmp_path / "wal.rjn")]
        TestRun.assert_usage_error(
            [command, program_file, *target, "--provenance"],
            capsys, "--provenance",
        )

    def test_rejects_bad_jobs(self, tmp_path, program_file, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("quit\n")
        code = main(
            ["serve", program_file, "--script", str(path), "--jobs", "0"]
        )
        assert code == 2
        assert "jobs" in capsys.readouterr().err


class TestExplain:
    def test_derivation_tree(self, program_file, facts_file, capsys):
        assert main(
            ["explain", program_file, "t(1, 3)", "--facts", facts_file]
        ) == 0
        out = capsys.readouterr().out
        assert "t(1, 3)" in out and "[via" in out

    def test_underivable(self, program_file, facts_file, capsys):
        code = main(
            ["explain", program_file, "t(4, 1)", "--facts", facts_file]
        )
        assert code == 1
        assert "not derivable" in capsys.readouterr().err


class TestServeRobustness:
    """Script errors: line numbers, rollback, and --strict (satellite a)."""

    run_script = TestServe.run_script

    def test_error_reports_line_number(
        self, tmp_path, program_file, facts_file, capsys
    ):
        script = "? t(1, Y)\nbogus command\n? t(1, Y)\n"
        assert self.run_script(tmp_path, program_file, facts_file, script) == 0
        assert "error: line 2:" in capsys.readouterr().err

    def test_failing_command_rolls_back_and_continues(
        self, tmp_path, program_file, facts_file, capsys
    ):
        # The malformed insert fails; the session must still answer
        # exactly as if the line had never been sent.
        script = "? t(1, Y)\n+ e(1, X).\n? t(1, Y)\n"
        assert self.run_script(tmp_path, program_file, facts_file, script) == 0
        captured = capsys.readouterr()
        assert "error: line 2:" in captured.err
        lines = [l for l in captured.out.splitlines() if l.strip()]
        half = len(lines) // 2
        assert lines[:half] == lines[half:]  # identical answer blocks

    def test_strict_aborts_at_the_failing_line(
        self, tmp_path, program_file, facts_file, capsys
    ):
        script = "bogus command\n? t(1, Y)\n"
        code = self.run_script(
            tmp_path, program_file, facts_file, script, "--strict"
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "aborting at line 1" in captured.err
        assert "2" not in captured.out  # the query after never ran

    def test_strict_passes_clean_scripts(
        self, tmp_path, program_file, facts_file, capsys
    ):
        script = "+ e(4, 5).\n? t(1, Y)\nquit\n"
        code = self.run_script(
            tmp_path, program_file, facts_file, script, "--strict"
        )
        assert code == 0
        assert "5" in capsys.readouterr().out


class TestServeKnobValidation:
    """New knobs fail as loudly as --jobs/--backend (satellite b)."""

    def _serve(self, tmp_path, program_file, *extra):
        path = tmp_path / "empty.txt"
        path.write_text("quit\n")
        return main(
            ["serve", program_file, "--script", str(path)] + list(extra)
        )

    def test_the_checkpoint_flag_is_gone(self, tmp_path, program_file, capsys):
        with pytest.raises(SystemExit) as exit_:
            self._serve(tmp_path, program_file, "--checkpoint-every", "2")
        assert exit_.value.code == 2
        assert "unrecognized arguments: --checkpoint-every 2" in (
            capsys.readouterr().err
        )

    def test_rejects_bad_timeout(self, tmp_path, program_file, capsys):
        code = self._serve(tmp_path, program_file, "--timeout", "-1")
        assert code == 2
        assert "seconds" in capsys.readouterr().err

    def test_rejects_malformed_faults_env(
        self, tmp_path, program_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "junk")
        from repro.engine import faults

        faults.clear()  # re-arm the lazy env lookup
        code = self._serve(tmp_path, program_file)
        assert code == 2
        assert "REPRO_FAULTS" in capsys.readouterr().err
        monkeypatch.delenv("REPRO_FAULTS")
        faults.clear()

    def test_rejects_malformed_timeout_env(
        self, tmp_path, program_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TIMEOUT", "soon")
        code = self._serve(tmp_path, program_file)
        assert code == 2
        assert "REPRO_TIMEOUT" in capsys.readouterr().err


class TestServeJournal:
    """serve --journal: write-ahead logging and restart recovery."""

    def serve(self, tmp_path, program_file, facts_file, script, *extra):
        path = tmp_path / "serve.txt"
        path.write_text(script)
        return main(
            [
                "serve",
                program_file,
                "--facts",
                facts_file,
                "--script",
                str(path),
            ]
            + list(extra)
        )

    def test_restart_resumes_where_it_left_off(
        self, tmp_path, program_file, facts_file, capsys
    ):
        journal = str(tmp_path / "wal.rjn")
        code = self.serve(
            tmp_path, program_file, facts_file,
            "+ e(4, 5).\n- e(2, 3).\nquit\n", "--journal", journal,
        )
        assert code == 0
        capsys.readouterr()
        # Second run over the same journal: both batches replay.
        code = self.serve(
            tmp_path, program_file, facts_file,
            "? t(3, Y)\n? t(1, Y)\nquit\n", "--journal", journal,
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "recovered 2 batches" in captured.err
        out = captured.out.splitlines()
        assert "= 4" in out and "= 5" in out  # t(3, 4), t(3, 5) survive
        assert out.count("= 2") == 1  # t(1, 2) only: e(2, 3) stays deleted

    def test_rolled_back_batch_is_not_replayed(
        self, tmp_path, program_file, facts_file, capsys
    ):
        journal = str(tmp_path / "wal.rjn")
        # e(1, X) fails normalization and never reaches the journal;
        # a semantically failing batch would abort-compensate instead.
        code = self.serve(
            tmp_path, program_file, facts_file,
            "+ e(4, 5).\n+ e(1, X).\nquit\n", "--journal", journal,
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["recover", program_file, journal, "--facts", facts_file]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "replayed 1 batches" in captured.err
        assert "e(4, 5)." in captured.out
        assert "X" not in captured.out

    def test_recover_replays_every_batch(
        self, tmp_path, program_file, facts_file, capsys
    ):
        journal = str(tmp_path / "wal.rjn")
        code = self.serve(
            tmp_path, program_file, facts_file,
            "+ e(4, 5).\n+ e(5, 6).\n+ e(6, 7).\nquit\n",
            "--journal", journal,
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["recover", program_file, journal, "--facts", facts_file]
        )
        assert code == 0
        captured = capsys.readouterr()
        # Two batches fold into the base facts; the third is re-applied.
        assert "replayed 3 batches" in captured.err
        assert "t(1, 7)." in captured.out

    def test_recover_dump_matches_clean_run(
        self, tmp_path, program_file, facts_file, capsys
    ):
        script = "+ e(4, 5).\n- e(1, 2).\n+ e(2, 1).\nquit\n"
        j1, j2 = str(tmp_path / "a.rjn"), str(tmp_path / "b.rjn")
        assert self.serve(
            tmp_path, program_file, facts_file, script, "--journal", j1
        ) == 0
        assert self.serve(
            tmp_path, program_file, facts_file, script, "--journal", j2
        ) == 0
        capsys.readouterr()
        assert main(
            ["recover", program_file, j1, "--facts", facts_file]
        ) == 0
        dump1 = capsys.readouterr().out
        assert main(
            ["recover", program_file, j2, "--facts", facts_file]
        ) == 0
        dump2 = capsys.readouterr().out
        assert dump1 == dump2  # byte-identical recovered databases
        assert "t(" in dump1

    def test_recovery_is_refused_over_other_inputs(
        self, tmp_path, program_file, capsys
    ):
        """The journal's header binds the program and the base facts:
        recovering without the run's ``--facts``, or with another
        program, is an error, not a dump of a state never served."""
        facts = tmp_path / "base.dl"
        facts.write_text("e(1, 2).\ne(2, 3).\n")
        journal = str(tmp_path / "wal.rjn")
        assert self.serve(
            tmp_path, program_file, str(facts), "+ e(3, 4).\nquit\n",
            "--journal", journal,
        ) == 0
        capsys.readouterr()
        other = tmp_path / "other.dl"
        other.write_text(TC_TEXT + "u(X) :- e(X, X).\n")
        for argv, differs in [
            (["recover", program_file, journal], "base facts"),
            (["recover", str(other), journal, "--facts", str(facts)], "program"),
        ]:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{differs} digest mismatch" in captured.err
        assert self.serve(
            tmp_path, program_file, facts_file_of(tmp_path, "e(1, 2).\n"),
            "quit\n", "--journal", journal,
        ) == 2
        assert "base facts digest mismatch" in capsys.readouterr().err
        assert main(["recover", program_file, journal, "--facts", str(facts)]) == 0
        assert "replayed 1 batches" in capsys.readouterr().err

    def test_a_format_1_journal_is_refused_untouched(
        self, tmp_path, program_file, facts_file, capsys
    ):
        journal = tmp_path / "old.rjn"
        journal.write_bytes(b"RJN1B\x00\x00\x00\x01\x00\x00\x00\x00x")
        before = journal.read_bytes()
        for argv in (
            ["recover", program_file, str(journal), "--facts", facts_file],
            ["serve", program_file, "--facts", facts_file, "--journal", str(journal)],
        ):
            assert main(argv) == 2
            assert "format 1 repro journal" in capsys.readouterr().err
        assert journal.read_bytes() == before

    def test_recover_dump_reparses_to_the_recovered_database(
        self, tmp_path, program_file, facts_file, capsys
    ):
        """Quoted atoms, lists and compound terms dump as ``--facts``
        input: reading the dump back gives the recovered database."""
        from repro.datalog.parser import parse_program
        from repro.engine.database import Database, load_program_facts
        from repro.engine.journal import recover_session

        journal = str(tmp_path / "wal.rjn")
        assert self.serve(
            tmp_path, program_file, facts_file,
            "+ e('Hello World', 'x\\\\y').\n+ e([1, 'A'], f(b, 'it\\'s')).\n"
            "+ e(go, -3).\n+ flag.\nquit\n",
            "--journal", journal, "--strict",
        ) == 0
        capsys.readouterr()
        assert main(["recover", program_file, journal, "--facts", facts_file]) == 0
        dump = capsys.readouterr().out
        assert "e('Hello World', 'x\\\\y')." in dump.splitlines()
        dumped = Database()
        load_program_facts(parse_program(dump), dumped)
        with open(program_file) as tc, open(facts_file) as base:
            program, edb = parse_program(tc.read()), Database()
            load_program_facts(parse_program(base.read()), edb)
        session, handle, replayed = recover_session(program, journal, edb)
        handle.close()
        assert replayed == 4
        assert dumped == session.database


class TestPathErrors:
    """A path that cannot be read, or is not what it should be, is one
    ``error:`` line on stderr and exit code 2 — not a traceback."""

    def check(self, capsys, argv, *expected):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        for text in expected:
            assert text in lines[0]

    @pytest.fixture
    def journal_file(self, tmp_path, program_file, facts_file, capsys):
        script = tmp_path / "serve.txt"
        script.write_text("+ e(4, 5).\nquit\n")
        path = str(tmp_path / "wal.rjn")
        assert main(
            [
                "serve", program_file, "--facts", facts_file,
                "--script", str(script), "--journal", path,
            ]
        ) == 0
        capsys.readouterr()
        return path

    def test_recover_missing_journal(self, tmp_path, program_file, facts_file, capsys):
        missing = str(tmp_path / "never-written.rjn")
        self.check(
            capsys,
            ["recover", program_file, missing, "--facts", facts_file],
            "never-written.rjn",
        )

    def test_recover_file_that_is_not_a_journal(
        self, program_file, facts_file, capsys
    ):
        self.check(
            capsys,
            ["recover", program_file, facts_file, "--facts", facts_file],
            "is not a repro journal",
        )

    def test_recover_unreadable_program(self, tmp_path, journal_file, facts_file, capsys):
        self.check(
            capsys,
            ["recover", str(tmp_path / "no.dl"), journal_file, "--facts", facts_file],
            "no.dl",
        )

    def test_recover_unreadable_facts(self, tmp_path, program_file, journal_file, capsys):
        # a directory where a file should be: IsADirectoryError, not ENOENT
        self.check(
            capsys,
            ["recover", program_file, journal_file, "--facts", str(tmp_path)],
        )

    def test_serve_journal_that_is_not_a_journal(
        self, tmp_path, program_file, facts_file, capsys
    ):
        script = tmp_path / "serve.txt"
        script.write_text("? t(1, Y)\nquit\n")
        self.check(
            capsys,
            [
                "serve", program_file, "--facts", facts_file,
                "--script", str(script), "--journal", program_file,
            ],
            "is not a repro journal",
        )

    def test_serve_unreadable_program(self, tmp_path, facts_file, capsys):
        self.check(
            capsys,
            [
                "serve", str(tmp_path / "no.dl"), "--facts", facts_file,
                "--journal", str(tmp_path / "wal.rjn"),
            ],
            "no.dl",
        )

    def test_recover_empty_journal_file_is_the_base_state(
        self, tmp_path, program_file, facts_file, capsys
    ):
        """0 bytes: the crash beat the header to the disk (not an error)."""
        empty = tmp_path / "empty.rjn"
        empty.write_bytes(b"")
        assert main(
            ["recover", program_file, str(empty), "--facts", facts_file]
        ) == 0
        captured = capsys.readouterr()
        assert "replayed 0 batches; 9 facts" in captured.err
        assert "t(1, 4)." in captured.out


class TestCrashRecovery:
    """kill -9 a journaled serve mid-stream; recovery must match a
    run that never crashed (the CI crash-recovery smoke)."""

    def test_sigkill_mid_stream_recovers_bit_identical(
        self, tmp_path, program_file, facts_file, capsys
    ):
        import os
        import signal
        import subprocess
        import sys as _sys

        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        journal = str(tmp_path / "crash.rjn")
        proc = subprocess.Popen(
            [
                _sys.executable, "-u", "-m", "repro", "serve",
                program_file, "--facts", facts_file, "--journal", journal,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        updates = ["+ e(4, 5).", "+ e(5, 6).", "- e(1, 2)."]
        try:
            for line in updates:
                proc.stdin.write(line + "\n")
                proc.stdin.flush()
                ack = proc.stdout.readline()  # per-batch acknowledgement
                # the status line, after the prompt input() echoes
                assert ack.startswith("repro> ok "), f"no acknowledgement: {ack!r}"
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        # A clean run of the same updates, journaled, never killed.
        clean = str(tmp_path / "clean.rjn")
        script = tmp_path / "clean.txt"
        script.write_text("\n".join(updates) + "\nquit\n")
        assert main(
            [
                "serve", program_file, "--facts", facts_file,
                "--script", str(script), "--journal", clean,
            ]
        ) == 0
        capsys.readouterr()

        assert main(
            ["recover", program_file, journal, "--facts", facts_file]
        ) == 0
        crashed_dump = capsys.readouterr().out
        assert main(
            ["recover", program_file, clean, "--facts", facts_file]
        ) == 0
        clean_dump = capsys.readouterr().out
        assert crashed_dump == clean_dump
        assert "t(2, 6)." in crashed_dump
        assert "t(1, 2)." not in crashed_dump  # the delete survived the crash


class TestQuery:
    def test_goal_directed_answers(self, program_file, facts_file, capsys):
        assert main(
            ["query", program_file, "t(1, Y)", "--facts", facts_file]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["2", "3", "4"]
        assert "via" in captured.err

    def test_engine_knobs_pass_through(self, program_file, facts_file, capsys):
        assert main(
            [
                "query", program_file, "t(1, Y)", "--facts", facts_file,
                "--jobs", "2", "--backend", "process",
            ]
        ) == 0
        assert capsys.readouterr().out.splitlines() == ["2", "3", "4"]

    def test_ground_goal_prints_true(self, program_file, facts_file, capsys):
        assert main(
            ["query", program_file, "t(1, 4)", "--facts", facts_file]
        ) == 0
        assert "true" in capsys.readouterr().out

    def test_reserved_program_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.dl"
        path.write_text("m_t(X) :- e(X, Y).\n")
        assert main(["query", str(path), "m_t(1)"]) == 2
        assert "reserved" in capsys.readouterr().err

    def test_bad_backend_fails_cleanly(self, program_file, capsys):
        assert main(
            ["query", program_file, "t(1, Y)", "--backend", "bogus"]
        ) == 2
        assert "backend" in capsys.readouterr().err


class TestOptimizeEvaluate:
    def test_evaluate_stage(self, program_file, facts_file, capsys):
        assert main(
            [
                "optimize", program_file, "t(1, Y)",
                "--evaluate", "magic", "--facts", facts_file,
            ]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["2", "3", "4"]
        assert "stage magic" in captured.err

    def test_unknown_stage_fails_before_evaluation(
        self, program_file, facts_file, capsys
    ):
        assert main(
            [
                "optimize", program_file, "t(1, Y)",
                "--evaluate", "bogus", "--facts", facts_file,
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown stage" in err
        assert "original, magic, factored, simplified" in err

    def test_unproduced_stage_lists_available(self, tmp_path, capsys):
        # sg is not factorable, so the factored stage is never produced.
        path = tmp_path / "sg.dl"
        path.write_text(
            "sg(X, Y) :- flat(X, Y).\n"
            "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"
        )
        assert main(
            ["optimize", str(path), "sg(1, Y)", "--evaluate", "factored"]
        ) == 2
        err = capsys.readouterr().err
        assert "not produced" in err
        assert "original, magic" in err

    def test_optimize_rejects_bad_jobs(self, program_file, capsys):
        assert main(["optimize", program_file, "t(1, Y)", "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err


class TestImportHygiene:
    """A process imports what its command runs, and nothing lazily later.

    The packages are PEP 562 façades (``repro._facade``): importing one
    imports none of its submodules, and ``cli`` imports the optimizer,
    provenance, the session/query stack, the journal and the server
    inside the command that needs them.  ``multiprocessing`` and
    ``concurrent.futures`` (with ``socket``, ``tempfile``, ``logging``
    and ``subprocess`` behind them) are imported where an executor is
    created — only ``jobs > 1`` ever starts a pool; partitions run in
    the process that evaluates their component.
    All of it checked in fresh interpreters that write no bytecode, so
    every import is a compile, as in the benchmark's container.
    """

    @staticmethod
    def fresh(code, *argv):
        """Run ``code`` in a new interpreter; return its stdout lines."""
        import os
        import subprocess
        import sys

        import repro

        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout.decode().splitlines()

    CHECK = """
import sys

def pools():
    return [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]

import repro
assert not pools(), f"import repro loaded {pools()}"
from repro.cli import main
assert main(["run", sys.argv[1], "t(1, Y)", "--facts", sys.argv[2]]) == 0
assert not pools(), f"repro run loaded {pools()}"
from repro.engine.backends import BrokenExecutor  # the name stays importable
assert pools() == ["concurrent.futures"], pools()
"""

    def test_fresh_interpreter_loads_no_pool_modules(self, program_file, facts_file):
        assert sorted(self.fresh(self.CHECK, program_file, facts_file)) == ["2", "3", "4"]

    PARTITIONED = """
import sys

from repro.datalog.parser import parse_program
from repro.engine.database import Database
from repro.engine.seminaive import seminaive_eval

program = parse_program("t(X, Y) :- e(X, Y).  t(X, Y) :- t(X, Z), e(Z, Y).")
edb = Database()
edb.add_facts("e", [(i, i + 1) for i in range(30)])
_, stats = seminaive_eval(program, edb, partitions=2, backend="process")
loaded = [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]
assert not loaded, f"partitions=2 at jobs=1 loaded {loaded}"
import multiprocessing
assert multiprocessing.active_children() == []
print(stats.partition_rounds > 0)
"""

    def test_partitions_start_no_process_at_one_job(self):
        assert self.fresh(self.PARTITIONED) == ["True"]

    PACKAGES = {
        "repro": 90, "repro.analysis": 35, "repro.core": 25,
        "repro.datalog": 32, "repro.engine": 30, "repro.transforms": 8,
        "repro.workloads": 31,
    }

    def test_importing_the_packages_imports_no_module(self):
        lines = self.fresh(
            """
import sys
import repro
print(sorted(m for m in sys.modules if m.startswith("repro.")))
for package in sys.argv[1:]:
    __import__(package)
print(sorted(m for m in sys.modules if m.startswith("repro")))
assert repro.engine is sys.modules["repro.engine"]  # after a bare import repro
""",
            *self.PACKAGES,
        )
        assert lines == ["[]", str(sorted(self.PACKAGES))]

    def test_every_export_is_the_object_its_module_defines(self):
        """``__all__``, ``dir()`` and ``import *`` are complete, and each
        name is the one object the defining submodule holds — also the
        two functions that share their module's name, whichever of
        function and module was imported first."""
        lines = self.fresh(
            """
import sys
from importlib import import_module

unify_module = import_module("repro.datalog.unify")  # the module first ...
import repro.datalog, repro.transforms
assert repro.datalog.unify is unify_module.unify
assert repro.transforms.counting.__name__ == "counting"  # ... the name first
counting_module = import_module("repro.transforms.counting")
assert repro.transforms.counting is counting_module.counting
from repro.transforms import counting
assert counting is counting_module.counting

for package in sys.argv[1:]:
    module = import_module(package)
    star = {}
    exec(f"from {package} import *", star)
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= set(dir(module)), package
    for name in module.__all__:
        value = getattr(module, name)
        assert star[name] is value and getattr(module, name) is value
        home = getattr(value, "__module__", None)
        if name != "__version__" and home is not None:
            assert home.startswith("repro."), (package, name, home)
            assert getattr(sys.modules[home], name) is value, (package, name)
    print(package, len(module.__all__))
try:
    repro.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("a missing name must raise AttributeError")
""",
            *self.PACKAGES,
        )
        assert lines == [f"{name} {count}" for name, count in self.PACKAGES.items()]

    LOADED = """
import sys
from repro.cli import main
assert main(sys.argv[1:]) == 0
print("LOADED", *sorted(m for m in sys.modules if m.startswith("repro.")))
"""

    def loaded(self, *argv):
        (line,) = [l for l in self.fresh(self.LOADED, *argv) if l.startswith("LOADED")]
        return set(line.split()[1:])

    @staticmethod
    def under(loaded, *prefixes):
        return sorted(
            m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in prefixes)
        )

    def test_recover_imports_no_optimizer_session_or_server(
        self, tmp_path, program_file, facts_file, capsys
    ):
        script = tmp_path / "serve.txt"
        script.write_text("+ e(4, 5).\n- e(1, 2).\n+ e(5, 6).\nquit\n")
        journal = str(tmp_path / "wal.rjn")
        assert main(
            [
                "serve", program_file, "--facts", facts_file,
                "--script", str(script), "--journal", journal,
            ]
        ) == 0
        capsys.readouterr()
        loaded = self.loaded("recover", program_file, journal, "--facts", facts_file)
        assert "repro.engine.journal" in loaded
        assert self.under(
            loaded, "repro.core", "repro.transforms", "repro.session",
            "repro.workloads", "repro.engine.query",
            "repro.engine.server", "repro.engine.topdown",
            "repro.engine.reference",
        ) == []
        assert self.under(loaded, "repro.analysis") == [
            "repro.analysis", "repro.analysis.dependency",
        ]

    def test_run_imports_no_session_journal_or_server(self, program_file, facts_file):
        loaded = self.loaded("run", program_file, "t(1, Y)", "--facts", facts_file)
        assert "repro.core.pipeline" in loaded
        assert self.under(
            loaded, "repro.session", "repro.workloads",
            "repro.engine.query", "repro.engine.server", "repro.engine.topdown",
            "repro.engine.journal", "repro.engine.incremental",
            "repro.engine.provenance",
        ) == []

    def test_query_imports_the_decision_with_the_compiler(
        self, program_file, facts_file
    ):
        """``engine/query.py`` imports ``core.pipeline`` (and with it
        ``core.reduction``) at module level: the one strategy decision
        arrives with the compiler, not with the first ``ask()``."""
        loaded = self.loaded("query", program_file, "t(1, Y)", "--facts", facts_file)
        assert self.under(loaded, "repro.core") == [
            "repro.core", "repro.core.factoring", "repro.core.pipeline",
            "repro.core.reduction", "repro.core.simplify", "repro.core.theorems",
        ]
        assert self.under(
            loaded, "repro.session", "repro.workloads",
            "repro.engine.server", "repro.engine.topdown", "repro.engine.journal",
            "repro.engine.incremental", "repro.engine.provenance",
            "repro.engine.reference",
        ) == []

    def test_ask_imports_nothing(self):
        """``import repro.session`` is the whole import: not the first
        ``ask()`` (rules, facts, answers printed) and not a second one
        of another form adds a module."""
        self.fresh(
            """
import sys
import repro.session
before = set(sys.modules)
db = repro.session.DeductiveDatabase()
db.rules("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).")
db.facts("e", [(i, i + 1) for i in range(20)])
assert len(db.ask("t(3, Y)")) == 17
str(db.program); str(db.plan_summary("t(3, Y)"))
first = set(sys.modules) - before
assert not [m for m in first if m.startswith("repro")], sorted(first)
before = set(sys.modules)
assert len(db.ask("t(X, 9)")) == 9 and db.holds("t(0, 20)")
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
"""
        )

    def test_no_request_after_listening_imports_anything(
        self, program_file, facts_file, tmp_path
    ):
        """``serve`` has imported its whole request path when it prints
        ``listening on``: the first read, ``explain``, write and
        ``stats`` add no module to the process.  A read is a selection
        over the pinned view, so the query compiler and the rewrites
        behind it are never loaded at all."""
        lines = self.fresh(
            """
import os, socket, sys, threading

class Tee:
    def __init__(self):
        self.text, self.ready = "", threading.Event()
    def write(self, text):
        self.text += text
        if "listening on" in self.text and self.text.endswith("\\n"):
            self.ready.set()
    def flush(self):
        pass

def client():
    code = 1
    try:
        assert tee.ready.wait(60)
        host, _, port = tee.text.split("listening on ")[1].strip().rpartition(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            replies = sock.makefile("r", encoding="utf-8")
            before = set(sys.modules)  # the client's own imports are in
            for line in (
                "? t(1, Y)", "explain t(1, 3)", "+ e(7, 8).", "- e(1, 2).",
                "? t(X, 8)", "stats",
            ):
                sock.sendall((line + "\\n").encode("utf-8"))
                while True:
                    reply = replies.readline()
                    assert reply, "server closed the connection"
                    if not reply.startswith("= "):
                        break
                assert reply.startswith("ok"), (line, reply)
        print("NEW", *sorted(set(sys.modules) - before), file=sys.__stdout__, flush=True)
        for name in ("repro.engine.reference", "repro.engine.query", "repro.core.pipeline"):
            assert name not in sys.modules, name
        code = 0
    finally:
        os._exit(code)

tee = sys.stdout = Tee()
threading.Thread(target=client, daemon=True).start()
from repro.cli import main
main(["serve", sys.argv[1], "--facts", sys.argv[2], "--journal", sys.argv[3],
      "--workers", "2", "--port", "0"])
""",
            program_file, facts_file, str(tmp_path / "wal.rjn"),
        )
        assert lines == ["NEW"]

    def test_reference_shares_no_engine_machinery(self):
        """``repro.engine.reference`` evaluates over plain sets: importing
        it loads no plan, scheduler, kernel, dictionary, partition or
        backend module, and running it loads the storage layer only for
        the database it returns."""
        lines = self.fresh(
            """
import sys
from repro.engine.reference import naive_fixpoint_reference

def engine():
    return sorted(m for m in sys.modules if m.startswith("repro.engine."))

print(*engine())
from repro.datalog.parser import parse_program
from repro.engine.database import Database
program = parse_program("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).")
db, _ = naive_fixpoint_reference(program, Database.from_dict({"e": [(1, 2), (2, 3)]}))
assert len(db.relation("t", 2)) == 3
print(*engine())
"""
        )
        imported, ran = (set(line.split()) for line in lines)
        assert imported == {"repro.engine.reference", "repro.engine.stats"}
        # the storage layer (with its term dictionary) is the caller's
        assert ran - imported == {"repro.engine.database", "repro.engine.intern"}

    def test_every_traced_entry_point_of_the_benchmark_resolves(self):
        """``perf/layers.py`` wraps ``module.attr`` and ``Class.attr`` by
        name; read its tables as data and resolve each row."""
        import ast
        import os
        from importlib import import_module

        import repro

        root = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
        with open(os.path.join(root, "perf", "layers.py")) as handle:
            tree = ast.parse(handle.read())
        tables = {
            node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None)
            in ("TIMED", "COUNTED", "SERVER_COUNTED")
        }
        assert sorted(tables) == ["COUNTED", "SERVER_COUNTED", "TIMED"]
        rows = [row[:3] for table in tables.values() for row in table]
        assert len(rows) > 50
        for module_name, class_name, attr in rows:
            owner = import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            assert callable(getattr(owner, attr)), (module_name, class_name, attr)
