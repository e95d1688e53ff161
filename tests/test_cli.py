"""Tests for the command-line interface."""

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
    path = tmp_path / "facts.dl"
    path.write_text(FACTS_TEXT)
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
            ("--exec", "bogus", "error: invalid exec='bogus'; expected one of columnar, tuple"),
            ("--planner", "nope", "error: invalid planner='nope'; expected one of greedy, cost"),
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

    def test_stats_leads_with_the_resolved_config(
        self, program_file, facts_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PLANNER", "cost")  # environment knobs show too
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        code = main(
            ["run", program_file, "t(1, Y)", "--facts", facts_file,
             "--stats", "--jobs", "2", "--backend", "serial"]
        )
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        first = lines.index("-- stats:") - 1
        assert lines[first].startswith(
            "-- config: planner=cost jobs=2 backend=serial exec=columnar "
        )


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
        assert "6" in out
        assert blocks.count("2") >= 3
        assert "facts=" in out

    def test_bad_input_reports_and_continues(
        self, tmp_path, program_file, facts_file, capsys
    ):
        script = "+ e(1, X).\nbogus command\n? t(1, Y)\n"
        assert self.run_script(tmp_path, program_file, facts_file, script) == 0
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "2" in captured.out  # the query still ran

    def test_explain_requires_provenance_flag(
        self, tmp_path, program_file, facts_file, capsys
    ):
        assert (
            self.run_script(tmp_path, program_file, facts_file, "explain t(1, 2)\n")
            == 0
        )
        assert "--provenance" in capsys.readouterr().err

    def test_explain_with_provenance(
        self, tmp_path, program_file, facts_file, capsys
    ):
        code = self.run_script(
            tmp_path, program_file, facts_file,
            "explain t(1, 3)\n", "--provenance",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "t(1, 3)" in out and "[via" in out

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

    def test_rejects_bad_checkpoint_every(self, tmp_path, program_file, capsys):
        code = self._serve(tmp_path, program_file, "--checkpoint-every", "0")
        assert code == 2
        assert "checkpoint_every" in capsys.readouterr().err

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
        assert "4" in out and "5" in out  # t(3, 4), t(3, 5) survive
        assert out.count("2") == 1  # t(1, 2) only: e(2, 3) stays deleted

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

    def test_checkpoint_bounds_replay(
        self, tmp_path, program_file, facts_file, capsys
    ):
        journal = str(tmp_path / "wal.rjn")
        code = self.serve(
            tmp_path, program_file, facts_file,
            "+ e(4, 5).\n+ e(5, 6).\n+ e(6, 7).\nquit\n",
            "--journal", journal, "--checkpoint-every", "2",
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["recover", program_file, journal, "--facts", facts_file]
        )
        assert code == 0
        captured = capsys.readouterr()
        # Two batches landed before the checkpoint; only the third replays.
        assert "replayed 1 batches" in captured.err
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
                assert ack.strip(), "serve died before acknowledging a batch"
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
                "--planner", "cost", "--jobs", "2", "--backend", "thread",
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
    """``import repro`` pays for no pool machinery.

    ``multiprocessing`` and ``concurrent.futures`` (with ``socket``,
    ``tempfile``, ``logging`` and ``subprocess`` behind them) are a
    sixth of the package's import time and only ``jobs > 1`` /
    ``partitions > 1`` ever start a pool: they are imported where an
    executor is created.  Checked in a fresh interpreter at default
    knobs, after the import and after a whole ``repro run``.
    """

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
        import os
        import subprocess
        import sys

        import repro

        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", self.CHECK, program_file, facts_file],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert sorted(done.stdout.decode().split()) == ["2", "3", "4"]
