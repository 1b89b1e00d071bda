"""The CLI end of the guard layer: --wall-ms/--max-rss-mb plumbing,
exit codes, the uniform stopped_reason key, and the SIGINT path
(a real subprocess receiving a real signal)."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import (
    EXIT_INCOMPLETE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    main,
)

LINEAR = "E(x,y) -> exists z. E(y,z)"
DB = "E(a,b)"


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 1, f"--json must emit exactly one line, got: {out!r}"
    return code, json.loads(lines[0])


class TestWallClockFlag:
    def test_chase_deadline(self, capsys):
        code, payload = run_json(
            capsys, "-e", "chase", LINEAR, DB, "--wall-ms", "0", "--json"
        )
        assert code == EXIT_INCOMPLETE
        assert payload["stopped_reason"] == "deadline"
        assert payload["exit_code"] == EXIT_INCOMPLETE
        assert payload["status"] == "truncated"
        assert "stats" in payload

    def test_flag_position_is_free(self, capsys):
        # Global flags parse both before and after the command name.
        code, payload = run_json(
            capsys, "--wall-ms", "0", "--json", "-e", "chase", LINEAR, DB
        )
        assert code == EXIT_INCOMPLETE
        assert payload["stopped_reason"] == "deadline"

    def test_rewrite_deadline(self, capsys):
        code, payload = run_json(
            capsys, "-e", "rewrite", LINEAR, "E(u,v)", "--wall-ms", "0", "--json"
        )
        assert code == EXIT_INCOMPLETE
        assert payload["stopped_reason"] == "deadline"

    def test_fc_search_deadline(self, capsys):
        code, payload = run_json(
            capsys,
            "-e", "fc-search", LINEAR, DB, "E(x,x)",
            "--wall-ms", "0", "--json",
        )
        assert code == EXIT_INCOMPLETE
        assert payload["stopped_reason"] == "deadline"

    def test_generous_budget_reaches_the_fixpoint(self, capsys):
        code, payload = run_json(
            capsys,
            "-e", "chase", "E(x,y) -> E(y,x)", DB,
            "--wall-ms", "60000", "--json",
        )
        assert code == EXIT_OK
        assert payload["stopped_reason"] == "fixpoint"
        assert payload["status"] == "saturated"

    def test_memory_flag_far_above_usage_is_inert(self, capsys):
        code, payload = run_json(
            capsys,
            "-e", "chase", "E(x,y) -> E(y,x)", DB,
            "--max-rss-mb", "1000000", "--json",
        )
        assert code == EXIT_OK
        assert payload["stopped_reason"] == "fixpoint"


class TestSigint:
    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
    def test_interrupted_run_emits_well_formed_json(self, tmp_path):
        # An fc-search with no finite counter-model (LINEAR plus
        # transitivity forces E(x,x) in any finite model) and huge
        # budgets, interrupted for real: the payload must still be one
        # well-formed JSON object with stopped_reason "cancelled" and
        # exit code 130.  At 40 elements the exhaustive search runs for
        # seconds (at 10 it ends in well under the 1.5 s below).
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        theory = LINEAR + "\nE(x,y), E(y,z) -> E(x,z)"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "-e", "fc-search", theory, DB, "E(x,x)",
                "--max-elements", "40",
                "--max-nodes", "100000000",
                "--json",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        time.sleep(1.5)  # let it get deep into the search
        process.send_signal(signal.SIGINT)
        try:
            out, err = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            pytest.fail("interrupted run did not unwind cooperatively")
        assert process.returncode == EXIT_INTERRUPTED, (out, err)
        payload = json.loads(out)
        assert payload["stopped_reason"] == "cancelled"
        assert payload["exit_code"] == EXIT_INTERRUPTED
