"""Tests for the command-line interface."""

import pytest

from repro.cli import main

LINEAR = "E(x,y) -> exists z. E(y,z)"
EXAMPLE7 = "E(x,y) -> exists z. E(y,z)\nE(x,y), E(u,y) -> R(x,u)"
DB = "E(a,b)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChase:
    def test_basic(self, capsys):
        code, out, _err = run(capsys, "-e", "chase", LINEAR, DB, "--depth", "4")
        assert code == 0
        assert "truncated at depth 4" in out
        assert "E(a, b)" in out

    def test_saturating(self, capsys):
        code, out, _err = run(capsys, "-e", "chase", "E(x,y) -> E(y,x)", DB)
        assert code == 0
        assert "saturated" in out
        assert "E(b, a)" in out

    def test_explain(self, capsys):
        code, out, _err = run(
            capsys, "-e", "chase", "E(x,y), E(y,z) -> E(x,z)",
            "E(a,b)\nE(b,c)", "--explain", "E"
        )
        assert code == 0
        assert "derivation of" in out

    def test_explain_missing_pred(self, capsys):
        code, _out, err = run(capsys, "-e", "chase", LINEAR, DB, "--explain", "Zzz")
        assert code == 1
        assert "no Zzz-facts" in err

    def test_files(self, capsys, tmp_path):
        theory_file = tmp_path / "t.dlg"
        theory_file.write_text(LINEAR)
        db_file = tmp_path / "d.facts"
        db_file.write_text(DB)
        code, out, _err = run(capsys, "chase", str(theory_file), str(db_file), "--depth", "2")
        assert code == 0
        assert "E(a, b)" in out

    def test_missing_file(self, capsys):
        code, _out, err = run(capsys, "chase", "/nonexistent.dlg", "/nope.facts")
        assert code == 1
        assert "error" in err


class TestChaseIncremental:
    TC = "E(x,y), E(y,z) -> E(x,z)"
    SCRIPT = "+ E(c,d)\n\n- E(a,b)\n"

    def test_updates_applied_in_batches(self, capsys):
        code, out, _err = run(
            capsys, "-e", "chase", self.TC, "E(a,b)\nE(b,c)",
            "--depth", "8", "--incremental", self.SCRIPT,
        )
        assert code == 0
        assert "2 updates" in out
        assert "E(b, d)" in out  # closure over the inserted edge
        assert "E(a, b)" not in out  # retracted, with its consequences

    def test_stats_render_updates(self, capsys):
        code, out, _err = run(
            capsys, "-e", "chase", self.TC, "E(a,b)\nE(b,c)",
            "--depth", "8", "--incremental", self.SCRIPT, "--stats",
        )
        assert code == 0
        assert out.count("# update:") == 2
        assert "overdeleted=" in out

    def test_update_script_from_file(self, capsys, tmp_path):
        theory_file = tmp_path / "t.dlg"
        theory_file.write_text(self.TC)
        db_file = tmp_path / "d.facts"
        db_file.write_text("E(a,b)\nE(b,c)")
        updates_file = tmp_path / "u.updates"
        updates_file.write_text("# first batch\n+ E(c,d)\n")
        code, out, _err = run(
            capsys, "chase", str(theory_file), str(db_file),
            "--incremental", str(updates_file),
        )
        assert code == 0
        assert "E(a, d)" in out

    def test_bad_prefix_rejected(self, capsys):
        code, _out, err = run(
            capsys, "-e", "chase", self.TC, "E(a,b)",
            "--incremental", "* E(c,d)",
        )
        assert code == 1
        assert "error" in err

    def test_retract_derived_fact_rejected(self, capsys):
        code, _out, err = run(
            capsys, "-e", "chase", self.TC, "E(a,b)\nE(b,c)",
            "--incremental", "- E(a,c)",
        )
        assert code == 1
        assert "not a database fact" in err


class TestCertain:
    def test_boolean_certain(self, capsys):
        code, out, _err = run(
            capsys, "-e", "certain", LINEAR, DB, "E(x,y), E(y,z)"
        )
        assert code == 0
        assert out.strip() == "certain"

    def test_boolean_not_certain(self, capsys):
        code, out, _err = run(
            capsys, "-e", "certain", "E(x,y) -> E(y,x)", DB, "E(x,x)"
        )
        assert code == 0
        assert out.strip() == "not-certain"

    def test_boolean_unknown(self, capsys):
        code, out, _err = run(
            capsys, "-e", "certain", LINEAR, DB, "E(x,x)", "--depth", "4"
        )
        assert code == 2
        assert out.strip() == "unknown"

    def test_answers_with_free(self, capsys):
        code, out, _err = run(
            capsys, "-e", "certain", EXAMPLE7, DB, "R(x,u)", "--free", "x,u"
        )
        assert code == 0
        assert "certain answers" in out
        assert "a, a" in out


class TestRewrite:
    def test_saturating(self, capsys):
        code, out, _err = run(
            capsys, "-e", "rewrite", EXAMPLE7, "R(x,u)", "--free", "x,u"
        )
        assert code == 0
        assert "saturated: 3 disjuncts" in out
        assert "k_psi" in out

    def test_budget_exhaustion(self, capsys):
        code, out, _err = run(
            capsys, "-e", "rewrite", "E(x,y), E(y,z) -> E(x,z)",
            "E(x,y)", "--free", "x,y", "--max-steps", "100", "--max-queries", "20"
        )
        assert code == 2
        assert "incomplete" in out

    def test_parse_error(self, capsys):
        code, _out, err = run(capsys, "-e", "rewrite", "E(x,y) ->", "E(x,y)")
        assert code == 1
        assert "error" in err

    def test_stats_lines(self, capsys):
        code, out, _err = run(
            capsys, "-e", "rewrite", EXAMPLE7, "R(x,u)", "--free", "x,u",
            "--stats"
        )
        assert code == 0
        assert "# stats: steps=" in out
        assert "# candidates:" in out
        assert "# index:" in out


class TestClassify:
    def test_profile(self, capsys):
        code, out, _err = run(capsys, "-e", "classify", LINEAR)
        assert code == 0
        assert "linear: yes" in out
        assert "guarded: yes" in out
        assert "full_datalog: no" in out

    def test_engine_command_loads_no_asyncio(self):
        # The CLI runs through repro.serve.jobs; the server and client
        # modules (and asyncio with them) load only for `repro serve`.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            f"code = main(['-e', 'classify', {LINEAR!r}])\n"
            "print(code, 'asyncio' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.stdout.splitlines()[-1] == "0 False", done.stderr


class TestCounterModel:
    def test_counter_model_found(self, capsys):
        code, out, _err = run(
            capsys, "-e", "countermodel", LINEAR, DB, "E(x,x)"
        )
        assert code == 0
        assert "verified finite counter-model" in out

    def test_certain_query(self, capsys):
        code, out, _err = run(
            capsys, "-e", "countermodel", LINEAR, DB, "E(x,y), E(y,z)"
        )
        assert code == 3
        assert "no counter-model" in out

    def test_depth_override(self, capsys):
        code, out, _err = run(
            capsys, "-e", "countermodel", LINEAR, DB, "E(x,x)",
            "--depths", "12,16"
        )
        assert code == 0
        assert "depth=12" in out or "depth=16" in out


class TestSkeleton:
    def test_shape_report(self, capsys):
        code, out, _err = run(capsys, "-e", "skeleton", EXAMPLE7, DB, "--depth", "5")
        assert code == 0
        assert "Lemma 3" in out
        assert "forest=True" in out


class TestFcSearch:
    def test_model_found(self, capsys):
        code, out, _err = run(
            capsys, "-e", "fc-search", LINEAR, DB, "--max-elements", "5"
        )
        assert code == 0
        assert "model found" in out
        assert "E(a, b)" in out

    def test_forbidden_query_positive(self, capsys):
        code, out, _err = run(
            capsys, "-e", "fc-search", LINEAR, DB, "E(x,x)",
            "--max-elements", "5",
        )
        assert code == 0
        assert "model found" in out
        assert "E(b, b)" not in out

    def test_exhausted_no_model_exit_3(self, capsys):
        code, out, _err = run(
            capsys, "-e", "fc-search", LINEAR, DB, "E(x,y)",
            "--max-elements", "4",
        )
        assert code == 3
        assert "no model" in out

    def test_budget_exhausted_exit_2(self, capsys):
        code, out, _err = run(
            capsys, "-e", "fc-search", LINEAR, DB, "E(x,x)",
            "--max-elements", "3", "--max-nodes", "1",
        )
        assert code == 2
        assert "inconclusive" in out

    def test_stats_lines(self, capsys):
        code, out, _err = run(
            capsys, "-e", "fc-search", LINEAR, DB, "--max-elements", "5",
            "--stats",
        )
        assert code == 0
        assert "# search: heuristic=dfs" in out
        assert "# states:" in out
        assert "# saturation:" in out

    def test_heuristic_flag(self, capsys):
        code, out, _err = run(
            capsys, "-e", "fc-search", LINEAR, DB, "--max-elements", "5",
            "--heuristic", "smallest-domain", "--stats",
        )
        assert code == 0
        assert "heuristic=smallest-domain" in out


class TestServe:
    """The serve subcommand end-to-end: real process, real sockets.

    Protocol/session behaviour is covered in-process by
    ``tests/serve``; here we pin what only a subprocess shows — the
    readiness announcement, and SIGTERM → drain → exit 130.
    """

    pytestmark = pytest.mark.timeout(120)

    @staticmethod
    def _spawn(*extra_args):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--json",
             "--port", "0", "--workers", "1", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            ready = json.loads(proc.stdout.readline())
        except Exception:
            proc.kill()
            raise
        return proc, ready

    def test_json_readiness_announcement(self):
        proc, ready = self._spawn()
        try:
            assert ready["command"] == "serve"
            assert ready["status"] == "ready"
            assert ready["host"] == "127.0.0.1"
            assert ready["port"] > 0  # --port 0 reports the actual bind
            assert ready["workers"] == 1
            assert ready["pid"] == proc.pid
        finally:
            proc.terminate()
            assert proc.wait(timeout=30) == 130

    def test_text_readiness_line(self):
        import subprocess
        import sys
        from pathlib import Path
        import os

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("# repro serve ready on 127.0.0.1:")
            assert "workers=1" in line
        finally:
            proc.terminate()
            assert proc.wait(timeout=30) == 130

    def test_requests_over_the_wire(self):
        from repro.serve import ServeClient

        proc, ready = self._spawn()
        try:
            with ServeClient(("127.0.0.1", ready["port"]), timeout=60) as c:
                assert c.ping()
                response = c.request(
                    "chase", theory=LINEAR, database=DB,
                    params={"depth": 3},
                )
                assert response["command"] == "chase"
                assert response["status"] == "truncated"
                assert response["counts"]["facts"] == 4
                assert response["ok"] is True
                assert response["exit_code"] == 0
        finally:
            proc.terminate()
            assert proc.wait(timeout=30) == 130

    def test_sigterm_drains_inflight_then_130(self):
        import time

        from repro.serve import ServeClient

        nonterm = "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> E(x,z)"
        proc, ready = self._spawn("--drain-ms", "500")
        try:
            with ServeClient(("127.0.0.1", ready["port"]), timeout=60) as c:
                assert c.ping()  # the connection is accepted and live
                rid = c.submit(
                    "fc-search", theory=nonterm, database=DB,
                    query="E(x,x)",
                    params={"max_elements": 30,
                            "max_nodes": 100_000_000},
                )
                time.sleep(0.5)  # the single worker picks the job up
                proc.terminate()
                # drain: the in-flight search is cancelled, its partial
                # response still arrives before the socket closes
                response = c.response_for(rid)
                assert response["stopped_reason"] == "cancelled"
                assert response["exit_code"] == 130
            assert proc.wait(timeout=30) == 130
            assert proc.stderr.read() == ""
        finally:
            if proc.poll() is None:
                proc.kill()
