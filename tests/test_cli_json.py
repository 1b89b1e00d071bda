"""The CLI's machine-readable surface: ``--json`` and ``--stats``.

Every command must emit exactly one JSON object with the shared keys,
the flags must parse both before and after the command name, and the
output must be deterministic once the (documented) timing fields are
stripped.
"""

import json

import pytest

from repro.chase.stats import TIMING_FIELDS
from repro.fc import SEARCH_TIMING_FIELDS
from repro.rewriting import REWRITE_TIMING_FIELDS
from repro.cli import (
    EXIT_ERROR,
    EXIT_INCOMPLETE,
    EXIT_NO_COUNTERMODEL,
    EXIT_OK,
    main,
)

LINEAR = "E(x,y) -> exists z. E(y,z)"
EXAMPLE7 = "E(x,y) -> exists z. E(y,z)\nE(x,y), E(u,y) -> R(x,u)"
DB = "E(a,b)"


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 1, f"--json must emit exactly one line, got: {out!r}"
    return code, json.loads(lines[0])


NONDETERMINISTIC = (
    frozenset(TIMING_FIELDS)
    | frozenset(SEARCH_TIMING_FIELDS)
    | frozenset(REWRITE_TIMING_FIELDS)
)


def strip_timings(payload):
    """Drop the documented nondeterministic fields, recursively."""
    if isinstance(payload, dict):
        return {
            key: strip_timings(value)
            for key, value in payload.items()
            if key not in NONDETERMINISTIC
        }
    if isinstance(payload, list):
        return [strip_timings(item) for item in payload]
    return payload


class TestJsonShape:
    COMMANDS = [
        ("chase", ["-e", "chase", LINEAR, DB, "--depth", "3"], EXIT_OK),
        ("certain", ["-e", "certain", LINEAR, DB, "E(x,y), E(y,z)"], EXIT_OK),
        ("rewrite", ["-e", "rewrite", EXAMPLE7, "R(x,u)", "--free", "x,u"],
         EXIT_OK),
        ("classify", ["-e", "classify", LINEAR], EXIT_OK),
        ("countermodel", ["-e", "countermodel", LINEAR, DB, "E(x,x)"],
         EXIT_OK),
        ("skeleton", ["-e", "skeleton", EXAMPLE7, DB], EXIT_OK),
        ("fc-search", ["-e", "fc-search", LINEAR, DB, "--max-elements", "5"],
         EXIT_OK),
    ]

    @pytest.mark.parametrize(
        "name, argv, expected",
        [pytest.param(*c, id=c[0]) for c in COMMANDS],
    )
    def test_every_command_emits_one_object(self, capsys, name, argv, expected):
        code, payload = run_json(capsys, *argv, "--json")
        assert code == expected
        assert payload["command"] == name
        assert payload["exit_code"] == code
        assert "status" in payload and "counts" in payload
        assert all(isinstance(v, int) for v in payload["counts"].values())

    def test_flag_position_is_irrelevant(self, capsys):
        after = run_json(capsys, "-e", "chase", LINEAR, DB, "--depth", "2",
                         "--json")
        before = run_json(capsys, "--json", "-e", "chase", LINEAR, DB,
                          "--depth", "2")
        assert strip_timings(after[1]) == strip_timings(before[1])

    def test_chase_payload_carries_stats(self, capsys):
        code, payload = run_json(capsys, "-e", "chase", LINEAR, DB,
                                 "--depth", "3", "--json")
        stats = payload["stats"]
        assert len(stats["rounds"]) == 3
        assert stats["totals"]["triggers_evaluated"] >= 3
        assert payload["facts"] == sorted(payload["facts"])

    def test_chase_incremental_payload(self, capsys):
        code, payload = run_json(
            capsys, "-e", "chase", "E(x,y), E(y,z) -> E(x,z)",
            "E(a,b)\nE(b,c)", "--depth", "8",
            "--incremental", "+ E(c,d)\n\n- E(a,b)", "--json",
        )
        assert code == EXIT_OK
        assert payload["command"] == "chase"
        assert payload["mode"] == "incremental"
        assert payload["counts"]["updates"] == 2
        assert len(payload["updates"]) == 2
        first, second = payload["updates"]
        assert first["adds_in"] == 1 and second["removes_in"] == 1
        assert second["overdeleted"] >= 1
        assert payload["facts"] == sorted(payload["facts"])
        # determinism once timings are stripped (the hom block is
        # additionally plan-cache-warmth dependent across runs)
        rerun = run_json(
            capsys, "-e", "chase", "E(x,y), E(y,z) -> E(x,z)",
            "E(a,b)\nE(b,c)", "--depth", "8",
            "--incremental", "+ E(c,d)\n\n- E(a,b)", "--json",
        )
        first_run, second_run = strip_timings(payload), strip_timings(rerun[1])
        first_run["stats"].pop("hom", None)
        second_run["stats"].pop("hom", None)
        assert first_run == second_run

    def test_rewrite_payload_carries_stats(self, capsys):
        code, payload = run_json(capsys, "-e", "rewrite", EXAMPLE7,
                                 "R(x,u)", "--free", "x,u", "--json")
        assert code == EXIT_OK
        stats = payload["stats"]
        assert stats["kept"] >= stats["minimized"] == payload["counts"]["disjuncts"]
        assert stats["candidates"] >= stats["subsumed"] + stats["duplicates"]
        for field in REWRITE_TIMING_FIELDS:
            assert field in stats

    def test_certain_unknown_maps_to_exit_2(self, capsys):
        code, payload = run_json(capsys, "-e", "certain", LINEAR, DB,
                                 "E(x,x)", "--depth", "4", "--json")
        assert code == EXIT_INCOMPLETE
        assert payload["status"] == "unknown"

    def test_countermodel_certain_maps_to_exit_3(self, capsys):
        code, payload = run_json(capsys, "-e", "countermodel", LINEAR, DB,
                                 "E(x,y), E(y,z)", "--json")
        assert code == EXIT_NO_COUNTERMODEL
        assert payload["status"] == "query-certain"
        assert payload["facts"] == []

    def test_fc_search_model_found_payload(self, capsys):
        code, payload = run_json(capsys, "-e", "fc-search", LINEAR, DB,
                                 "--max-elements", "5", "--json")
        assert code == EXIT_OK
        assert payload["status"] == "model-found"
        assert payload["counts"]["model_size"] >= 2
        assert payload["facts"] == sorted(payload["facts"])

    def test_fc_search_exhausted_maps_to_exit_3(self, capsys):
        code, payload = run_json(capsys, "-e", "fc-search", LINEAR, DB,
                                 "E(x,y)", "--max-elements", "4", "--json")
        assert code == EXIT_NO_COUNTERMODEL
        assert payload["status"] == "exhausted-no-model"
        assert payload["facts"] == []

    def test_fc_search_budget_maps_to_exit_2(self, capsys):
        code, payload = run_json(capsys, "-e", "fc-search", LINEAR, DB,
                                 "E(x,x)", "--max-elements", "3",
                                 "--max-nodes", "1", "--json")
        assert code == EXIT_INCOMPLETE
        assert payload["status"] == "budget-exhausted"

    def test_parse_errors_are_json_too(self, capsys):
        for argv in (
            ["-e", "chase", "E(x,y -> broken", DB],
            # flag values that no engine config accepts
            ["-e", "chase", LINEAR, DB, "--wall-ms", "-5"],
            ["-e", "chase", LINEAR, DB, "--max-rss-mb", "0"],
        ):
            code, payload = run_json(capsys, "--json", *argv)
            assert code == EXIT_ERROR
            assert payload["status"] == "error"
            assert "error" in payload

    @pytest.mark.parametrize("query, message", [
        # x = z, with z in no relational atom: no match gives x a value
        ("E(u,v), x = z", "unsafe free variable x"),
        ("E(u,v)", "free variable x does not occur"),
    ])
    def test_free_variable_without_a_value_is_an_error(
        self, capsys, query, message
    ):
        code, payload = run_json(capsys, "-e", "certain", "E(x,y) -> E(y,x)",
                                 DB, query, "--free", "x", "--json")
        assert code == EXIT_ERROR
        assert payload["status"] == "error"
        assert message in payload["error"]


class TestDeterminism:
    def test_json_deterministic_modulo_timings(self, capsys):
        argv = ("-e", "chase", LINEAR, DB, "--depth", "4", "--json")
        _, first = run_json(capsys, *argv)
        _, second = run_json(capsys, *argv)
        assert first != {} and strip_timings(first) == strip_timings(second)

    def test_fc_search_json_deterministic_modulo_timings(self, capsys):
        argv = ("-e", "fc-search", LINEAR, DB, "E(x,y)",
                "--max-elements", "4", "--json")
        _, first = run_json(capsys, *argv)
        _, second = run_json(capsys, *argv)
        assert first != {} and strip_timings(first) == strip_timings(second)

    def test_stats_text_deterministic_modulo_wall(self, capsys):
        argv = ("-e", "chase", LINEAR, DB, "--depth", "4", "--stats")

        def stats_lines():
            assert main(list(argv)) == EXIT_OK
            out = capsys.readouterr().out
            return [line.split(" wall=")[0] for line in out.splitlines()
                    if line.startswith("#")]

        first = stats_lines()
        second = stats_lines()
        assert first == second
        assert any(line.startswith("# round 1:") for line in first)

    def test_stats_lines_cover_every_round(self, capsys):
        assert main(["-e", "chase", LINEAR, DB, "--depth", "3",
                     "--stats"]) == EXIT_OK
        out = capsys.readouterr().out
        for round_number in (1, 2, 3):
            assert f"# round {round_number}:" in out
        assert "# totals:" in out
