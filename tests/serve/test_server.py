"""Protocol and session behaviour of the serve front-end.

One module-scoped server on a loopback TCP socket; each test opens its
own client.  Payload *content* parity with the CLI is pinned by the
hypothesis battery in ``tests/property/test_serve_parity.py``; here we
pin the protocol mechanics — envelopes, pipelining, caching, views,
tenancy, sockets, shutdown.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main as cli_main
from repro.serve import ServeConfig, ServerThread

pytestmark = pytest.mark.timeout(120)

LINEAR = "E(x,y) -> exists z. E(y,z)"
EXAMPLE7 = "E(x,y) -> exists z. E(y,z)\nE(x,y), E(u,y) -> R(x,u)"
TC = "E(x,y), E(y,z) -> E(x,z)"
DB = "E(a,b)"

#: Keys the server adds on top of the CLI ``--json`` payload.
ENVELOPE = {"id", "ok", "tenant", "cached"}


@pytest.fixture(scope="module")
def server():
    with ServerThread(workers=2) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with server.client() as c:
        yield c


def cli_json(*argv):
    """Run the CLI in-process with ``--json``, return (code, payload)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([*argv, "--json"])
    return code, json.loads(out.getvalue())


class TestEnvelope:
    def test_ping(self, client):
        response = client.request("ping")
        assert response["status"] == "pong"
        assert response["ok"] is True
        assert response["exit_code"] == 0
        assert response["tenant"] == "default"

    def test_id_echoed(self, client):
        rid = client.submit("ping")
        assert client.response_for(rid)["id"] == rid

    def test_chase_payload_matches_cli(self, client):
        response = client.request(
            "chase", theory=LINEAR, database=DB, params={"depth": 3}
        )
        code, expected = cli_json("-e", "chase", LINEAR, DB, "--depth", "3")
        body = {k: v for k, v in response.items() if k not in ENVELOPE}
        body["stats"].pop("hom", None)
        expected["stats"].pop("hom", None)
        # wall-clock fields aside, the payloads must be identical
        from tests.test_cli_json import strip_timings
        assert strip_timings(body) == strip_timings(expected)
        assert response["exit_code"] == code

    def test_malformed_json_line(self, client):
        client.send_raw(b"this is not json")
        response = client.recv()
        assert response["ok"] is False
        assert "malformed" in response["error"]

    def test_non_object_request(self, client):
        client.send_raw(json.dumps([1, 2, 3]))
        response = client.recv()
        assert response["ok"] is False

    def test_unknown_op(self, client):
        response = client.request("frobnicate")
        assert response["status"] == "error"
        assert response["exit_code"] == 1
        assert "unknown op" in response["error"]

    def test_missing_field(self, client):
        response = client.request("chase", theory=LINEAR)  # no database
        assert response["status"] == "error"
        assert "database" in response["error"]

    def test_parse_error_is_wellformed(self, client):
        response = client.request("chase", theory="E(x,y -> broken", database=DB)
        assert response["status"] == "error"
        assert response["ok"] is False
        assert response["exit_code"] == 1

    def test_unsafe_free_variable_is_named(self, client):
        response = client.request("certain", theory="E(x,y) -> E(y,x)",
                                  database=DB, query="E(u,v), x = z",
                                  free=["x"])
        assert response["status"] == "error"
        assert response["exit_code"] == 1
        assert "unsafe free variable x" in response["error"]

    def test_pipelined_responses_tagged(self, client):
        first = client.submit("chase", theory=LINEAR, database=DB,
                              params={"depth": 2})
        second = client.submit("classify", theory=LINEAR)
        # claim in reverse order: the buffer must sort it out
        assert client.response_for(second)["command"] == "classify"
        assert client.response_for(first)["command"] == "chase"


class TestWarmState:
    def test_rewrite_artifact_cache(self, client):
        kwargs = dict(theory=EXAMPLE7, query="R(x,u)", free=["x", "u"],
                      tenant="warm-test")
        cold = client.request("rewrite", **kwargs)
        warm = client.request("rewrite", **kwargs)
        assert cold["status"] == warm["status"] == "saturated"
        assert "cached" not in cold
        assert warm["cached"] is True
        body = lambda r: {k: v for k, v in r.items() if k not in ENVELOPE}
        assert body(warm) == body(cold)

    def test_truncated_rewriting_not_cached(self, client):
        kwargs = dict(theory=TC, query="E(x,y)", free=["x", "y"],
                      params={"max_steps": 100, "max_queries": 20},
                      tenant="warm-test")
        first = client.request("rewrite", **kwargs)
        assert first["status"] == "budget-exhausted"
        second = client.request("rewrite", **kwargs)
        assert "cached" not in second

    def test_sessions_isolated_by_tenant(self, client):
        client.request("chase", theory=LINEAR, database=DB, tenant="alpha",
                       params={"depth": 2})
        client.request("chase", theory=LINEAR, database=DB, tenant="beta",
                       params={"depth": 2})
        stats = client.request("stats")
        tenants = stats["registry"]["tenants"]
        assert "alpha" in tenants and "beta" in tenants
        assert tenants["alpha"]["theories"] == 1

    def test_parse_cache_hits_accumulate(self, client):
        tenant = "hit-counter"
        for _ in range(3):
            client.request("chase", theory=LINEAR, database=DB,
                           tenant=tenant, params={"depth": 2})
        stats = client.request("stats")["registry"]["tenants"][tenant]
        assert stats["parse_misses"] == 2  # one theory + one database
        assert stats["parse_hits"] >= 4

    def test_session_close(self, client):
        client.request("ping", tenant="ephemeral")
        response = client.request("session-close", tenant="ephemeral")
        assert response["status"] == "closed"
        assert response["exit_code"] == 0
        again = client.request("session-close", tenant="ephemeral")
        assert again["status"] == "not-found"


class TestViews:
    def test_view_lifecycle_matches_cli_incremental(self, client):
        tenant = "view-test"
        created = client.request("view-create", view="tc", tenant=tenant,
                                 theory=TC, database="E(a,b)\nE(b,c)",
                                 params={"depth": 8})
        assert created["status"] == "saturated"
        updated = client.request("view-update", view="tc", tenant=tenant,
                                 adds=["E(c,d)"], removes=["E(a,b)"])
        assert updated["status"] == "saturated"
        # the CLI's one-shot incremental run over the same script must
        # land on the same fact set
        _, expected = cli_json(
            "-e", "chase", TC, "E(a,b)\nE(b,c)", "--depth", "8",
            "--incremental", "+ E(c,d)\n- E(a,b)",
        )
        assert updated["facts"] == expected["facts"]

    def test_view_query_three_valued(self, client):
        tenant = "view-test-q"
        client.request("view-create", view="v", tenant=tenant,
                       theory=TC, database="E(a,b)\nE(b,c)")
        certain = client.request("view-query", view="v", tenant=tenant,
                                 query="E('a','c')")
        assert certain["status"] == "certain"
        assert certain["exit_code"] == 0
        absent = client.request("view-query", view="v", tenant=tenant,
                                query="E('c','a')")
        assert absent["status"] == "not-certain"

    def test_view_free_variables(self, client):
        tenant = "view-test-free"
        client.request("view-create", view="v", tenant=tenant,
                       theory=TC, database="E(a,b)\nE(b,c)")
        response = client.request("view-query", view="v", tenant=tenant,
                                  query="E('a',x)", free=["x"])
        assert sorted(response["answers"]) == [["b"], ["c"]]

    def test_view_close_and_missing(self, client):
        tenant = "view-test-close"
        client.request("view-create", view="v", tenant=tenant,
                       theory=TC, database=DB)
        assert client.request("view-close", view="v",
                              tenant=tenant)["status"] == "closed"
        gone = client.request("view-update", view="v", tenant=tenant,
                              adds=["E(b,c)"])
        assert gone["status"] == "error"
        assert "no view" in gone["error"]


class TestLifecycle:
    def test_shutdown_op(self):
        with ServerThread(workers=1) as handle:
            with handle.client() as client:
                response = client.request("shutdown")
                assert response["status"] == "shutting-down"
            handle._thread.join(timeout=30)
            assert not handle._thread.is_alive()
        assert handle.exit_code == 0

    def test_requests_rejected_while_draining(self):
        # a long-running job holds the drain open; a second client's
        # request must be rejected, not queued forever
        import time

        config = ServeConfig(workers=1, drain_ms=2000.0)
        with ServerThread(config) as handle:
            with handle.client() as busy, handle.client() as late:
                # a ping each proves both connections are accepted (a
                # backlogged connect would be orphaned by the listener
                # close below)
                assert busy.ping() and late.ping()
                rid = busy.submit(
                    "fc-search",
                    theory="E(x,y) -> exists z. E(y,z)\n" + TC,
                    database=DB, query="E(x,x)",
                    params={"max_elements": 30, "max_nodes": 100_000_000},
                )
                # wait until the fc-search is truly dispatched: the two
                # pings plus the search make three counted requests
                # (polling `_jobs` instead is racy — a just-finished
                # ping's task lingers there until its done-callback)
                for _ in range(200):
                    if handle.server.requests >= 3:
                        break
                    time.sleep(0.05)
                assert handle.server.requests >= 3
                handle.server.request_shutdown(0)
                rejected = None
                for _ in range(200):
                    try:
                        rejected = late.request("ping")
                        if rejected["status"] == "error":
                            break
                    except ConnectionError:
                        rejected = None
                        break
                response = busy.response_for(rid)
                assert response["stopped_reason"] == "cancelled"
                if rejected is not None:
                    assert "draining" in rejected["error"]

    def test_unix_socket(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        with ServerThread(ServeConfig(path=path, workers=1)) as handle:
            with handle.client() as client:
                assert client.ping()
                response = client.request("chase", theory=LINEAR,
                                          database=DB, params={"depth": 2})
                assert response["command"] == "chase"


class TestRequestLineBound:
    """Satellite: an oversized request line gets a well-formed error
    and the connection *survives* (the old loop dropped it)."""

    def test_oversized_line_answered_and_connection_survives(self):
        with ServerThread(workers=1, max_line_bytes=4096) as handle:
            with handle.client() as client:
                client.send_raw(
                    b'{"op": "ping", "id": 1, "junk": "'
                    + b"x" * 8192 + b'"}'
                )
                response = client.recv()
                assert response["ok"] is False
                assert response["error"] == "request_too_large"
                assert response["max_line_bytes"] == 4096
                assert response["id"] is None
                # Same connection, next request: served normally.
                assert client.request("ping")["status"] == "pong"
                assert handle.server.oversized == 1

    def test_line_under_the_bound_passes(self):
        with ServerThread(workers=1, max_line_bytes=4096) as handle:
            with handle.client() as client:
                response = client.request("ping", pad="y" * 2000)
                assert response["status"] == "pong"

    def test_several_oversized_lines_in_a_row(self):
        with ServerThread(workers=1, max_line_bytes=2048) as handle:
            with handle.client() as client:
                for _ in range(3):
                    client.send_raw(b"z" * 5000)
                    assert client.recv()["error"] == "request_too_large"
                assert client.ping()


class TestBindFailure:
    """Satellite: bind failures exit with one-line JSON on stderr and
    a documented nonzero code, not an asyncio traceback."""

    def test_port_in_use(self, capsys):
        from repro.payloads import EXIT_ERROR
        from repro.serve import run_server

        with ServerThread(workers=1) as handle:
            config = ServeConfig(
                host="127.0.0.1", port=handle.port, workers=1
            )
            code = run_server(config)
        assert code == EXIT_ERROR
        lines = [
            line for line in capsys.readouterr().err.splitlines() if line
        ]
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["ok"] is False
        assert payload["error"] == "bind_failed"
        assert payload["port"] == config.port
        assert payload["exit_code"] == EXIT_ERROR
        assert "Errno" in payload["detail"] or payload["detail"]

    def test_bad_unix_socket_path(self, capsys, tmp_path):
        from repro.payloads import EXIT_ERROR
        from repro.serve import run_server

        bad = str(tmp_path / "missing-dir" / "repro.sock")
        code = run_server(ServeConfig(path=bad, workers=1))
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "bind_failed"
        assert payload["path"] == bad

    def test_cli_serve_bind_failure_exit_code(self, capsys):
        from repro.payloads import EXIT_ERROR

        with ServerThread(workers=1) as handle:
            code = cli_main([
                "serve", "--port", str(handle.port), "--workers", "1",
            ])
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "bind_failed"
