"""P07 — serve-mode latency: warm sessions vs cold per-request state.

One long-lived :class:`~repro.serve.ServerThread` answers the
Theorem-2 corpus request mix over a real loopback socket.  The
``warm`` mode reuses one tenant — parsed theories, compiled plans, the
subsumption memo, and finished rewritings all persist between
requests.  The ``cold`` mode simulates one-shot CLI economics inside
the same transport: a fresh tenant per request and the process-wide
caches cleared, so every request pays parse + plan-compile + full
rewriting again.  The contrast is reported, not gated: tier-1 checks
what the warm session reuses (``tests/serve/test_server.py``,
``TestWarmState``), and CI's serve smoke job holds the warm p99 under
the SLA.
"""

import itertools

import pytest

from repro.lf import clear_plan_cache
from repro.lf.io import atom_to_text, query_to_text, theory_to_text
from repro.rewriting import clear_subsume_cache
from repro.serve import ServerThread
from repro.zoo import theorem2_corpus


def corpus_texts():
    out = []
    for name, theory, database, query in theorem2_corpus():
        out.append((
            name,
            theory_to_text(theory),
            "\n".join(
                atom_to_text(fact)
                for fact in sorted(database.facts(), key=str)
            ),
            query_to_text(query),
            [str(v) for v in query.free],
        ))
    return out


CORPUS = corpus_texts()
_cold_ids = itertools.count()


@pytest.fixture(scope="module")
def client():
    with ServerThread(workers=2) as handle:
        with handle.client(timeout=300) as c:
            yield c


@pytest.mark.parametrize("mode", ["warm", "cold"])
@pytest.mark.parametrize(
    "entry", CORPUS, ids=[entry[0] for entry in CORPUS]
)
def test_serve_request_mix(benchmark, client, mode, entry):
    """rewrite + chase + certain for one corpus entry, per mode."""
    name, ttext, dtext, qtext, free = entry

    def run():
        if mode == "cold":
            clear_plan_cache()
            clear_subsume_cache()
            tenant = f"cold-{next(_cold_ids)}"
        else:
            tenant = "warm"
        responses = [
            client.request("rewrite", tenant=tenant, theory=ttext,
                           query=qtext, free=free),
            client.request("chase", tenant=tenant, theory=ttext,
                           database=dtext, params={"depth": 6}),
            client.request("certain", tenant=tenant, theory=ttext,
                           database=dtext, query=qtext, free=free,
                           params={"depth": 6}),
        ]
        assert all(r["status"] != "error" for r in responses), responses
        return responses

    benchmark(run)
    benchmark.extra_info["workload"] = name
    benchmark.extra_info["mode"] = mode
