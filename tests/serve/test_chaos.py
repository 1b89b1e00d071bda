"""Chaos battery: overload, wedged workers, bursts, drain-under-fire.

Every scenario drives a real server through
:func:`repro.testing.inject_serve_fault` (slow workers, stuck jobs)
and client-side burst arrivals, and asserts the overload contract:

* memory stays bounded — the backlog never exceeds the configured
  queue bounds and every admission structure is empty again after the
  storm;
* no tenant starves — the round-robin dispatcher interleaves
  backlogged tenants;
* every shed request gets a *well-formed* response (``overloaded`` +
  ``retry_after_ms``, or a ``queue_deadline`` shed with
  ``stopped_reason``);
* the SIGTERM drain contract holds mid-overload: queued requests are
  answered with the draining error, wedged ones are cancelled
  cooperatively, the pool exits clean.

The faults are deterministic (no real clock assertions beyond generous
sleeps around explicit cancellation), so the battery is tier-1.
"""

import threading

import pytest

from repro.payloads import EXIT_ERROR, EXIT_INCOMPLETE, EXIT_INTERRUPTED
from repro.serve import (
    ServeOverloaded,
    ServeTimeout,
    ServerThread,
    worker_thread_count,
)
from repro.testing import inject_serve_fault

pytestmark = pytest.mark.timeout(120)

LINEAR = "E(x,y) -> exists z. E(y,z)"
DB = "E(a,b)"


def submit_chase(client, tenant, **params):
    merged = {"depth": 2}
    merged.update(params)
    return client.submit(
        "chase", theory=LINEAR, database=DB, tenant=tenant, params=merged
    )


def assert_well_formed(response, rid):
    assert response["id"] == rid
    assert isinstance(response["ok"], bool)
    assert "exit_code" in response
    if response.get("error") == "overloaded":
        assert response["ok"] is False
        assert response["status"] == "shed"
        assert isinstance(response["retry_after_ms"], int)
        assert response["retry_after_ms"] > 0


class TestBurstOverload:
    def test_multi_tenant_burst_is_bounded_and_answered(self):
        """A 4x-capacity multi-tenant burst: bounded backlog, every
        request answered well-formed, all bookkeeping drains to zero."""
        tenants = ("alpha", "beta", "gamma")
        # Global bound ≥ sum of tenant bounds: queue *space* is never
        # what fairness rests on (dispatch order is), so every tenant
        # can always stage its own share.
        with ServerThread(
            workers=2, max_pending=9, tenant_max_pending=3, drain_ms=500.0
        ) as handle:
            clients = {t: handle.client() for t in tenants}
            try:
                with inject_serve_fault(
                    "slow", delay_ms=30.0, ops=("chase",)
                ):
                    submitted = []  # (tenant, rid) in submit order
                    for wave in range(4):  # sustained: several waves
                        for tenant in tenants:
                            for _ in range(3):
                                rid = submit_chase(clients[tenant], tenant)
                                submitted.append((tenant, rid))
                    responses = {
                        (tenant, rid): clients[tenant].response_for(rid)
                        for tenant, rid in submitted
                    }
                good_by_tenant = {t: 0 for t in tenants}
                shed = 0
                for (tenant, rid), response in responses.items():
                    assert_well_formed(response, rid)
                    if response["ok"]:
                        good_by_tenant[tenant] += 1
                    else:
                        assert response["error"] == "overloaded"
                        shed += 1
                assert shed > 0  # the burst really was over capacity
                for tenant in tenants:
                    assert good_by_tenant[tenant] > 0, (
                        f"tenant {tenant} got no work through the burst"
                    )
                admission = handle.server.admission
                # bounded memory: the backlog never exceeded the bound,
                # and the structures are empty again after the storm
                assert admission.pending_high_water <= 9
                metrics = clients[tenants[0]].request("metrics")
                assert metrics["admission"]["pending"] == 0
                assert metrics["admission"]["inflight"] == 0
                assert metrics["admission"]["tenants"] == {}
                assert metrics["admission"]["shed"]["overloaded"] == shed
            finally:
                for client in clients.values():
                    client.close()
        assert worker_thread_count() == 0  # pool joined on shutdown

    def test_no_cross_tenant_starvation(self):
        """One flooding tenant cannot keep a light tenant out of the
        pool: dispatches interleave while both are backlogged."""
        with ServerThread(
            workers=1, max_pending=100, tenant_max_pending=4,
            drain_ms=500.0,
        ) as handle:
            with handle.client() as hog, handle.client() as victim:
                with inject_serve_fault(
                    "slow", delay_ms=40.0, ops=("chase",)
                ):
                    hog_rids = [submit_chase(hog, "hog") for _ in range(8)]
                    victim_rids = [
                        submit_chase(victim, "victim") for _ in range(2)
                    ]
                    victim_responses = [
                        victim.response_for(rid) for rid in victim_rids
                    ]
                    hog_responses = [
                        hog.response_for(rid) for rid in hog_rids
                    ]
                # Both of the victim's requests were served, not shed.
                for response in victim_responses:
                    assert response["ok"] is True
                # The hog's overflow (queue bound 4) was shed, its
                # admitted work served.
                assert sum(1 for r in hog_responses if r["ok"]) == 5
                assert sum(
                    1 for r in hog_responses
                    if r.get("error") == "overloaded"
                ) == 3
                # Fairness: while the victim was backlogged the
                # dispatcher alternated — no long hog run inside the
                # victim's window.
                log = handle.server.admission.recent_dispatches()
                first = log.index("victim")
                last = len(log) - 1 - log[::-1].index("victim")
                window = log[first:last + 1]
                run = worst = 0
                for name in window:
                    run = run + 1 if name == "hog" else 0
                    worst = max(worst, run)
                assert worst <= 1, f"hog run of {worst} inside {window}"


class TestStuckWorker:
    def test_shed_envelope_is_well_formed(self):
        """With the pool wedged and no queue, every arrival sheds
        immediately with the full overloaded envelope."""
        with ServerThread(
            workers=1, max_pending=0, drain_ms=300.0
        ) as handle:
            with handle.client() as client:
                with inject_serve_fault(
                    "stuck", ops=("chase",), max_hits=1, timeout_s=20.0
                ):
                    wedged = submit_chase(client, "stuck-tenant")
                    shed_rids = [
                        client.submit("ping", tenant=f"t{i}")
                        for i in range(3)
                    ]
                    for rid in shed_rids:
                        response = client.response_for(rid)
                        assert response["ok"] is False
                        assert response["status"] == "shed"
                        assert response["error"] == "overloaded"
                        assert response["exit_code"] == EXIT_ERROR
                        assert isinstance(response["retry_after_ms"], int)
                        assert response["retry_after_ms"] > 0
                        assert response["id"] == rid
                    # Free the wedged worker cooperatively.
                    cancel = client.request("cancel", target=wedged)
                    assert cancel["status"] == "cancelling"
                    response = client.response_for(wedged)
                    assert response["id"] == wedged
                    assert response.get("stopped_reason") == "cancelled"
                # Server healthy again.
                assert client.request("ping")["status"] == "pong"

    def test_queue_deadline_sheds_expired_requests(self):
        """A request whose SLA expires while queued behind a wedged
        worker is shed at dispatch with ``stopped_reason`` set — no
        worker time is spent on it while others wait."""
        import time

        with ServerThread(
            workers=1, max_pending=10, drain_ms=300.0
        ) as handle:
            with handle.client() as client:
                with inject_serve_fault(
                    "stuck", ops=("chase",), max_hits=1, timeout_s=20.0
                ):
                    wedged = submit_chase(client, "wedge")
                    # Two SLA'd requests stuck in the queue...
                    doomed = submit_chase(client, "sla", wall_ms=80)
                    trailing = submit_chase(client, "sla", wall_ms=80)
                    time.sleep(0.4)  # both deadlines expire in-queue
                    client.request("cancel", target=wedged)
                    doomed_response = client.response_for(doomed)
                    trailing_response = client.response_for(trailing)
                    client.response_for(wedged)
                # First expired head: shed early (others were waiting).
                assert doomed_response["ok"] is False
                assert doomed_response["status"] == "shed"
                assert doomed_response["error"] == "queue_deadline"
                assert doomed_response["stopped_reason"] == "deadline"
                assert doomed_response["exit_code"] == EXIT_INCOMPLETE
                # Last in line (nobody behind it): dispatched, and the
                # worker's guard degrades it the usual way instead.
                assert trailing_response["ok"] is True
                assert trailing_response["status"] == "truncated"
                assert trailing_response["stopped_reason"] == "deadline"


class TestRetryClient:
    def test_retry_rides_out_a_wedged_pool(self):
        with ServerThread(
            workers=1, max_pending=0, drain_ms=300.0
        ) as handle:
            with handle.client() as blocker, handle.client() as retrier:
                with inject_serve_fault(
                    "stuck", ops=("chase",), max_hits=1, timeout_s=20.0
                ):
                    wedged = submit_chase(blocker, "wedge")
                    result = {}

                    def retry() -> None:
                        result["response"] = retrier.request_with_retry(
                            "ping", max_retries=10,
                            base_delay_ms=30.0, seed=7,
                        )

                    thread = threading.Thread(target=retry)
                    thread.start()
                    import time

                    time.sleep(0.2)
                    blocker.request("cancel", target=wedged)
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                    blocker.response_for(wedged)
                assert result["response"]["status"] == "pong"

    def test_retry_cap_raises_typed_overloaded(self):
        with ServerThread(
            workers=1, max_pending=0, drain_ms=300.0
        ) as handle:
            with handle.client() as blocker, handle.client() as retrier:
                with inject_serve_fault(
                    "stuck", ops=("chase",), max_hits=1, timeout_s=20.0
                ):
                    wedged = submit_chase(blocker, "wedge")
                    sleeps: list = []
                    with pytest.raises(ServeOverloaded) as excinfo:
                        retrier.request_with_retry(
                            "ping", max_retries=2, base_delay_ms=5.0,
                            max_delay_ms=10.0, seed=11,
                            sleep=sleeps.append,
                        )
                    assert excinfo.value.attempts == 3
                    assert excinfo.value.op == "ping"
                    assert (
                        excinfo.value.response["error"] == "overloaded"
                    )
                    assert len(sleeps) == 2
                    # Seeded jitter: the schedule is reproducible.
                    again: list = []
                    with pytest.raises(ServeOverloaded):
                        retrier.request_with_retry(
                            "ping", max_retries=2, base_delay_ms=5.0,
                            max_delay_ms=10.0, seed=11,
                            sleep=again.append,
                        )
                    assert again == sleeps
                    blocker.request("cancel", target=wedged)
                    blocker.response_for(wedged)

    def test_non_idempotent_ops_never_resent(self):
        with ServerThread(
            workers=1, max_pending=0, drain_ms=300.0
        ) as handle:
            with handle.client() as blocker, handle.client() as retrier:
                with inject_serve_fault(
                    "stuck", ops=("chase",), max_hits=1, timeout_s=20.0
                ):
                    wedged = submit_chase(blocker, "wedge")
                    sleeps: list = []
                    with pytest.raises(ServeOverloaded) as excinfo:
                        retrier.request_with_retry(
                            "view-update", view="v", adds="E(c,d).",
                            max_retries=5, sleep=sleeps.append,
                        )
                    assert excinfo.value.attempts == 1
                    assert sleeps == []  # a mutation is never replayed
                    blocker.request("cancel", target=wedged)
                    blocker.response_for(wedged)

    def test_socket_timeout_raises_typed_serve_timeout(self):
        with ServerThread(
            workers=1, max_pending=10, drain_ms=300.0
        ) as handle:
            client = handle.client(timeout=0.5)
            try:
                with inject_serve_fault(
                    "stuck", ops=("chase",), max_hits=1, timeout_s=20.0
                ):
                    wedged = submit_chase(client, "wedge")
                    queued = submit_chase(client, "wedge")
                    with pytest.raises(ServeTimeout) as excinfo:
                        client.response_for(wedged)
                    assert excinfo.value.waiting_for == wedged
                    assert excinfo.value.pending_ids == [wedged, queued]
                    assert str(wedged) in str(excinfo.value)
            finally:
                client.close()  # disconnect cancels the wedged job


class TestDrainMidOverload:
    def test_sigterm_drain_contract_holds_under_overload(self):
        """Shutdown while the pool is wedged and the queue is full:
        queued requests get the draining error, the wedged job is
        cancelled cooperatively, exit code honours the signal, and the
        pool joins clean — no request goes unanswered."""
        handle = ServerThread(
            workers=1, max_pending=10, drain_ms=300.0
        )
        with handle:
            client = handle.client()
            try:
                with inject_serve_fault(
                    "stuck", ops=("chase",), max_hits=1, timeout_s=20.0
                ):
                    wedged = submit_chase(client, "wedge")
                    queued = [
                        client.submit("ping", tenant="q")
                        for _ in range(3)
                    ]
                    # Wait until the server has actually admitted the
                    # backlog (the submits race the shutdown otherwise).
                    import time

                    waited = 0.0
                    admission = handle.server.admission
                    while (
                        admission.pending_total < 3 and waited < 10.0
                    ):
                        time.sleep(0.02)
                        waited += 0.02
                    assert admission.pending_total == 3
                    # SIGTERM mid-overload (what run_server's handler does).
                    handle.shutdown(exit_code=EXIT_INTERRUPTED)
                    for rid in queued:
                        response = client.response_for(rid)
                        assert response["ok"] is False
                        assert response["error"] == "server is draining"
                        assert response["exit_code"] == EXIT_ERROR
                        assert response["id"] == rid
                    wedged_response = client.response_for(wedged)
                    assert (
                        wedged_response.get("stopped_reason") == "cancelled"
                    )
            finally:
                client.close()
        assert handle.exit_code == EXIT_INTERRUPTED
        assert worker_thread_count() == 0
