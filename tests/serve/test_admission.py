"""Admission-layer battery: round-robin determinism, caps, bounded queues.

The hypothesis property drives the
:class:`~repro.serve.admission.AdmissionController` with arbitrary
interleavings of tenant submissions, dispatch rounds, and completions,
and checks it against an independent list-based reimplementation of
the documented round-robin rules — dispatch order must match
*exactly*, and the per-tenant inflight cap and global worker bound
must never be exceeded.  A second pass over the same event script must
reproduce the identical dispatch sequence (dispatch order is a pure
function of the submit/complete history).

The end-to-end half drives a real saturated server and checks the
wire-level contract: over-limit requests shed with a well-formed
``overloaded`` envelope, admitted requests all answered.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ServeConfig, ServerThread
from repro.serve.admission import AdmissionController, Pending
from repro.testing import inject_serve_fault

pytestmark = pytest.mark.timeout(120)

TENANTS = ("alpha", "beta", "gamma")

LINEAR = "E(x,y) -> exists z. E(y,z)"
DB = "E(a,b)"


class ReferenceRR:
    """Independent reimplementation of the dispatch rules (lists, no
    deque rotation) — the oracle the controller is checked against."""

    def __init__(self, workers, cap):
        self.workers = workers
        self.cap = cap
        self.ring = []
        self.queues = {}
        self.inflight = {}
        self.total = 0

    def submit(self, tenant, rid):
        queue = self.queues.setdefault(tenant, [])
        if not queue:
            self.ring.append(tenant)
        queue.append(rid)

    def dispatch(self):
        out = []
        while self.total < self.workers:
            picked = None
            for _ in range(len(self.ring)):
                tenant = self.ring[0]
                if self.inflight.get(tenant, 0) >= self.cap:
                    self.ring.append(self.ring.pop(0))
                    continue
                picked = tenant
                break
            if picked is None:
                break
            rid = self.queues[picked].pop(0)
            self.inflight[picked] = self.inflight.get(picked, 0) + 1
            self.total += 1
            out.append((picked, rid))
            # one request per turn: the tenant goes to the back of the
            # ring, or leaves it when its queue is empty
            self.ring.pop(0)
            if self.queues[picked]:
                self.ring.append(picked)
        return out

    def complete(self, tenant):
        self.inflight[tenant] -= 1
        self.total -= 1


def run_script(workers, cap, events):
    """Drive one controller through *events*; returns the dispatch
    sequence, asserting the caps and the oracle along the way."""
    controller = AdmissionController(ServeConfig(
        workers=workers,
        max_pending=10_000,  # no shedding: this property is about order
        tenant_max_inflight=cap,
    ))
    oracle = ReferenceRR(workers, cap)
    dispatched = []
    running = []  # dispatch-order FIFO of tenants to complete
    rids = iter(range(1, 10_000))

    def do_dispatch():
        run, expired = controller.next_dispatch()
        assert expired == []  # no deadlines in this battery
        got = [(entry.tenant, entry.rid) for entry in run]
        assert got == oracle.dispatch()
        dispatched.extend(got)
        running.extend(tenant for tenant, _ in got)

    for event in events:
        if event[0] == "submit":
            rid = next(rids)
            assert controller.try_admit(Pending(event[1], rid)) is None
            oracle.submit(event[1], rid)
            do_dispatch()  # the server pumps after every admit
        elif event[0] == "complete" and running:
            tenant = running.pop(0)
            controller.complete(tenant)
            oracle.complete(tenant)
            do_dispatch()  # ... and after every completion
        snap = controller.snapshot()
        assert snap["inflight"] <= workers
        for name, stats in snap["tenants"].items():
            assert stats["inflight"] <= cap, (
                f"tenant {name} exceeded its inflight cap"
            )
    # Drain what's left so the script always ends at a fixpoint.
    while running or controller.pending_total:
        if running:
            tenant = running.pop(0)
            controller.complete(tenant)
            oracle.complete(tenant)
        do_dispatch()
        if not running and controller.pending_total:
            # capped tenants with nothing running cannot happen: a
            # pending entry with zero inflight anywhere must dispatch
            raise AssertionError("stuck backlog with idle workers")
    assert controller.inflight_total == 0
    assert controller.snapshot()["tenants"] == {}  # idle tenants pruned
    return dispatched


EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(TENANTS)),
        st.tuples(st.just("complete")),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    workers=st.integers(min_value=1, max_value=4),
    cap=st.integers(min_value=1, max_value=4),
    events=EVENTS,
)
def test_wrr_dispatch_is_deterministic_and_capped(workers, cap, events):
    first = run_script(workers, cap, events)
    second = run_script(workers, cap, events)
    assert first == second  # pure function of the event history


def test_admit_prefers_immediate_dispatch():
    controller = AdmissionController(ServeConfig(workers=2, max_pending=0))
    # max_pending=0 still admits what can run *right now* (the server
    # pumps after every admit, so the queue is empty at each arrival)...
    for rid in (1, 2):
        assert controller.try_admit(Pending("a", rid)) is None
        run, _ = controller.next_dispatch()
        assert [(e.tenant, e.rid) for e in run] == [("a", rid)]
    # ... and sheds what cannot (both workers busy, nowhere to queue).
    assert controller.try_admit(Pending("a", 3)) == "overloaded"
    assert controller.snapshot()["shed"]["overloaded"] == 1


def test_tenant_queue_bound_sheds_only_the_noisy_tenant():
    controller = AdmissionController(
        ServeConfig(workers=1, max_pending=100, tenant_max_pending=2)
    )
    assert controller.try_admit(Pending("hog", 1)) is None
    controller.next_dispatch()  # hog occupies the only worker
    for rid in (2, 3):
        assert controller.try_admit(Pending("hog", rid)) is None
    assert controller.try_admit(Pending("hog", 4)) == "overloaded"
    # The victim's queue is its own; the hog's overflow is not its problem.
    assert controller.try_admit(Pending("victim", 5)) is None
    snap = controller.snapshot()
    assert snap["tenants"]["hog"]["shed"] == 1
    assert snap["tenants"]["victim"]["shed"] == 0


def test_retry_after_scales_with_backlog():
    controller = AdmissionController(ServeConfig(workers=1, max_pending=100))
    idle = controller.retry_after_ms()
    for rid in range(1, 30):
        controller.try_admit(Pending("a", rid))
    controller.next_dispatch()
    assert controller.retry_after_ms() >= idle
    assert isinstance(controller.retry_after_ms(), int)


def test_admission_end_to_end_sheds_and_recovers():
    """A saturated real server sheds with a well-formed envelope and
    answers everything it admitted."""
    with ServerThread(
        workers=1, max_pending=2, drain_ms=500.0
    ) as handle:
        with handle.client() as client:
            with inject_serve_fault("slow", delay_ms=200.0, ops=("chase",)):
                # One in the worker, two queued, the rest must shed.
                rids = [
                    client.submit(
                        "chase", theory=LINEAR, database=DB,
                        tenant="burst", params={"depth": 2},
                    )
                    for _ in range(6)
                ]
                responses = {rid: client.response_for(rid) for rid in rids}
            good = [r for r in responses.values() if r["ok"]]
            shed = [r for r in responses.values() if not r["ok"]]
            assert len(good) == 3 and len(shed) == 3
            for response in good:
                assert response["status"] == "truncated"  # depth budget
            for response in shed:
                assert response["error"] == "overloaded"
                assert response["status"] == "shed"
                assert isinstance(response["retry_after_ms"], int)
                assert response["retry_after_ms"] > 0
                assert response["tenant"] == "burst"
            # The server recovered: same tenant, next request is served.
            assert client.request("ping", tenant="burst")["status"] == "pong"
            metrics = client.request("metrics")
            assert metrics["admission"]["shed"]["overloaded"] == 3
            assert metrics["admission"]["pending"] == 0
