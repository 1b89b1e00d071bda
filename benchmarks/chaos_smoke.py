"""Chaos smoke: burst-overload a real ``repro serve`` subprocess.

The CI-facing end-to-end resilience check.  It boots ``python -m repro
serve`` as a *subprocess* (real signals, real process RSS — nothing the
in-process test harness can fake), then:

1. fires a paced multi-tenant burst well above the worker pool's
   capacity and checks the overload contract at the wire: every request
   is answered, every response is well-formed (``ok`` bool; sheds carry
   ``error`` + ``retry_after_ms``), at least some of the burst was shed
   (the server was actually overloaded), and the p99 latency of the
   *accepted* requests stays under the SLA — load shedding is the
   mechanism, bounded latency is the point;
2. samples ``/proc/<pid>/status`` VmRSS throughout and checks the peak
   stays under a hard ceiling — bounded queues mean bounded memory, no
   matter how hard the burst pushes;
3. refills the queues and sends SIGTERM mid-overload: the process must
   drain (answer or shed everything it accepted, nothing garbled on
   any connection) and exit ``130`` within the grace window.

Exit code 0 when every check passes, 1 otherwise; the last stdout line
is a one-line JSON summary for the CI log.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.lf.io import atom_to_text, theory_to_text
from repro.serve.client import ServeClient
from repro.zoo import random_edges_database, transitive_theory

SLA_MS = 1000.0
RSS_LIMIT_MB = 512.0
TENANTS = ("alpha", "beta", "gamma")


def well_formed(response):
    """The wire contract: a dict with an ``ok`` bool; failures carry a
    string ``error``; sheds carry an integer ``retry_after_ms``."""
    if not isinstance(response, dict):
        return False
    if not isinstance(response.get("ok"), bool):
        return False
    if response["ok"]:
        return True
    if not isinstance(response.get("error"), str):
        return False
    if response["error"] == "overloaded":
        return isinstance(response.get("retry_after_ms"), int)
    return True


def sample_rss(pid, peak, stop):
    """Poll VmRSS (kB) from /proc until *stop*; track the peak in-place."""
    path = Path(f"/proc/{pid}/status")
    while not stop.is_set():
        try:
            for line in path.read_text().splitlines():
                if line.startswith("VmRSS:"):
                    peak[0] = max(peak[0], float(line.split()[1]) / 1024.0)
                    break
        except OSError:
            return  # process gone
        stop.wait(0.05)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate", type=float, default=150.0,
                        help="burst submission rate, requests/s")
    parser.add_argument("--duration-s", type=float, default=2.0,
                        help="burst window length")
    parser.add_argument("--sla-ms", type=float, default=SLA_MS)
    parser.add_argument("--rss-limit-mb", type=float, default=RSS_LIMIT_MB)
    args = parser.parse_args(argv)

    ttext = theory_to_text(transitive_theory())
    db = random_edges_database(20, 40, seed=42)
    dtext = "\n".join(atom_to_text(f) for f in sorted(db.facts(), key=str))

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--json",
         "--port", "0", "--workers", "2", "--max-pending", "6",
         "--request-wall-ms", str(args.sla_ms), "--drain-ms", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=str(ROOT),
    )
    failures = []
    summary = {}
    killer = threading.Timer(60.0, proc.kill)
    killer.start()
    try:
        ready = json.loads(proc.stdout.readline())
        assert ready["status"] == "ready", ready
        port = ready["port"]

        peak = [0.0]
        stop_rss = threading.Event()
        rss_thread = threading.Thread(
            target=sample_rss, args=(proc.pid, peak, stop_rss), daemon=True)
        rss_thread.start()

        # --- phase 1: the paced 4x-ish burst --------------------------
        clients = [ServeClient(("127.0.0.1", port), timeout=30.0)
                   for _ in TENANTS]
        records = {}
        total = int(args.rate * args.duration_s)
        share = [total // len(clients) + (1 if i < total % len(clients)
                                          else 0)
                 for i in range(len(clients))]

        lock = threading.Lock()

        def read_share(index, client):
            for _ in range(share[index]):
                response = client.recv()
                arrival = time.perf_counter()
                with lock:
                    rec = records.setdefault((index, response["id"]), {})
                    rec["recv"] = arrival
                    rec["response"] = response

        # Pre-submit one request per tenant to warm the sessions.
        for client, tenant in zip(clients, TENANTS):
            assert client.request(
                "chase", tenant=tenant, theory=ttext, database=dtext,
                params={"depth": 4})["ok"]

        readers = []
        begin = time.perf_counter()
        for i in range(total):
            delay = begin + i / args.rate - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            index = i % len(clients)
            submitted = time.perf_counter()
            rid = clients[index].submit(
                "chase", tenant=TENANTS[index], theory=ttext,
                database=dtext, params={"depth": 4})
            with lock:
                records.setdefault((index, rid), {})["submit"] = submitted
            if i == len(clients) - 1:  # all clients now have traffic
                readers = [
                    threading.Thread(target=read_share, args=(j, c),
                                     daemon=True)
                    for j, c in enumerate(clients)
                ]
                for reader in readers:
                    reader.start()
        for reader in readers:
            reader.join(timeout=60)
            if reader.is_alive():
                failures.append("burst reader wedged (responses missing)")

        accepted, shed, malformed = [], 0, 0
        for rec in records.values():
            response = rec.get("response")
            if response is None or not well_formed(response):
                malformed += 1
            elif response["ok"]:
                accepted.append(rec["recv"] - rec["submit"])
            else:
                shed += 1
        p99_ms = None
        if accepted:
            ordered = sorted(accepted)
            p99_ms = round(
                ordered[min(len(ordered) - 1,
                            int(0.99 * len(ordered)))] * 1000.0, 3)
        if malformed:
            failures.append(f"{malformed} malformed/missing responses")
        if not shed:
            failures.append("burst never overloaded the server (0 shed)")
        if not accepted:
            failures.append("burst starved entirely (0 accepted)")
        elif p99_ms >= args.sla_ms:
            failures.append(
                f"accepted p99 {p99_ms}ms breaches the {args.sla_ms}ms SLA")

        # --- phase 2: SIGTERM mid-overload ----------------------------
        drained = []
        for index, client in enumerate(clients):
            for _ in range(4):  # refill the queues
                client.submit("chase", tenant=TENANTS[index], theory=ttext,
                              database=dtext, params={"depth": 4})
        proc.send_signal(signal.SIGTERM)

        def drain_reader(client):
            while True:
                try:
                    drained.append(client.recv())
                except (ConnectionError, OSError, socket.timeout,
                        json.JSONDecodeError):
                    return

        drainers = [threading.Thread(target=drain_reader, args=(c,),
                                     daemon=True) for c in clients]
        for thread in drainers:
            thread.start()
        exit_code = proc.wait(timeout=30)
        for thread in drainers:
            thread.join(timeout=10)
        for client in clients:
            client.close()
        stop_rss.set()
        rss_thread.join(timeout=5)

        bad_drain = [r for r in drained if not well_formed(r)]
        if bad_drain:
            failures.append(
                f"{len(bad_drain)} garbled responses during drain")
        if exit_code != 130:
            failures.append(f"exit code {exit_code}, expected 130 (SIGTERM)")
        if peak[0] > args.rss_limit_mb:
            failures.append(
                f"peak RSS {peak[0]:.1f}MB over the "
                f"{args.rss_limit_mb}MB ceiling")

        summary = {
            "ok": not failures,
            "submitted": len(records),
            "accepted": len(accepted),
            "shed": shed,
            "accepted_p99_ms": p99_ms,
            "sla_ms": args.sla_ms,
            "peak_rss_mb": round(peak[0], 1),
            "drain_responses": len(drained),
            "exit_code": exit_code,
            "failures": failures,
        }
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    print(json.dumps(summary, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
