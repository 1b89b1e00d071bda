"""Replay an e2ebench workload in process and digest its responses.

Builds the seeded job list of each workload from ``e2ebench/workloads.py``
(the same lists ``e2ebench/run.py`` sends to a server), runs the prime,
setup and timed jobs in order through
:func:`repro.serve.jobs.execute_request` on one
:class:`~repro.serve.session.SessionRegistry`, and strips the
nondeterministic fields (:data:`repro.payloads.TIMING_FIELDS`) from every
response.  For each workload it prints one line: the response count, a
sha256 digest of the stripped responses, and the workload's
``HOM_STATS`` deltas (``index_probes``, ``candidates_scanned``,
``backtracks``).  ``--labels`` adds one digest per job label.

The output is a function of the code, the seed and ``--seconds`` once
``PYTHONHASHSEED`` is fixed (set order reaches a few responses), so two
runs of one commit print the same lines, and a change that keeps every
response keeps every digest::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/replay.py \\
        --workload all --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import defaultdict
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "e2ebench"))

import workloads  # noqa: E402

from repro.lf.plan import HOM_STATS  # noqa: E402
from repro.payloads import TIMING_FIELDS  # noqa: E402
from repro.runtime import CancelToken  # noqa: E402
from repro.serve.config import ServeConfig  # noqa: E402
from repro.serve.jobs import execute_request  # noqa: E402
from repro.serve.session import SessionRegistry  # noqa: E402

#: The ``HOM_STATS`` counters that depend on the inputs only.
HOM_FIELDS = ("index_probes", "candidates_scanned", "backtracks")


def strip_timings(payload: Any) -> Any:
    """*payload* without the :data:`TIMING_FIELDS` keys, recursively."""
    if isinstance(payload, dict):
        return {
            key: strip_timings(value)
            for key, value in payload.items()
            if key not in TIMING_FIELDS
        }
    if isinstance(payload, list):
        return [strip_timings(item) for item in payload]
    return payload


def replay(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Run workload *name*'s jobs in order; digest the stripped responses."""
    workload = workloads.build(name, seed, seconds)
    registry = SessionRegistry()
    config = ServeConfig()
    digest = hashlib.sha256()
    by_label: Dict[str, Any] = defaultdict(hashlib.sha256)
    count = 0
    before = HOM_STATS.snapshot()
    for job in [*workload.prime, *workload.setup, *workload.timed]:
        response = execute_request(registry, dict(job.request), config, CancelToken())
        line = json.dumps(strip_timings(response), sort_keys=True, default=str)
        digest.update(line.encode() + b"\n")
        by_label[job.label].update(line.encode() + b"\n")
        count += 1
    hom = HOM_STATS.since(before).as_dict()
    return {
        "workload": name,
        "responses": count,
        "digest": digest.hexdigest(),
        "hom": {field: hom[field] for field in HOM_FIELDS},
        "labels": {label: h.hexdigest() for label, h in sorted(by_label.items())},
    }


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=(*workloads.WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument(
        "--labels", action="store_true", help="print one digest per job label"
    )
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        outcome = replay(name, args.seed, args.seconds)
        hom = " ".join(f"{field}={outcome['hom'][field]}" for field in HOM_FIELDS)
        print(f"{name} responses={outcome['responses']} "
              f"sha256={outcome['digest']} {hom}")
        if args.labels:
            for label, hexdigest in outcome["labels"].items():
                print(f"  {label} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
