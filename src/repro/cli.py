"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``chase``        run the chase, print facts (optionally explain one)
``certain``      certain answers of a query (chase route)
``rewrite``      UCQ rewriting of a query (BDD route), with κ-style stats
``classify``     syntactic class profile of a theory
``countermodel`` the Theorem-2/3 pipeline: a finite model avoiding a query
``fc-search``    bounded finite-model search (Definition 1 oracle)
``skeleton``     extract S(D,T) and check Lemma 3
``serve``        warm multi-tenant service mode (:mod:`repro.serve`):
                 line-JSON over TCP/Unix socket, same payloads as
                 ``--json``, SIGTERM → drain → exit 130

Theories/databases are files; pass ``-e`` to treat the arguments as
inline text instead.  Everything prints deterministic, line-oriented
output suitable for scripting.

Each engine command is the request ``repro serve`` would receive (the
``op`` is the command name, ``params`` holds the options given) and
runs through :func:`repro.serve.jobs.execute_request` on a throwaway
session, so both front ends share every config, default and error
mapping.  ``--json`` prints the payload; text mode is a view of it.

Machine-readable surface
------------------------
Four global flags work on every command (before or after the command
name):

``--json``         emit exactly one JSON object on stdout — always with
                   the keys ``command``, ``status``, ``counts``
                   (integer counters), plus per-command payload
                   (``facts``, ``answers``, ``disjuncts``, ...).
                   Engine-backed commands also carry
                   ``stopped_reason`` (see below) and a ``stats``
                   object (per-round trigger/delta/probe counters);
                   the ``wall_ms`` entries are the only
                   nondeterministic fields.  The object is printed
                   even when the run is interrupted or times out, so
                   JSON consumers always get a well-formed payload
                   with ``exit_code``.
``--stats``        in text mode, print the per-round chase
                   instrumentation as ``#``-prefixed comment lines; in
                   JSON mode it is implied.
``--wall-ms MS``   wall-clock deadline for the run (monotonic;
                   engines stop cooperatively with a partial result).
``--max-rss-mb M`` soft peak-RSS ceiling for the run.

``stopped_reason`` vocabulary (:class:`~repro.runtime.StopReason`):
``fixpoint`` (natural completion), ``budget`` (a count budget ran
out), ``deadline`` (``--wall-ms`` expired), ``cancelled`` (Ctrl-C /
SIGTERM), ``memory`` (``--max-rss-mb`` crossed).

Exit codes
----------
===========  =========================================================
``0``        success (chase ran, answers computed, model found, ...)
``1``        error: unreadable input, parse failure, invalid flag
             value, ``chase --explain`` target absent, or any
             :class:`~repro.errors.ReproError` (budget exceptions
             included when a config says raise)
``2``        incomplete/unknown: a budget was exhausted before the
             verdict (``certain`` unknown, ``rewrite`` not saturated,
             Lemma-3 check failed, ``fc-search`` out of nodes before a
             verdict) — including a ``deadline`` or ``memory`` guard
             stop
``3``        no counter-model exists: ``countermodel`` found the query
             to be certain, or ``fc-search`` exhausted the bounded
             space without finding a model
``130``      interrupted: the run was cancelled (Ctrl-C / SIGTERM);
             with ``--json`` the payload still carries the partial
             counters and ``stopped_reason: "cancelled"``
===========  =========================================================
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .errors import Cancelled
from .runtime import cancellation_scope

# The exit-code table is shared with ``repro serve``; see repro.payloads.
from .payloads import (  # noqa: F401  (EXIT_* are part of the public surface)
    EXIT_ERROR,
    EXIT_INCOMPLETE,
    EXIT_INTERRUPTED,
    EXIT_NO_COUNTERMODEL,
    EXIT_OK,
)
from .serve.config import ServeConfig
from .serve.jobs import (
    FAILURE_STATUSES,
    REQUEST_ERRORS,
    execute_request,
    failure_payload,
    search_bound,
)
from .serve.session import SessionRegistry

#: Command-line options that travel to the op as ``params`` (argparse
#: dest = param name).  An option the user did not give stays out, so
#: the op's own default applies.
PARAMS = (
    "depth", "max_steps", "max_queries", "max_elements", "max_nodes",
    "heuristic", "depths", "explain", "wall_ms", "max_rss_mb",
)


def _load(text_or_path: str, inline: bool) -> str:
    if inline:
        return text_or_path
    return Path(text_or_path).read_text()


def build_request(args) -> Dict[str, Any]:
    """The request a server would receive for this command line."""
    request: Dict[str, Any] = {"op": args.command}
    for name in ("theory", "database"):
        if hasattr(args, name):
            request[name] = _load(getattr(args, name), args.inline)
    for name in ("query", "free"):
        if getattr(args, name, None) is not None:
            request[name] = getattr(args, name)
    params = {
        name: getattr(args, name)
        for name in PARAMS
        if getattr(args, name, None) is not None
    }
    if getattr(args, "updates", None) is not None:
        params["updates"] = _load(args.updates, args.inline)
    request["params"] = params
    return request


# ----------------------------------------------------------------------
# Text mode: a view of the payload
# ----------------------------------------------------------------------

def render_chase_stats(stats: Dict[str, Any]) -> str:
    """``--stats`` lines of a chase run, from its ``stats`` payload."""
    lines = [f"# stats: rounds={len(stats['rounds'])}"]
    for r in stats["rounds"]:
        lines.append(
            f"# round {r['round']}: delta_in={r['delta_in']} "
            f"evaluated={r['triggers_evaluated']} fired={r['triggers_fired']} "
            f"suppressed={r['triggers_suppressed']} facts+={r['facts_added']} "
            f"nulls+={r['nulls_invented']} probes={r['index_probes']} "
            f"wall={r['wall_ms']:.2f}ms"
        )
    totals = stats["totals"]
    lines.append(
        f"# totals: evaluated={totals['triggers_evaluated']} "
        f"fired={totals['triggers_fired']} "
        f"suppressed={totals['triggers_suppressed']} "
        f"facts={totals['facts_added']} nulls={totals['nulls_invented']} "
        f"probes={totals['index_probes']} wall={totals['wall_ms']:.2f}ms"
    )
    hom = stats.get("hom")
    if hom is not None:
        # deterministic counters only (the plan-cache counters are
        # cache warmth)
        lines.append(
            f"# hom: probes={hom['index_probes']} "
            f"scanned={hom['candidates_scanned']} "
            f"backtracks={hom['backtracks']}"
        )
    return "\n".join(lines)


def render_update_stats(update: Dict[str, Any]) -> str:
    """The ``--stats`` line of one view update, from its payload entry."""
    return (
        f"# update: +{update['adds_in']} -{update['removes_in']} "
        f"overdeleted={update['overdeleted']} rederived={update['rederived']} "
        f"fallback_rules={update['fallback_rules']} "
        f"resumed_rounds={update['resumed_rounds']} "
        f"facts+={update['facts_added']} nulls+={update['nulls_invented']} "
        f"nulls_orphaned={update['nulls_orphaned']} "
        f"deltas={update['delta_sizes']} wall={update['wall_ms']:.2f}ms"
    )


def render_rewrite_stats(stats: Dict[str, Any]) -> str:
    """``--stats`` lines of a rewriting, from its ``stats`` payload."""
    return "\n".join([
        f"# stats: steps={stats['steps']} "
        f"(rewrite={stats['rewrite_steps']} factor={stats['factor_steps']}) "
        f"prefilter_skips={stats['prefilter_skips']}",
        f"# candidates: generated={stats['candidates']} "
        f"duplicates={stats['duplicates']} unsat={stats['unsatisfiable']} "
        f"subsumed={stats['subsumed']} kept={stats['kept']} "
        f"minimized={stats['minimized']}",
        f"# index: probes={stats['index_probes']} "
        f"checks={stats['subsumption_checks']} "
        f"avoided={stats['pairwise_checks_avoided']} "
        f"rule_instances={stats['rule_instances']}",
    ])


def render_search_stats(stats: Dict[str, Any]) -> str:
    """``--stats`` lines of a finite-model search, from its ``stats``
    payload."""
    return "\n".join([
        f"# search: heuristic={stats['heuristic']} "
        f"nodes={stats['nodes']} duplicates={stats['duplicates']} "
        f"pruned_by_query={stats['pruned_by_query']} "
        f"exhausted={stats['exhausted']}",
        f"# states: created={stats['states_created']} "
        f"materialised={stats['states_materialised']} "
        f"canonical_keys={stats['canonical_keys']} "
        f"frontier_peak={stats['frontier_peak']}",
        f"# saturation: facts+={stats['saturation_new_facts']} "
        f"rounds={stats['saturation_rounds']} "
        f"pruned={stats['saturation_pruned']}",
        f"# wall: total={stats['wall_ms']:.2f}ms "
        f"materialise={stats['materialise_ms']:.2f}ms "
        f"saturate={stats['saturate_ms']:.2f}ms "
        f"canonical={stats['canonical_ms']:.2f}ms "
        f"query={stats['query_ms']:.2f}ms expand={stats['expand_ms']:.2f}ms",
    ])


def _chase_lines(payload, request, stats: bool) -> List[str]:
    counts = payload["counts"]
    if payload.get("mode") == "incremental":
        lines = [f"# chase {payload['status']} after {counts['updates']} "
                 f"updates: {counts['facts']} facts over "
                 f"{counts['base_facts']} base facts, depth {counts['depth']} "
                 f"(stopped: {payload['stopped_reason']})"]
        if stats:
            lines.append(render_chase_stats(payload["stats"]))
            for index, update in enumerate(payload["updates"], start=1):
                lines += [f"# update {index}:", render_update_stats(update)]
    else:
        shown = payload["status"]
        if shown != "saturated":
            shown = f"truncated at depth {counts['depth']}"
        lines = [f"# chase {shown}: {counts['facts']} facts, "
                 f"{counts['elements']} elements, {counts['invented']} "
                 f"invented (stopped: {payload['stopped_reason']})"]
        if stats:
            lines.append(render_chase_stats(payload["stats"]))
    lines += payload["facts"]
    explanation = payload.get("explanation")
    if explanation is not None:
        lines += [f"# derivation of {explanation['fact']}:",
                  explanation["derivation"]]
    return lines


def _certain_lines(payload, request, stats: bool) -> List[str]:
    if not request.get("free"):  # a boolean query: the verdict alone
        lines = [payload["status"]]
    else:
        complete = "complete" if payload["complete"] else "lower bound"
        lines = [f"# {payload['counts']['answers']} certain answers "
                 f"({complete})"]
    if stats and payload["stats"] is not None:
        lines.append(render_chase_stats(payload["stats"]))
    if request.get("free"):
        lines += [", ".join(row) for row in payload["answers"]]
    return lines


def _rewrite_lines(payload, request, stats: bool) -> List[str]:
    counts = payload["counts"]
    status = payload["status"]
    if status != "saturated":
        status = "budget-exhausted (incomplete!)"
    lines = [f"# {status}: {counts['disjuncts']} disjuncts, max width "
             f"{counts['max_width']}, k_psi <= {counts['depth_bound']}"]
    if stats:
        lines.append(render_rewrite_stats(payload["stats"]))
    return lines + payload["disjuncts"]


def _classify_lines(payload, request, stats: bool) -> List[str]:
    return [f"{name}: {'yes' if verdict else 'no'}"
            for name, verdict in sorted(payload["profile"].items())]


def _countermodel_lines(payload, request, stats: bool) -> List[str]:
    if payload["status"] == "query-certain":
        return ["# the query is certain: no counter-model exists"]
    counts = payload["counts"]
    lines = [f"# verified finite counter-model: {counts['model_size']} "
             f"elements (kappa={counts['kappa']}, eta={counts['eta']}, "
             f"depth={counts['depth']})"]
    if stats:
        lines += [render_chase_stats(entry) for entry in payload["stats"]]
    return lines + payload["facts"]


def _fc_search_lines(payload, request, stats: bool) -> List[str]:
    counts = payload["counts"]
    if payload["status"] == "model-found":
        lines = [f"# model found: {counts['model_size']} elements, "
                 f"{len(payload['facts'])} facts "
                 f"({counts['nodes']} nodes explored)"]
    elif payload["status"] == "exhausted-no-model":
        lines = [f"# no model with <= {search_bound(request['params'])} "
                 f"elements (exhaustive: {counts['nodes']} nodes)"]
    else:
        lines = [f"# inconclusive: stopped after {counts['nodes']} nodes "
                 f"({payload['stopped_reason']})"]
    if stats:
        lines.append(render_search_stats(payload["stats"]))
    return lines + payload["facts"]


def _skeleton_lines(payload, request, stats: bool) -> List[str]:
    counts, lemma3 = payload["counts"], payload["lemma3"]
    return [
        f"# skeleton: {counts['skeleton_atoms']} atoms over "
        f"{counts['elements']} elements; flesh: {counts['flesh_atoms']} atoms",
        f"# Lemma 3: forest={lemma3['forest']} acyclic={lemma3['acyclic']} "
        f"in-degree<=1={lemma3['in_degree_at_most_one']} "
        f"degree {counts['degree_observed']}/{counts['degree_bound']} "
        f"vtdag={lemma3['vtdag']}",
        *payload["facts"],
    ]


#: Command -> the text view of its payload, as lines.
TEXT = {
    "chase": _chase_lines,
    "certain": _certain_lines,
    "rewrite": _rewrite_lines,
    "classify": _classify_lines,
    "countermodel": _countermodel_lines,
    "fc-search": _fc_search_lines,
    "skeleton": _skeleton_lines,
}


def _emit(args, request, payload: Dict[str, Any]) -> int:
    """Print the run's payload: one JSON object, or its text view."""
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=str))
    elif payload["status"] in FAILURE_STATUSES:
        detail = f": {payload['error']}" if "error" in payload else ""
        print(f"{payload['status']}{detail}", file=sys.stderr)
    else:
        # through JSON, as --json prints it (a StopReason becomes its value)
        plain = json.loads(json.dumps(payload, default=str))
        for line in TEXT[args.command](plain, request, args.stats):
            print(line)
    return payload["exit_code"]


def _cmd_serve(args) -> int:
    from .serve import run_server

    wall_ms = args.request_wall_ms
    if wall_ms is None:
        wall_ms = args.wall_ms  # the global flag doubles as the default SLA
    config = ServeConfig(
        host=args.host,
        port=args.port,
        path=args.unix,
        workers=args.workers,
        max_sessions=args.max_sessions,
        drain_ms=args.drain_ms,
        max_pending=args.max_pending,
        tenant_max_pending=args.tenant_max_pending,
        tenant_max_inflight=args.tenant_max_inflight,
        wall_ms=wall_ms,
        max_rss_mb=args.max_rss_mb,
    )

    def announce(server) -> None:
        import os

        if args.json:
            print(json.dumps({
                "command": "serve",
                "status": "ready",
                "host": server.host,
                "port": server.port,
                "path": config.path,
                "workers": config.workers,
                "request_wall_ms": config.wall_ms,
                "max_pending": config.max_pending,
                "pid": os.getpid(),
            }, sort_keys=True, default=str))
        else:
            where = (config.path if config.path is not None
                     else f"{server.host}:{server.port}")
            print(f"# repro serve ready on {where} "
                  f"(workers={config.workers}, "
                  f"request-wall-ms={config.wall_ms}, pid={os.getpid()})")
        sys.stdout.flush()

    return run_server(config, ready=announce)


def _int_list(text: str) -> List[int]:
    """``--depths``: comma-separated integers."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    # The global flags live on the root parser (``repro --json chase``)
    # AND, with SUPPRESS defaults, on every subcommand — so the natural
    # ``repro chase --json`` works too without clobbering the root value.
    global_flags = argparse.ArgumentParser(add_help=False)
    global_flags.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit one JSON object instead of line-oriented text",
    )
    global_flags.add_argument(
        "--stats", action="store_true", default=argparse.SUPPRESS,
        help="print per-round chase instrumentation (implied by --json)",
    )
    global_flags.add_argument(
        "--wall-ms", type=float, default=argparse.SUPPRESS, metavar="MS",
        help="wall-clock deadline: stop cooperatively with a partial result",
    )
    global_flags.add_argument(
        "--max-rss-mb", type=float, default=argparse.SUPPRESS, metavar="MB",
        help="soft peak-RSS ceiling: stop cooperatively when crossed",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="A Datalog∃ laboratory for 'On the BDD/FC Conjecture'.",
        epilog="exit codes: 0 success, 1 error, 2 incomplete/unknown "
               "(count budget, --wall-ms deadline, or --max-rss-mb ceiling), "
               "3 no counter-model (query certain), 130 interrupted "
               "(Ctrl-C/SIGTERM; partial result still emitted under --json). "
               "JSON payloads carry stopped_reason: "
               "fixpoint|budget|deadline|cancelled|memory.",
    )
    parser.add_argument(
        "-e", "--inline", action="store_true",
        help="treat THEORY/DATABASE arguments as inline text, not files",
    )
    parser.add_argument("--json", action="store_true", default=False,
                        help=argparse.SUPPRESS)
    parser.add_argument("--stats", action="store_true", default=False,
                        help=argparse.SUPPRESS)
    parser.add_argument("--wall-ms", type=float, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--max-rss-mb", type=float, default=None,
                        help=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)

    chase_cmd = commands.add_parser("chase", help="run the chase",
                                    parents=[global_flags])
    chase_cmd.add_argument("theory")
    chase_cmd.add_argument("database")
    chase_cmd.add_argument("--depth", type=int)
    chase_cmd.add_argument(
        "--incremental", dest="updates", metavar="UPDATES",
        help="maintain an incremental view: apply blank-line-separated "
             "batches of '+ Fact' / '- Fact' lines from this file "
             "(inline text with -e)")
    chase_cmd.add_argument("--explain", metavar="PRED",
                           help="print a derivation tree for a PRED-fact")

    certain_cmd = commands.add_parser("certain", help="certain answers",
                                      parents=[global_flags])
    certain_cmd.add_argument("theory")
    certain_cmd.add_argument("database")
    certain_cmd.add_argument("query")
    certain_cmd.add_argument("--free", help="comma-separated free variables")
    certain_cmd.add_argument("--depth", type=int)

    rewrite_cmd = commands.add_parser("rewrite", help="UCQ rewriting (BDD)",
                                      parents=[global_flags])
    rewrite_cmd.add_argument("theory")
    rewrite_cmd.add_argument("query")
    rewrite_cmd.add_argument("--free", help="comma-separated free variables")
    rewrite_cmd.add_argument("--max-steps", type=int)
    rewrite_cmd.add_argument("--max-queries", type=int)

    classify_cmd = commands.add_parser("classify", help="syntactic classes",
                                       parents=[global_flags])
    classify_cmd.add_argument("theory")

    counter_cmd = commands.add_parser(
        "countermodel", help="finite counter-model (Theorem 2/3)",
        parents=[global_flags],
    )
    counter_cmd.add_argument("theory")
    counter_cmd.add_argument("database")
    counter_cmd.add_argument("query")
    counter_cmd.add_argument("--free", help="comma-separated free variables")
    counter_cmd.add_argument("--depths", type=_int_list,
                             help="comma-separated chase depths")

    search_cmd = commands.add_parser(
        "fc-search",
        help="bounded finite-model search (Definition 1 oracle)",
        parents=[global_flags],
    )
    search_cmd.add_argument("theory")
    search_cmd.add_argument("database")
    search_cmd.add_argument(
        "query", nargs="?", default=None,
        help="forbidden query: search for a model NOT satisfying it",
    )
    search_cmd.add_argument("--free", help="comma-separated free variables")
    search_cmd.add_argument("--max-elements", type=int)
    search_cmd.add_argument("--max-nodes", type=int)
    search_cmd.add_argument(
        "--heuristic",
        choices=["dfs", "smallest-domain", "fewest-violations"],
        help="frontier ordering of the search",
    )

    skeleton_cmd = commands.add_parser("skeleton", help="extract S(D,T)",
                                       parents=[global_flags])
    skeleton_cmd.add_argument("theory")
    skeleton_cmd.add_argument("database")
    skeleton_cmd.add_argument("--depth", type=int)

    serve_cmd = commands.add_parser(
        "serve",
        help="warm multi-tenant service (line-JSON over TCP/Unix socket)",
        parents=[global_flags],
        epilog="SIGTERM/SIGINT: stop accepting, answer queued requests "
               "with a draining error, drain in-flight requests (up to "
               "--drain-ms, then cancel them cooperatively), exit 130. "
               "A bind failure prints one JSON line to stderr and exits "
               "1. The readiness line reports the bound port (use "
               "--port 0 for an ephemeral one). --wall-ms acts as the "
               "default per-request SLA when --request-wall-ms is not "
               "given (queue time counts: the deadline starts at "
               "admission); --max-rss-mb is the shared soft ceiling. "
               "Requests past the admission bounds are shed immediately "
               "with error 'overloaded' and a retry_after_ms hint.",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=7464,
                           help="TCP port (0 = ephemeral; default 7464)")
    serve_cmd.add_argument("--unix", metavar="PATH", default=None,
                           help="listen on a Unix-domain socket instead")
    serve_cmd.add_argument("--workers", type=int, default=4,
                           help="worker threads (default 4)")
    serve_cmd.add_argument("--max-sessions", type=int, default=64,
                           help="LRU bound on warm tenant sessions")
    serve_cmd.add_argument("--drain-ms", type=float, default=5000.0,
                           help="shutdown grace for in-flight requests")
    serve_cmd.add_argument("--request-wall-ms", type=float, default=None,
                           metavar="MS",
                           help="default per-request SLA deadline")
    serve_cmd.add_argument(
        "--max-pending", type=int, default=1024,
        help="global bound on queued requests before shedding "
             "(default 1024)")
    serve_cmd.add_argument(
        "--tenant-max-pending", type=int, default=None,
        help="per-tenant queue bound (default --max-pending)")
    serve_cmd.add_argument(
        "--tenant-max-inflight", type=int, default=None,
        help="per-tenant bound on concurrently-running requests "
             "(default --workers)")

    return parser


def main(argv: "Optional[List[str]]" = None) -> int:
    """Entry point; returns the process exit code (see the docstring table).

    The run executes inside a :func:`~repro.runtime.cancellation_scope`:
    the first Ctrl-C / SIGTERM trips the scope's cancel token, engines
    unwind cooperatively, and the process exits :data:`EXIT_INTERRUPTED`
    — with the usual one-line JSON payload under ``--json``.  A second
    signal (or an interrupt outside any engine checkpoint) lands in the
    ``KeyboardInterrupt`` handler below, which still emits well-formed
    JSON before exiting.
    """
    args = build_parser().parse_args(argv)
    request: Dict[str, Any] = {}
    try:
        with cancellation_scope() as token:
            if args.command == "serve":
                return _cmd_serve(args)
            request = build_request(args)
            payload = execute_request(
                SessionRegistry(), request, ServeConfig(), token
            )
    except REQUEST_ERRORS as error:  # an unreadable input, a bad serve flag
        payload = failure_payload(args.command, error)
    except KeyboardInterrupt:
        payload = failure_payload(args.command, Cancelled(""))
    for key in ("id", "ok", "tenant"):
        payload.pop(key, None)
    return _emit(args, request, payload)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
