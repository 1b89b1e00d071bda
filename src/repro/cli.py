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
``1``        error: unreadable input, parse failure, or any
             :class:`~repro.errors.ReproError` (budget exceptions
             included when a config says raise)
``2``        incomplete/unknown: a budget was exhausted before the
             verdict (``certain`` unknown, ``rewrite`` not saturated,
             ``chase --explain`` target absent, Lemma-3 check failed,
             ``fc-search`` out of nodes before a verdict) — including
             a ``deadline`` or ``memory`` guard stop
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

from .errors import BudgetError, Cancelled, DeadlineExceeded, MemoryBudgetExceeded, ReproError
from .lf import parse_query, parse_structure, parse_theory
from .runtime import StopReason, cancellation_scope

# The exit-code table and the per-command payload builders are shared
# with ``repro serve`` (same run, same JSON); see repro.payloads.
from .payloads import (  # noqa: F401  (EXIT_* are part of the public surface)
    EXIT_ERROR,
    EXIT_INCOMPLETE,
    EXIT_INTERRUPTED,
    EXIT_NO_COUNTERMODEL,
    EXIT_OK,
    stop_code as _stop_code,
    stats_dict as _stats_dict,
)
from . import payloads


def _load(text_or_path: str, inline: bool) -> str:
    if inline:
        return text_or_path
    return Path(text_or_path).read_text()


def _theory(args):
    return parse_theory(_load(args.theory, args.inline))


def _database(args):
    return parse_structure(_load(args.database, args.inline))


def _query(args):
    free = [name for name in (args.free or "").split(",") if name]
    return parse_query(args.query, free=free)


def _emit_json(payload: Dict[str, Any], exit_code: int) -> int:
    """Print the one JSON object of the run (sorted keys: determinism)."""
    payload["exit_code"] = exit_code
    print(json.dumps(payload, sort_keys=True, default=str))
    return exit_code


def _guard_overrides(args) -> Dict[str, Any]:
    """The shared config fields from the global CLI flags (the runtime
    guards)."""
    return {
        "wall_ms": args.wall_ms,
        "max_rss_mb": args.max_rss_mb,
    }


def _print_stats(args, stats) -> None:
    """Text-mode ``--stats``: comment lines, deterministic order."""
    if args.stats and stats is not None:
        print(stats.render())


def _parse_updates(text: str):
    """Parse an update script into ``(adds, removes)`` batches.

    One fact per line, prefixed ``+`` (insert) or ``-`` (retract);
    blank lines separate batches; ``#`` comments are skipped.
    """
    from .lf.parser import parse_facts

    batches = []
    adds: List[Any] = []
    removes: List[Any] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if adds or removes:
                batches.append((adds, removes))
                adds, removes = [], []
            continue
        if line.startswith("+"):
            adds.extend(parse_facts(line[1:].strip()))
        elif line.startswith("-"):
            removes.extend(parse_facts(line[1:].strip()))
        else:
            raise ReproError(
                f"update line {lineno} must start with '+' or '-': {line!r}"
            )
    if adds or removes:
        batches.append((adds, removes))
    return batches


def _cmd_chase_incremental(args, theory, database) -> int:
    """The ``chase --incremental UPDATES`` path: maintain a view."""
    from .chase import ChaseView, IncrementalConfig, explain

    batches = _parse_updates(_load(args.incremental, args.inline))
    view = ChaseView(
        database,
        theory,
        IncrementalConfig(max_depth=args.depth, **_guard_overrides(args)),
    )
    results = []
    for adds, removes in batches:
        results.append(view.update(adds=adds, removes=removes))
    status = "saturated" if view.saturated else "truncated"
    payload, code = payloads.incremental_chase_payload(view, results)
    if args.json:
        return _emit_json(payload, code)
    print(f"# chase {status} after {len(results)} updates: "
          f"{len(view)} facts over {len(view.base_facts())} base facts, "
          f"depth {view.depth} (stopped: {view.stopped_reason.value})")
    if args.stats:
        _print_stats(args, view.initial_result.stats)
        for index, update in enumerate(results, start=1):
            print(f"# update {index}:")
            print(update.stats.render())
    for fact in view.structure.sorted_facts():
        print(fact)
    if args.explain:
        result = view.as_result()
        facts = sorted(view.structure.facts_with_pred(args.explain), key=str)
        if not facts:
            print(f"# no {args.explain}-facts to explain", file=sys.stderr)
            return EXIT_ERROR
        print(f"# derivation of {facts[0]}:")
        print(explain(result, facts[0]).render(theory))
    return code


def _cmd_chase(args) -> int:
    from .chase import ChaseConfig, chase, explain

    theory = _theory(args)
    database = _database(args)
    if args.incremental is not None:
        return _cmd_chase_incremental(args, theory, database)
    result = chase(
        database,
        theory,
        ChaseConfig(
            max_depth=args.depth, trace=bool(args.explain), **_guard_overrides(args)
        ),
    )
    status = "saturated" if result.saturated else "truncated"
    payload, code = payloads.chase_payload(result)
    if args.json:
        return _emit_json(payload, code)
    shown = status if result.saturated else f"truncated at depth {result.depth}"
    print(f"# chase {shown}: {len(result.structure)} facts, "
          f"{result.structure.domain_size} elements, "
          f"{len(result.new_elements)} invented "
          f"(stopped: {result.stopped_reason.value})")
    _print_stats(args, result.stats)
    for fact in result.structure.sorted_facts():
        print(fact)
    if args.explain:
        facts = sorted(result.structure.facts_with_pred(args.explain), key=str)
        if not facts:
            print(f"# no {args.explain}-facts to explain", file=sys.stderr)
            return EXIT_ERROR
        print(f"# derivation of {facts[0]}:")
        print(explain(result, facts[0]).render(theory))
    return code


def _cmd_certain(args) -> int:
    from .chase import ChaseConfig, certain_report

    theory = _theory(args)
    database = _database(args)
    query = _query(args)
    config = ChaseConfig(
        max_depth=args.depth,
        max_facts=200_000,
        max_elements=None,
        **_guard_overrides(args),
    )
    report = certain_report(database, theory, query, config=config)
    verdict = {True: "certain", False: "not-certain", None: "unknown"}[report.verdict]
    payload, code = payloads.certain_payload(report)
    rows = sorted(report.answers, key=str)
    if args.json:
        return _emit_json(payload, code)
    if query.is_boolean:
        print(verdict)
        _print_stats(args, report.stats)
        return code
    print(f"# {len(report.answers)} certain answers "
          f"({'complete' if report.complete else 'lower bound'})")
    _print_stats(args, report.stats)
    for row in rows:
        print(", ".join(str(value) for value in row))
    return code


def _cmd_rewrite(args) -> int:
    from .config import OnBudget
    from .rewriting import RewriteConfig, rewrite

    theory = _theory(args)
    query = _query(args)
    config = RewriteConfig(
        max_steps=args.max_steps,
        max_queries=args.max_queries,
        on_budget=OnBudget.RETURN,
        **_guard_overrides(args),
    )
    result = rewrite(query, theory, config)
    payload, code = payloads.rewrite_payload(result)
    if args.json:
        return _emit_json(payload, code)
    status = "saturated" if result.saturated else "budget-exhausted (incomplete!)"
    print(f"# {status}: {len(result.ucq)} disjuncts, max width "
          f"{result.max_width}, k_psi <= {result.depth_bound}")
    _print_stats(args, result.stats)
    for disjunct in result.ucq:
        print(disjunct)
    return code


def _cmd_classify(args) -> int:
    from .classes import classify

    profile = classify(_theory(args))
    if args.json:
        payload, code = payloads.classify_payload(profile)
        return _emit_json(payload, code)
    for name, verdict in sorted(profile.items()):
        print(f"{name}: {'yes' if verdict else 'no'}")
    return EXIT_OK


def _cmd_countermodel(args) -> int:
    from .core import PipelineConfig, build_finite_counter_model

    theory = _theory(args)
    database = _database(args)
    query = _query(args)
    config = PipelineConfig(**_guard_overrides(args))
    if args.depths:
        config = config.with_overrides(
            chase_depths=tuple(int(d) for d in args.depths.split(","))
        )
    result = build_finite_counter_model(theory, database, query, config)
    if args.json:
        payload, code = payloads.countermodel_payload(result)
        return _emit_json(payload, code)
    if result.query_certain:
        print("# the query is certain: no counter-model exists")
        return EXIT_NO_COUNTERMODEL
    print(f"# verified finite counter-model: {result.model_size} elements "
          f"(kappa={result.kappa}, eta={result.eta}, depth={result.depth})")
    if args.stats:
        for stats in result.chase_stats:
            print(stats.render())
    for fact in result.model.sorted_facts():
        print(fact)
    return EXIT_OK


def _cmd_fc_search(args) -> int:
    from .fc import SearchConfig, search_finite_model

    theory = _theory(args)
    database = _database(args)
    forbidden = None
    if args.query is not None:
        free = [name for name in (args.free or "").split(",") if name]
        forbidden = parse_query(args.query, free=free)
    config = SearchConfig(
        max_elements=args.max_elements,
        max_nodes=args.max_nodes,
        heuristic=args.heuristic,
        **_guard_overrides(args),
    )
    outcome = search_finite_model(
        database, theory, forbidden=forbidden, config=config
    )
    stats = outcome.stats
    payload, code = payloads.fc_search_payload(outcome)
    if args.json:
        return _emit_json(payload, code)
    if outcome.found:
        print(f"# model found: {outcome.model.domain_size} elements, "
              f"{len(outcome.model)} facts ({stats.nodes} nodes explored)")
    elif stats.exhausted:
        print(f"# no model with <= {args.max_elements} elements "
              f"(exhaustive: {stats.nodes} nodes)")
    else:
        print(f"# inconclusive: stopped after {stats.nodes} nodes "
              f"({outcome.stopped_reason.value})")
    _print_stats(args, stats)
    if outcome.model is not None:
        for fact in outcome.model.sorted_facts():
            print(fact)
    return code


def _cmd_skeleton(args) -> int:
    from .skeleton import lemma3_report, skeleton

    theory = _theory(args)
    database = _database(args)
    result = skeleton(
        database, theory, max_depth=args.depth, **_guard_overrides(args)
    )
    report = lemma3_report(result)
    payload, code = payloads.skeleton_payload(result, report)
    if args.json:
        return _emit_json(payload, code)
    print(f"# skeleton: {len(result.structure)} atoms over "
          f"{result.structure.domain_size} elements; "
          f"flesh: {len(result.flesh)} atoms")
    print(f"# Lemma 3: forest={report.forest} acyclic={report.acyclic} "
          f"in-degree<=1={report.in_degree_at_most_one} "
          f"degree {report.degree_observed}/{report.degree_bound} "
          f"vtdag={report.vtdag}")
    for fact in result.structure.sorted_facts():
        print(fact)
    return code


def _serve_env_int(name: str, fallback: "Optional[int]") -> "Optional[int]":
    """An integer default from the environment (``repro serve`` quotas)."""
    import os

    value = os.environ.get(name, "").strip()
    if not value:
        return fallback
    try:
        return int(value)
    except ValueError:
        raise SystemExit(
            f"repro serve: ${name} must be an integer, got {value!r}"
        ) from None


def _cmd_serve(args) -> int:
    from .serve import ServeConfig, run_server

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
    chase_cmd.add_argument("--depth", type=int, default=8)
    chase_cmd.add_argument(
        "--incremental", metavar="UPDATES",
        help="maintain an incremental view: apply blank-line-separated "
             "batches of '+ Fact' / '- Fact' lines from this file "
             "(inline text with -e)")
    chase_cmd.add_argument("--explain", metavar="PRED",
                           help="print a derivation tree for a PRED-fact")
    chase_cmd.set_defaults(handler=_cmd_chase)

    certain_cmd = commands.add_parser("certain", help="certain answers",
                                      parents=[global_flags])
    certain_cmd.add_argument("theory")
    certain_cmd.add_argument("database")
    certain_cmd.add_argument("query")
    certain_cmd.add_argument("--free", help="comma-separated free variables")
    certain_cmd.add_argument("--depth", type=int, default=12)
    certain_cmd.set_defaults(handler=_cmd_certain)

    rewrite_cmd = commands.add_parser("rewrite", help="UCQ rewriting (BDD)",
                                      parents=[global_flags])
    rewrite_cmd.add_argument("theory")
    rewrite_cmd.add_argument("query")
    rewrite_cmd.add_argument("--free", help="comma-separated free variables")
    rewrite_cmd.add_argument("--max-steps", type=int, default=20_000)
    rewrite_cmd.add_argument("--max-queries", type=int, default=2_000)
    rewrite_cmd.set_defaults(handler=_cmd_rewrite)

    classify_cmd = commands.add_parser("classify", help="syntactic classes",
                                       parents=[global_flags])
    classify_cmd.add_argument("theory")
    classify_cmd.set_defaults(handler=_cmd_classify)

    counter_cmd = commands.add_parser(
        "countermodel", help="finite counter-model (Theorem 2/3)",
        parents=[global_flags],
    )
    counter_cmd.add_argument("theory")
    counter_cmd.add_argument("database")
    counter_cmd.add_argument("query")
    counter_cmd.add_argument("--free", help="comma-separated free variables")
    counter_cmd.add_argument("--depths", help="comma-separated chase depths")
    counter_cmd.set_defaults(handler=_cmd_countermodel)

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
    search_cmd.add_argument("--max-elements", type=int, default=10)
    search_cmd.add_argument("--max-nodes", type=int, default=50_000)
    search_cmd.add_argument(
        "--heuristic", default="dfs",
        choices=["dfs", "smallest-domain", "fewest-violations"],
        help="frontier ordering of the search",
    )
    search_cmd.set_defaults(handler=_cmd_fc_search)

    skeleton_cmd = commands.add_parser("skeleton", help="extract S(D,T)",
                                       parents=[global_flags])
    skeleton_cmd.add_argument("theory")
    skeleton_cmd.add_argument("database")
    skeleton_cmd.add_argument("--depth", type=int, default=8)
    skeleton_cmd.set_defaults(handler=_cmd_skeleton)

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
        "--max-pending", type=int,
        default=_serve_env_int("REPRO_SERVE_MAX_PENDING", 1024),
        help="global bound on queued requests before shedding "
             "(default $REPRO_SERVE_MAX_PENDING, else 1024)")
    serve_cmd.add_argument(
        "--tenant-max-pending", type=int,
        default=_serve_env_int("REPRO_SERVE_TENANT_MAX_PENDING", None),
        help="per-tenant queue bound (default "
             "$REPRO_SERVE_TENANT_MAX_PENDING, else --max-pending)")
    serve_cmd.add_argument(
        "--tenant-max-inflight", type=int,
        default=_serve_env_int("REPRO_SERVE_TENANT_MAX_INFLIGHT", None),
        help="per-tenant bound on concurrently-running requests "
             "(default $REPRO_SERVE_TENANT_MAX_INFLIGHT, else --workers)")
    serve_cmd.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: "Optional[List[str]]" = None) -> int:
    """Entry point; returns the process exit code (see the docstring table).

    The whole run executes inside a
    :func:`~repro.runtime.cancellation_scope`: the first Ctrl-C /
    SIGTERM trips the ambient cancel token, engines unwind
    cooperatively, and the process exits :data:`EXIT_INTERRUPTED` —
    with the usual one-line JSON payload under ``--json``.  A second
    signal (or an interrupt outside any engine checkpoint) lands in the
    ``KeyboardInterrupt`` handler below, which still emits well-formed
    JSON before exiting.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    def fail(status: str, error: "Optional[BaseException]", code: int) -> int:
        """The uniform non-success surface: one JSON object or one stderr line."""
        if args.json:
            payload: Dict[str, Any] = {
                "command": args.command,
                "status": status,
                "exit_code": code,
            }
            if error is not None and str(error):
                payload["error"] = str(error)
            if isinstance(error, BudgetError):
                payload["stopped_reason"] = error.stopped_reason
            elif status == "interrupted":
                payload["stopped_reason"] = StopReason.CANCELLED.value
            print(json.dumps(payload, sort_keys=True, default=str))
        else:
            detail = f": {error}" if error is not None and str(error) else ""
            print(f"{status}{detail}", file=sys.stderr)
        return code

    try:
        with cancellation_scope():
            return args.handler(args)
    except Cancelled as error:
        return fail("interrupted", error, EXIT_INTERRUPTED)
    except (DeadlineExceeded, MemoryBudgetExceeded) as error:
        return fail("incomplete", error, EXIT_INCOMPLETE)
    except KeyboardInterrupt:
        return fail("interrupted", None, EXIT_INTERRUPTED)
    except (ReproError, OSError) as error:
        return fail("error", error, EXIT_ERROR)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
