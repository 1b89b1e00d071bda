"""Start ``repro serve`` with tracing or profiling installed.

Usage (``PYTHONPATH`` must name the repository's ``src``)::

    python3 e2ebench/launcher.py --trace OUT.json -- serve --json --port 0
    python3 e2ebench/launcher.py --profile OUT_PREFIX -- serve --json --port 0

``--trace`` wraps each layer boundary (see :mod:`tracing`) and writes the
spans to ``OUT.json`` when the server exits.  ``--profile`` runs every
request under a per-worker-thread ``cProfile`` profile and writes one
``pstats`` file per worker thread, ``OUT_PREFIX.<n>.prof``.  Either way
the server itself is started by ``repro.cli.main`` with the remaining
arguments.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def install_profiler(prefix: str):
    """Profile every ``execute_request`` call on its own thread's profile."""
    import cProfile

    import repro.serve.server as server

    profiles = []
    local = threading.local()
    lock = threading.Lock()
    execute = server.execute_request

    @functools.wraps(execute)
    def wrapper(*args, **kwargs):
        profile = getattr(local, "profile", None)
        if profile is None:
            profile = local.profile = cProfile.Profile()
            with lock:
                profiles.append(profile)
        profile.enable()
        try:
            return execute(*args, **kwargs)
        finally:
            profile.disable()

    server.execute_request = wrapper

    def dump() -> None:
        for index, profile in enumerate(profiles):
            profile.dump_stats(f"{prefix}.{index}.prof")

    return dump


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced or profiled repro serve")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace", metavar="OUT")
    mode.add_argument("--profile", metavar="PREFIX")
    parser.add_argument("serve_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_argv = [a for a in args.serve_argv if a != "--"]

    import repro.cli

    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
        finish = functools.partial(recorder.dump, args.trace)
    else:
        finish = install_profiler(args.profile)
    try:
        return repro.cli.main(serve_argv)
    finally:
        finish()


if __name__ == "__main__":
    sys.exit(main())
