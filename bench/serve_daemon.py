"""The serve daemon as its own process, for the ``serve_job`` workload.

Why not ``python -m repro.cli serve``: its ``Daemon.run()`` installs a
SIGTERM handler before the job workers fork their sweep pool, the pool
workers inherit it, and ``Process.terminate()`` at the end of a
``jobs >= 2`` job then never ends them — the job stays ``running`` for
good. ``Daemon.start()`` is the same daemon (store, job manager, HTTP
listener, structured log) without the handlers. The parent stops it by
closing its stdin.

Prints the bound port as one line on stdout once it is listening.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.server.daemon import Daemon, DaemonConfig, configure_logging


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.serve_daemon")
    parser.add_argument("--db", required=True)
    parser.add_argument("--log-file", required=True)
    parser.add_argument("--pool", type=int, required=True)
    args = parser.parse_args(argv)

    configure_logging(args.log_file)
    daemon = Daemon(DaemonConfig(host="127.0.0.1", port=0, db=args.db,
                                 workers=1, pool=args.pool,
                                 log_file=args.log_file))
    daemon.start()
    try:
        print(daemon.address[1], flush=True)
        # Until the parent closes our stdin. Read the descriptor, not
        # sys.stdin: a pool worker forked while this thread sits inside
        # sys.stdin.read() inherits the reader's lock, held, and hangs
        # in multiprocessing's _close_stdin.
        while os.read(0, 4096):
            pass
    finally:
        daemon.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
