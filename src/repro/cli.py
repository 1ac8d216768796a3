"""Command-line interface: run the paper's experiments from a shell.

The demo's operator clicked buttons in a GUI; here the same actions are
subcommands, auto-generated from the scenario registry
(:mod:`repro.experiments.registry`)::

    python -m repro.cli fig2 --probes 20
    python -m repro.cli fig3 --failures 2
    python -m repro.cli stretch --bridges 10 --seeds 0 1 2
    python -m repro.cli loopfree --topologies grid ring
    python -m repro.cli proxy --rounds 3
    python -m repro.cli loadbalance
    python -m repro.cli ablations
    python -m repro.cli occupancy
    python -m repro.cli ping --protocol arppath --count 5

Each subcommand prints the experiment's records as one table (plus the
paper's headline, where the scenario has one: fig2's speedup over STP,
proxy's suppression factor) to stdout and exits 0 on success. Every
subcommand accepts ``--seeds 0 1 2`` (one run per seed) and the
single-seed alias ``--seed N``.

Parameter grids sweep through the parallel runner::

    python -m repro.cli sweep stretch --seeds 0 1 2 3 --jobs 4
    python -m repro.cli sweep stretch --set bridges=6,10,14 \\
        --seeds 0 1 --jobs 4 --csv stretch.csv --json stretch.json

Per-cell progress goes to stderr; the aggregated mean/ci95 summary
table, in the same layout, and the headline over the sweep's rows go
to stdout and are deterministic at any ``--jobs`` level.

``repro serve`` runs the same registry as a long-lived daemon — sweep
grids submitted over a local HTTP/JSON API, records streamed
incrementally, job history persisted in SQLite (see ``docs/API.md``)::

    python -m repro.cli serve --port 8642 --db repro-serve.db
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments import registry
from repro.metrics.report import (format_rows, write_csv, write_json,
                                  write_jsonl)


def _add_scenario_arguments(parser: argparse.ArgumentParser,
                            scenario: registry.Scenario) -> None:
    for param in scenario.params:
        if param.name == "seeds":
            parser.add_argument(
                "--seeds", type=param.type, nargs="+", default=None,
                help=f"{param.help} (default: {param.default})")
            parser.add_argument(
                "--seed", type=param.type, default=None, dest="seed",
                help="single-seed alias for --seeds")
            continue
        parser.add_argument(
            param.flag, type=param.type, nargs=param.nargs,
            choices=param.choices, default=None, dest=param.name,
            help=f"{param.help} (default: {param.default})")


def _collect_overrides(args: argparse.Namespace,
                       scenario: registry.Scenario) -> Dict[str, Any]:
    """CLI values that were actually given, as run() overrides."""
    overrides: Dict[str, Any] = {}
    for param in scenario.params:
        if param.name == "seeds":
            if args.seeds is not None and args.seed is not None:
                raise SystemExit(
                    f"{scenario.name}: give --seed or --seeds, not both")
            if args.seeds is not None:
                overrides["seeds"] = list(args.seeds)
            elif args.seed is not None:
                overrides["seeds"] = [args.seed]
            continue
        value = getattr(args, param.name)
        if value is not None:
            overrides[param.name] = value
    return overrides


def _report(scenario: registry.Scenario, title: str,
            table: List[Dict[str, Any]],
            records: List[Dict[str, Any]]) -> str:
    """*table* under *title*, then the scenario's headline over
    *records* (the rows the table summarises)."""
    text = format_rows(table, title)
    headline = scenario.headline(records) if scenario.headline else None
    return text if headline is None else f"{text}\n\n{headline}"


def _make_run(scenario: registry.Scenario):
    def run(args: argparse.Namespace) -> int:
        rows = scenario.execute(**_collect_overrides(args, scenario))
        print(_report(scenario, scenario.title, rows, rows))
        return 0
    return run


def _parse_axis(token: str, scenarios: List[registry.Scenario]
                ) -> Tuple[str, List[Any]]:
    """One ``--set name=v1,v2`` sweep axis, validated per scenario."""
    if "=" not in token:
        raise SystemExit(f"--set expects name=v1,v2,...: {token!r}")
    name, _, spec = token.partition("=")
    name = name.replace("-", "_")
    if not spec:
        raise SystemExit(f"--set {name}: no values given")
    values: List[Any] = []
    for raw in spec.split(","):
        value: Any = None
        for scenario in scenarios:
            try:
                value = scenario.param(name).parse(raw)
            except KeyError:
                raise SystemExit(
                    f"scenario {scenario.name!r} has no parameter "
                    f"{name!r}")
            except ValueError as error:
                raise SystemExit(f"--set {name}: {error}")
        values.append(value)
    return name, values


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import runner

    try:
        scenarios = [registry.get(name) for name in args.scenarios]
    except KeyError as error:
        raise SystemExit(f"sweep: {error.args[0]}")
    axes: Dict[str, List[Any]] = {}
    for token in args.set or []:
        name, values = _parse_axis(token, scenarios)
        axes[name] = values
    cells = runner.expand_grid(args.scenarios, args.seeds, axes)
    sweep = runner.SweepRunner(cells, jobs=args.jobs,
                               retries=args.retries)

    print(f"sweep: {len(cells)} cells "
          f"({', '.join(args.scenarios)}; seeds {args.seeds}; "
          f"jobs {args.jobs})", file=sys.stderr)
    results = []
    done = 0
    for result in sweep.stream():
        done += 1
        status = "ok" if result.ok else "ERROR"
        if result.retried:
            status += f" (attempt {result.attempts})"
        print(f"[{done}/{len(cells)}] {result.cell.label()} "
              f"{result.elapsed:.2f}s {status}", file=sys.stderr)
        if not result.ok and not args.keep_going:
            print(result.error, file=sys.stderr)
            return 1
        results.append(result)
    report = runner.SweepReport(
        cells=sorted(results, key=lambda r: r.cell.index))

    rows = report.rows()
    summary: Dict[str, List[Dict[str, Any]]] = {}
    for row in report.summary_rows():
        summary.setdefault(str(row["scenario"]), []).append(row)
    for name in sorted(summary):
        print(_report(registry.get(name),
                      f"sweep — {name} (mean/ci95 over seeds)",
                      summary[name],
                      [row for row in rows if row["scenario"] == name]))
        print()
    print(f"{len(report.cells)} cells, {len(rows)} rows, "
          f"{len(report.errors)} errors")

    if args.json:
        write_json(args.json, report.as_payload())
    if args.csv:
        write_csv(args.csv, rows)
    if args.jsonl:
        write_jsonl(args.jsonl, rows)
    for failed in report.errors:
        print(f"\ncell {failed.cell.label()} failed:\n{failed.error}",
              file=sys.stderr)
    return 0 if report.ok else 1


def _add_sweep(subparsers) -> None:
    parser = subparsers.add_parser(
        "sweep", help="expand a scenario/seed/param grid and run it on "
                      "a process pool")
    parser.add_argument("scenarios", nargs="+",
                        metavar="scenario",
                        help="registered scenario name(s)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="seeds: one run of every grid point per seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = in-process)")
    parser.add_argument("--set", action="append", metavar="NAME=V1,V2",
                        help="sweep axis: a scenario parameter and the "
                             "values to grid over (repeatable)")
    parser.add_argument("--json", metavar="PATH",
                        help="write cells+rows+summary as JSON")
    parser.add_argument("--csv", metavar="PATH",
                        help="write the raw result rows as CSV")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="write the raw result rows as canonical "
                             "NDJSON (byte-identical to the serve "
                             "daemon's record stream)")
    parser.add_argument("--retries", type=int, default=0,
                        help="per-cell retry budget: re-run a failed "
                             "or crashed cell up to N extra times with "
                             "deterministic backoff (default: 0)")
    parser.add_argument("--keep-going", action="store_true",
                        help="run remaining cells after a cell fails")
    parser.set_defaults(run=_run_sweep)


def _run_serve(args: argparse.Namespace) -> int:
    from repro.server.daemon import Daemon, DaemonConfig, PidfileError
    config = DaemonConfig(
        host=args.host, port=args.port, db=args.db,
        workers=args.workers, pool=args.pool,
        job_timeout=args.job_timeout, drain_grace=args.drain_grace,
        pidfile=args.pidfile, log_file=args.log_file)
    try:
        return Daemon(config).run()
    except PidfileError as error:
        raise SystemExit(f"serve: {error}")


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="run the sim-as-a-service daemon: sweep jobs "
                      "over HTTP/JSON, durable result store "
                      "(docs/API.md)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8642,
                        help="bind port, 0 = ephemeral (default: 8642)")
    parser.add_argument("--db", default="repro-serve.db",
                        help="SQLite job/result store path "
                             "(default: repro-serve.db)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent jobs (default: 2)")
    parser.add_argument("--pool", type=int, default=2,
                        help="max sweep worker processes per job "
                             "(default: 2)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="default per-job wall-clock budget in "
                             "seconds (default: none)")
    parser.add_argument("--drain-grace", type=float, default=5.0,
                        help="seconds to drain in-flight jobs on "
                             "shutdown before cancelling (default: 5)")
    parser.add_argument("--pidfile", default=None,
                        help="write the daemon pid here; refuses to "
                             "start over a live one")
    parser.add_argument("--log-file", default=None,
                        help="structured JSON log destination "
                             "(default: stderr)")
    parser.set_defaults(run=_run_serve)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARP-Path reproduction: run the paper's experiments.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for scenario in registry.all_scenarios():
        sub = subparsers.add_parser(scenario.name, help=scenario.title)
        _add_scenario_arguments(sub, scenario)
        sub.set_defaults(run=_make_run(scenario))
    _add_sweep(subparsers)
    _add_serve(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
