"""``python -m bench.run`` — the one benchmark command.

Two ways to call it:

* **Suite** (no ``--seconds``): every workload, or those named with
  ``--workload``; ``--rounds`` measured rounds each (default 7), a second,
  traced pass with ``--trace``, quarter-size workloads and one round with
  ``--quick``. Prints every metric by name with unit, median, quartiles
  and sample count, and writes ``bench/out/result.json``.
* **One run** (the ``BENCHMARK.json`` contract): ``--workload W --seed N
  --seconds S --trace 0|1`` measures that workload for S seconds and
  prints, as the last line of stdout, one JSON object with the
  end-to-end metrics (``--trace 0``) or the per-layer metrics
  (``--trace 1``).

Each pass runs in fresh child interpreters (``bench.child``): one that
measures, plus two that only set up, so ``setup_s`` is a median of three.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from bench import OUT, ROOT, SRC
from bench.env import NOMINAL_YARDSTICK_S, machine_state

#: Set-ups timed per untraced pass (the first child also measures).
SETUPS = 3
#: Hard limits on one child, seconds: it is killed and reported, not
#: waited for. The contract allows a whole run 180 s.
CHILD_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 60.0
DEFAULT_ROUNDS = 7
TRACE_ROUNDS = 2


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(workload: str, seed: int, extra: List[str], timeout: float
              ) -> Tuple[Optional[float], Optional[Dict[str, Any]], str]:
    """Run one child to the end: (set-up seconds, result, error text).

    The child leads its own process group; the group is killed on every
    way out, so no daemon or pool worker outlives the call, and its temp
    directory is removed.
    """
    tmp = os.path.join(OUT, "tmp", f"{workload}-{os.getpid()}-"
                                   f"{time.monotonic_ns()}")
    os.makedirs(tmp)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=tmp)
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.child", "--workload", workload,
         "--seed", str(seed), "--tmp", tmp] + extra,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    watchdog = threading.Timer(timeout, _kill_group, args=(proc.pid,))
    watchdog.start()
    setup = result = None
    try:
        for line in proc.stdout:
            message = json.loads(line)
            if message["event"] == "ready":
                setup = time.perf_counter() - spawned
            elif message["event"] == "result":
                result = message
        code = proc.wait()
    finally:
        timed_out = not watchdog.is_alive()
        watchdog.cancel()
        _kill_group(proc.pid)
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)
    if timed_out:
        return setup, None, f"timed out after {timeout:.0f} s"
    if code != 0:
        return setup, None, f"child exited with code {code}"
    return setup, result, ""


def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"unit": unit, "median": statistics.median(values), "q1": q1,
            "q3": q3, "n": len(values), "values": values}


def run_workload(name: str, seed: int, extra: List[str], trace: bool,
                 units: Dict[str, str]) -> Dict[str, Any]:
    """One pass over one workload: its metrics, checks and sim block."""
    out: Dict[str, Any] = {"attempted": 0, "failures": []}
    setups: List[float] = []

    def fail(what: str) -> Dict[str, Any]:
        out["attempted"] += 1
        out["failures"].append(what)
        return out

    setup, result, error = run_child(
        name, seed, extra + (["--trace"] if trace else []), CHILD_TIMEOUT_S)
    if result is None:
        return fail(f"{name}: {error}")
    setups.append(setup)
    out.update(attempted=result["attempted"], failures=result["failures"],
               sim=result["sim"], work_unit=result["work_unit"],
               rounds=result["rounds"])
    if trace:
        out["per_layer"] = result["layer"]
        return out
    for _ in range(SETUPS - 1):
        setup, _, error = run_child(name, seed, ["--setup-only"],
                                    SETUP_TIMEOUT_S)
        if setup is None or error:
            return fail(f"{name}: set-up only: {error or 'never ready'}")
        setups.append(setup)
    # Every time below is corrected to nominal machine speed: divided by
    # how much slower than nominal the yardstick ran during this pass.
    slowdown = result["yardstick_s"] / NOMINAL_YARDSTICK_S
    rounds = result["rounds"]
    values = {
        "setup_s": [s / slowdown for s in setups],
        "wall_s": [r["wall"] / slowdown for r in rounds],
        "cpu_s": [r["cpu"] / slowdown for r in rounds],
        "work_per_s": [r["work"] / r["wall"] * slowdown for r in rounds],
        "first_result_s": [r["first_result"] / slowdown for r in rounds],
        "peak_rss_mib": [result["peak_rss_mib"]],
    }
    out["end_to_end"] = {metric: summarize(samples, units[metric])
                         for metric, samples in values.items()}
    out["machine"] = {
        "slowdown": slowdown, "yardstick_s": result["yardstick_s"],
        "calib_ns": statistics.median(r["calib_ns"] for r in rounds),
        "raw_wall_s": statistics.median(r["wall"] for r in rounds),
        "raw_setup_s": statistics.median(setups)}
    return out


def print_workload(name: str, report: Dict[str, Any],
                   units: Dict[str, str]) -> None:
    write = sys.stderr.write
    failed, attempted = len(report["failures"]), report["attempted"]
    write(f"\n== {name} ==  failed_share {failed}/{attempted}"
          f" = {failed / attempted:.4f}\n")
    for what in report["failures"]:
        write(f"   FAILED: {what}\n")
    if "machine" in report:
        machine = report["machine"]
        write(f"   machine {machine['slowdown']:.3f}x slower than nominal "
              f"(yardstick {1e3 * machine['yardstick_s']:.1f} ms); times "
              f"below are corrected for it; raw wall_s "
              f"{machine['raw_wall_s']:.4f}, raw setup_s "
              f"{machine['raw_setup_s']:.4f}\n")
    for metric, s in report.get("end_to_end", {}).items():
        unit = s["unit"]
        if metric == "work_per_s":
            unit = f"{report['work_unit']}/s"
        write(f"   {metric:<28} {s['median']:>14.4f} {unit:<14}"
              f" q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}\n")
    for metric, value in sorted(report.get("per_layer", {}).items()):
        write(f"   {metric:<34} {value:>16.4f} {units.get(metric, '')}\n")
    if "sim" in report:
        write(f"   sim {json.dumps(report['sim'], sort_keys=True)}\n")


def contract_line(report: Dict[str, Any], spec: Dict[str, Any],
                  trace: bool) -> str:
    """The one JSON object the ``BENCHMARK.json`` contract asks for."""
    if trace:
        # A per-layer metric that does not apply to this workload reads 0.
        metrics = {m["name"]: {"value": report["per_layer"].get(m["name"],
                                                                0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {
            "value": report["end_to_end"][m["name"]]["median"],
            "unit": m["unit"]} for m in spec["end_to_end"]}
    failed = len(report["failures"])
    return json.dumps({"correct": failed == 0,
                       "attempted": report["attempted"], "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.run",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"measured rounds (default {DEFAULT_ROUNDS})")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measure one workload this long and print "
                             "the contract's JSON line")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="run the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="quarter-size workloads, one round")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"bench: no program to measure: {SRC}/repro "
                         "is missing\n")
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r} (have: "
                         f"{', '.join(known)})")
    one_run = args.seconds is not None
    if one_run and len(names) != 1:
        parser.error("--seconds measures exactly one --workload")

    os.makedirs(OUT, exist_ok=True)
    extra = ["--quick"] if args.quick else []
    if one_run:
        passes = [(bool(args.trace), extra + ["--seconds",
                                               str(args.seconds)])]
    else:
        rounds = args.rounds or (1 if args.quick else DEFAULT_ROUNDS)
        passes = [(False, extra + ["--rounds", str(rounds)])]
        if args.trace:
            traced = 1 if args.quick else TRACE_ROUNDS
            passes.append((True, extra + ["--rounds", str(traced)]))

    document: Dict[str, Any] = {
        "seed": args.seed, "quick": args.quick, "argv": sys.argv[1:],
        "env": {"before": machine_state()}, "workloads": {}}
    failed = False
    for name in names:
        merged: Dict[str, Any] = {"attempted": 0, "failures": []}
        for trace, child_args in passes:
            report = run_workload(name, args.seed, child_args, trace, units)
            print_workload(name, report, units)
            merged["attempted"] += report.pop("attempted")
            merged["failures"] += report.pop("failures")
            if trace:
                merged["traced_rounds"] = report.pop("rounds", [])
            merged.update(report)
        document["workloads"][name] = merged
        failed = failed or bool(merged["failures"])
    document["env"]["after"] = machine_state()
    with open(os.path.join(OUT, "result.json"), "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    if one_run:
        report = document["workloads"][names[0]]
        wanted = "per_layer" if args.trace else "end_to_end"
        if wanted not in report:  # the child died: no result to print
            return 1
        print(contract_line(report, spec, bool(args.trace)))
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
