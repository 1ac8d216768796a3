"""Bench regression guard: fresh numbers vs the checked-in baselines.

Re-measures the engine (``bench_timerwheel.regenerate_baseline``),
sweep-runner (``bench_sweep.regenerate_baseline``) and scale
(``bench_scale.regenerate_baseline``) benchmarks, writes the fresh JSON
next to ``--out-dir`` (CI uploads it as an artifact), and compares the
throughput figures against ``BENCH_engine.json`` / ``BENCH_sweep.json``
/ ``BENCH_scale.json`` / ``BENCH_chaos.json`` with a generous noise
tolerance.

Per the bench-noise protocol, wall-clock numbers on shared runners are
noisy (easily ±30-40%), so the guard only fails on a drop larger than
``--tolerance`` (default 40%) — it catches order-of-magnitude
regressions (an accidentally quadratic hot path), not percent-level
drift. Parallel sweep figures are only compared when the runner has
the same CPU count the baseline was recorded on.

A failing check prints the recorded baseline, the fresh measurement,
the ratio and the configured tolerance for every failing workload.
Malformed checkouts exit with status 2 and a *named* error instead of
a bare traceback, symmetrically at both granularities: a baseline file
missing an expected key raises ``BaselineKeyMissing``, and a missing
``BENCH_*.json`` file itself raises ``BaselineFileMissing`` (both say
which ``python benchmarks/bench_*.py`` regenerates it).

Usage (CI runs exactly this)::

    PYTHONPATH=src python benchmarks/check_regression.py --out-dir fresh

Exit status 0 = within tolerance, 1 = regression, 2 = malformed
baseline.
"""

import argparse
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import bench_chaos  # noqa: E402  (path set up above)
import bench_controller  # noqa: E402
import bench_scale  # noqa: E402
import bench_sweep  # noqa: E402
import bench_timerwheel  # noqa: E402


#: Allowed fractional rise for deterministic lower-is-better metrics
#: (events/payload): only rounding headroom, not wall-clock noise.
EFFICIENCY_TOLERANCE = 0.01


class BaselineFileMissing(FileNotFoundError):
    """A BENCH_*.json baseline file this guard needs does not exist.

    Named (and exit-status-2) for the same reason as
    :class:`BaselineKeyMissing`: a missing baseline is a malformed
    checkout, not a performance regression, and the fix — run the
    matching ``benchmarks/bench_*.py`` — belongs in the error text,
    not in a bare ``FileNotFoundError`` traceback.
    """

    def __init__(self, filename):
        super().__init__(filename)
        self.filename = filename

    def __str__(self):
        return (f"baseline file missing: {self.filename} is not checked "
                f"in next to this guard — regenerate it with the "
                f"matching benchmarks/bench_*.py script")


class BaselineKeyMissing(KeyError):
    """A BENCH_*.json file lacks a key this guard compares."""

    def __init__(self, filename, path):
        super().__init__(path)
        self.filename = filename
        self.path = path

    def __str__(self):
        return (f"baseline key missing: {self.filename} has no "
                f"{self.path!r} — regenerate it with the matching "
                f"benchmarks/bench_*.py script")


def _load(name):
    try:
        with open(os.path.join(HERE, name)) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise BaselineFileMissing(name) from None


def _dig(payload, filename, *path):
    """Nested lookup that names the file and key path on a miss."""
    value = payload
    for key in path:
        try:
            value = value[key]
        except (KeyError, TypeError):
            raise BaselineKeyMissing(filename, ".".join(map(str, path))) \
                from None
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare fresh bench numbers against the baselines")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed fractional throughput drop "
                             "(default 0.40 = 40%%)")
    parser.add_argument("--out-dir", default="bench-fresh",
                        help="directory for the freshly measured JSON")
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    fresh_engine = bench_timerwheel.regenerate_baseline(
        os.path.join(args.out_dir, "BENCH_engine.json"))
    fresh_sweep = bench_sweep.regenerate_baseline(
        os.path.join(args.out_dir, "BENCH_sweep.json"))
    fresh_scale = bench_scale.regenerate_baseline(
        os.path.join(args.out_dir, "BENCH_scale.json"))
    fresh_controller = bench_controller.regenerate_baseline(
        os.path.join(args.out_dir, "BENCH_controller.json"))
    fresh_chaos = bench_chaos.regenerate_baseline(
        os.path.join(args.out_dir, "BENCH_chaos.json"))
    base_engine = _load("BENCH_engine.json")
    base_sweep = _load("BENCH_sweep.json")
    base_scale = _load("BENCH_scale.json")
    base_controller = _load("BENCH_controller.json")
    base_chaos = _load("BENCH_chaos.json")

    # (label, baseline, fresh) — all higher-is-better throughputs.
    checks = [
        ("engine flood events/s",
         _dig(base_engine, "BENCH_engine.json", "workloads",
              "flood_grid4x4", "events_per_sec"),
         fresh_engine["workloads"]["flood_grid4x4"]["events_per_sec"]),
        ("wheel churn rounds/s",
         1.0 / _dig(base_engine, "BENCH_engine.json", "workloads",
                    "timer_churn_wheel", "wall_seconds"),
         1.0 / fresh_engine["workloads"]["timer_churn_wheel"]
         ["wall_seconds"]),
        ("sweep jobs=1 cells/s",
         _dig(base_sweep, "BENCH_sweep.json", "jobs_1", "cells_per_sec"),
         fresh_sweep["jobs_1"]["cells_per_sec"]),
        ("chaos pool fault-free cells/s",
         _dig(base_chaos, "BENCH_chaos.json", "fault_free",
              "cells_per_sec"),
         fresh_chaos["fault_free"]["cells_per_sec"]),
    ]
    # (label, baseline, fresh) — lower-is-better efficiency metrics:
    # the tolerance check is inverted (fail when fresh RISES past the
    # allowance). events/payload is deterministic, so any growth is an
    # event-count regression in the dataplane fast path, not noise.
    inverted_checks = []
    for n in bench_scale.SIZES:
        workload = f"flood_grid_n{n}"
        checks.append((
            f"scale n={n} events/s",
            _dig(base_scale, "BENCH_scale.json", "workloads", workload,
                 "events_per_sec"),
            fresh_scale["workloads"][workload]["events_per_sec"]))
        inverted_checks.append((
            f"scale n={n} events/payload",
            _dig(base_scale, "BENCH_scale.json", "workloads", workload,
                 "events_per_payload"),
            fresh_scale["workloads"][workload]["events_per_payload"]))
    # Population workloads: endpoint count must stay decoupled from the
    # engine's cost — deliveries/s is wall-noisy (40% floor), while
    # events/payload and the per-endpoint pending quotient are
    # deterministic and get the tight ceiling.
    for endpoints in bench_scale.POPULATION_ENDPOINTS:
        workload = (f"population_grid_n{bench_scale.POPULATION_N}"
                    f"_e{endpoints}")
        checks.append((
            f"population e={endpoints} deliveries/s",
            _dig(base_scale, "BENCH_scale.json", "workloads", workload,
                 "deliveries_per_sec"),
            fresh_scale["workloads"][workload]["deliveries_per_sec"]))
        inverted_checks.append((
            f"population e={endpoints} events/payload",
            _dig(base_scale, "BENCH_scale.json", "workloads", workload,
                 "events_per_payload"),
            fresh_scale["workloads"][workload]["events_per_payload"]))
    # Controller-family repair figures are *simulated* time, fully
    # deterministic (see bench_controller.py), so both sides get the
    # tight efficiency ceiling: any growth is a control-plane protocol
    # regression (an extra round trip, a lost barrier), never noise.
    for family in ("arppath", "controller"):
        inverted_checks.append((
            f"{family} fig3 worst outage ms",
            _dig(base_controller, "BENCH_controller.json", family,
                 "worst_outage_ms"),
            fresh_controller[family]["worst_outage_ms"]))
    inverted_checks.append((
        "controller repair latency s",
        _dig(base_controller, "BENCH_controller.json", "controller",
             "repair_latency_s_max"),
        fresh_controller["controller"]["repair_latency_s_max"]))

    baseline_cpus = _dig(base_sweep, "BENCH_sweep.json", "cpus")
    if fresh_sweep["cpus"] == baseline_cpus:
        jobs_key = next((k for k in base_sweep if k.startswith("jobs_")
                         and k != "jobs_1"), None)
        if jobs_key is None:
            raise BaselineKeyMissing("BENCH_sweep.json", "jobs_<N>")
        checks.append((f"sweep {jobs_key} cells/s",
                       _dig(base_sweep, "BENCH_sweep.json", jobs_key,
                            "cells_per_sec"),
                       fresh_sweep[jobs_key]["cells_per_sec"]))
    else:
        print(f"note: skipping parallel sweep check (baseline cpus="
              f"{baseline_cpus}, here {fresh_sweep['cpus']})")

    failed = []
    floor = 1.0 - args.tolerance
    for label, baseline, fresh in checks:
        ratio = fresh / baseline
        verdict = "ok" if ratio >= floor else "REGRESSION"
        if ratio < floor:
            failed.append((label, baseline, fresh, ratio,
                           f"< floor {floor:.2f}"))
        print(f"{label:28s} baseline {baseline:12.1f}  "
              f"fresh {fresh:12.1f}  ratio {ratio:5.2f}  {verdict}")
    # Efficiency metrics are deterministic (event counts, not wall
    # clocks), so they get a tight fixed ceiling instead of the noise
    # tolerance: any real growth is an event-count regression that a
    # deliberate change must re-record, never drift to wave through.
    ceiling = 1.0 + EFFICIENCY_TOLERANCE
    for label, baseline, fresh in inverted_checks:
        ratio = fresh / baseline
        verdict = "ok" if ratio <= ceiling else "REGRESSION"
        if ratio > ceiling:
            failed.append((label, baseline, fresh, ratio,
                           f"> ceiling {ceiling:.2f}"))
        # %g, not the throughput table's %.1f: these are ~1.3-value
        # ratios where one decimal would print equal-looking numbers
        # beside a REGRESSION verdict.
        print(f"{label:28s} baseline {baseline:>12g}  "
              f"fresh {fresh:>12g}  ratio {ratio:5.3f}  {verdict} "
              f"(lower is better)")
    if failed:
        print(f"FAIL: {len(failed)} workload(s) regressed past their "
              f"recorded baseline (throughput floor {floor:.2f}x, "
              f"efficiency ceiling {ceiling:.2f}x):")
        for label, baseline, fresh, ratio, bound in failed:
            print(f"  {label}: recorded {baseline:g}, fresh "
                  f"{fresh:g} -> ratio {ratio:.3f} {bound}")
        return 1
    print(f"all checks within {args.tolerance:.0%} of baseline "
          f"(cpus here: {multiprocessing.cpu_count()})")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BaselineFileMissing, BaselineKeyMissing) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        sys.exit(2)
