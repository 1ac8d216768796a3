"""``python -m bench.compare A.json B.json`` — B against A, bound by bound.

A and B are ``bench/out/result.json`` files of two runs. One row per
workload x end-to-end metric: both medians, the ratio B/A (base: A), the
wider of the two run-to-run spreads (quartile distance over median) and
a verdict under the metric's bound from ``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median is worse / better than A's by more
  than the bound;
* ``same`` — within the bound;
* ``unresolved`` — a spread is wider than the bound, so the bound cannot
  be applied; unless every value of B is on one side of every value of
  A, which still reads ``better`` or ``worse``.

Deterministic per-layer counts and the ``sim`` blocks are compared
exactly and listed when they differ. Exits 1 if any row reads ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from bench.run import load_spec


def _spread(summary: Dict[str, Any]) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def verdict(a: Dict[str, Any], b: Dict[str, Any], lower_is_better: bool,
            bound: float) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (b["median"] / a["median"] - 1.0)
    if max(_spread(a), _spread(b)) > bound:
        a_values = [sign * v for v in a["values"]]
        b_values = [sign * v for v in b["values"]]
        if max(b_values) < min(a_values):
            return "better"
        if min(b_values) > max(a_values):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
            ) -> List[str]:
    """The report lines; a line starting ``worse`` marks a regression."""
    lines = []
    calib_a = a["env"]["before"]["calib_ns"]
    calib_b = b["env"]["before"]["calib_ns"]
    lines.append(f"machine: env.calib_ns A {calib_a:.1f}  B {calib_b:.1f}  "
                 f"B/A {calib_b / calib_a:.2f} (base A) — host-time rows "
                 f"mean little if this is far from 1")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb:
            continue
        for metric in spec["end_to_end"]:
            ma = wa.get("end_to_end", {}).get(metric["name"])
            mb = wb.get("end_to_end", {}).get(metric["name"])
            if not ma or not mb:
                continue
            word = verdict(ma, mb, metric["better"] == "lower",
                           metric["bound"])
            lines.append(
                f"{word:<10} {name:<16} {metric['name']:<15} "
                f"A {ma['median']:.4f}  B {mb['median']:.4f} "
                f"{metric['unit']}  B/A {mb['median'] / ma['median']:.3f}"
                f"  spread {max(_spread(ma), _spread(mb)):.3f}"
                f"  bound {metric['bound']}")
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for count in counts:
            if count in la and count in lb and la[count] != lb[count]:
                lines.append(f"differs    {name:<16} {count:<28} "
                             f"A {la[count]}  B {lb[count]}")
        if wa.get("sim") != wb.get("sim"):
            lines.append(f"differs    {name:<16} sim  A {wa.get('sim')}  "
                         f"B {wb.get('sim')}")
        for side, report in (("A", wa), ("B", wb)):
            if report["failures"]:
                lines.append(f"failed     {name:<16} in {side}: "
                             f"{report['failures']}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write("usage: python -m bench.compare A.json B.json\n")
        return 2
    documents = []
    for path in args:
        with open(path) as handle:
            documents.append(json.load(handle))
    lines = compare(documents[0], documents[1], load_spec())
    print("\n".join(lines))
    return 1 if any(line.startswith("worse") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
