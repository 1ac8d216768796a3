"""The record goldens: every digest in ``goldens.json``, one way to compute it.

Each entry pins the records of one scenario cell as the sha256 of its
``record_line`` rows joined by newlines. ``rows`` says which rows:

* ``"records"`` — ``registry.get(scenario).execute(seeds=[seed],
  **params).records()``, the scenario's own rows;
* ``"cell"`` — the rows ``runner.execute_cell`` returns for that
  scenario, seed and overrides, tagged with ``scenario`` / ``seed``
  the way sweeps, ``--jsonl`` and the serve daemon emit them.

``tests/test_goldens.py`` checks every entry; ``tests/test_shard.py``
re-runs the ``scale`` entries split over two and three engines against
the same digests.

Where the digests come from:

* ``scale-*`` and ``churn-*`` were generated at 4f8de05 from the
  hand-written single-engine ``run_case`` / ``run_protocol`` bodies
  that sharding later replaced. ``scale-stp-grid``, ``scale-spb-grid``
  and ``scale-stp-line`` moved once, when ``Link`` got its single
  transmit body: the drained path used to stamp deliveries at
  ``now + (ser + latency)``, one ulp off the uncongested path's
  ``(now + ser) + latency``, which bought those cells 40 / 0 / 527
  zero-length drain events and moved spb/grid's convergence time in
  its 12th digit; frame counts and payloads did not move. Six ``scale`` digests (every cell but spb and
  arppath/line) and ``scale-population-arppath-grid`` moved once more,
  when ``AgingStore`` went from one engine timer per entry to one per
  quarter-second bucket: only ``events_processed`` /
  ``peak_pending_events`` / ``peak_wheel_timers`` fell, every other
  field stayed (table in CHANGES.md).
* All ten ``scale-*`` digests moved once more when engine bookkeeping
  left the ``scale`` records: ``events_processed`` and
  ``peak_pending_events`` ride in ``CellResult.telemetry``,
  ``events_per_payload`` stays a ``ScaleRow`` property and
  ``peak_wheel_timers`` went with the timer wheel; every other field
  stayed (field-level diff in CHANGES.md).
* ``ablations-repair-hello`` was generated at 7e2d79c, where the cut
  was scheduled through ``FailureInjector``; the direct
  ``sim.at(fail_at, link.take_down)`` is the same heap event.
* ``loadbalance-seed*`` and ``loopfree-seed*`` were generated at
  1beb1fb, before those scenarios stopped retaining trace records.

Recompute every digest and print the ids that moved with their old and
new digests (exit 1 if any did), or rewrite the file with the fresh
digests::

    PYTHONPATH=src python tests/goldens.py
    PYTHONPATH=src python tests/goldens.py --write

A PR that moves a golden pastes the ``--write`` output into CHANGES.md
and says why.
"""

import argparse
import hashlib
import json
import os
import sys
from typing import Any, Dict, List

from repro.experiments import registry, runner
from repro.metrics.report import record_line

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "goldens.json")

Golden = Dict[str, Any]


def load() -> List[Golden]:
    with open(PATH) as handle:
        return json.load(handle)


def by_id(golden_id: str) -> Golden:
    (golden,) = [entry for entry in load() if entry["id"] == golden_id]
    return golden


def rows(golden: Golden) -> List[Dict[str, Any]]:
    """The rows *golden* hashes (see the module docstring)."""
    if golden["rows"] == "records":
        scenario = registry.get(golden["scenario"])
        return scenario.records(scenario.execute(
            seeds=[golden["seed"]], **golden["params"]))
    result = runner.execute_cell(runner.SweepCell(
        index=0, scenario=golden["scenario"], seed=golden["seed"],
        overrides=runner.freeze_overrides(golden["params"])))
    if result.error is not None:
        raise AssertionError(f"{golden['id']}: {result.error}")
    return result.rows


def digest(golden: Golden) -> str:
    lines = "\n".join(record_line(row) for row in rows(golden))
    return hashlib.sha256(lines.encode()).hexdigest()


def dumps(goldens: List[Golden]) -> str:
    """``goldens.json`` as written: one entry per line."""
    return "[\n" + ",\n".join(f"  {json.dumps(golden)}"
                              for golden in goldens) + "\n]\n"


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        description="Recompute every golden digest; print the ids that "
                    "moved, each with its old and new digest.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite goldens.json with the fresh digests")
    args = parser.parse_args(argv)
    goldens = load()
    moved = []
    for golden in goldens:
        fresh = digest(golden)
        if fresh != golden["sha256"]:
            moved.append(f"{golden['id']} {golden['sha256']} -> {fresh}")
            golden["sha256"] = fresh
    print("\n".join(moved) if moved else "nothing moved")
    if args.write:
        with open(PATH, "w") as handle:
            handle.write(dumps(goldens))
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
