"""Compare `repro sweep --json` artifacts of one grid run at several
shard counts: the records must be byte-identical.

    python .github/scripts/shard_parity.py LABEL REFERENCE.json OTHER.json...

Exactly two things are stripped before comparing: ``elapsed_s`` (timing)
and the ``shards`` sweep tag itself (the only permitted difference — the
runner stamps every row with its ``--set`` values). An engine-event
divergence is named before the byte diff buries it: the event count is
the strictest single number in a row.
"""

import json
import sys


def load(path):
    with open(path) as handle:
        payload = json.load(handle)
    assert payload["rows"], f"{path}: sweep produced no rows"
    errors = [cell["error"] for cell in payload["cells"] if cell["error"]]
    assert not errors, f"{path}: {errors}"
    for cell in payload["cells"]:
        cell.pop("elapsed_s")
        cell["overrides"].pop("shards", None)
    for row in payload["rows"] + payload["summary"]:
        row.pop("shards", None)
    for row in payload["rows"]:
        if "endpoints_per_port" in row:
            assert row["endpoints"] \
                == row["endpoints_per_port"] * row["hosts"], row
    return payload


def events(payload):
    return sorted(row["events_processed"] for row in payload["rows"]
                  if "events_processed" in row)


def main(label, reference_path, *other_paths):
    reference = load(reference_path)
    for path in other_paths:
        other = load(path)
        assert events(other) == events(reference), (
            f"{label}: events_processed diverged, {reference_path} vs "
            f"{path}: {events(reference)} != {events(other)}")
        assert other == reference, \
            f"{label}: records differ, {reference_path} vs {path}"
    print(f"{label}: records byte-identical across "
          f"{', '.join((reference_path,) + other_paths)}; "
          f"events_processed parity over {len(events(reference))} rows")


if __name__ == "__main__":
    main(*sys.argv[1:])
