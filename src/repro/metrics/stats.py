"""Summary statistics for experiment series.

Pure-Python percentile/summary helpers (numpy-free so the core library
has no hard scientific dependencies; the benches may still use numpy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) with linear interpolation.

    Matches numpy's default ("linear") method.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[low] == ordered[high]:
        # Second condition avoids interpolation arithmetic, which can
        # underflow for subnormal values.
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation (0.0 for a single value)."""
    if not values:
        raise ValueError("stdev of empty sequence")
    if len(values) == 1:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values) / len(values))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """stdev / mean — the load-spread metric of the §2.2 experiment."""
    centre = mean(values)
    if centre == 0:
        return 0.0
    return stdev(values) / centre


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a series."""

    count: int
    min: float
    max: float
    mean: float
    median: float
    p95: float
    p99: float
    stdev: float

    def scaled(self, factor: float) -> "Summary":
        """Every statistic multiplied by *factor* (unit conversion)."""
        return Summary(count=self.count, min=self.min * factor,
                       max=self.max * factor, mean=self.mean * factor,
                       median=self.median * factor, p95=self.p95 * factor,
                       p99=self.p99 * factor, stdev=self.stdev * factor)


def summarize(values: Sequence[float]) -> Summary:
    """Build a :class:`Summary`; raises on an empty series."""
    if not values:
        raise ValueError("cannot summarise an empty series")
    return Summary(count=len(values), min=min(values), max=max(values),
                   mean=mean(values), median=percentile(values, 50),
                   p95=percentile(values, 95), p99=percentile(values, 99),
                   stdev=stdev(values))


#: Two-sided 95% Student-t critical values by degrees of freedom; the
#: sweep runner aggregates handfuls of seeds, so small-n accuracy
#: matters more than a full table.
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 15: 2.131,
        20: 2.086, 25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980}


def _t95(df: int) -> float:
    """Critical value at the largest tabulated df <= *df* (rounding df
    down keeps the interval conservative in the table gaps)."""
    if df <= 0:
        return 0.0
    candidates = [bound for bound in _T95 if bound <= df]
    if not candidates:
        return _T95[min(_T95)]
    return _T95[max(candidates)] if df <= max(_T95) else 1.96


def sample_stdev(values: Sequence[float]) -> float:
    """Sample (n-1) standard deviation; 0.0 for a single value."""
    if not values:
        raise ValueError("sample_stdev of empty sequence")
    if len(values) == 1:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values)
                     / (len(values) - 1))


@dataclass(frozen=True)
class Aggregate:
    """Mean with a 95% confidence half-width over repeated runs."""

    n: int
    mean: float
    stdev: float
    ci95: float


def aggregate(values: Sequence[float]) -> Aggregate:
    """Mean / sample stdev / 95% CI half-width of repeated measurements."""
    if not values:
        raise ValueError("cannot aggregate an empty series")
    spread = sample_stdev(values)
    half = _t95(len(values) - 1) * spread / math.sqrt(len(values)) \
        if len(values) > 1 else 0.0
    return Aggregate(n=len(values), mean=mean(values), stdev=spread,
                     ci95=half)


def aggregate_rows(rows: Sequence[Dict[str, object]],
                   key_fields: Sequence[str] = ()
                   ) -> List[Dict[str, object]]:
    """Fold rows repeated across seeds into mean/CI summary rows.

    Columns are classified over the whole row set: a column is a
    *metric* if any row holds a numeric (non-bool) value for it and it
    is not named in *key_fields*; every other column (strings, bools,
    all-None, plus the *key_fields* — numeric columns that name a case
    rather than measure it, e.g. a failure index) is part of a row's
    identity. Classifying globally keeps a metric that is None for
    some seeds (e.g. an outage that never recovered) from fragmenting
    its group. The ``seed`` column is never part of the identity.
    Metric columns become ``<name>_mean`` / ``<name>_ci95`` pairs
    (None when no seed produced a number), and ``n_runs`` counts the
    group size.
    """
    metric_columns = set()
    for row in rows:
        for name, value in row.items():
            if name == "seed" or name in key_fields:
                continue
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                metric_columns.add(name)

    groups: Dict[tuple, List[Dict[str, object]]] = {}
    for row in rows:
        key = tuple(sorted(
            (name, value) for name, value in row.items()
            if name != "seed" and name not in metric_columns))
        groups.setdefault(key, []).append(row)

    out: List[Dict[str, object]] = []
    for key in sorted(groups, key=repr):
        members = groups[key]
        summary: Dict[str, object] = dict(key)
        summary["n_runs"] = len(members)
        metric_names = [name for name in members[0]
                        if name in metric_columns]
        for name in metric_names:
            numbers = [row.get(name) for row in members
                       if isinstance(row.get(name), (int, float))
                       and not isinstance(row.get(name), bool)]
            if not numbers:
                summary[name + "_mean"] = None
                summary[name + "_ci95"] = None
                continue
            stats = aggregate(numbers)
            summary[name + "_mean"] = stats.mean
            summary[name + "_ci95"] = stats.ci95
        out.append(summary)
    return out
