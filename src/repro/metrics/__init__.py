"""Measurement: statistics, path oracles, recovery detection, load,
tables and ASCII charts."""

from repro.metrics.chart import sparkline, timeseries
from repro.metrics.convergence import (Recovery, recoveries_for_failures,
                                       recovery_from_arrivals,
                                       recovery_from_pings)
from repro.metrics.load import LoadReport, fabric_load
from repro.metrics.paths import (OraclePath, PathObserver, min_latency_path,
                                 path_latency, stretch)
from repro.metrics.report import format_cell, format_table, ms, s, us
from repro.metrics.stats import (Summary, coefficient_of_variation,
                                 maybe_summarize, mean, percentile, stdev,
                                 summarize)

__all__ = [
    "sparkline", "timeseries",
    "Recovery", "recoveries_for_failures", "recovery_from_arrivals",
    "recovery_from_pings",
    "LoadReport", "fabric_load",
    "OraclePath", "PathObserver", "min_latency_path", "path_latency",
    "stretch",
    "format_cell", "format_table", "ms", "s", "us",
    "Summary", "coefficient_of_variation", "maybe_summarize", "mean",
    "percentile", "stdev", "summarize",
]
