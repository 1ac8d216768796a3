"""Measurement: statistics, path oracles, recovery detection, load,
tables and ASCII charts."""

from repro.metrics.chart import sparkline, timeseries
from repro.metrics.convergence import (Recovery, recoveries_for_failures,
                                       recovery_from_arrivals)
from repro.metrics.load import LoadReport, fabric_load
from repro.metrics.paths import (OraclePath, PathObserver, min_latency_path,
                                 path_latency, stretch)
from repro.metrics.report import (format_cell, format_rows, format_table,
                                  ms, us)
from repro.metrics.stats import (Summary, coefficient_of_variation,
                                 mean, percentile, stdev, summarize)

__all__ = [
    "sparkline", "timeseries",
    "Recovery", "recoveries_for_failures", "recovery_from_arrivals",
    "LoadReport", "fabric_load",
    "OraclePath", "PathObserver", "min_latency_path", "path_latency",
    "stretch",
    "format_cell", "format_rows", "format_table", "ms", "us",
    "Summary", "coefficient_of_variation", "mean",
    "percentile", "stdev", "summarize",
]
