"""Tests for the ASCII charts."""

from repro.metrics.chart import sparkline, timeseries


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        line = sparkline([5, 5, 5])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert list(line) == sorted(line)

    def test_extremes_use_extreme_blocks(self):
        line = sparkline([0, 100])
        assert line[0] == "▁" and line[-1] == "█"

    def test_resampling_width(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10

    def test_short_series_not_padded(self):
        assert len(sparkline([1, 2], width=10)) == 2


class TestTimeseries:
    def test_empty(self):
        assert timeseries([]) == "(no data)"

    def test_dimensions(self):
        points = [(float(i), float(i % 3)) for i in range(20)]
        chart = timeseries(points, width=30, height=5)
        lines = chart.split("\n")
        assert len(lines) == 5 + 2  # rows + axis + tick labels

    def test_label_included(self):
        chart = timeseries([(0.0, 1.0)], label="rtt")
        assert chart.startswith("rtt")

    def test_contains_points(self):
        chart = timeseries([(0.0, 0.0), (1.0, 1.0)], width=10, height=4)
        assert chart.count("*") == 2

    def test_axis_bounds_rendered(self):
        chart = timeseries([(2.0, 5.0), (4.0, 9.0)])
        assert "2" in chart and "4" in chart
        assert "9" in chart and "5" in chart
