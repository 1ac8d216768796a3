"""Tests for statistics, path oracles, recovery detection and tables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.convergence import (recoveries_for_failures,
                                       recovery_from_arrivals,
                                       recovery_from_pings)
from repro.metrics.paths import min_latency_path, path_latency, stretch
from repro.metrics.report import format_cell, format_table, ms, us
from repro.metrics.stats import (coefficient_of_variation, mean, percentile,
                                 stdev, summarize, maybe_summarize)
from repro.netsim.engine import Simulator
from repro.netsim.errors import TopologyError
from repro.testing import graph_of
from repro.topology import (arppath, controller, fat_tree, grid, line,
                            netfpga_demo, random_graph, ring)
from repro.traffic.ping import PingResult


class TestStats:
    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 25) == 2.5

    def test_percentile_bounds(self):
        values = [3, 1, 4, 1, 5]
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)

    def test_percentile_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_range_validated(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_stdev_constant_is_zero(self):
        assert stdev([5, 5, 5]) == 0

    def test_stdev_single_value(self):
        assert stdev([5]) == 0

    def test_cv(self):
        assert coefficient_of_variation([5, 5, 5]) == 0
        assert coefficient_of_variation([0, 10]) == 1.0

    def test_cv_zero_mean(self):
        assert coefficient_of_variation([0, 0]) == 0

    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.min == 1.0 and summary.max == 4.0
        assert summary.mean == 2.5
        assert summary.median == 2.5

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
        assert maybe_summarize([]) is None

    def test_summary_scaled(self):
        summary = summarize([1.0, 2.0]).scaled(1000)
        assert summary.mean == 1500.0
        assert summary.count == 2

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_percentile_within_range(self, values):
        for q in (0, 25, 50, 75, 100):
            result = percentile(values, q)
            assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_summary_invariants(self, values):
        summary = summarize(values)
        slack = max(abs(summary.max), 1e-12) * 1e-9  # float rounding
        assert summary.min <= summary.median <= summary.max + slack
        assert summary.min - slack <= summary.mean <= summary.max + slack
        assert summary.p95 <= summary.p99 + slack


class TestPathsOracle:
    def test_oracle_prefers_low_latency(self, sim):
        net = netfpga_demo(sim, arppath())
        oracle = min_latency_path(net, "A", "B")
        # Optimal avoids the 500us cross: A-NF1-NF2-NF3-B or via NF4.
        assert "NF2" in oracle.nodes or "NF4" in oracle.nodes
        assert oracle.latency == pytest.approx(1e-6 + 10e-6 + 10e-6 + 1e-6)

    def test_oracle_bridge_hops(self, sim):
        net = netfpga_demo(sim, arppath())
        assert min_latency_path(net, "A", "B").bridge_hops == 3

    def test_oracle_adapts_to_failures(self, sim):
        net = netfpga_demo(sim, arppath())
        net.link_between("NF1", "NF2").take_down()
        net.link_between("NF4", "NF1").take_down()
        oracle = min_latency_path(net, "A", "B")
        assert oracle.nodes == ("A", "NF1", "NF3", "B")

    def test_path_latency_sums_links(self, sim):
        net = netfpga_demo(sim, arppath())
        total = path_latency(net, ("A", "NF1", "NF3", "B"))
        assert total == pytest.approx(1e-6 + 500e-6 + 1e-6)

    def test_unknown_or_cut_off_host_raises(self, sim):
        net = netfpga_demo(sim, arppath())
        with pytest.raises(TopologyError, match="'A'.*'Z'"):
            min_latency_path(net, "A", "Z")
        net.link_between("B", "NF3").take_down()
        with pytest.raises(TopologyError, match="'A'.*'B'"):
            min_latency_path(net, "A", "B")

    def test_controller_star_is_not_a_shortcut(self):
        """Two rtt/2 star hops would beat this slow fabric."""
        net = line(Simulator(seed=0), controller(), 4, latency=5e-3)
        net.finalize_topology()
        (star,) = net.controllers
        oracle = min_latency_path(net, "H0", "H1")
        assert star not in oracle.nodes
        assert oracle.latency > 15e-3

    def test_stretch(self):
        assert stretch(2.0, 1.0) == 2.0
        with pytest.raises(ValueError):
            stretch(1.0, 0.0)


class TestRecovery:
    def test_recovery_from_arrivals(self):
        arrivals = [0.1, 0.2, 0.3, 1.3, 1.4]
        recovery = recovery_from_arrivals(arrivals, fail_time=0.35,
                                          send_interval=0.1)
        assert recovery.resumed_at == 1.3
        assert recovery.outage == pytest.approx(0.95)
        assert recovery.packets_lost == 9

    def test_no_recovery_returns_none(self):
        assert recovery_from_arrivals([0.1, 0.2], fail_time=0.3,
                                      send_interval=0.1) is None

    def test_recovery_clean_stream(self):
        arrivals = [0.1, 0.2, 0.3, 0.4]
        recovery = recovery_from_arrivals(arrivals, fail_time=0.25,
                                          send_interval=0.1)
        assert recovery.packets_lost == 0

    def test_recoveries_for_multiple_failures(self):
        arrivals = [0.1, 0.2, 1.2, 1.3, 2.3, 2.4]
        recoveries = recoveries_for_failures(arrivals, [0.25, 1.35],
                                             send_interval=0.1)
        assert len(recoveries) == 2
        assert recoveries[0].resumed_at == 1.2
        assert recoveries[1].resumed_at == 2.3

    def test_recovery_from_pings(self):
        results = [
            PingResult(seq=0, sent_at=0.0, rtt=0.001),
            PingResult(seq=1, sent_at=0.1, rtt=None),
            PingResult(seq=2, sent_at=0.2, rtt=None),
            PingResult(seq=3, sent_at=0.3, rtt=0.001),
        ]
        recovery = recovery_from_pings(results, fail_time=0.05)
        assert recovery.resumed_at == 0.3
        assert recovery.packets_lost == 2

    def test_recovery_from_pings_none(self):
        results = [PingResult(seq=0, sent_at=0.0, rtt=None)]
        assert recovery_from_pings(results, fail_time=0.0) is None


class TestReport:
    def test_format_cell_float(self):
        assert format_cell(1.23456) == "1.235"
        assert format_cell(0.0) == "0"
        assert format_cell(1e-9) == "1.000e-09"

    def test_format_cell_none(self):
        assert format_cell(None) == "-"

    def test_format_cell_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_table_alignment(self):
        table = format_table(["name", "value"],
                             [["a", 1], ["long-name", 22]])
        lines = table.split("\n")
        assert len({line.index("1") for line in lines[2:3]}) == 1
        assert lines[1].startswith("----")

    def test_table_title(self):
        table = format_table(["x"], [[1]], title="My Title")
        assert table.startswith("My Title\n========")

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_unit_helpers(self):
        assert us(1e-6) == "1.0us"
        assert ms(0.5) == "500.000ms"


ORACLE_TOPOLOGIES = {
    "line": lambda sim: line(sim, arppath(), 5),
    "ring": lambda sim: ring(sim, arppath(), 6),
    "grid": lambda sim: grid(sim, arppath(), 3, 4),
    "fat_tree": lambda sim: fat_tree(sim, arppath()),
    "random": lambda sim: random_graph(sim, arppath(), 9, seed=7, hosts=5),
}


class TestOracleParity:
    """``min_latency_path`` against ``networkx`` over ``graph_of``:
    the same latency float, a node sequence ``networkx`` also calls
    shortest, and :class:`TopologyError` exactly where it finds no
    path. ``nx.shortest_path`` runs bidirectional Dijkstra, so on ties
    its nodes may differ from ours; the set of all shortest paths is
    the reference."""

    @settings(max_examples=60, deadline=None)
    @given(topo=st.sampled_from(sorted(ORACLE_TOPOLOGIES)),
           seed=st.integers(min_value=0, max_value=10_000),
           ties=st.booleans(),
           down_share=st.sampled_from([0.0, 0.15, 0.4]))
    def test_matches_networkx(self, topo, seed, ties, down_share):
        import networkx as nx

        net = ORACLE_TOPOLOGIES[topo](Simulator(seed=0))
        rng = random.Random(seed)
        for wire in sorted(net.links.values(), key=lambda w: w.name):
            wire.latency = (rng.choice((10e-6, 20e-6, 30e-6)) if ties
                            else rng.uniform(1e-6, 50e-6))
            if rng.random() < down_share:
                wire.take_down()
        graph = graph_of(net)
        hosts = sorted(net.hosts)
        for a in hosts:
            for b in hosts:
                if not (a in graph and b in graph and nx.has_path(graph, a, b)):
                    with pytest.raises(TopologyError):
                        min_latency_path(net, a, b)
                    continue
                oracle = min_latency_path(net, a, b)
                assert oracle.latency == nx.shortest_path_length(
                    graph, a, b, weight="latency")
                assert list(oracle.nodes) in list(nx.all_shortest_paths(
                    graph, a, b, weight="latency"))
