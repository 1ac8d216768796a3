"""Tests for the centralized SDN/SPF controller family.

Covers the pinned control-plane contracts: the packet-in/flow-install
exchange (golden trace), idle vs hard flow timeouts through the
AgingStore, deterministic ECMP splitting, and the barriered repair
whose latency is exactly ``2 × rtt + install_latency``. A final
registry-parametrized smoke instantiates every scenario × family cell
through the bridge-family descriptor.
"""

import random

import pytest

from repro.frames.mac import mac_for_bridge
from repro.netsim.aging import RECLAIM_GRANULE
from repro.netsim.engine import Simulator
from repro.switching import base
from repro.switching.controller import ControllerConfig
from repro.switching.controller.bridge import FlowEntry
from repro.testing import graph_of, ping_once
from repro.topology import controller, fat_tree, grid, line, ring

RTT = ControllerConfig().rtt
INSTALL = ControllerConfig().install_latency


def controller_of(net):
    return next(iter(net.controllers.values()))


def edge_count(ctl):
    return sum(map(len, ctl.adj.values())) // 2


def warmed(sim, topo, *args, factory=None, warm=3.0):
    net = topo(sim, factory if factory is not None else controller(), *args)
    net.run(warm)
    return net


# -- discovery ---------------------------------------------------------------


class TestDiscovery:
    def test_controller_is_wired_out_of_band(self, sim):
        net = warmed(sim, ring, 4)
        ctl = controller_of(net)
        assert ctl.out_of_band
        assert "controller0" not in net.bridges
        # The fabric oracle never sees the star links.
        assert ctl.name not in graph_of(net)

    def test_graph_matches_fabric(self, sim):
        net = warmed(sim, ring, 4)
        ctl = controller_of(net)
        macs = {net.bridge(n).mac for n in net.bridges}
        assert set(ctl.adj) == macs
        assert edge_count(ctl) == 4
        for a, peers in ctl.adj.items():
            for b, edge in peers.items():
                assert ctl.adj[b][a] is edge  # one record per link

    def test_lldp_learns_link_latency(self, sim):
        net = warmed(sim, ring, 4)
        ctl = controller_of(net)
        for a, peers in ctl.adj.items():
            for b, edge in peers.items():
                assert edge.weight > 0
                assert set(edge.ports) == {a, b}

    def test_hosts_reported_on_first_frame(self, sim):
        net = warmed(sim, ring, 4)
        ctl = controller_of(net)
        assert not ctl.hosts
        net.host("H0").gratuitous_arp()
        net.run(0.5)
        assert ctl.hosts[net.host("H0").mac][0] == net.bridge("B0").mac


# -- packet-in / flow-install (golden trace) ---------------------------------


class TestPacketIn:
    @pytest.fixture
    def traced(self, sim):
        """A warmed 3-bridge line with a spy on the controller inbox."""
        net = warmed(sim, line, 3)
        ctl = controller_of(net)
        trace = []
        inner = ctl.handle_frame

        def spy(port, frame):
            trace.append((frame.payload.op_name, frame.payload.origin,
                          frame.payload.src))
            inner(port, frame)

        ctl.handle_frame = spy
        return net, ctl, trace

    def test_golden_trace_one_ping(self, traced):
        """One ping = two host reports and exactly ONE packet-in.

        The ARP request is broadcast (no miss); the unicast ARP reply
        misses at its ingress and punts; the reverse pre-warm install
        means the echo request then rides an already-programmed flow.
        """
        net, ctl, trace = traced
        assert ping_once(net, "H0", "H1") is not None
        interesting = [entry for entry in trace
                       if entry[0] in ("HOST_REPORT", "PACKET_IN")]
        h0, h1 = net.host("H0").mac, net.host("H1").mac
        assert interesting == [
            ("HOST_REPORT", net.bridge("B0").mac, h0),
            ("HOST_REPORT", net.bridge("B2").mac, h1),
            # The unicast ARP reply (H1 -> H0) misses at its ingress B2.
            ("PACKET_IN", net.bridge("B2").mac, h1),
        ]

    def test_flows_programmed_along_path(self, traced):
        net, ctl, _trace = traced
        assert ping_once(net, "H0", "H1") is not None
        # Both directions installed on all three bridges: 6 flow-mods.
        assert ctl.counters.installs_sent == 6
        for name in ("B0", "B1", "B2"):
            bridge = net.bridge(name)
            assert bridge.protocol_counters()["flow_installs"] == 2
            assert bridge.state_entries() == 2
        assert len(ctl.flows) == 2

    def test_miss_buffers_frame_until_install(self, traced):
        """The frame that missed is not lost: it is buffered and
        forwarded once the flow-mod lands (counted, and the ping
        succeeds on the very first try)."""
        net, _ctl, _trace = traced
        assert ping_once(net, "H0", "H1") is not None
        counters = net.bridge("B2").protocol_counters()
        assert counters["misses"] == 1
        assert counters["frames_buffered"] == 1
        assert counters["drops_buffer"] == 0

    def test_second_ping_is_pure_dataplane(self, traced):
        net, ctl, trace = traced
        assert ping_once(net, "H0", "H1") is not None
        del trace[:]
        assert ping_once(net, "H0", "H1") is not None
        assert [entry for entry in trace
                if entry[0] in ("HOST_REPORT", "PACKET_IN")] == []


# -- flow timeouts through the AgingStore ------------------------------------


class TestFlowTimeouts:
    def test_entry_refresh_capped_by_hard_deadline(self):
        entry = FlowEntry(out_port=1, flood=False, idle=5.0,
                          expires=5.0, hard_deadline=8.0)
        entry.refresh(2.0)
        assert entry.expires == 7.0
        entry.refresh(6.0)  # now + idle would be 11.0 — the cap wins
        assert entry.expires == 8.0

    def test_idle_timeout_expires_without_traffic(self, sim):
        net = warmed(sim, line, 3,
                     factory=controller(flow_idle=0.3, flow_hard=60.0))
        assert ping_once(net, "H0", "H1", timeout=0.1) is not None
        assert net.bridge("B0").state_entries() == 2
        net.run(1.0)  # silence > flow_idle
        for name in ("B0", "B1", "B2"):
            bridge = net.bridge(name)
            assert bridge.state_entries() == 0
            assert bridge.protocol_counters()["flow_expired"] == 2
        # FLOW_EXPIRED notifications cleaned the controller's records.
        assert not controller_of(net).flows

    def test_traffic_refreshes_idle_timer(self, sim):
        net = warmed(sim, line, 3,
                     factory=controller(flow_idle=0.5, flow_hard=60.0))
        assert ping_once(net, "H0", "H1", timeout=0.3) is not None
        for _ in range(6):  # one ping every 0.3 s < flow_idle
            assert ping_once(net, "H0", "H1", timeout=0.3) is not None
        assert net.bridge("B0").protocol_counters()["flow_expired"] == 0
        assert net.bridge("B0").state_entries() == 2

    def test_hard_timeout_fires_despite_traffic(self, sim):
        net = warmed(sim, line, 3,
                     factory=controller(flow_idle=10.0, flow_hard=0.8))
        assert ping_once(net, "H0", "H1", timeout=0.3) is not None
        for _ in range(8):  # refreshed well within idle the whole time
            assert ping_once(net, "H0", "H1", timeout=0.3) is not None
        assert net.bridge("B0").protocol_counters()["flow_expired"] >= 1

    @staticmethod
    def spy_northbound(net, name):
        """(time, op) of every control frame bridge *name* sends up."""
        bridge, sent = net.bridge(name), []
        inner = bridge._send_controller

        def spy(msg):
            sent.append((net.sim.now, msg.op_name))
            inner(msg)

        bridge._send_controller = spy
        return sent

    @staticmethod
    def idle_flows(sim):
        """A pinged 3-line whose six flows idle out 0.3 s later; returns
        the net, their common deadline and the boundary after it."""
        net = warmed(sim, line, 3,
                     factory=controller(flow_idle=0.3, flow_hard=60.0))
        assert ping_once(net, "H0", "H1", timeout=0.1) is not None
        deadlines = {entry.expires for name in ("B0", "B1", "B2")
                     for entry in net.bridge(name).flows.values()}
        deadline = max(deadlines)
        boundary = (int(deadline / RECLAIM_GRANULE) + 1) * RECLAIM_GRANULE
        # Every flow idles out inside one bucket, with room in the gap.
        assert boundary - RECLAIM_GRANULE <= min(deadlines)
        assert boundary - deadline > 0.05
        return net, deadline, boundary

    def test_flow_expired_leaves_at_the_boundary_after_the_deadline(self, sim):
        """FLOW_EXPIRED is an ``on_reap`` side effect: with no lookup it
        is sent when the flow's bucket comes due — never before the idle
        deadline, never later than the next quarter-second boundary."""
        net, deadline, boundary = self.idle_flows(sim)
        sent = {name: self.spy_northbound(net, name)
                for name in ("B0", "B1", "B2")}
        net.run(1.0)
        for name, frames in sent.items():
            expired = [at for at, op in frames if op == "FLOW_EXPIRED"]
            assert expired == [boundary, boundary], name
        assert deadline < boundary <= deadline + RECLAIM_GRANULE
        assert not controller_of(net).flows

    def test_lookup_in_the_gap_reaps_before_it_punts(self, sim):
        """A frame that finds the flow expired but not yet reclaimed
        reaps it on the spot: FLOW_EXPIRED precedes the PACKET_IN, and
        the flow is not reported a second time when its bucket is due."""
        net, deadline, boundary = self.idle_flows(sim)
        sent = self.spy_northbound(net, "B0")
        gap = (deadline + boundary) / 2
        net.run(gap - sim.now)
        replies = []
        net.host("H0").ping(net.host("H1").ip,
                            on_reply=lambda seq, rtt: replies.append(rtt))
        net.run(boundary + 0.5 - sim.now)
        assert replies                  # the miss was served, not lost
        ops = [(op, at) for at, op in sent
               if op in ("FLOW_EXPIRED", "PACKET_IN")]
        (op1, at1), (op2, at2), *later = ops
        # H0 -> H1 reaped by the echo request's lookup, then punted ...
        assert (op1, op2) == ("FLOW_EXPIRED", "PACKET_IN")
        assert gap <= at1 <= at2 < boundary
        # ... so the old bucket finds nothing expired (the PACKET_IN
        # re-installed both directions): what is left is the two new
        # flows idling out at their own boundary.
        assert [op for op, _at in later] == ["FLOW_EXPIRED"] * 2
        assert all(at == boundary + RECLAIM_GRANULE for _op, at in later)
        assert net.bridge("B0").protocol_counters()["flow_expired"] == 3


# -- ECMP --------------------------------------------------------------------


class TestEcmp:
    @staticmethod
    def _installed(net):
        """Flow tables as comparable data: bridge -> {key: out_port}."""
        return {name: {key: entry.out_port
                       for key, entry in net.bridge(name).flows.items()}
                for name in sorted(net.bridges)}

    @staticmethod
    def _ecmp_run(seed):
        sim = Simulator(seed=seed)
        net = grid(sim, controller(ecmp=True), 2, 2)
        net.run(3.0)
        for src, dst in (("H0", "H3"), ("H1", "H2"), ("H2", "H1")):
            assert ping_once(net, src, dst) is not None
        return net

    def test_ecmp_keys_are_pairs(self, sim):
        net = warmed(sim, grid, 2, 2, factory=controller(ecmp=True))
        assert ping_once(net, "H0", "H3") is not None
        keys = list(net.bridge("B0_0").flows.items())
        assert keys and all(isinstance(key, tuple) for key, _ in keys)

    def test_ecmp_split_deterministic_at_fixed_seed(self):
        first = self._installed(self._ecmp_run(7))
        second = self._installed(self._ecmp_run(7))
        assert first == second

    def test_ecmp_spreads_flows_across_paths(self):
        """On the 2×2 grid the two corner-to-corner paths are equal
        cost; the CRC32 per-flow hash must not collapse every pair onto
        one of them."""
        sim = Simulator(seed=7)
        net = grid(sim, controller(ecmp=True), 2, 2)
        net.run(3.0)
        hosts = sorted(net.hosts)
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    assert ping_once(net, src, dst, timeout=0.5) is not None
        used = {name for name in net.bridges
                if net.bridge(name).flows}
        assert used == set(net.bridges)  # both middle bridges carry flows


# -- SPF oracle --------------------------------------------------------------


ORACLE_TOPOLOGIES = {
    "ring": lambda sim, factory: ring(sim, factory, 6),
    "grid": lambda sim, factory: grid(sim, factory, 3, 3),
    "fat_tree": lambda sim, factory: fat_tree(sim, factory,
                                              latency_jitter=0.0),
}


class TestSpfOracle:
    """Every programmed path is a shortest path of ``networkx`` over
    the live fabric, after convergence and again after a seed-drawn
    cut; without ECMP it is the one the lowest-MAC tie-break picks
    (the lowest bridge MAC at each step back from the destination).
    The topologies tie on purpose: uniform latencies everywhere."""

    @staticmethod
    def _installed_path(net, key, ingress):
        path = [ingress]
        while len(path) <= len(net.bridges):
            bridge = net.bridge(path[-1])
            out = bridge.flows.get(key, net.sim.now).out_port
            peer = bridge.ports[out].peer.node.name
            if peer not in net.bridges:
                return tuple(path)
            path.append(peer)
        raise AssertionError(f"installed path loops: {path}")

    @classmethod
    def _check(cls, net, ecmp):
        import networkx as nx

        fabric = graph_of(net, fabric_only=True)
        ctl = controller_of(net)
        name_of = {net.bridge(name).mac: name for name in net.bridges}
        checked = 0
        for key, flow in ctl.flows.items():
            dst = key[1] if ecmp else key
            dst_bridge = name_of[ctl.hosts[dst][0]]
            for ingress in sorted(name_of[mac] for mac in flow.ingresses):
                path = cls._installed_path(net, key, ingress)
                assert path[-1] == dst_bridge
                oracle = [tuple(p) for p in nx.all_shortest_paths(
                    fabric, ingress, dst_bridge, weight="latency")]
                assert path in oracle
                if not ecmp:
                    assert path == min(oracle, key=lambda p: [
                        net.bridge(n).mac.value for n in reversed(p)])
                checked += 1
        return checked

    @pytest.mark.parametrize("ecmp", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("topo", sorted(ORACLE_TOPOLOGIES))
    def test_installed_paths_are_oracle_shortest(self, topo, seed, ecmp):
        sim = Simulator(seed=seed)
        net = ORACLE_TOPOLOGIES[topo](sim, controller(ecmp=ecmp))
        net.run(3.0)
        hosts = sorted(net.hosts)
        replies = []

        def on_reply(seq, rtt):
            replies.append(rtt)

        for src in hosts:
            for dst in hosts:
                if src != dst:
                    net.host(src).ping(net.host(dst).ip, on_reply=on_reply)
        net.run(0.5)
        assert len(replies) == len(hosts) * (len(hosts) - 1)
        assert self._check(net, ecmp) >= len(hosts)
        cut = random.Random(seed).choice(sorted(
            net.fabric_links(), key=lambda wire: wire.name))
        cut.take_down()
        net.run(0.5)
        assert self._check(net, ecmp) >= len(hosts)


# -- repair ------------------------------------------------------------------


class TestRepair:
    @pytest.fixture
    def cut_ring(self, sim):
        """A warmed 4-ring with live H0↔H1 flows, then the B0-B1 cut."""
        net = warmed(sim, ring, 4)
        assert ping_once(net, "H0", "H1") is not None
        net.link_between("B0", "B1").take_down()
        net.run(1.0)
        return net

    def test_repair_latency_is_two_rtts_plus_install(self, cut_ring):
        """The ISSUE's pinned timeline: PORT_STATUS (½ RTT) →
        FLOW_REMOVE (1 RTT) → REMOVE_ACK barrier (1½ RTT) →
        FLOW_INSTALL lands (2 RTT) → programmed after the flow-mod
        delay. Each cut-adjacent ingress records exactly that."""
        expected = 2 * RTT + INSTALL
        assert cut_ring.bridge("B0").repair_events() \
            == [pytest.approx(expected)]
        assert cut_ring.bridge("B1").repair_events() \
            == [pytest.approx(expected)]

    def test_repair_is_proactive(self, cut_ring):
        """No post-cut traffic was needed: the controller repaired on
        PORT_STATUS alone (no new packet-in during the repair)."""
        ctl = controller_of(cut_ring)
        assert ctl.counters.repairs_started == 1
        assert ctl.counters.repairs_completed >= 1
        assert cut_ring.bridge("B0").protocol_counters()[
            "repairs_completed"] == 1

    def test_reroute_survives_the_cut(self, cut_ring):
        """Traffic flows the long way round after the repair."""
        rtt = ping_once(cut_ring, "H0", "H1")
        assert rtt is not None
        assert edge_count(controller_of(cut_ring)) == 3

    def test_graph_heals_on_link_up(self, cut_ring):
        cut_ring.link_between("B0", "B1").bring_up()
        cut_ring.run(3.0)
        assert edge_count(controller_of(cut_ring)) == 4

    def test_flow_records_do_not_depend_on_reclaim_timing(self, cut_ring):
        """The controller's ``flows`` map after the repair, then after
        every flow idled out — the values the per-entry-timer store
        produced (FLOW_EXPIRED now leaves up to a granule later; a
        FLOW_EXPIRED that crossed into a repair barrier would be
        ignored and show up here as a leftover record)."""
        net, ctl = cut_ring, controller_of(cut_ring)
        name_of = {bridge.mac: name for name, bridge in net.bridges.items()}

        def installs(host):
            flow = ctl.flows[net.host(host).mac]
            assert not flow.repairing and len(flow.edges) == 3
            return ({name_of[mac]: port
                     for mac, port in flow.installs.items()},
                    {name_of[mac] for mac in flow.ingresses})

        assert len(ctl.flows) == 2
        assert installs("H0") == ({"B0": 2, "B1": 1, "B2": 1, "B3": 1},
                                  {"B1"})
        assert installs("H1") == ({"B0": 1, "B1": 2, "B2": 0, "B3": 0},
                                  {"B0"})
        net.run(ControllerConfig().flow_idle + 2 * RECLAIM_GRANULE)
        assert not ctl.flows
        for bridge in net.bridges.values():
            assert bridge.protocol_counters()["flow_expired"] == 2
            assert bridge.state_entries() == 0


# -- the family descriptor and registry --------------------------------------


class TestFamilyRegistry:
    def test_controller_family_registered(self):
        base.load_families()
        fam = base.family("controller")
        assert fam.loop_safe
        assert fam.order == 50
        option_names = {option.name for option in fam.options}
        assert {"rtt", "install_latency", "flow_idle", "flow_hard",
                "ecmp"} <= option_names

    def test_family_names_order_and_loop_safety(self):
        assert list(base.family_names()) == ["arppath", "stp", "spb",
                                             "learning", "controller"]
        assert list(base.family_names(loop_safe_only=True)) \
            == ["arppath", "stp", "spb", "controller"]

    def test_control_ethertypes_union(self):
        ethertypes = base.control_ethertypes()
        assert 0x88B7 in ethertypes  # the controller channel
        assert list(ethertypes) == sorted(ethertypes)

    def test_describe_is_schema_ready(self):
        info = base.family("controller").describe()
        assert info["name"] == "controller"
        assert any(option["name"] == "rtt" for option in info["config"])
        assert "0x88b7" in info["control_ethertypes"]


def _scenario_family_cells():
    from repro.experiments import registry
    registry.load_all()
    cells = []
    for scenario in registry.all_scenarios():
        for param in scenario.params:
            if param.name in ("protocol", "protocols") \
                    and param.choices is not None:
                for choice in param.choices:
                    cells.append((scenario.name, choice))
    return cells


@pytest.mark.parametrize("scenario_name,family", _scenario_family_cells())
def test_every_scenario_family_cell_instantiates(scenario_name, family):
    """Every scenario × family cell resolves through the descriptor:
    spec() finds the family, its factory builds a bridge, and the
    registry-derived warmup is sane."""
    from repro.experiments.common import spec

    protocol = spec(family)
    assert protocol.warmup > 0
    sim = Simulator(seed=0)
    bridge = protocol.factory(sim, "B0", mac_for_bridge(0))
    assert bridge.name == "B0"
    assert bridge.protocol_counters() is not None
