"""Flyweight host populations: equivalence, determinism, accounting.

The two load-bearing claims this file pins:

* **Protocol equivalence** — a :class:`HostPopulation` endpoint behaves
  exactly like a real :class:`Host` would in its place, and like the
  frozen pre-population host stack (``tests/host_reference.py``) too:
  same counters for the same staggered workload on a 2-bridge line, so
  population experiments measure the protocols, not the flyweight.
* **Generation-time determinism** — the heavy-tailed traffic
  generator (``elephant_mice``) is a pure function of
  (universe, count, seed): the same seed yields the identical flow
  list, which is what lets sharded population runs stay byte-identical.
"""

from dataclasses import asdict

import pytest
from host_reference import ReferenceHost
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frames.ethernet import ETHERTYPE_IPV4
from repro.frames.ipv4 import ip_for_host
from repro.frames.mac import mac_for_host
from repro.hosts.population import HostPopulation
from repro.netsim.engine import Simulator
from repro.netsim.errors import TopologyError
from repro.topology import arppath, builder, learning
from repro.topology.builder import Network
from repro.topology.factories import spb, stp_scaled
from repro.topology.library import HOST_LINK, populate_access_ports, ring
from repro.traffic.matrix import TrafficMatrix, zipf_rank

QUICK = settings(max_examples=25, deadline=None)


def _population_net(n=3, factory=None, seed=7):
    """B0 -- B1 with a population of *n* behind B0 and host Z on B1."""
    sim = Simulator(seed=seed)
    net = Network(sim, bridge_factory=factory or arppath())
    net.add_bridges("B0", "B1")
    net.link("B0", "B1", latency=50e-6)
    net.add_population("P", n)
    net.attach("P", "B0", latency=HOST_LINK)
    net.add_host("Z")
    net.attach("Z", "B1", latency=HOST_LINK)
    return net


def _real_net(n=3, factory=None, seed=7):
    """The same wiring with *n* real hosts A0..A{n-1} instead."""
    sim = Simulator(seed=seed)
    net = Network(sim, bridge_factory=factory or arppath())
    net.add_bridges("B0", "B1")
    net.link("B0", "B1", latency=50e-6)
    for i in range(n):
        net.add_host(f"A{i}")
        net.attach(f"A{i}", "B0", latency=HOST_LINK)
    net.add_host("Z")
    net.attach("Z", "B1", latency=HOST_LINK)
    return net


class TestIdentity:
    def test_addressing_is_arithmetic(self, sim):
        pop = HostPopulation(sim, "P", size=100, base_index=7)
        assert pop.mac_of(0) == mac_for_host(7)
        assert pop.ip_of(0) == ip_for_host(7)
        assert pop.mac_of(99) == mac_for_host(106)
        assert pop.endpoint(42).name == "P#42"

    def test_index_bounds_checked(self, sim):
        pop = HostPopulation(sim, "P", size=10, base_index=0)
        with pytest.raises(IndexError):
            pop.mac_of(10)
        with pytest.raises(IndexError):
            pop.endpoint(-1)

    def test_builder_reserves_address_block(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_population("P", 50)
        late = net.add_host("H")
        assert late.ip == ip_for_host(50)
        assert late.mac == mac_for_host(50)

    def test_duplicate_name_rejected(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_population("P", 5)
        with pytest.raises(TopologyError):
            net.add_population("P", 5)
        with pytest.raises(TopologyError):
            net.add_host("P")

    def test_endpoint_name_resolution(self, sim):
        net = Network(sim, bridge_factory=arppath())
        net.add_host("H0")
        net.add_population("P", 5)
        assert net.endpoint("H0") is net.host("H0")
        assert net.endpoint("P#3").ip == net.population("P").ip_of(3)
        with pytest.raises(TopologyError):
            net.endpoint("P#9000")
        with pytest.raises(TopologyError):
            net.endpoint("nope")
        assert net.endpoint_count() == 6


#: The hosts a population endpoint must match: today's ``Host`` (a
#: population of one) and the frozen stack it replaced.
_HOST_CLASSES = (builder.Host, ReferenceHost)


class TestHostEquivalence:
    """Endpoint counters == real-host counters for the same workload.

    The workload is staggered (100 ms apart) so the shared access port
    never serialises two endpoints' frames differently than separate
    ports would — the remaining differences would be protocol ones,
    and there must be none.
    """

    def _drive(self, net, senders, z_target):
        """Pings to Z, a Z ping back, and an intra-group UDP send."""
        sim = net.sim
        net.run(5.0)
        got = []
        s0, s1, s2 = senders
        s2.bind_udp(7000, lambda src, sport, payload, pkt:
                    got.append(payload))
        sim.schedule(0.0, s0.ping, net.host("Z").ip)
        sim.schedule(0.1, s1.ping, net.host("Z").ip)
        sim.schedule(0.2, s2.ping, net.host("Z").ip)
        sim.schedule(0.3, net.host("Z").ping, s1.ip)
        sim.schedule(0.4, s0.send_udp, s2.ip, 7000, 7000, b"hello")
        net.run(2.0)
        return got

    def test_counters_match_real_hosts(self, monkeypatch):
        flya = _population_net()
        pop = flya.population("P")
        got_fly = self._drive(flya, [pop.endpoint(i) for i in range(3)],
                              "Z")
        assert got_fly == [b"hello"]
        for host_class in _HOST_CLASSES:
            monkeypatch.setattr(builder, "Host", host_class)
            real = _real_net()
            got_real = self._drive(
                real, [real.host(f"A{i}") for i in range(3)], "Z")
            assert got_real == got_fly, host_class
            for i in range(3):
                assert asdict(pop.endpoint_counters(i)) == \
                    asdict(real.host(f"A{i}").counters), (host_class, i)
            assert asdict(flya.host("Z").counters) == \
                asdict(real.host("Z").counters), host_class

    def test_aggregate_counters_are_the_sum(self):
        net = _population_net()
        pop = net.population("P")
        self._drive(net, [pop.endpoint(i) for i in range(3)], "Z")
        summed = {}
        for i in range(3):
            for key, value in vars(pop.endpoint_counters(i)).items():
                summed[key] = summed.get(key, 0) + value
        assert summed == vars(pop.counters)

    def test_resolution_failure_parity(self, monkeypatch):
        flya = _population_net()
        flya.run(5.0)
        dead = ip_for_host(9000)
        flya.population("P").endpoint(0).ping(dead)
        flya.run(6.0)  # 1 + 3 retries at 1 s, then abandon
        assert flya.population("P").endpoint_counters(0) \
            .resolution_failures == 1
        assert flya.population("P").dropped_pending == 1
        for host_class in _HOST_CLASSES:
            monkeypatch.setattr(builder, "Host", host_class)
            real = _real_net()
            real.run(5.0)
            real.host("A0").ping(dead)
            real.run(6.0)
            assert real.host("A0").counters.resolution_failures == 1


class TestIntraPopulation:
    def test_sibling_traffic_never_crosses_the_link(self):
        net = _population_net(n=4)
        pop = net.population("P")
        net.run(5.0)
        ip_before = net.sim.tracer.by_ethertype["sent"].get(
            ETHERTYPE_IPV4, 0)
        rtts = []
        pop.endpoint(0).ping(pop.ip_of(2),
                             on_reply=lambda seq, rtt: rtts.append(rtt))
        net.run(1.0)
        # The ARP request is a broadcast (it does exit the port); the
        # reply and both echo legs short-circuit inside the population,
        # so not one IPv4 frame touches a link.
        assert rtts and rtts[0] < 1e-4
        assert pop.endpoint_counters(2).echo_requests_received == 1
        assert pop.endpoint_counters(0).echo_replies_received == 1
        ip_after = net.sim.tracer.by_ethertype["sent"].get(
            ETHERTYPE_IPV4, 0)
        assert ip_after == ip_before

    def test_udp_between_siblings(self):
        net = _population_net(n=3)
        pop = net.population("P")
        net.run(5.0)
        inbox = []
        pop.endpoint(1).bind_udp(5353, lambda src, sport, payload, pkt:
                                 inbox.append((str(src), payload)))
        pop.endpoint(0).send_udp(pop.ip_of(1), 5353, 5353, b"x")
        net.run(1.0)
        assert inbox == [(str(pop.ip_of(0)), b"x")]

    def test_duplicate_udp_bind_rejected(self, sim):
        pop = HostPopulation(sim, "P", size=4, base_index=0)
        pop.bind_udp(9000, lambda *a: None, 1)
        with pytest.raises(ValueError):
            pop.bind_udp(9000, lambda *a: None, 1)
        pop.bind_udp(9000, lambda *a: None, 2)  # other endpoint is fine


class TestFlyweightState:
    def test_state_scales_with_activity_not_size(self):
        net = _population_net(n=100_000)
        pop = net.population("P")
        net.run(5.0)
        pop.endpoint(17).ping(net.host("Z").ip)
        pop.endpoint(99_999).ping(net.host("Z").ip)
        net.run(1.0)
        # Two active endpoints out of 1e5: the mutable state must be a
        # handful of map entries, not O(size).
        assert pop.counters.echo_replies_received == 2
        assert pop.state_entries() < 40


class TestHeavyTailDeterminism:
    def _universe_net(self):
        net = Network(Simulator(seed=0), bridge_factory=arppath())
        net.add_host("H0")
        net.add_host("H1")
        net.add_population("P", 37)
        return net

    @QUICK
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           alpha=st.floats(min_value=1.05, max_value=3.0),
           n=st.integers(min_value=1, max_value=10**6))
    def test_zipf_rank_in_range_and_deterministic(self, seed, alpha, n):
        import random
        a = [zipf_rank(random.Random(seed), alpha, n) for _ in range(5)]
        b = [zipf_rank(random.Random(seed), alpha, n) for _ in range(5)]
        assert a == b
        assert all(1 <= rank <= n for rank in a)

    @QUICK
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=30))
    def test_same_seed_same_flows(self, seed, count):
        import random
        lists = []
        for _ in range(2):
            matrix = TrafficMatrix(self._universe_net())
            matrix.elephant_mice(count=count, rng=random.Random(seed))
            lists.append([(f.src, f.dst, f.packets, f.size, f.port)
                          for f in matrix.flows])
        assert lists[0] == lists[1]
        assert len(lists[0]) == count

    @QUICK
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_elephant_mice_hit_population_endpoints(self, seed):
        import random
        matrix = TrafficMatrix(self._universe_net())
        flows = matrix.elephant_mice(count=20, rng=random.Random(seed))
        names = {f.src for f in flows} | {f.dst for f in flows}
        for name in names:
            assert name in ("H0", "H1") or name.startswith("P#")
        for flow in flows:
            assert flow.src != flow.dst


class TestStateAccounting:
    """Satellite: ``Bridge.state_entries`` counts population-backed
    endpoints identically across the bridge families, and counts *live*
    entries (expiry matters, reaping order does not)."""

    N = 6

    def _converse(self, factory, warmup):
        net = _population_net(n=self.N, factory=factory)
        pop = net.population("P")
        net.run(warmup)
        for i in range(self.N):
            net.sim.schedule(i * 0.05, pop.endpoint(i).ping,
                             net.host("Z").ip)
        net.run(self.N * 0.05 + 0.5)
        return net

    @pytest.mark.parametrize("factory,warmup", [
        (arppath, 5.0), (learning, 1.0), (lambda: stp_scaled(0.1), 5.0),
    ])
    def test_access_bridge_counts_every_talking_endpoint(self, factory,
                                                         warmup):
        net = self._converse(factory(), warmup)
        # N endpoint MACs plus Z: identical across locked-table (ARP-
        # Path) and FDB (learning, STP) families.
        assert net.bridges["B0"].state_entries() == self.N + 1

    def test_spb_advertises_population_endpoints(self):
        net = self._converse(spb(), 8.0)
        net.run(12.0)  # next periodic LSP refresh carries the hosts
        assert net.bridges["B1"].state_entries() >= self.N

    @pytest.mark.parametrize("factory,warmup", [
        (arppath, 5.0), (learning, 1.0),
    ])
    def test_counts_live_entries_not_unreaped_ones(self, factory, warmup):
        net = self._converse(factory(), warmup)
        bridge = net.bridges["B0"]
        assert bridge.state_entries() == self.N + 1
        # Idle past every aging horizon (ARP-Path learnt 120 s, FDB
        # 300 s): live state must read zero even where lazy reaping
        # left entries in the store.
        net.run(320.0)
        assert bridge.state_entries() == 0


class TestPopulatedTopologies:
    def test_populate_access_ports_is_noop_at_one(self, sim):
        net = ring(sim, arppath(), 4, hosts_per_bridge=1)
        links = len(net.links)
        populate_access_ports(net, 1)
        assert not net.populations
        assert len(net.links) == links

    def test_populate_access_ports_colocates(self, sim):
        net = ring(sim, arppath(), 4, hosts_per_bridge=1)
        populate_access_ports(net, 10)
        assert len(net.populations) == len(net.hosts)
        for name, host in net.hosts.items():
            pop = net.population(f"{name}P")
            assert pop.size == 9
            assert pop.port.peer.node is host.port.peer.node
        assert net.endpoint_count() == 4 * 10
