"""Property-based system tests: the paper's invariants over random
topologies and workloads.

Each property is checked over randomly generated connected graphs with
heterogeneous latencies — the setting where loop freedom and
minimum-latency selection are non-trivial.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check
from repro.frames.ethernet import ETHERTYPE_ARP
from repro.metrics.paths import PathObserver
from repro.netsim.engine import Simulator
from repro.topology import arppath, random_graph

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def build(seed, n=7, hosts=3, edge_prob=0.4):
    sim = Simulator(seed=seed)
    net = random_graph(sim, arppath(), n, extra_edge_prob=edge_prob,
                       seed=seed, hosts=hosts)
    net.run(5.0)
    return net


class TestLoopFreedom:
    @SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_broadcast_terminates(self, seed):
        """One broadcast on any loopy graph causes a bounded number of
        transmissions (each bridge floods each race copy at most once)."""
        net = build(seed)
        sim = net.sim
        sent_before = sim.tracer.count("sent", ETHERTYPE_ARP)
        net.host("H0").gratuitous_arp()
        net.run(2.0)
        copies = sim.tracer.count("sent", ETHERTYPE_ARP) - sent_before
        links = len(net.links)
        # At most one copy per link per direction, plus the host hop.
        assert copies <= 2 * links

    @SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_each_host_receives_broadcast_exactly_once(self, seed):
        net = build(seed)
        before = {name: host.counters.arp_requests_received
                  for name, host in net.hosts.items()}
        net.host("H0").gratuitous_arp()
        net.run(2.0)
        for name, host in net.hosts.items():
            if name == "H0":
                continue
            received = host.counters.arp_requests_received - before[name]
            assert received == 1, f"{name} saw {received} copies"


def arrival_time(net, nodes, frame_bits):
    """What a race copy pays along *nodes*: propagation latency plus
    store-and-forward serialization at every hop."""
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        wire = net.link_between(a, b)
        total += wire.latency
        if wire.bandwidth is not None:
            total += frame_bits / wire.bandwidth
    return total


class TestMinimumLatency:
    @SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_chosen_path_is_optimal(self, seed):
        """The ARP race finds the minimum *arrival time* path on an
        idle network — the race's actual metric: propagation latency
        plus per-hop store-and-forward serialization. (A fewer-hop
        path can legitimately beat one with marginally lower summed
        latency; hypothesis found seed 23 doing exactly that. Pure
        propagation-latency stretch is what the stretch experiment
        measures.)"""
        import networkx as nx

        from repro.frames import arp as arp_proto
        from repro.frames.ethernet import ETHERTYPE_ARP, EthernetFrame
        from repro.frames.mac import BROADCAST
        from repro.testing import graph_of

        net = build(seed)
        observer = PathObserver(net, "H1")
        rtts = []
        h0, h1 = net.host("H0"), net.host("H1")
        h0.ping(h1.ip, on_reply=lambda s, r: rtts.append(r))
        net.run(3.0)
        assert rtts, f"no connectivity on seed {seed}"
        bridges = observer.last_bridge_path()
        assert bridges is not None

        request = EthernetFrame(
            dst=BROADCAST, src=h0.mac, ethertype=ETHERTYPE_ARP,
            payload=arp_proto.make_request(h0.mac, h0.ip, h1.ip))
        frame_bits = request.wire_size * 8

        def weight(u, v, data):
            wire = net.links[data["link"]]
            ser = 0.0 if wire.bandwidth is None \
                else frame_bits / wire.bandwidth
            return data["latency"] + ser

        observed = arrival_time(net, ("H0",) + bridges + ("H1",),
                                frame_bits)
        oracle = nx.shortest_path_length(graph_of(net), "H0", "H1",
                                         weight=weight)
        assert observed == pytest.approx(oracle, rel=1e-9), \
            f"arrival-time stretch {observed / oracle:.3f} on seed {seed}"


class TestSymmetry:
    @SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_forward_and_reverse_paths_match(self, seed):
        """Paths are symmetric by construction (paper §2.1.2)."""
        net = build(seed)
        fwd_observer = PathObserver(net, "H1")
        rev_observer = PathObserver(net, "H0")
        rtts = []
        net.host("H0").ping(net.host("H1").ip,
                            on_reply=lambda s, r: rtts.append(r))
        net.run(3.0)
        assert rtts
        fwd = fwd_observer.last_bridge_path()
        rev = rev_observer.last_bridge_path()
        assert fwd is not None and rev is not None
        assert fwd == tuple(reversed(rev))


class TestRepairProperty:
    @SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_any_single_link_failure_is_survivable(self, seed):
        """After any single fabric-link failure that leaves the graph
        connected, traffic recovers via Path Repair."""
        import networkx as nx
        from repro.testing import graph_of
        net = build(seed, edge_prob=0.5)
        got = []
        sink = net.host("H1")
        sink.bind_udp(7000, lambda sip, sp, p, pkt: got.append(p))
        source = net.host("H0")
        source.send_udp(sink.ip, 7000, 7000, b"prime")
        net.run(2.0)
        if got != [b"prime"]:
            return  # pathological graph; connectivity covered elsewhere
        # Pick the first fabric link on the current path whose removal
        # keeps the graph connected.
        fabric = net.fabric_links()
        for wire in fabric:
            graph = graph_of(net)
            graph.remove_edge(wire.port_a.node.name, wire.port_b.node.name)
            if nx.is_connected(graph) and "H0" in graph and "H1" in graph:
                wire.take_down()
                break
        else:
            return  # every link is a bridge edge: nothing to test
        # The first post-failure frame triggers the repair; it may be
        # part of the bounded in-flight loss when the new path avoids
        # the detecting bridge. The conversation itself must recover:
        source.send_udp(sink.ip, 7000, 7000, b"trigger")
        net.run(2.0)
        source.send_udp(sink.ip, 7000, 7000, b"after")
        net.run(2.0)
        assert b"after" in got, f"no recovery on seed {seed}"


class TestFrameSlots:
    def test_frame_classes_have_no_dict(self):
        """The slimming contract: no per-instance ``__dict__`` on any
        frame-layer class."""
        from repro.frames import (ArpPacket, ArpPathControl,
                                  EthernetFrame, IcmpEcho, IPv4Packet,
                                  MAC, UdpDatagram, make_hello)
        from repro.frames.ipv4 import IPv4Address

        frame = EthernetFrame(dst=MAC(0xFFFFFFFFFFFF), src=MAC(1),
                              ethertype=0x0800, payload=b"x")
        instances = [
            frame,
            make_hello(MAC(1)),
            IcmpEcho(icmp_type=8, ident=1, seq=1),
            UdpDatagram(sport=1, dport=2),
            IPv4Packet(src=IPv4Address(1), dst=IPv4Address(2), proto=17,
                       payload=b""),
            ArpPacket(op=1, sha=MAC(1), spa=IPv4Address(1), tha=MAC(2),
                      tpa=IPv4Address(2)),
        ]
        for instance in instances:
            assert not hasattr(instance, "__dict__"), type(instance)
        assert isinstance(instances[1], ArpPathControl)


class TestDeterminism:
    @SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_same_seed_identical_outcome(self, seed):
        def run_once():
            net = build(seed)
            rtts = []
            net.host("H0").ping(net.host("H1").ip,
                                on_reply=lambda s, r: rtts.append(r))
            net.run(3.0)
            return (tuple(rtts), net.sim.events_processed,
                    net.sim.tracer.frames_sent)

        assert run_once() == run_once()


class TestRetentionObservesOnly:
    @pytest.mark.unchecked          # the baseline is the count-only run
    @SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000),
           mode=st.sampled_from(["listener", "mid-run", "detached",
                                 "checked"]))
    def test_retention_never_perturbs_the_run(self, seed, mode):
        """Listeners observe the simulation: the same scenario with one
        attached from the start, attached mid-run, attached and
        detached again, or with :mod:`repro.check` attached processes
        the same events and counts the same frames, link by link, as
        the count-only run."""
        def run_once(mode):
            sim = Simulator(seed=seed)
            checker = check.attach(sim) if mode == "checked" else None
            net = random_graph(sim, arppath(), 6, extra_edge_prob=0.4,
                               seed=seed, hosts=3)
            seen = []
            if mode in ("listener", "detached"):
                sim.tracer.add_listener(seen.append)
            net.run(5.0)
            if mode == "mid-run":
                sim.tracer.add_listener(seen.append)
            elif mode == "detached":
                sim.tracer.remove_listener(seen.append)
            net.host("H2").gratuitous_arp()
            net.host("H0").ping(net.host("H1").ip)
            net.run(3.0)
            if checker is not None:
                checker.close()
            tracer = sim.tracer
            return len(seen), (sim.events_processed, dict(tracer.counts),
                               tracer.by_ethertype,
                               {name: link.stats()
                                for name, link in net.links.items()})

        observed, outcome = run_once(mode)
        unobserved, baseline = run_once("off")
        assert outcome == baseline
        assert (observed > 0) == (mode != "checked") and unobserved == 0
