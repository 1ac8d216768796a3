"""Differential test of SPB's installed forwarding state.

``SpbBridge`` builds its forwarding state once per LSDB version (the
candidate out-ports toward each destination host, each broadcast
source's RPF neighbour and flood plan) and keys its SPF trees on an
adjacency version, so a frame costs one probe plus the liveness checks
that can lapse without an LSDB change. Here a twin bridge runs the
per-frame path the family had before: every frame scans the LSDB for
the host's bridge, runs SPF from the current LSDB, walks to the first
hop, scans the neighbour table for a live port toward it, and the
hello and LSP floods build their frames port by port through
``Port.send``. Hypothesis feeds both the same hellos, LSPs (host-only
and adjacency-changing), data frames, clock steps, hello ticks,
carrier changes and resets. After every step both must have sent the
same frames out of the same ports, built the same number of frames
(so frame uids do not shift), bumped the same counters and hold the
same neighbour, host and LSDB state.

The named tests below pin the cases an installed table can get wrong
without a version bump: a neighbour's hello lapsing and a later hello
reviving it, and a local host expiring.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.frames.arp import make_request
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_IPV4,
                                   ETHERTYPE_LSP, EthernetFrame)
from repro.frames.ipv4 import IPv4Address
from repro.frames.mac import BROADCAST, MAC
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.spb.bridge import SpbBridge
from repro.spb.lsp import (Adjacency, LinkStatePacket, SPB_MULTICAST,
                           SpbHello)
from repro.switching.spf import shortest_path_tree

HOLD, HOST_AGING, MAX_AGE = 3.5, 2.0, 6.0
BRIDGE_MAC = MAC(0x02_00_00_00_01_00)
#: Neighbour bridges N1, N2 and N3 (N3 is reached only through LSPs).
NEIGHBORS = [MAC(0x02_00_00_00_01_00 | i) for i in (1, 2, 3)]
HOSTS = [MAC(0x02_00_00_00_00_00 | i) for i in range(5)]
#: Ports 0 and 1 are two parallel links to N1, port 2 reaches N2 and
#: port 3 a host; any port may hear any hello.
PORTS = 4

steps = st.sampled_from([0.0, 0.5, 1.0, 1.9, 2.1, 3.6, 6.5])


class Sink(Node):
    """A neighbour that drops whatever it receives."""

    def handle_frame(self, port, frame):
        pass


class ReferenceSpbBridge(SpbBridge):
    """An SPB bridge whose data plane and flood loops do every lookup
    per frame, as the family did before it installed forwarding state."""

    def _tree(self, root):
        return shortest_path_tree(root, self._bidirectional_edges())

    def _reference_first_hop(self, toward):
        parent = self._tree(self.mac).parent
        up = parent.get(toward)
        if up is None:
            return None
        node = toward
        while up != self.mac:
            node = up
            up = parent[node]
            if up is None:
                return None
        return node

    def _reference_attachment(self, host):
        local = self._local_hosts.get(host._value)
        if local is not None and local[1] > self.sim.now:
            return self.mac
        for origin, (lsp, _received) in self._lsdb.items():
            if host in lsp.hosts:
                return origin
        return None

    def _port_for_neighbor(self, neighbor):
        for index, (mac, deadline) in self._neighbor.items():
            if mac == neighbor and deadline > self.sim.now:
                return self.ports[index]
        return None

    def _learn(self, port, frame):
        mac = frame.src
        if not self.is_host_port(port) or mac.is_multicast:
            return
        known = self._local_hosts.get(mac._value)
        self._local_hosts[mac._value] = [port,
                                         self.sim.now + self.host_aging, mac]
        if known is None or known[0] is not port:
            self._originate_lsp()

    def on_unicast(self, port, frame):
        self._learn(port, frame)
        local = self._local_hosts.get(frame.dst._value)
        if local is not None and local[1] > self.sim.now:
            if local[0] is port:
                self.filter_frame()
            else:
                self.forward(local[0], frame)
            return
        attachment = self._reference_attachment(frame.dst)
        if attachment is None or attachment == self.mac:
            self.spb_counters.unknown_unicast_drops += 1
            return
        next_hop = self._reference_first_hop(attachment)
        out_port = (self._port_for_neighbor(next_hop)
                    if next_hop is not None else None)
        if out_port is None or not out_port.is_up:
            self.spb_counters.unknown_unicast_drops += 1
            return
        self.forward(out_port, frame)

    def on_broadcast(self, port, frame):
        self._learn(port, frame)
        if self.is_host_port(port):
            root = self.mac
        else:
            root = self._reference_attachment(frame.src)
            if root is None:
                self.spb_counters.unknown_source_drops += 1
                return
            expected_hop = self._reference_first_hop(root)
            if expected_hop is None \
                    or self.neighbor_on(port) != expected_hop:
                self.spb_counters.rpf_drops += 1
                return
        parent = self._tree(root).parent
        copies = 0
        for out_port in self.ports:
            if out_port is port or not out_port.is_up:
                continue
            neighbor = self.neighbor_on(out_port)
            if neighbor is None or parent.get(neighbor) == self.mac:
                copies += 1
                out_port.send(frame)
        self.counters.flooded_frames += 1
        self.counters.flooded_copies += copies

    on_arp = on_broadcast

    def _send_hellos(self):
        self._hello_seq += 1
        hello = SpbHello(origin=self.mac, seq=self._hello_seq)
        for port in self.ports:
            if not port.is_up:
                continue
            self.spb_counters.hellos_sent += 1
            self.counters.control_sent += 1
            port.send(EthernetFrame(dst=SPB_MULTICAST, src=self.mac,
                                    ethertype=ETHERTYPE_LSP, payload=hello))

    def _flood_lsp(self, lsp, exclude):
        for port in self.ports:
            if port is exclude or not port.is_up:
                continue
            if not self.is_bridge_port(port):
                continue
            self.spb_counters.lsps_flooded += 1
            self.counters.control_sent += 1
            port.send(EthernetFrame(dst=SPB_MULTICAST, src=self.mac,
                                    ethertype=ETHERTYPE_LSP, payload=lsp))


def _next_uid():
    return EthernetFrame(BROADCAST, BRIDGE_MAC, ETHERTYPE_IPV4).uid


class Pair:
    """The bridge under test and its reference twin, each wired to its
    own sinks on one simulator, driven through the same steps."""

    def __init__(self):
        self.sim = Simulator(seed=0)
        self.sides = []
        for cls, name in ((SpbBridge, "B"), (ReferenceSpbBridge, "R")):
            bridge = cls(self.sim, name, BRIDGE_MAC, hello_hold=HOLD,
                         host_aging=HOST_AGING, lsp_max_age=MAX_AGE)
            links = [Link(self.sim, bridge.add_port(),
                          Sink(self.sim, f"{name}S{index}").add_port())
                     for index in range(PORTS)]
            self.sides.append((bridge, links))
        self.lsp_seq = {mac._value: 0 for mac in NEIGHBORS}

    @property
    def bridge(self):
        return self.sides[0][0]

    def _sent(self, links):
        """Per port and ethertype: frames handed to its transmitter
        (sent, queued behind a busy one, or dropped)."""
        sent = []
        for link in links:
            direction = link._dirs[link.port_a]
            counts = {ethertype: registers.sent + registers.drop_queue
                      + registers.drop_link_down
                      for ethertype, registers in direction.tallies.items()}
            for frame in direction.queue:
                counts[frame.ethertype] = counts.get(frame.ethertype, 0) + 1
            sent.append(counts)
        return sent

    def _counters(self, bridge):
        spb = vars(bridge.spb_counters).copy()
        del spb["spf_runs"]      # the reference runs SPF on every frame
        return bridge.counters.snapshot(), spb

    def both(self, act):
        """Run *act(bridge, links)* on each side in turn; both must
        build as many frames and send the same ones out of the same
        ports."""
        moved = []
        for bridge, links in self.sides:
            before = self._sent(links), _next_uid()
            act(bridge, links)
            after = self._sent(links), _next_uid()
            sent = [{key: count - old.get(key, 0)
                     for key, count in new.items() if count != old.get(key, 0)}
                    for old, new in zip(before[0], after[0])]
            moved.append((sent, after[1] - before[1]))
        assert moved[0] == moved[1]

    def state(self, bridge):
        return (
            [(index, mac._value, deadline)
             for index, (mac, deadline) in bridge._neighbor.items()],
            sorted((value, record[0].index, record[1], record[2]._value)
                   for value, record in bridge._local_hosts.items()),
            [(origin._value, lsp, received)
             for origin, (lsp, received) in bridge._lsdb.items()],
            bridge._own_seq, bridge._hello_seq, self._counters(bridge))

    def check(self):
        assert self.state(self.sides[0][0]) == self.state(self.sides[1][0])

    # -- steps ---------------------------------------------------------------

    def hello(self, port, neighbor):
        origin = NEIGHBORS[neighbor]
        self.both(lambda bridge, _links: bridge.handle_frame(
            bridge.ports[port], EthernetFrame(
                SPB_MULTICAST, origin, ETHERTYPE_LSP,
                SpbHello(origin=origin, seq=1))))

    def lsp(self, port, origin, adjacencies, hosts, fresh=True):
        mac = NEIGHBORS[origin]
        if fresh:
            self.lsp_seq[mac._value] += 1
        packet = LinkStatePacket(
            origin=mac, seq=self.lsp_seq[mac._value],
            adjacencies=tuple(Adjacency(neighbor=neighbor)
                              for neighbor in sorted(
                                  adjacencies, key=lambda m: m._value)),
            hosts=tuple(sorted(hosts, key=lambda m: m._value)))
        self.both(lambda bridge, _links: bridge.handle_frame(
            bridge.ports[port], EthernetFrame(
                SPB_MULTICAST, mac, ETHERTYPE_LSP, packet)))

    def data(self, port, src, dst, kind):
        if kind == "unicast":
            frame = EthernetFrame(dst, src, ETHERTYPE_IPV4, b"x")
        elif kind == "broadcast":
            frame = EthernetFrame(BROADCAST, src, ETHERTYPE_IPV4, b"x")
        else:
            frame = EthernetFrame(
                BROADCAST, src, ETHERTYPE_ARP,
                make_request(src, IPv4Address(1), IPv4Address(2)))
        self.both(lambda bridge, _links: bridge.handle_frame(
            bridge.ports[port], frame))

    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    def tick(self):
        self.both(lambda bridge, _links: bridge._on_hello_tick())

    def carrier(self, port):
        def flip(_bridge, links):
            link = links[port]
            if link.up:
                link.take_down()
            else:
                link.bring_up()
            self.sim.run(until=self.sim.now)
        self.both(flip)

    def reset(self):
        self.both(lambda bridge, _links: bridge.reset_state())

    def converge(self):
        """Hellos on the wired ports and an LSP from each neighbour: N1
        advertises H1, N2 advertises H2 and reaches N3, which advertises
        H3."""
        for port in range(3):
            self.hello(port, 0 if port < 2 else 1)
        n1, n2, n3 = NEIGHBORS
        self.lsp(0, 0, {BRIDGE_MAC}, {HOSTS[1]})
        self.lsp(2, 1, {BRIDGE_MAC, n3}, {HOSTS[2]})
        self.lsp(2, 2, {n2}, {HOSTS[3]})
        self.check()


ports = st.sampled_from(range(PORTS))
neighbors = st.sampled_from(range(len(NEIGHBORS)))
hosts = st.sampled_from(HOSTS[:4])
adjacency_sets = st.sets(st.sampled_from(NEIGHBORS)).map(
    lambda macs: macs | {BRIDGE_MAC}) | st.sets(st.sampled_from(NEIGHBORS))
host_sets = st.sets(hosts, max_size=2)


class SpbForwardingStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pair = Pair()
        self.pair.converge()

    @rule(port=st.sampled_from(range(3)))
    def hello(self, port):
        """A hello from the neighbour wired there: N1 on ports 0 and 1,
        N2 on port 2."""
        self.pair.hello(port, 0 if port < 2 else 1)

    @rule(port=ports, neighbor=neighbors)
    def stray_hello(self, port, neighbor):
        self.pair.hello(port, neighbor)

    @rule(port=ports, origin=neighbors, adjacencies=adjacency_sets,
          advertised=host_sets, fresh=st.booleans())
    def lsp(self, port, origin, adjacencies, advertised, fresh):
        self.pair.lsp(port, origin, adjacencies - {NEIGHBORS[origin]},
                      advertised, fresh)

    @rule(port=ports, src=hosts, dst=hosts,
          kind=st.sampled_from(["unicast", "broadcast", "arp"]))
    def data(self, port, src, dst, kind):
        self.pair.data(port, src, dst, kind)

    @rule(port=ports)
    def probe(self, port):
        """A unicast to every host and a broadcast from every host,
        heard on *port*: what each installed entry does now."""
        for host in HOSTS[:4]:
            self.pair.data(port, HOSTS[4], host, "unicast")
            self.pair.data(port, host, host, "broadcast")

    @rule(dt=steps)
    def advance(self, dt):
        self.pair.advance(dt)

    @rule()
    def tick(self):
        self.pair.tick()

    @rule(port=ports)
    def carrier(self, port):
        self.pair.carrier(port)

    @rule(reconverge=st.booleans())
    def reset(self, reconverge):
        self.pair.reset()
        if reconverge:
            self.pair.converge()

    @invariant()
    def same_state(self):
        self.pair.check()


SpbForwardingStateMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None)
TestSpbForwardingState = SpbForwardingStateMachine.TestCase


# -- the cases an installed table must not get wrong -------------------------

def _two_links_to_n1():
    """The converged pair: N1 on ports 0 and 1, advertising host H1."""
    pair = Pair()
    pair.converge()
    return pair


def _out_ports(pair, frame_port, src, dst):
    """The bridge-side ports a unicast from *src* to *dst* left on."""
    links = pair.sides[0][1]
    before = pair._sent(links)
    pair.data(frame_port, src, dst, "unicast")
    after = pair._sent(links)
    return [index for index, (old, new) in enumerate(zip(before, after))
            if new.get(ETHERTYPE_IPV4, 0) != old.get(ETHERTYPE_IPV4, 0)]


def test_a_revived_first_link_wins_again_without_a_version_bump():
    pair = _two_links_to_n1()
    assert _out_ports(pair, 3, HOSTS[0], HOSTS[1]) == [0]
    pair.advance(HOLD + 0.1)                  # both hellos lapse ...
    version = pair.bridge._version
    pair.hello(1, 0)                          # ... port 1's comes back
    assert pair.bridge._version == version    # a refresh bumps nothing
    assert _out_ports(pair, 3, HOSTS[0], HOSTS[1]) == [1]
    pair.hello(0, 0)                          # port 0 revives, no bump
    assert pair.bridge._version == version
    assert _out_ports(pair, 3, HOSTS[0], HOSTS[1]) == [0]
    pair.check()


def test_a_lapsed_local_host_falls_back_to_the_lsdb():
    pair = _two_links_to_n1()
    pair.data(3, HOSTS[2], HOSTS[0], "unicast")       # H2 is local
    assert _out_ports(pair, 0, HOSTS[1], HOSTS[2]) == [3]
    assert _out_ports(pair, 3, HOSTS[0], HOSTS[1]) == [0]
    # N1 advertises H2 too: host-only, so no tree is recomputed.
    runs = pair.bridge.spb_counters.spf_runs
    pair.lsp(0, 0, {BRIDGE_MAC}, {HOSTS[1], HOSTS[2]})
    assert _out_ports(pair, 3, HOSTS[0], HOSTS[1]) == [0]
    assert pair.bridge.spb_counters.spf_runs == runs
    pair.hello(0, 0)
    pair.hello(1, 0)
    pair.advance(HOST_AGING + 0.1)            # H2 lapses, no version bump
    version = pair.bridge._version
    assert _out_ports(pair, 0, HOSTS[1], HOSTS[2]) == []  # own LSP first
    assert pair.bridge._version == version
    pair.check()


def test_a_host_only_lsp_moves_a_host_without_an_spf_run():
    pair = _two_links_to_n1()
    assert _out_ports(pair, 3, HOSTS[0], HOSTS[1]) == [0]
    runs = pair.bridge.spb_counters.spf_runs
    pair.lsp(0, 0, {BRIDGE_MAC}, set())                 # N1 drops H1 ...
    pair.lsp(2, 1, {BRIDGE_MAC, NEIGHBORS[2]}, {HOSTS[1], HOSTS[2]})
    assert _out_ports(pair, 3, HOSTS[0], HOSTS[1]) == [2]   # ... N2 has it
    assert pair.bridge.spb_counters.spf_runs == runs
    pair.check()


def test_floods_build_frames_in_order_with_a_link_down():
    pair = _two_links_to_n1()
    pair.hello(2, 1)
    pair.carrier(1)
    pair.tick()
    pair.lsp(2, 1, {BRIDGE_MAC}, {HOSTS[3]})
    pair.carrier(1)
    pair.reset()
    pair.hello(0, 0)
    pair.check()
