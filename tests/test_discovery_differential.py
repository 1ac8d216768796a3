"""Differential test of the ARP-Path broadcast race rules (paper §2.1.1
and §2.1.3).

``ArpPathBridge._accept_discovery`` probes the lock store once and
decides a copy on a live lock in its own frame — a loser on another
port — calling into the table only to reap an expired lock or to lock.
The table's own model test (``tests/test_table_model.py``) drives the
table's methods, so it cannot see that inlined verdict. Here Hypothesis
feeds one bridge discovery copies (ARP Requests and repair
PathRequests from random sources on random ports, and copies of the
bridge's own floods and PathRequests), non-discovery broadcasts, clock steps that end
races, unicast confirms that turn LOCKED paths LEARNT, and PathFails
and carrier losses that erase paths; and it applies the same sequence
to a twin :class:`LockedAddressTable` through ``race`` / ``get`` /
``lock`` / ``guard``, the rules read as two records, a path and a
lock. After every step both tables must hold the same paths
(``port``, ``state``, ``expires``, ``filed``), the same locks
(``port``, ``expires``, ``path``, ``filed``) and the same counters,
and the bridge must have given each copy the reference's verdict:
flooded, filtered or dropped as its own.
"""

from dataclasses import asdict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.bridge import ArpPathBridge
from repro.core.config import ArpPathConfig
from repro.core.table import LockedAddressTable
from repro.frames import arp as arp_proto
from repro.frames import control as ctl_proto
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_ARPPATH,
                                   ETHERTYPE_IPV4, EthernetFrame)
from repro.frames.ipv4 import IPv4Address
from repro.frames.mac import BROADCAST, MAC
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Node

LOCK, LEARNT, GUARD = 1.0, 4.0, 0.5
CONFIG = ArpPathConfig(lock_timeout=LOCK, learnt_timeout=LEARNT,
                       guard_timeout=GUARD, hello_enabled=False,
                       repair_enabled=False)
BRIDGE_MAC = MAC(0x02_00_00_00_01_00)
#: A PathRequest's target: never in the table, so a winning copy floods.
TARGET = MAC(0x02_00_00_00_02_00)
#: Another bridge, the origin of PathRequests we did not send.
PEER_MAC = MAC(0x02_00_00_00_03_00)
VALUES = [0x02_00_00_00_00_00 | i for i in range(4)]

#: A source may also be the bridge itself (its own flood coming back).
sources = st.sampled_from(range(len(VALUES) + 1))
hosts = st.sampled_from(range(len(VALUES)))
port_indexes = st.sampled_from(range(3))
#: Steps that land inside and on the race window and the timeouts, and
#: between and on the 0.25 s reclaim boundaries, so copies meet live,
#: expired-unreclaimed and reclaimed entries, and races that ended.
steps = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 1.0, 1.05, 3.9, 4.1])


class Sink(Node):
    """A neighbour that drops whatever it receives."""

    def handle_frame(self, port, frame):
        pass


def reference_accept(table, port, src, now):
    """The discovery rule: True when the copy won."""
    lock = table.race(src, now)
    if lock is not None and lock.port is not port:
        return False
    table.lock(src, port, now)
    return True


def reference_broadcast(table, port, src, now):
    """The §2.1.3 rule: True when the copy is flooded."""
    accept = table.race(src, now) or table.get(src, now)
    if accept is not None and accept.port is not port:
        return False
    table.guard(src, port, now)
    return True


def discovery_copy(src, path_request, origin=PEER_MAC):
    """One copy of a discovery broadcast from *src*."""
    if path_request:
        payload = ctl_proto.make_path_request(origin, src, TARGET,
                                              seq=1, ttl=8)
        return EthernetFrame(BROADCAST, src, ETHERTYPE_ARPPATH, payload)
    payload = arp_proto.make_request(src, IPv4Address(0x0A000001),
                                     IPv4Address(0x0A000002))
    return EthernetFrame(BROADCAST, src, ETHERTYPE_ARP, payload)


def rows(table):
    paths = {key: (entry.port, entry.state, entry.expires, entry.filed)
             for key, entry in table._entries.entries.items()}
    locks = {key: (lock.port, lock.expires, lock.path, lock.filed)
             for key, lock in table._locks.entries.items()}
    return paths, locks


class DiscoveryRaceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=0)
        self.bridge = ArpPathBridge(self.sim, "B", BRIDGE_MAC, CONFIG)
        for index in range(3):
            sink = Sink(self.sim, f"S{index}")
            Link(self.sim, self.bridge.add_port(), sink.add_port())
        self.twin = LockedAddressTable(LOCK, LEARNT, GUARD, sim=self.sim)

    @rule(source=sources, ingress=port_indexes, path_request=st.booleans(),
          ours=st.booleans())
    def discovery(self, source, ingress, path_request, ours):
        """*ours*: a PathRequest this bridge originated came back; it
        loses whatever the lock says."""
        bridge, now = self.bridge, self.sim.now
        port = bridge.ports[ingress]
        own = source == len(VALUES)
        src = BRIDGE_MAC if own else MAC(VALUES[source])
        ours = ours and path_request
        if own:
            expected = "own"
        elif ours:
            expected = "filtered"
        elif reference_accept(self.twin, port, src, now):
            expected = "flooded"
        else:
            expected = "filtered"
        counters, apc = bridge.counters, bridge.apc
        before = (counters.flooded_frames, counters.filtered,
                  apc.discovery_filtered, counters.received)
        bridge.handle_frame(port, discovery_copy(
            src, path_request, BRIDGE_MAC if ours else PEER_MAC))
        outcome = (counters.flooded_frames - before[0],
                   counters.filtered - before[1],
                   apc.discovery_filtered - before[2])
        assert counters.received == before[3] + 1
        assert outcome == {"own": (0, 0, 0), "flooded": (1, 0, 0),
                           "filtered": (0, 1, 1)}[expected]

    @rule(value=hosts, ingress=port_indexes)
    def broadcast(self, value, ingress):
        """A non-discovery broadcast: accepted on the lock's port, else
        the path's, and it arms or extends the lock there."""
        bridge, now = self.bridge, self.sim.now
        port, src = bridge.ports[ingress], MAC(VALUES[value])
        flooded = reference_broadcast(self.twin, port, src, now)
        counters, apc = bridge.counters, bridge.apc
        before = (counters.flooded_frames, apc.broadcast_guard_filtered)
        bridge.handle_frame(port, EthernetFrame(BROADCAST, src,
                                                ETHERTYPE_IPV4, b"x"))
        assert (counters.flooded_frames - before[0],
                apc.broadcast_guard_filtered - before[1]) \
            == ((1, 0) if flooded else (0, 1))

    @rule(value=hosts)
    def confirm(self, value):
        """A unicast reply confirmed the path: it turns LEARNT, and the
        lock outlives the confirmation."""
        mac, now = MAC(VALUES[value]), self.sim.now
        self.bridge.table.confirm(mac, now)
        self.twin.confirm(mac, now)

    @rule(value=hosts)
    def path_fail(self, value):
        """A PathFail erased the path; the race runs on."""
        self.bridge.table.remove(MAC(VALUES[value]))
        self.twin.remove(MAC(VALUES[value]))

    @rule(index=port_indexes)
    def carrier_lost(self, index):
        """Carrier loss erased the port's paths; its races run on."""
        self.bridge.table.flush_port(self.bridge.ports[index])
        self.twin.flush_port(self.bridge.ports[index])

    @rule(dt=steps)
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @invariant()
    def same_tables(self):
        assert rows(self.bridge.table) == rows(self.twin)
        assert asdict(self.bridge.table.counters) == asdict(
            self.twin.counters)


DiscoveryRaceMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=50, deadline=None)
TestDiscoveryRace = DiscoveryRaceMachine.TestCase
