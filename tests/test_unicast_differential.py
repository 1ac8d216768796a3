"""Differential test of the ARP-Path unicast hit path.

``ArpPathBridge.on_unicast`` refreshes a live LEARNT source entry and a
live LEARNT destination entry by one slot write each in its own frame,
calling into the table only to learn a new, expired or moved source,
to reap an expired destination or to confirm a LOCKED one (the lock
of a won discovery race). The table's own model test
(``tests/test_table_model.py``) drives the table's methods, so it
cannot see that inlined path. Here Hypothesis feeds one bridge a
sequence of unicast frames, table locks, clock steps, PathFails and
carrier changes, and applies the same sequence to a twin
:class:`LockedAddressTable` through ``learn`` / ``get`` /
``confirm_entry``. After every step both tables must hold the same
paths (``port``, ``state``, ``expires``, ``filed``), the same locks
(``port``, ``expires``, ``path``, ``filed``) and the same counters, and
the bridge must have done with the frame what the reference did:
forwarded it out of the same port, filtered it, missed or kept it.
"""

from dataclasses import asdict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.bridge import ArpPathBridge
from repro.core.config import ArpPathConfig
from repro.core.table import LockedAddressTable
from repro.frames.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.frames.mac import MAC
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Node

LOCK, LEARNT, GUARD = 1.0, 4.0, 0.5
CONFIG = ArpPathConfig(lock_timeout=LOCK, learnt_timeout=LEARNT,
                       guard_timeout=GUARD, hello_enabled=False,
                       repair_enabled=False)
BRIDGE_MAC = MAC(0x02_00_00_00_01_00)
VALUES = [0x02_00_00_00_00_00 | i for i in range(4)]

hosts = st.sampled_from(range(len(VALUES)))
#: A destination may also be the bridge itself (the frame stops there).
destinations = st.sampled_from(range(len(VALUES) + 1))
port_indexes = st.sampled_from(range(3))
#: Steps that land between and on the 0.25 s reclaim boundaries and
#: straddle both timeouts, so lookups meet expired entries that no
#: bucket has reclaimed yet as well as reclaimed ones.
steps = st.sampled_from([0.0, 0.1, 0.3, 0.9, 1.0, 1.05, 3.9, 4.0, 4.1])


class Sink(Node):
    """A neighbour that drops whatever it receives."""

    def handle_frame(self, port, frame):
        pass


def reference_unicast(table, port, frame, now):
    """The hook through the table's API: what the bridge does
    with *frame* on *port* — an out port, ``"filtered"``, ``"miss"`` or
    ``"own"`` — with the table writes it made."""
    table.learn(frame.src, port, now)
    if frame.dst._value == BRIDGE_MAC._value:
        return "own"
    entry = table.get(frame.dst, now)
    if entry is None or not entry.port.is_up:
        return "miss"
    if entry.port is port:
        return "filtered"
    table.confirm_entry(entry, now)
    return entry.port


def rows(table):
    paths = {key: (entry.port, entry.state, entry.expires, entry.filed)
             for key, entry in table._entries.entries.items()}
    locks = {key: (lock.port, lock.expires, lock.path, lock.filed)
             for key, lock in table._locks.entries.items()}
    return paths, locks


class UnicastHitPathMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=0)
        self.bridge = ArpPathBridge(self.sim, "B", BRIDGE_MAC, CONFIG)
        self.links = []
        for index in range(3):
            sink = Sink(self.sim, f"S{index}")
            self.links.append(Link(self.sim, self.bridge.add_port(),
                                   sink.add_port()))
        self.twin = LockedAddressTable(LOCK, LEARNT, GUARD, sim=self.sim)

    def _sent(self):
        """Frames handed to each bridge port's transmitter so far:
        sent, queued behind a busy one or tail-dropped."""
        return [sum(registers.sent + registers.drop_queue
                    for registers in direction.tallies.values())
                + len(direction.queue)
                for direction in (link._dirs[port] for port, link
                                  in zip(self.bridge.ports, self.links))]

    @rule(src=hosts, dst=destinations, ingress=port_indexes)
    def unicast(self, src, dst, ingress):
        bridge, now = self.bridge, self.sim.now
        port = bridge.ports[ingress]
        frame = EthernetFrame(
            BRIDGE_MAC if dst == len(VALUES) else MAC(VALUES[dst]),
            MAC(VALUES[src]), ETHERTYPE_IPV4, b"x")
        expected = reference_unicast(self.twin, port, frame, now)
        sent = self._sent()
        counters = (bridge.counters.forwarded, bridge.counters.filtered,
                    bridge.apc.unicast_misses)
        bridge.handle_frame(port, frame)
        moved = [after - before for before, after
                 in zip(sent, self._sent())]
        outcome = (bridge.counters.forwarded - counters[0],
                   bridge.counters.filtered - counters[1],
                   bridge.apc.unicast_misses - counters[2])
        if expected == "own":
            assert outcome == (0, 0, 0) and not any(moved)
        elif expected == "miss":
            assert outcome == (0, 0, 1) and not any(moved)
        elif expected == "filtered":
            assert outcome == (0, 1, 0) and not any(moved)
        else:
            assert outcome == (1, 0, 0)
            assert moved == [int(port is expected)
                             for port in bridge.ports]

    @rule(value=hosts, index=port_indexes)
    def lock(self, value, index):
        """A discovery race won on *index*: the LOCKED path a unicast
        later confirms to LEARNT."""
        mac, now = MAC(VALUES[value]), self.sim.now
        self.bridge.table.lock(mac, self.bridge.ports[index], now)
        self.twin.lock(mac, self.bridge.ports[index], now)

    @rule(value=hosts)
    def path_fail(self, value):
        """A PathFail erased the path; the lock stays."""
        self.bridge.table.remove(MAC(VALUES[value]))
        self.twin.remove(MAC(VALUES[value]))

    @rule(dt=steps)
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @rule(index=port_indexes)
    def flip_carrier(self, index):
        """A cable pull or its repair. On carrier loss the bridge
        flushes the port's paths, once the notification fires; a
        frame later learnt on the dead port makes a down out-link."""
        link = self.links[index]
        if link.up:
            link.take_down()
            self.sim.run(until=self.sim.now)
            self.twin.flush_port(self.bridge.ports[index])
        else:
            link.bring_up()
            self.sim.run(until=self.sim.now)

    @invariant()
    def same_tables(self):
        assert rows(self.bridge.table) == rows(self.twin)
        assert asdict(self.bridge.table.counters) == asdict(
            self.twin.counters)


UnicastHitPathMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=50, deadline=None)
TestUnicastHitPath = UnicastHitPathMachine.TestCase
