"""The invariant that lets an STP refresh skip ``_recompute``.

``StpBridge._handle_config`` recomputes on change, not on receipt: a
hello carrying the vector a port already holds is stored and relayed
but elects nothing. That is sound iff (a) ``_recompute`` is a pure
function of what a refresh leaves alone and (b) the bridge sits at
``_recompute``'s fixpoint between events, i.e. every writer of its
inputs already ran it. Both halves are checked here over random
histories of a small network:

* after every engine event and every step, calling ``_recompute()``
  again on any bridge changes no root, cost, root port, role or state,
  sends nothing and schedules nothing;
* a twin network of bridges that recompute on *every* stored BPDU (the
  behaviour before the skip) stays identical — every bridge's
  ``tree_summary()``, every counter, every tracer tally, the event
  count.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.netsim.engine import Simulator
from repro.netsim.tracer import SENT
from repro.stp import DEFAULT_BRIDGE_PRIORITY, StpBridge, StpTimers
from repro.topology import grid, netfpga_demo, ring

TIMERS = StpTimers().scaled(0.1)     # hello 0.2 s, max age 2 s, delay 1.5 s

FIXPOINT_SETTINGS = settings(max_examples=40, stateful_step_count=25,
                             deadline=None)


class RecomputesOnEveryStore(StpBridge):
    """The reference: a full configuration update per stored BPDU."""

    def _store(self, info, bpdu):
        super()._store(info, bpdu)
        old_root = self.root_id
        self._recompute()
        if self.root_id != old_root:
            self.stp_counters.root_changes += 1


def _factory(cls, favoured):
    """*favoured* is the creation index of the one bridge built with a
    lower priority (the root-to-be); an index past the last bridge
    leaves every priority at the default, so the lowest MAC wins."""
    built = itertools.count()

    def build(sim, name, mac):
        priority = 0x1000 if next(built) == favoured \
            else DEFAULT_BRIDGE_PRIORITY
        return cls(sim, name, mac, priority=priority, timers=TIMERS)
    return build


WIRINGS = {
    "ring": lambda sim, factory: ring(sim, factory, 4),
    "grid": lambda sim, factory: grid(sim, factory, 2, 3),
    "demo": netfpga_demo,
}


def _election(bridge):
    return (bridge.root_id, bridge.root_cost, bridge.root_port,
            [(info.role, info.state, info.can_learn, info.can_forward)
             for info in bridge._port_info.values()])


def _counters(bridge):
    tally = dict(vars(bridge.stp_counters))
    del tally["recomputes"]          # the one number meant to differ
    return tally


def _assert_at_fixpoint(net):
    sim = net.sim
    for bridge in net.bridges.values():
        before = (_election(bridge), _counters(bridge),
                  sim.pending_events, sim.tracer.count(SENT))
        bridge._recompute()
        after = (_election(bridge), _counters(bridge),
                 sim.pending_events, sim.tracer.count(SENT))
        assert after == before, (bridge.name, sim.now)


class StpFixpointMachine(RuleBasedStateMachine):
    @initialize(wiring=st.sampled_from(sorted(WIRINGS)),
                favoured=st.integers(0, 5))
    def build(self, wiring, favoured):
        self.nets = []
        for cls in (StpBridge, RecomputesOnEveryStore):
            net = WIRINGS[wiring](Simulator(seed=1), _factory(cls, favoured))
            net.start()
            self.nets.append(net)
        self.fabric = sorted(w.name for w in self.nets[0].fabric_links())
        self.names = sorted(self.nets[0].bridges)
        self.hosts = sorted(self.nets[0].hosts)
        self.crashed = None          # (bridge name, links it took down)

    # -- rules: the same step on both networks -----------------------------

    @rule(dt=st.sampled_from([0.05, 0.2, 0.7, 2.1, 5.0]))
    def run(self, dt):
        """One engine event at a time: "between events" is literal."""
        for net in self.nets:
            sim, until = net.sim, net.sim.now + dt
            fired = -1
            while sim.events_processed != fired:
                fired = sim.events_processed
                sim.run(until=until, max_events=1)
                _assert_at_fixpoint(net)

    @rule(index=st.integers(0, 7))
    def cut(self, index):
        name = self.fabric[index % len(self.fabric)]
        for net in self.nets:
            if net.links[name].up:
                net.links[name].take_down()

    @rule(index=st.integers(0, 7))
    def restore(self, index):
        name = self.fabric[index % len(self.fabric)]
        if self.crashed is not None and name in self.crashed[1]:
            return                   # comes back with its bridge
        for net in self.nets:
            if not net.links[name].up:
                net.links[name].bring_up()

    @precondition(lambda self: self.crashed is None)
    @rule(index=st.integers(0, 5))
    def crash(self, index):
        name = self.names[index % len(self.names)]
        for net in self.nets:
            self.crashed = (name, net.crash_bridge(name))

    @precondition(lambda self: self.crashed is not None)
    @rule()
    def restart(self):
        name, links = self.crashed
        for net in self.nets:
            net.restart_bridge(name, links=links)
        self.crashed = None

    @rule(src=st.integers(0, 3), dst=st.integers(0, 3))
    def ping(self, src, dst):
        """Data frames meet the port-state gate on both networks."""
        src = self.hosts[src % len(self.hosts)]
        dst = self.hosts[dst % len(self.hosts)]
        if src != dst:
            for net in self.nets:
                net.host(src).ping(net.host(dst).ip)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def every_bridge_sits_at_the_fixpoint(self):
        for net in self.nets:
            _assert_at_fixpoint(net)

    @invariant()
    def skipping_is_indistinguishable_from_recomputing(self):
        skips, always = self.nets
        assert skips.sim.now == always.sim.now
        assert skips.sim.events_processed == always.sim.events_processed
        assert skips.sim.tracer.by_ethertype == always.sim.tracer.by_ethertype
        for name in self.names:
            ours, reference = skips.bridge(name), always.bridge(name)
            assert ours.tree_summary() == reference.tree_summary()
            assert _counters(ours) == _counters(reference), name
            assert ours.stp_counters.recomputes \
                <= reference.stp_counters.recomputes


TestStpFixpoint = StpFixpointMachine.TestCase
TestStpFixpoint.settings = FIXPOINT_SETTINGS
