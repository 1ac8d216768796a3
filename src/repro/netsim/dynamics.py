"""Scripted network dynamics: the churn event timeline.

A one-shot cable pull is a single scheduled ``Link.take_down``
(``sim.at(t, link.take_down)``, as the ablations' repair scenario
does); this module models *sustained churn* — the regime where resilience
architectures are actually stress-tested: links flapping, bridges
crashing and power-cycling back with empty tables, hosts migrating
between edge bridges.

An :class:`EventTimeline` is a deterministic, pre-computed schedule of
:class:`ChurnEvent` items against one network:

* **Deterministic by construction.** Every random draw happens at
  *generation* time from a caller-seeded :class:`random.Random`
  (:meth:`EventTimeline.random_churn`); execution merely dispatches the
  pre-computed list. Two timelines built with the same seed over the
  same network are identical, and a timeline's effect depends only on
  the cell that built it — which is what keeps ``sweep --jobs N``
  byte-identical at any jobs level.
* **Wheel-driven.** :meth:`EventTimeline.arm` files every event on the
  engine's :class:`~repro.netsim.engine.TimerWheel`
  (``sim.schedule_timer``) — churn events are exactly the
  short-deadline, bulk-scheduled timers the wheel exists for.
* **Aging stays in the store.** Dispatch never sweeps or expires table
  entries; reclamation remains the :class:`~repro.netsim.aging
  .AgingStore`'s job (the shared-aging invariant). The only state wipes
  are the explicit power-cycle semantics of
  :meth:`~repro.topology.builder.Network.restart_bridge`.

The timeline drives the network through the dynamics primitives on
:class:`~repro.topology.builder.Network` (``crash_bridge``,
``restart_bridge``, ``migrate_host``) and the links' carrier control,
so every future dynamic workload (mobility, maintenance windows,
rolling upgrades) can reuse the same abstraction with a different
generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.netsim.errors import SchedulingError, TopologyError

if TYPE_CHECKING:
    from repro.topology.builder import Network

#: Event kinds understood by the dispatcher.
LINK_DOWN = "link_down"
LINK_UP = "link_up"
BRIDGE_CRASH = "bridge_crash"
BRIDGE_RESTART = "bridge_restart"
HOST_MIGRATE = "host_migrate"

_KINDS = (LINK_DOWN, LINK_UP, BRIDGE_CRASH, BRIDGE_RESTART, HOST_MIGRATE)


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled dynamics action.

    *target* names a link (``link_*``), bridge (``bridge_*``) or host
    (``host_migrate``); *arg* carries the migration's destination
    bridge. *time* is absolute simulation time.
    """

    time: float
    kind: str
    target: str
    arg: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown churn event kind {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"negative event time: {self.time}")


@dataclass(frozen=True)
class ExecutedEvent:
    """A dispatched event with the time it actually ran."""

    time: float
    kind: str
    target: str
    arg: Optional[str] = None


class EventTimeline:
    """A deterministic schedule of churn events against one network."""

    def __init__(self, net: "Network"):
        self.net = net
        self.events: List[ChurnEvent] = []
        self.executed: List[ExecutedEvent] = []
        #: Dispatched-action counts by category.
        self.counts: Dict[str, int] = {"flaps": 0, "crashes": 0,
                                       "restarts": 0, "migrations": 0}
        #: Links a crash took down, restored by the matching restart.
        self._crashed_links: Dict[str, set] = {}
        #: Outstanding crash count per bridge; overlapping outages of
        #: one bridge restart it once, when the last outage ends.
        self._crash_depth: Dict[str, int] = {}
        #: Outstanding flap-down windows per link; overlapping flaps of
        #: one link restore carrier once, when the last window ends.
        self._link_depth: Dict[str, int] = {}
        self._armed = False

    # -- scripting ---------------------------------------------------------

    def add(self, event: ChurnEvent) -> ChurnEvent:
        """Append one event (call before :meth:`arm`)."""
        if self._armed:
            raise SchedulingError("timeline already armed")
        self.events.append(event)
        return event

    def add_flap(self, link: str, at: float, down_for: float) -> None:
        """Link loses carrier at *at* and regains it *down_for* later."""
        if down_for <= 0:
            raise SchedulingError(f"down_for must be positive: {down_for}")
        self.add(ChurnEvent(at, LINK_DOWN, link))
        self.add(ChurnEvent(at + down_for, LINK_UP, link))

    def add_bridge_outage(self, bridge: str, at: float,
                          down_for: float) -> None:
        """Bridge crashes at *at* and power-cycles back *down_for* later
        with all dynamic state wiped."""
        if down_for <= 0:
            raise SchedulingError(f"down_for must be positive: {down_for}")
        self.add(ChurnEvent(at, BRIDGE_CRASH, bridge))
        self.add(ChurnEvent(at + down_for, BRIDGE_RESTART, bridge))

    def add_migration(self, host: str, at: float, to_bridge: str) -> None:
        """Host detaches and reattaches at *to_bridge* at time *at*."""
        self.add(ChurnEvent(at, HOST_MIGRATE, host, arg=to_bridge))

    def random_churn(self, seed: int, start: float, duration: float,
                     flap_rate: float = 0.0, mean_down_time: float = 0.5,
                     crashes: int = 0, migrations: int = 0,
                     links: Optional[Sequence[str]] = None,
                     bridges: Optional[Sequence[str]] = None,
                     hosts: Optional[Sequence[str]] = None) -> int:
        """Generate a Poisson flap train plus scheduled outages/migrations.

        Flaps arrive at *flap_rate* per second over ``[start,
        start+duration)`` with exponentially distributed down times of
        mean *mean_down_time*; each hits a uniformly chosen fabric link
        (or one of *links*). *crashes* bridge outages and *migrations*
        host moves are placed at evenly spaced instants through the
        window, targets drawn from the same RNG. All draws come from a
        fresh ``random.Random(seed)``, so the schedule is a pure
        function of the arguments. Returns the number of events added.
        """
        if duration <= 0:
            raise SchedulingError(f"duration must be positive: {duration}")
        if flap_rate < 0:
            raise SchedulingError(f"negative flap rate: {flap_rate}")
        if mean_down_time <= 0 and (flap_rate > 0 or crashes > 0):
            raise SchedulingError(
                f"mean_down_time must be positive: {mean_down_time}")
        rng = random.Random(seed)
        before = len(self.events)
        flap_links = list(links) if links is not None \
            else sorted(wire.name for wire in self.net.fabric_links())
        if flap_rate > 0 and flap_links:
            at = start + rng.expovariate(flap_rate)
            while at < start + duration:
                down = rng.expovariate(1.0 / mean_down_time)
                self.add_flap(rng.choice(flap_links), at, down)
                at += rng.expovariate(flap_rate)
        crash_bridges = list(bridges) if bridges is not None \
            else sorted(self.net.bridges)
        if crashes > 0 and not crash_bridges:
            raise TopologyError("no bridges to crash")
        for index in range(crashes):
            slot = start + duration * (index + 0.5) / crashes
            down = rng.expovariate(1.0 / mean_down_time) + mean_down_time
            self.add_bridge_outage(rng.choice(crash_bridges), slot, down)
        move_hosts = list(hosts) if hosts is not None \
            else sorted(self.net.hosts)
        if migrations > 0 and not move_hosts:
            raise TopologyError("no hosts to migrate")
        location = {name: self.net.bridge_for_host(name).name
                    for name in move_hosts}
        all_bridges = sorted(self.net.bridges)
        for index in range(migrations):
            slot = start + duration * (index + 0.5) / migrations
            host = rng.choice(move_hosts)
            choices = [b for b in all_bridges if b != location[host]]
            if not choices:
                raise TopologyError("need at least two bridges to migrate")
            dest = rng.choice(choices)
            self.add_migration(host, slot, dest)
            location[host] = dest
        return len(self.events) - before

    def hold_down(self, link_name: str) -> None:
        """Take a link down *now* and pin it down.

        For scripted permanent cuts (e.g. fig3-style active-path
        failures) running alongside random churn: the pin joins the
        link's flap-depth accounting, so an overlapping flap window
        ending later will not restore carrier. Callable during the run
        (unlike :meth:`add`, which pre-schedules)."""
        self._link_depth[link_name] = \
            self._link_depth.get(link_name, 0) + 1
        self.net.links[link_name].take_down()

    # -- execution ---------------------------------------------------------

    def arm(self) -> int:
        """File every scripted event on the engine's timer wheel.

        Events keep global (time, priority, seq) order — within one
        instant they fire in scripting order. Returns the number armed.
        """
        if self._armed:
            raise SchedulingError("timeline already armed")
        self._armed = True
        sim = self.net.sim
        now = sim.now
        for event in sorted(self.events, key=lambda e: e.time):
            if event.time < now:
                raise SchedulingError(
                    f"event at {event.time} is in the past (now {now})")
            sim.schedule_timer(event.time - now, self._fire, event)
        return len(self.events)

    def _crashed_owner(self, link_name: str) -> Optional[str]:
        """The crashed bridge a link touches, if any."""
        wire = self.net.links.get(link_name)
        if wire is None:
            return None
        for node in (wire.port_a.node, wire.port_b.node):
            if self._crash_depth.get(node.name, 0) > 0:
                return node.name
        return None

    def _fire(self, event: ChurnEvent) -> None:
        kind = event.kind
        net = self.net
        if kind == LINK_DOWN:
            wire = net.links.get(event.target)
            if wire is None:
                return  # link unregistered since scheduling (migration)
            self._link_depth[event.target] = \
                self._link_depth.get(event.target, 0) + 1
            wire.take_down()
            self.counts["flaps"] += 1
        elif kind == LINK_UP:
            if event.target not in net.links:
                return  # link unregistered since scheduling (migration)
            depth = max(self._link_depth.get(event.target, 1) - 1, 0)
            self._link_depth[event.target] = depth
            owner = self._crashed_owner(event.target)
            if depth > 0:
                # Still inside an earlier, longer flap window: carrier
                # returns when the last overlapping window ends.
                pass
            elif owner is not None:
                # The link touches a dead bridge: restoring carrier now
                # would let the crash's stale state forward frames.
                # Defer to the bridge's restart instead.
                self._crashed_links[owner].add(event.target)
            else:
                net.links[event.target].bring_up()
        elif kind == BRIDGE_CRASH:
            affected = net.crash_bridge(event.target)
            self._crash_depth[event.target] = \
                self._crash_depth.get(event.target, 0) + 1
            self._crashed_links.setdefault(event.target,
                                           set()).update(affected)
            self.counts["crashes"] += 1
        elif kind == BRIDGE_RESTART:
            depth = max(self._crash_depth.get(event.target, 1) - 1, 0)
            self._crash_depth[event.target] = depth
            if depth <= 0:
                links = self._crashed_links.pop(event.target, None)
                if links is None:
                    # Unpaired scripted restart: restore the bridge's
                    # own links, subject to the same deferrals.
                    bridge = net.bridge(event.target)
                    links = {name for name, wire in net.links.items()
                             if wire.port_a.node is bridge
                             or wire.port_b.node is bridge}
                # A link whose other end is still crashed stays down
                # (that bridge's restart restores it), as does one
                # inside an open flap window or pinned by hold_down
                # (its final LINK_UP, if any, restores it).
                deferred = set()
                for name in links:
                    owner = self._crashed_owner(name)
                    if owner is not None:
                        self._crashed_links[owner].add(name)
                        deferred.add(name)
                    elif self._link_depth.get(name, 0) > 0:
                        deferred.add(name)
                net.restart_bridge(event.target,
                                   links=sorted(links - deferred))
                self.counts["restarts"] += 1
        elif kind == HOST_MIGRATE:
            wire = net.migrate_host(event.target, event.arg)
            if self._crash_depth.get(event.arg, 0) > 0:
                # Cable plugged into a powered-off switch: no carrier
                # until the bridge's restart restores it.
                wire.take_down()
                self._crashed_links[event.arg].add(wire.name)
            self.counts["migrations"] += 1
        self.executed.append(ExecutedEvent(time=net.sim.now, kind=kind,
                                           target=event.target,
                                           arg=event.arg))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (f"<EventTimeline events={len(self.events)} "
                f"executed={len(self.executed)}>")
