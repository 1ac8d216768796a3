"""The ARP-Path bridge — the paper's primary contribution.

An ARP-Path bridge (paper §2) is a transparent Ethernet bridge that
needs neither a spanning tree nor a link-state protocol:

* **Discovery** (§2.1.1): the first copy of a broadcast ARP Request from
  host S *locks* S's address to its ingress port; copies arriving later
  on other ports travelled slower paths and are discarded. The chain of
  locked ports is a temporary minimum-latency reverse path to S.
* **Confirmation** (§2.1.2): the unicast ARP Reply travels that reverse
  path and converts it into a long-lived LEARNT path, while its own
  source address establishes the forward direction. Paths are symmetric.
* **Loop-free broadcast** (§2.1.3): non-discovery broadcast/multicast
  frames are accepted from a given source only at the port where the
  first such frame arrived; they never create paths.
* **Path Repair** (§2.1.4): a unicast frame that misses the table (entry
  expired, link or bridge failed) triggers a PathFail back to the source
  edge bridge, which floods a PathRequest that races through the network
  like an ARP Request; the target's edge bridge answers with a PathReply
  carrying the target's own source address, re-creating the path.
* **ARP Proxy** (§2.2): optional broadcast suppression — the bridge
  answers ARP Requests from a snooped IP→MAC cache.

Port roles (bridge-facing vs host-facing) are discovered with periodic
link-local Hello frames, keeping the paper's zero-configuration claim;
static role assignment is also supported (the NetFPGA implementation
used static roles).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.core.config import ArpPathConfig, DEFAULT_CONFIG
from repro.core.proxy import ArpProxy
from repro.core.repair import RepairManager, RepairState
from repro.core.table import LEARNT, LockedAddressTable
from repro.frames import control as ctl_proto
from repro.frames.arp import ArpPacket
from repro.frames.control import ArpPathControl, HELLO_MULTICAST
from repro.frames.ethernet import (ETHERTYPE_ARP, ETHERTYPE_ARPPATH,
                                   EthernetFrame)
from repro.frames.mac import BROADCAST, MAC
from repro.netsim.engine import Simulator
from repro.netsim.node import Port
from repro.switching.base import (Bridge, BridgeFamily, FamilyOption,
                                  register_family)


@dataclass(slots=True)
class ArpPathCounters:
    """Protocol-level counters specific to the ARP-Path bridge.

    Slotted: several of these are bumped per delivered frame on the
    discovery hot path.
    """

    discovery_frames: int = 0
    discovery_filtered: int = 0
    broadcast_guard_filtered: int = 0
    unicast_misses: int = 0
    drops_no_repair: int = 0
    drops_buffer: int = 0
    proxy_suppressed: int = 0
    hellos_sent: int = 0
    hellos_received: int = 0
    path_requests_seen: int = 0
    path_replies_seen: int = 0
    path_fails_seen: int = 0
    ttl_drops: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class ArpPathBridge(Bridge):
    """A low-latency transparent bridge implementing ARP-Path.

    Parameters
    ----------
    sim:
        The discrete-event simulator the bridge lives in.
    name:
        Human-readable identifier (used in traces and reports).
    mac:
        The bridge's own MAC identity, used as the origin of control
        frames (never as a forwarding destination).
    config:
        Protocol knobs; see :class:`repro.core.config.ArpPathConfig`.
    """

    #: Control frames are ARP-Path control messages on their
    #: experimental ethertype; everything else takes the shared ladder.
    control_ethertypes = frozenset((ETHERTYPE_ARPPATH,))
    control_payload = ArpPathControl

    def __init__(self, sim: Simulator, name: str, mac: MAC,
                 config: ArpPathConfig = DEFAULT_CONFIG):
        super().__init__(sim, name, mac)
        self._own_src = mac._value  # our own floods die on arrival
        self.config = config
        self.table = LockedAddressTable(lock_timeout=config.lock_timeout,
                                        learnt_timeout=config.learnt_timeout,
                                        guard_timeout=config.guard_timeout,
                                        sim=sim)
        self.repair = RepairManager(buffer_size=config.repair_buffer_size,
                                    retry_budget=config.repair_retries)
        self.proxy: Optional[ArpProxy] = (
            ArpProxy(timeout=config.proxy_timeout)
            if config.proxy_enabled else None)
        self.apc = ArpPathCounters()
        #: Bridge MAC heard on each port index (hello neighbour cache).
        self.neighbors: Dict[int, MAC] = {}
        self._neighbor_until: Dict[int, float] = {}
        #: Static port roles (True = host-facing); overrides hellos.
        self._static_host_role: Dict[int, bool] = {}
        self._hello_seq = 0
        self._control_seq = 0
        self._hello_timer = None

    # -- port roles ------------------------------------------------------

    def mark_host_port(self, port: Port) -> None:
        """Statically declare *port* as host-facing (NetFPGA-style)."""
        self._static_host_role[port.index] = True

    def mark_bridge_port(self, port: Port) -> None:
        """Statically declare *port* as bridge-facing."""
        self._static_host_role[port.index] = False

    def is_bridge_port(self, port: Port) -> bool:
        """True when *port* is known to face another bridge."""
        static = self._static_host_role.get(port.index)
        if static is not None:
            return not static
        return self._neighbor_until.get(port.index, 0.0) > self.sim._now

    def is_host_port(self, port: Port) -> bool:
        """True when *port* is believed to face an end host.

        With hellos enabled, any attached port that has not heard a
        Hello recently is a host port (the zero-configuration rule).
        With hellos disabled and no static role the bridge cannot tell,
        and conservatively answers False.
        """
        static = self._static_host_role.get(port.index)
        if static is not None:
            return static
        if not self.config.hello_enabled:
            return False
        return port.is_attached and not self.is_bridge_port(port)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        super().start()
        if self.config.hello_enabled:
            self._send_hellos()
            self._hello_timer = self.sim.schedule_periodic(
                self.config.hello_interval, self._send_hellos)

    def stop(self) -> None:
        """Stop periodic processes (used when tearing a bridge down)."""
        if self._hello_timer is not None:
            self._hello_timer.stop()
            self._hello_timer = None

    def reset_state(self) -> None:
        """Power-cycle wipe: locked table, repairs, neighbours, proxy.

        The NetFPGA loses its whole locked table on reboot — paths
        through a restarted bridge must be re-discovered (or repaired)
        from scratch, which is exactly what churn experiments measure.
        """
        self.table.flush()
        self.apc.drops_buffer += self.repair.reset()
        self.neighbors.clear()
        self._neighbor_until.clear()
        if self.proxy is not None:
            self.proxy.clear()

    def _send_hellos(self) -> None:
        self._hello_seq += 1
        hello = ctl_proto.make_hello(self.mac, seq=self._hello_seq)
        # One frame per round: frames are immutable once sent, so every
        # port shares the template object (and its uid) exactly like a
        # flood — 1 allocation per round, 0 per port.
        frame = EthernetFrame(dst=HELLO_MULTICAST, src=self.mac,
                              ethertype=ETHERTYPE_ARPPATH, payload=hello)
        for port in self.ports:
            # port.is_up inlined: two hello rounds per bridge per
            # warm-up make the property call measurable at scale.
            link = port.link
            if link is None or not link.up:
                continue
            self.apc.hellos_sent += 1
            self.counters.control_sent += 1
            link.transmit(port, frame)

    def link_state_changed(self, port: Port, up: bool) -> None:
        if up:
            # Re-announce immediately so the neighbour reclassifies the
            # port without waiting a full hello interval.
            if self.config.hello_enabled and self.started:
                self._send_hellos()
            return
        # Carrier lost: every path through this port is dead. Flushing
        # makes the next unicast miss, which triggers Path Repair; the
        # locks stay, so late copies of their races still lose.
        self.table.flush_port(port)
        self._neighbor_until.pop(port.index, None)
        self.neighbors.pop(port.index, None)

    def _next_seq(self) -> int:
        self._control_seq += 1
        return self._control_seq

    # -- discovery (paper §2.1.1) ----------------------------------------

    def _accept_discovery(self, port: Port, src: MAC) -> bool:
        """Apply the locking rule to one copy of a discovery broadcast:
        True when it won and must be processed further, False when it
        travelled a slower path and must be discarded.

        The rule (paper §2.1.1): while *src*'s lock is live, copies on
        other ports lose, whatever happened to its path since. A
        same-port copy refreshes the lock, and a copy after it ended
        starts a *new* race — which lets a retransmitted ARP Request or
        a repair PathRequest route around a failed link. One probe: a
        losing copy makes no call.
        """
        now = self.sim._now
        table = self.table
        lock = table._race(src._value)
        if lock is not None:
            if lock.expires <= now:
                lock = table.race(src, now)     # reaps; None
            elif lock.port is not port:
                return False
        table.lock(src, port, now, lock)
        return True

    def on_arp(self, port: Port, frame: EthernetFrame) -> None:
        """A broadcast ARP frame: the path-discovery race probe."""
        apc = self.apc
        apc.discovery_frames += 1
        pkt: ArpPacket = frame.payload
        if self.proxy is not None:
            self.proxy.snoop(pkt, self.sim._now)
        if not self._accept_discovery(port, frame.src):
            apc.discovery_filtered += 1
            self.counters.filtered += 1
            return
        if self.proxy is not None:
            answer = self.proxy.answer(pkt, self.sim._now)
            if answer is not None:
                # Broadcast suppressed: impersonate the target exactly
                # like EtherProxy. The reply's source address rebuilds
                # the target's path along the way back to the asker.
                self.apc.proxy_suppressed += 1
                self.counters.control_sent += 1
                port.send(EthernetFrame(dst=pkt.sha, src=answer.sha,
                                        ethertype=ETHERTYPE_ARP,
                                        payload=answer))
                return
        self.flood_data(frame, exclude=port)

    # -- non-discovery broadcast (paper §2.1.3) ----------------------------

    def on_broadcast(self, port: Port, frame: EthernetFrame) -> None:
        """Loop-free flooding of broadcast/multicast data frames.

        Frames from a source are accepted only on the port of its live
        lock, else of its path when it has one, else anywhere; every
        accepted copy arms or extends the source's lock on its port.
        They never create or modify paths.
        """
        now = self.sim._now
        table, src = self.table, frame.src
        accept = table.race(src, now) or table.get(src, now)
        if accept is not None and accept.port is not port:
            self.apc.broadcast_guard_filtered += 1
            self.filter_frame()
            return
        table.guard(src, port, now)
        self.flood_data(frame, exclude=port)

    # -- unicast data plane (paper §2.1.2) --------------------------------

    def on_unicast(self, port: Port, frame: EthernetFrame) -> None:
        """One pass, one table probe per address: learn the source,
        look the destination up once, confirm *that* path, forward.

        The hit path stays in this frame: a live LEARNT entry is
        refreshed by one slot write, and the table is called only to
        learn a new, expired or moved source, to reap an expired
        destination or to confirm a LOCKED one."""
        now = self.sim._now
        table = self.table
        probe = table._probe
        learnt_until = now + table.learnt_timeout
        # The frame's source travelled to here: establish/confirm the
        # reverse direction in LEARNT state.
        src = frame.src
        entry = probe(src._value)
        if entry is not None and entry.expires > now and entry.port is port:
            entry.expires = learnt_until
        else:
            table.learn(src, port, now)
        if self.proxy is not None and frame.ethertype == ETHERTYPE_ARP \
                and isinstance(frame.payload, ArpPacket):
            self.proxy.snoop(frame.payload, now)
        dst = frame.dst
        if dst._value == self.mac._value:
            return
        entry = probe(dst._value)
        if entry is None or entry.expires <= now:
            entry = table.get(dst, now)  # reaps; a LOCKED path or None
        if entry is not None:
            out_port = entry.port
            link = out_port.link  # out_port.is_up inlined
            if link is not None and link.up:
                if out_port is port:
                    self.filter_frame()
                    return
                # Using the path keeps it alive (and confirms a LOCKED
                # one the discovery broadcast left — the §2.1.2 step).
                if entry.state is LEARNT:
                    entry.expires = learnt_until
                else:
                    table.confirm_entry(entry, now)
                self.counters.forwarded += 1
                link.transmit(out_port, frame)
                return
        self._unicast_miss(port, frame)

    def _unicast_miss(self, port: Port, frame: EthernetFrame) -> None:
        """No usable entry for the destination: invoke Path Repair."""
        self.apc.unicast_misses += 1
        if not self.config.repair_enabled:
            self.apc.drops_no_repair += 1
            return
        if self.repair.is_pending(frame.dst):
            if not self.repair.buffer_frame(frame.dst, frame):
                self.apc.drops_buffer += 1
            return
        if self._is_source_edge(port, frame.src):
            self._start_repair(frame.src, frame.dst, first_frame=frame)
        else:
            self._send_path_fail(frame)
            self._start_passive_repair(frame)

    def _is_source_edge(self, ingress: Port, source: MAC) -> bool:
        """Is this bridge the ingress edge bridge for *source*?"""
        if self.is_host_port(ingress):
            return True
        entry = self.table.get(source, self.sim._now)
        return entry is not None and self.is_host_port(entry.port)

    # -- Path Repair (paper §2.1.4) -----------------------------------------

    def _send_path_fail(self, frame: EthernetFrame) -> None:
        """Notify the source edge bridge that the destination was lost.

        PathFail travels hop-by-hop along the (still valid) entries for
        the frame's source — the same chain the frame just used, in
        reverse. When no route back exists the bridge repairs locally as
        a fallback, so the conversation still recovers.
        """
        now = self.sim._now
        fail = ctl_proto.make_path_fail(self.mac, frame.src, frame.dst,
                                        self._next_seq(),
                                        self.config.control_ttl)
        entry = self.table.get(frame.src, now)
        if entry is None or not entry.port.is_up:
            self.repair.counters.fails_unroutable += 1
            self._start_repair(frame.src, frame.dst)
            return
        self.repair.counters.fails_sent += 1
        self.counters.control_sent += 1
        entry.port.send(EthernetFrame(dst=frame.src, src=self.mac,
                                      ethertype=ETHERTYPE_ARPPATH,
                                      payload=fail))

    def _start_repair(self, source: MAC, target: MAC,
                      first_frame: Optional[EthernetFrame] = None) -> None:
        state = self.repair.get(target)
        if state is not None and not state.passive:
            if first_frame is not None \
                    and not self.repair.buffer_frame(target, first_frame):
                self.apc.drops_buffer += 1
            return
        if state is not None:
            # A passive buffer already exists here; take over the race.
            self.repair.activate(state, self._next_seq())
        else:
            state = self.repair.start(target, source, self._next_seq(),
                                      self.sim._now)
        if first_frame is not None \
                and not self.repair.buffer_frame(target, first_frame):
            self.apc.drops_buffer += 1
        self._broadcast_path_request(state)
        state.retry_event = self.sim.schedule(
            self.config.repair_retry_timeout, self._repair_timeout, target)

    def _start_passive_repair(self, frame: EthernetFrame) -> None:
        """Park in-flight frames at a non-edge bridge during a repair.

        No control traffic is generated: if the PathReply of the edge
        bridge's race passes through here, the buffered frames follow
        it out; otherwise a hold timer abandons them. Bounded loss
        either way, zero loss on path-preserving repairs.
        """
        if self.repair.is_pending(frame.dst):
            if not self.repair.buffer_frame(frame.dst, frame):
                self.apc.drops_buffer += 1
            return
        state = self.repair.start(frame.dst, frame.src, self._next_seq(),
                                  self.sim._now, passive=True)
        if not self.repair.buffer_frame(frame.dst, frame):
            self.apc.drops_buffer += 1
        hold = self.config.repair_retry_timeout \
            * (self.config.repair_retries + 1)
        state.retry_event = self.sim.schedule(
            hold, self._passive_timeout, frame.dst)

    def _passive_timeout(self, target: MAC) -> None:
        state = self.repair.get(target)
        if state is None or not state.passive:
            return
        self.apc.drops_buffer += self.repair.abandon(target)

    def _broadcast_path_request(self, state: RepairState) -> None:
        """Flood a PathRequest that races exactly like an ARP Request.

        The Ethernet source is the *end host* S, not the bridge: that is
        what makes every bridge lock S's address during the race, so the
        winning copy leaves a minimum-latency reverse path behind it.

        Before flooding, the originator re-arms its own lock for S on
        S's path port — it plays the role the ingress lock plays for a
        host-sent ARP Request. Copies of our own flood arriving back
        over fabric loops lose on their origin, even where no path to S
        is left to lock (a repair started here as a fallback).
        """
        self.table.refresh_lock(state.source, self.sim._now)
        request = ctl_proto.make_path_request(self.mac, state.source,
                                              state.target, state.seq,
                                              self.config.control_ttl)
        frame = EthernetFrame(dst=BROADCAST, src=state.source,
                              ethertype=ETHERTYPE_ARPPATH, payload=request)
        self.counters.control_sent += 1
        self.flood_data(frame)

    def _repair_timeout(self, target: MAC) -> None:
        state = self.repair.note_retry(target)
        if state is None:
            dropped = self.repair.abandon(target)
            self.apc.drops_buffer += dropped
            return
        state.seq = self._next_seq()
        self._broadcast_path_request(state)
        state.retry_event = self.sim.schedule(
            self.config.repair_retry_timeout, self._repair_timeout, target)

    # -- control-plane receive -------------------------------------------

    def on_control(self, port: Port, frame: EthernetFrame) -> None:
        self.counters.control_received += 1
        ctl: ArpPathControl = frame.payload
        if ctl.is_hello:
            self._handle_hello(port, ctl)
        elif ctl.is_path_request:
            self._handle_path_request(port, frame, ctl)
        elif ctl.is_path_reply:
            self._handle_path_reply(port, frame, ctl)
        elif ctl.is_path_fail:
            self._handle_path_fail(port, frame, ctl)

    def _handle_hello(self, port: Port, ctl: ArpPathControl) -> None:
        self.apc.hellos_received += 1
        self.neighbors[port.index] = ctl.origin
        self._neighbor_until[port.index] = \
            self.sim._now + self.config.hello_hold

    def _handle_path_request(self, port: Port, frame: EthernetFrame,
                             ctl: ArpPathControl) -> None:
        """A flooded repair probe: lock like an ARP Request, answer if we
        are the target's edge bridge, otherwise relay the race. Our own
        request coming back loses like a late copy, whatever our lock."""
        self.apc.path_requests_seen += 1
        now = self.sim._now
        if ctl.origin._value == self._own_src \
                or not self._accept_discovery(port, frame.src):
            self.apc.discovery_filtered += 1
            self.filter_frame()
            return
        tentry = self.table.get(ctl.target, now)
        if tentry is not None and tentry.port.is_up \
                and self._can_answer_repair(tentry.port):
            self.repair.counters.requests_answered += 1
            self._send_path_reply(port, ctl)
            return
        if ctl.ttl <= 1:
            self.apc.ttl_drops += 1
            return
        self.flood_data(frame.with_payload(ctl.relayed()), exclude=port)

    def _can_answer_repair(self, entry_port: Port) -> bool:
        if self.config.repair_reply_from_cache:
            return True
        return self.is_host_port(entry_port)

    def _send_path_reply(self, request_port: Port,
                         ctl: ArpPathControl) -> None:
        """Answer a PathRequest on behalf of the locally attached target.

        The reply is sent with the *target's* MAC as Ethernet source, so
        every bridge along the way back learns the target in LEARNT
        state — re-creating the path exactly like an ARP Reply would.
        """
        reply = ctl_proto.make_path_reply(self.mac, ctl.source, ctl.target,
                                          ctl.seq, self.config.control_ttl)
        self.table.confirm(ctl.source, self.sim._now)
        self.counters.control_sent += 1
        request_port.send(EthernetFrame(dst=ctl.source, src=ctl.target,
                                        ethertype=ETHERTYPE_ARPPATH,
                                        payload=reply))

    def _handle_path_reply(self, port: Port, frame: EthernetFrame,
                           ctl: ArpPathControl) -> None:
        self.apc.path_replies_seen += 1
        now = self.sim._now
        # The reply's source IS the repaired target: learn it.
        self.table.learn(frame.src, port, now)
        if self.repair.is_pending(ctl.target):
            self._complete_repair(ctl.target)
        entry = self.table.get(frame.dst, now)
        if entry is None or not entry.port.is_up or entry.port is port:
            return
        if self.is_host_port(entry.port):
            # We are the source's edge bridge: the repair is done, hosts
            # never see ARP-Path control traffic.
            return
        if ctl.ttl <= 1:
            self.apc.ttl_drops += 1
            return
        self.table.confirm_entry(entry, now)
        self.forward(entry.port, frame.with_payload(ctl.relayed()))

    def _complete_repair(self, target: MAC) -> None:
        """Flush the repair buffer along the freshly re-created path."""
        now = self.sim._now
        buffered = self.repair.complete(target, now)
        if not buffered:
            return
        entry = self.table.get(target, now)
        if entry is None or not entry.port.is_up:
            # Reply raced with another failure; frames are lost.
            self.apc.drops_buffer += len(buffered)
            return
        for parked in buffered:
            entry = self.table.confirm_entry(entry, now)
            self.forward(entry.port, parked)

    def _handle_path_fail(self, port: Port, frame: EthernetFrame,
                          ctl: ArpPathControl) -> None:
        """Relay a PathFail toward the source edge, erasing the dead
        destination's entries as it goes; the edge bridge starts the
        repair race."""
        self.apc.path_fails_seen += 1
        now = self.sim._now
        self.table.remove(ctl.target)
        state = self.repair.get(ctl.target)
        if state is not None and not state.passive:
            # Already racing (duplicate PathFail); nothing more to do. A
            # passive buffer does NOT stop the relay — the notification
            # still has to reach the source edge bridge.
            return
        entry = self.table.get(ctl.source, now)
        if entry is None or not entry.port.is_up:
            self.repair.counters.fails_unroutable += 1
            self._start_repair(ctl.source, ctl.target)
            return
        if self.is_host_port(entry.port):
            self._start_repair(ctl.source, ctl.target)
            return
        if ctl.ttl <= 1:
            self.apc.ttl_drops += 1
            self._start_repair(ctl.source, ctl.target)
            return
        self.repair.counters.fails_relayed += 1
        self.counters.control_sent += 1
        entry.port.send(frame.with_payload(ctl.relayed()))

    # -- introspection -----------------------------------------------------

    def path_port_for(self, mac: MAC) -> Optional[Port]:
        """The current forwarding port for *mac*, or None (diagnostics)."""
        entry = self.table.get(mac, self.sim.now)
        return entry.port if entry is not None else None

    def state_entries(self, now: Optional[float] = None) -> int:
        """Locked-table entries live at *now* (locked + learnt)."""
        occ = self.table.occupancy(self.sim.now if now is None else now)
        return occ["locked"] + occ["learnt"]

    def repair_events(self) -> List[float]:
        """Completed Path Repair durations, in completion order."""
        return list(self.repair.repair_times)

    def protocol_counters(self) -> Dict[str, int]:
        return {
            "relocks": self.table.counters.relocks,
            "discovery_filtered": self.apc.discovery_filtered,
            "proxy_suppressed": self.apc.proxy_suppressed,
            "frames_buffered": self.repair.counters.frames_buffered,
            "drops_buffer": self.apc.drops_buffer,
            "repairs_completed": self.repair.counters.completed,
        }

    def __repr__(self) -> str:
        return (f"<ArpPathBridge {self.name} mac={self.mac} "
                f"entries={len(self.table)}>")


def _arppath_factory(config: ArpPathConfig = DEFAULT_CONFIG):
    """A bridge factory producing ARP-Path bridges with *config*."""

    def build(sim: Simulator, name: str, mac: MAC) -> ArpPathBridge:
        return ArpPathBridge(sim, name, mac, config=config)

    return build


register_family(BridgeFamily(
    name="arppath",
    title="ARP-Path: in-band shortest-path discovery, lock and repair "
          "(the paper's protocol)",
    factory=_arppath_factory,
    bridge=ArpPathBridge,
    warmup=5.0,
    loop_safe=True,
    order=10,
    options=(
        FamilyOption("config", "object", None,
                     "ArpPathConfig: lock/learnt/guard timeouts, hello "
                     "and repair knobs (see repro.core.config)"),
    ),
))
