"""An 802.1D spanning tree bridge (the demo's baseline).

This is the protocol the paper compares ARP-Path against: Linux
``bridge_utils`` bridges running classic STP. The implementation follows
the 802.1D conceptual model:

* distributed root election by priority-vector comparison,
* one root port per non-root bridge, one designated port per LAN,
  everything else blocked — redundant links carry no traffic,
* timer-driven state transitions (listening → learning → forwarding,
  each taking ``forward_delay``), message-age expiry for failure
  detection, and topology change notification with fast FDB aging.

The consequences the demo measures fall out naturally: traffic follows
the tree (not the lowest-latency path), and recovering from a failure
costs max-age expiry plus two forward delays (tens of seconds at IEEE
default timers).

What a hello costs. A converged tree carries one config BPDU per link
per hello period, and every one of them *refreshes* a vector its
receiver already holds. The bridge recomputes on change, not on
receipt: a refresh is one key compare, one age-timer re-arm and — on
the root port — one relay out the designated ports
(:meth:`StpBridge._handle_config`). ``_recompute`` runs only from the
writers of what it reads: a stored vector that changed or aged out, a
port enabled or disabled, ``start``. ``StpCounters.recomputes`` counts
those runs; ``docs/ARCHITECTURE.md`` §9 has the invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.frames.ethernet import (ETHERTYPE_BPDU, EthernetFrame,
                                   STP_MULTICAST)
from repro.frames.mac import MAC
from repro.netsim.engine import Simulator
from repro.netsim.node import Port
from repro.stp.bpdu import (BridgeId, ConfigBpdu, DEFAULT_BRIDGE_PRIORITY,
                            DEFAULT_PORT_PRIORITY, PATH_COST_1G, PortId,
                            TcnBpdu)
from repro.switching.base import (Bridge, BridgeFamily, FamilyOption,
                                  register_family)
from repro.switching.table import ForwardingTable

#: Standard increment added to message age at each hop.
MESSAGE_AGE_INCREMENT = 1.0


@dataclass(frozen=True)
class StpTimers:
    """The three 802.1D timers (IEEE defaults).

    ``scaled`` produces proportionally faster timers — used by
    experiments that want STP's *behaviour* without simulating minutes
    of wall-clock convergence, and reported alongside the defaults.
    """

    hello_time: float = 2.0
    max_age: float = 20.0
    forward_delay: float = 15.0
    #: Added to message age per hop; must scale with max_age or the
    #: network diameter limit (max_age / increment hops) shrinks.
    message_age_increment: float = MESSAGE_AGE_INCREMENT

    def __post_init__(self):
        if min(self.hello_time, self.max_age, self.forward_delay,
               self.message_age_increment) <= 0:
            raise ValueError("STP timers must be positive")

    def scaled(self, factor: float) -> "StpTimers":
        """All timers (including the age increment) multiplied by *factor*."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return StpTimers(
            hello_time=self.hello_time * factor,
            max_age=self.max_age * factor,
            forward_delay=self.forward_delay * factor,
            message_age_increment=self.message_age_increment * factor)


class PortRole(enum.Enum):
    DISABLED = "disabled"
    ROOT = "root"
    DESIGNATED = "designated"
    ALTERNATE = "alternate"


class PortState(enum.Enum):
    DISABLED = "disabled"
    BLOCKING = "blocking"
    LISTENING = "listening"
    LEARNING = "learning"
    FORWARDING = "forwarding"


@dataclass
class StoredInfo:
    """The best config BPDU received on a port, with its age deadline."""

    bpdu: ConfigBpdu
    received_at: float
    age_event: object = None

    def cancel(self) -> None:
        if self.age_event is not None:
            self.age_event.cancel()
            self.age_event = None


@dataclass
class StpCounters:
    bpdus_sent: int = 0
    bpdus_received: int = 0
    tcns_sent: int = 0
    tcns_received: int = 0
    topology_changes: int = 0
    root_changes: int = 0
    discards_not_forwarding: int = 0
    #: Full configuration updates run (the STP twin of
    #: ``SpbCounters.spf_runs``); a hello that refreshes a stored
    #: vector does not add to it.
    recomputes: int = 0


class StpPortInfo:
    """Per-port spanning tree state."""

    __slots__ = ("port", "port_id", "path_cost", "role", "state",
                 "can_learn", "can_forward", "stored", "transition_event",
                 "send_tca")

    def __init__(self, port: Port, path_cost: int):
        self.port = port
        self.port_id = PortId(DEFAULT_PORT_PRIORITY, port.index)
        self.path_cost = path_cost
        self.role = PortRole.DISABLED
        self.enter(PortState.DISABLED)
        self.stored: Optional[StoredInfo] = None
        self.transition_event = None
        self.send_tca = False

    def enter(self, state: PortState) -> None:
        """The one place ``state`` is written: the data-plane gate reads
        ``can_learn`` / ``can_forward`` per frame, so they are stored
        beside the state they are functions of."""
        self.state = state
        self.can_forward = state is PortState.FORWARDING
        self.can_learn = state is PortState.FORWARDING \
            or state is PortState.LEARNING

    def clear_stored(self) -> None:
        if self.stored is not None:
            self.stored.cancel()
            self.stored = None

    def cancel_transition(self) -> None:
        if self.transition_event is not None:
            self.transition_event.cancel()
            self.transition_event = None


class StpBridge(Bridge):
    """A transparent learning bridge running 802.1D spanning tree."""

    #: BPDUs are control, everything else is data.
    control_ethertypes = frozenset((ETHERTYPE_BPDU,))

    def __init__(self, sim: Simulator, name: str, mac: MAC,
                 priority: int = DEFAULT_BRIDGE_PRIORITY,
                 timers: StpTimers = StpTimers(),
                 path_cost: int = PATH_COST_1G,
                 fdb_aging: float = 300.0):
        super().__init__(sim, name, mac)
        self.bid = BridgeId(priority, mac)
        self.timers = timers
        self.default_path_cost = path_cost
        self.fdb = ForwardingTable(aging_time=fdb_aging, sim=sim)
        self.stp_counters = StpCounters()
        self._port_info: Dict[int, StpPortInfo] = {}
        self.root_id = self.bid
        self.root_cost = 0
        self.root_port: Optional[StpPortInfo] = None
        self._hello_timer = None
        self._tc_while_event = None
        self._tc_active = False
        self._tcn_awaiting_ack = False

    # -- port bookkeeping --------------------------------------------------

    def info_for(self, port: Port) -> StpPortInfo:
        """The STP state for *port* (created on first access)."""
        info = self._port_info.get(port.index)
        if info is None:
            info = StpPortInfo(port, self.default_path_cost)
            self._port_info[port.index] = info
        return info

    @property
    def is_root(self) -> bool:
        return self.root_id == self.bid

    def ports_in(self, *roles: PortRole):
        return [info for info in self._port_info.values()
                if info.role in roles]

    def port_role(self, port: Port) -> PortRole:
        return self.info_for(port).role

    def port_state(self, port: Port) -> PortState:
        return self.info_for(port).state

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        super().start()
        for port in self.ports:
            info = self.info_for(port)
            if port.is_up:
                info.enter(PortState.BLOCKING)
        self._recompute()
        self._transmit_configs()
        self._hello_timer = self.sim.schedule_periodic(
            self.timers.hello_time, self._on_hello_tick)

    def stop(self) -> None:
        """Stop periodic processes."""
        if self._hello_timer is not None:
            self._hello_timer.stop()
            self._hello_timer = None

    def reset_state(self) -> None:
        """Power-cycle wipe: FDB, stored BPDUs, roles, root knowledge.

        A restarted 802.1D bridge boots believing it is the root; the
        next :meth:`start` re-runs election from BPDUs it receives.
        """
        self.fdb.flush()
        self.fdb.restore_aging()
        for info in self._port_info.values():
            info.clear_stored()
            info.cancel_transition()
            info.role = PortRole.DISABLED
            info.enter(PortState.DISABLED)
            info.send_tca = False
        self.root_id = self.bid
        self.root_cost = 0
        self.root_port = None
        if self._tc_while_event is not None:
            self._tc_while_event.cancel()
            self._tc_while_event = None
        self._tc_active = False
        self._tcn_awaiting_ack = False

    def link_state_changed(self, port: Port, up: bool) -> None:
        info = self.info_for(port)
        if up:
            info.enter(PortState.BLOCKING)
            self._recompute()
            return
        was_forwarding = info.can_forward
        info.role = PortRole.DISABLED
        info.enter(PortState.DISABLED)
        info.clear_stored()
        info.cancel_transition()
        self.fdb.flush_port(port)
        self._recompute()
        if was_forwarding:
            self._detect_topology_change()

    # -- data plane ----------------------------------------------------------

    def on_control(self, port: Port, frame: EthernetFrame) -> None:
        self._handle_bpdu(port, frame)

    def admit_data(self, port: Port, frame: EthernetFrame) -> bool:
        """The 802.1D port-state gate: learn only in LEARNING or
        FORWARDING, forward only in FORWARDING."""
        info = self.info_for(port)
        if not info.can_learn:
            self.stp_counters.discards_not_forwarding += 1
            self.filter_frame()
            return False
        self.fdb.learn(frame.src, port, self.sim._now)
        if not info.can_forward:
            self.stp_counters.discards_not_forwarding += 1
            self.filter_frame()
            return False
        return True

    def on_broadcast(self, port: Port, frame: EthernetFrame) -> None:
        self._flood_forwarding(frame, exclude=port)

    def on_unicast(self, port: Port, frame: EthernetFrame) -> None:
        out_port = self.fdb.lookup(frame.dst, self.sim._now)
        if out_port is None:
            self._flood_forwarding(frame, exclude=port)
        elif out_port is port:
            self.filter_frame()
        elif self.info_for(out_port).can_forward:
            self.forward(out_port, frame)
        else:
            self.filter_frame()

    def _flood_forwarding(self, frame: EthernetFrame,
                          exclude: Optional[Port]) -> None:
        copies = 0
        for port in self.ports:
            if port is exclude or not port.is_attached:
                continue
            if not self.info_for(port).can_forward:
                continue
            port.send(frame)
            copies += 1
        self.counters.flooded_frames += 1
        self.counters.flooded_copies += copies

    # -- BPDU reception ------------------------------------------------------

    def _handle_bpdu(self, port: Port, frame: EthernetFrame) -> None:
        payload = frame.payload
        info = self.info_for(port)
        if info.state is PortState.DISABLED:
            return
        if isinstance(payload, TcnBpdu):
            self._handle_tcn(info)
            return
        if not isinstance(payload, ConfigBpdu):
            return
        self.stp_counters.bpdus_received += 1
        self._handle_config(info, payload)

    def _handle_config(self, info: StpPortInfo, bpdu: ConfigBpdu) -> None:
        if bpdu.message_age >= bpdu.max_age:
            return
        if info.stored is not None and info.stored.bpdu.key == bpdu.key:
            # A refresh — the vector this port already holds, so from
            # the transmitter it already holds it from. Recompute on
            # change, not on receipt: nothing _recompute reads moved
            # and the bridge sits at its fixpoint between events. What
            # a refresh does move (message age, TC / TCA flags, the age
            # timer) is stored, and the relay below still runs.
            self._store(info, bpdu)
        elif info.role is PortRole.DESIGNATED \
                and self._inferior_to_ours(info, bpdu):
            # Worse information on a LAN we are designated for: assert
            # our configuration immediately; never store the claim.
            self._tx_config(info)
            return
        elif self._supersedes(info, bpdu):
            self._store(info, bpdu)
            old_root = self.root_id
            self._recompute()
            if self.root_id != old_root:
                self.stp_counters.root_changes += 1
        else:
            if info.role is PortRole.DESIGNATED:
                # Inferior information on our LAN: assert ours.
                self._tx_config(info)
            return
        if info is self.root_port:
            self._process_root_port_flags(bpdu)
            self._transmit_configs()

    def _inferior_to_ours(self, info: StpPortInfo,
                          bpdu: ConfigBpdu) -> bool:
        """Is *bpdu* strictly worse than what we transmit on this LAN?

        Same-transmitter updates are never treated as inferior — a
        neighbour announcing worse news about itself must be stored.
        """
        if info.stored is not None \
                and bpdu.key[2:] == info.stored.bpdu.key[2:]:
            return False
        return self._designated_key(info) < bpdu.key

    def _designated_key(self, info: StpPortInfo) -> tuple:
        """The key of the vector we transmit (or would) on this port."""
        return (self.root_id.key, self.root_cost, self.bid.key,
                info.port_id.key)

    def _supersedes(self, info: StpPortInfo, bpdu: ConfigBpdu) -> bool:
        """Does *bpdu* replace the stored protocol info on this port?"""
        if info.stored is None:
            return True
        held = info.stored.bpdu.key
        # Same transmitter (bridge, port): always refresh — it may
        # announce worse news, e.g. after losing its own root port.
        return bpdu.key < held or bpdu.key[2:] == held[2:]

    def _store(self, info: StpPortInfo, bpdu: ConfigBpdu) -> None:
        info.clear_stored()
        remaining = bpdu.max_age - bpdu.message_age
        stored = StoredInfo(bpdu=bpdu, received_at=self.sim._now)
        stored.age_event = self.sim.schedule(
            remaining, self._message_age_expired, info)
        info.stored = stored

    def _message_age_expired(self, info: StpPortInfo) -> None:
        """Stored info aged out: the path to the root through this port
        is gone. Reconverge (possibly claiming root ourselves)."""
        info.stored = None
        old_root = self.root_id
        self._recompute()
        if self.root_id != old_root:
            self.stp_counters.root_changes += 1
        self._transmit_configs()

    def _process_root_port_flags(self, bpdu: ConfigBpdu) -> None:
        if bpdu.topology_change_ack:
            self._tcn_awaiting_ack = False
        if bpdu.topology_change:
            self.fdb.set_aging(self.timers.forward_delay)
        else:
            self.fdb.restore_aging()

    def _handle_tcn(self, info: StpPortInfo) -> None:
        self.stp_counters.tcns_received += 1
        if info.role is not PortRole.DESIGNATED:
            return
        info.send_tca = True
        self._detect_topology_change()
        self._tx_config(info)

    # -- spanning tree computation ---------------------------------------

    def _recompute(self) -> None:
        """The 802.1D configuration update: elect root, assign roles.

        A pure function of each enabled port's stored vector key, its
        ``path_cost`` / ``port_id`` and our ``bid`` — not of message
        ages, flags or timers — and one pass reaches its fixpoint: run
        again with nothing of that changed it alters no root, role or
        state and schedules nothing. Every writer of those inputs calls
        it, which is what lets a refresh skip it
        (``tests/test_stp_fixpoint.py`` holds both halves).
        """
        self.stp_counters.recomputes += 1
        own = self.bid.key
        # Candidates compare as (vector key, receiving port id key) —
        # the port id is the standard's final tie-break; our own vector
        # uses a sentinel that loses every tie.
        best = ((own, 0, own, (DEFAULT_PORT_PRIORITY, 0)),
                (1 << 16, 1 << 30))
        best_info: Optional[StpPortInfo] = None
        for info in self._port_info.values():
            if info.state is PortState.DISABLED or info.stored is None:
                continue
            root, cost, bridge, port = info.stored.bpdu.key
            if bridge == own:
                continue  # our own stale information echoed back
            candidate = ((root, cost + info.path_cost, bridge, port),
                         info.port_id.key)
            if candidate < best:
                best, best_info = candidate, info
        (root, cost, _bridge, _port), _tie_break = best
        if best_info is None or root == own:
            self.root_id = self.bid
            self.root_cost = 0
            self.root_port = None
        else:
            self.root_id = best_info.stored.bpdu.root
            self.root_cost = cost
            self.root_port = best_info
        for info in self._port_info.values():
            if info.state is PortState.DISABLED:
                continue
            self._assign_role(info)

    def _assign_role(self, info: StpPortInfo) -> None:
        if info is self.root_port:
            new_role = PortRole.ROOT
        elif info.stored is None or info.stored.bpdu.bridge == self.bid \
                or self._designated_key(info) < info.stored.bpdu.key:
            new_role = PortRole.DESIGNATED
        else:
            new_role = PortRole.ALTERNATE
        if new_role is info.role:
            return
        info.role = new_role
        self._apply_state(info)

    def _apply_state(self, info: StpPortInfo) -> None:
        if info.role is PortRole.ALTERNATE:
            was_forwarding = info.can_forward
            info.cancel_transition()
            info.enter(PortState.BLOCKING)
            self.fdb.flush_port(info.port)
            if was_forwarding:
                self._detect_topology_change()
            return
        # ROOT or DESIGNATED: walk listening -> learning -> forwarding.
        if info.state in (PortState.BLOCKING, PortState.DISABLED):
            info.enter(PortState.LISTENING)
            info.cancel_transition()
            info.transition_event = self.sim.schedule(
                self.timers.forward_delay, self._forward_delay_expired, info)

    def _forward_delay_expired(self, info: StpPortInfo) -> None:
        info.transition_event = None
        if info.role not in (PortRole.ROOT, PortRole.DESIGNATED):
            return
        if info.state is PortState.LISTENING:
            info.enter(PortState.LEARNING)
            info.transition_event = self.sim.schedule(
                self.timers.forward_delay, self._forward_delay_expired, info)
        elif info.state is PortState.LEARNING:
            info.enter(PortState.FORWARDING)
            self._detect_topology_change()

    # -- BPDU transmission -----------------------------------------------

    def _on_hello_tick(self) -> None:
        if self.is_root:
            self._transmit_configs()
        if self._tcn_awaiting_ack and self.root_port is not None:
            self._tx_tcn()

    def _transmit_configs(self) -> None:
        """Send our configuration out every designated port; what the
        round shares (message age, TC flag) is read once."""
        age, tc_flag = self._age_and_tc()
        if age >= self.timers.max_age:
            return
        for info in self._port_info.values():
            if info.role is PortRole.DESIGNATED:
                self._send_config(info, age, tc_flag)

    def _age_and_tc(self):
        """The message age and TC flag of a config sent now: our own as
        root, else the root port's stored BPDU one hop older."""
        if self.is_root:
            return 0.0, self._tc_active
        if self.root_port is None or self.root_port.stored is None:
            return 0.0, False
        relayed = self.root_port.stored.bpdu
        return (relayed.message_age + self.timers.message_age_increment,
                relayed.topology_change)

    def _tx_config(self, info: StpPortInfo) -> None:
        age, tc_flag = self._age_and_tc()
        if age < self.timers.max_age:
            self._send_config(info, age, tc_flag)

    def _send_config(self, info: StpPortInfo, age: float,
                     tc_flag: bool) -> None:
        if not info.port.is_up:
            return
        bpdu = ConfigBpdu(root=self.root_id, cost=self.root_cost,
                          bridge=self.bid, port=info.port_id,
                          message_age=age, max_age=self.timers.max_age,
                          hello_time=self.timers.hello_time,
                          forward_delay=self.timers.forward_delay,
                          topology_change=tc_flag,
                          topology_change_ack=info.send_tca)
        info.send_tca = False
        self.stp_counters.bpdus_sent += 1
        self.counters.control_sent += 1
        info.port.send(EthernetFrame(dst=STP_MULTICAST, src=self.mac,
                                     ethertype=ETHERTYPE_BPDU, payload=bpdu))

    def _tx_tcn(self) -> None:
        if self.root_port is None or not self.root_port.port.is_up:
            return
        self.stp_counters.tcns_sent += 1
        self.counters.control_sent += 1
        self.root_port.port.send(
            EthernetFrame(dst=STP_MULTICAST, src=self.mac,
                          ethertype=ETHERTYPE_BPDU,
                          payload=TcnBpdu(bridge=self.bid)))

    # -- topology change ---------------------------------------------------

    def _detect_topology_change(self) -> None:
        self.stp_counters.topology_changes += 1
        if self.is_root:
            self._start_tc_while()
        else:
            self._tcn_awaiting_ack = True
            self._tx_tcn()

    def _start_tc_while(self) -> None:
        """Set the TC flag in our BPDUs for max_age + forward_delay."""
        self._tc_active = True
        self.fdb.set_aging(self.timers.forward_delay)
        if self._tc_while_event is not None:
            self._tc_while_event.cancel()
        self._tc_while_event = self.sim.schedule(
            self.timers.max_age + self.timers.forward_delay, self._tc_done)

    def _tc_done(self) -> None:
        self._tc_active = False
        self._tc_while_event = None
        self.fdb.restore_aging()

    # -- introspection -----------------------------------------------------

    def tree_summary(self) -> dict:
        """A snapshot of the tree as seen from this bridge."""
        return {
            "bridge": str(self.bid),
            "root": str(self.root_id),
            "root_cost": self.root_cost,
            "root_port": (self.root_port.port.name
                          if self.root_port else None),
            "roles": {info.port.name: info.role.value
                      for info in self._port_info.values()},
            "states": {info.port.name: info.state.value
                       for info in self._port_info.values()},
        }

    def protocol_counters(self) -> Dict[str, int]:
        return {
            "bpdus_sent": self.stp_counters.bpdus_sent,
            "tcns_sent": self.stp_counters.tcns_sent,
            "topology_changes": self.stp_counters.topology_changes,
            "root_changes": self.stp_counters.root_changes,
        }

    def __repr__(self) -> str:
        role = "root" if self.is_root else f"root={self.root_id}"
        return f"<StpBridge {self.name} {role}>"


#: IEEE-default warmup: listening + learning (2 x forward delay) plus
#: margin for election to settle.
_STP_WARMUP = 45.0


def _stp_factory(timers: StpTimers = StpTimers(),
                 priority: Optional[int] = None):
    """A bridge factory producing 802.1D bridges.

    With the default *priority* of None every bridge uses 0x8000 and
    the lowest MAC wins root election (bridge creation order), exactly
    like an unconfigured ``bridge_utils`` deployment.
    """

    def build(sim: Simulator, name: str, mac: MAC) -> StpBridge:
        kwargs = {} if priority is None else {"priority": priority}
        return StpBridge(sim, name, mac, timers=timers, **kwargs)

    return build


def _stp_scaled(factor: float):
    """The family's timer-scaling hook: proportionally faster STP."""
    return (f"stp(x{factor:g})",
            _stp_factory(timers=StpTimers().scaled(factor)),
            _STP_WARMUP * factor)


register_family(BridgeFamily(
    name="stp",
    title="802.1D spanning tree: the demo's bridge_utils baseline",
    factory=_stp_factory,
    bridge=StpBridge,
    warmup=_STP_WARMUP,
    loop_safe=True,
    order=20,
    options=(
        FamilyOption("timers", "object", None,
                     "StpTimers: hello_time/max_age/forward_delay "
                     "(IEEE defaults; .scaled(f) for faster variants)"),
        FamilyOption("priority", "int", None,
                     "bridge priority (default 0x8000 everywhere: "
                     "lowest MAC wins root election)"),
    ),
    scaled=_stp_scaled,
))
