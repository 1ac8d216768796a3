"""The shared bridge dataplane: one pipeline, five protocol families.

Every bridge in the simulator — ARP-Path, SPB, STP, the controller
family and the plain learning switch — receives frames through the one
pipeline, :meth:`Bridge.handle_frame`. It classifies each frame exactly
once into one of four classes and calls overridable hooks, so a
protocol implements *policy* (what to do with a class of frame) and
never re-implements *classification*; a bridge class's
:attr:`Bridge.control_ethertypes` and :attr:`Bridge.control_payload`
name which frames are its control traffic:

======================  =====================================================
frame class             hook
======================  =====================================================
control                 :meth:`Bridge.on_control` — the family's own
                        protocol frames (ARP-Path control, BPDUs, LSPs),
                        selected by ethertype (plus an optional payload
                        type check)
ARP discovery           :meth:`Bridge.on_arp` — multicast ARP frames
                        carrying an :class:`~repro.frames.arp.ArpPacket`;
                        defaults to :meth:`Bridge.on_broadcast` for
                        families that treat ARP as ordinary broadcast
broadcast/multicast     :meth:`Bridge.on_broadcast`
unicast                 :meth:`Bridge.on_unicast`
======================  =====================================================

Two admission gates bracket classification: a datum, ``_own_src``,
drops a frame from that source address before anything (ARP-Path's
own floods), and the optional :attr:`Bridge.admit_data` hook runs after
control dispatch, before the data hooks (STP applies its port-state
gate and learns there). This mirrors the
packet-in pipelines of event-driven SDN controllers: one
classification ladder, per-protocol handlers. The ladder's order is
pinned by the golden discovery trace and ``tests/test_dataplane.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Type

from repro.frames.ethernet import (EthernetFrame, KIND_ARP_DISCOVERY,
                                   KIND_MULTICAST)
from repro.frames.mac import MAC
from repro.netsim.engine import Simulator
from repro.netsim.node import Node, Port


@dataclass(slots=True)
class BridgeCounters:
    """Data-plane counters every bridge keeps.

    Slotted: ``received`` is bumped once per frame per hop, and a slot
    write is cheaper than a ``__dict__`` entry.
    """

    received: int = 0
    forwarded: int = 0
    flooded_frames: int = 0
    flooded_copies: int = 0
    filtered: int = 0
    control_received: int = 0
    control_sent: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class Bridge(Node):
    """Common behaviour for all bridge types.

    Every bridge has a MAC identity (used for control protocols) and
    data-plane counters. Frames arrive through :meth:`handle_frame`,
    the shared pipeline; subclasses set the two class attributes below
    and implement the hooks instead of overriding it.
    """

    #: Ethertypes that carry the family's control frames (none for a
    #: family without a control protocol, like the learning switch).
    control_ethertypes: FrozenSet[int] = frozenset()
    #: The payload type a control frame must carry, or None for any.
    #: A frame with a control ethertype but a foreign payload falls
    #: through to the data path, exactly like unknown traffic.
    control_payload: Optional[Type] = None
    #: Frames from this source address value are dropped on arrival,
    #: before classification (-1: none are).
    _own_src = -1
    #: The data gate ``admit_data(port, frame) -> bool``, for per-port
    #: forwarding-state checks and source learning on every data frame;
    #: None admits every frame without a call.
    admit_data: Optional[Callable[[Port, EthernetFrame], bool]] = None

    def __init__(self, sim: Simulator, name: str, mac: MAC):
        super().__init__(sim, name)
        self.mac = mac
        self.counters = BridgeCounters()
        # The family's classification constants, cached per instance:
        # handle_frame reads them once per frame per hop, and an
        # instance slot read beats a class-attribute walk.
        self._control_ethertypes = self.control_ethertypes
        self._control_payload = self.control_payload

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        """Stop periodic processes (crash/teardown). Default: nothing."""

    def reset_state(self) -> None:
        """Wipe dynamic protocol state, as a power cycle would.

        Called between :meth:`stop` and a renewed :meth:`start` when a
        bridge restarts (:meth:`repro.topology.builder.Network
        .restart_bridge`). Families clear their learnt tables, caches
        and pending protocol exchanges here; configuration and
        counters survive.
        """

    # -- pipeline entry ----------------------------------------------------

    def handle_frame(self, port: Port, frame: EthernetFrame) -> None:
        """Classify *frame* once and invoke the matching hook.

        The data classification is interned on the frame
        (:meth:`EthernetFrame.kind`) and shared by every clone, so a
        flooded copy traversing its n-th bridge pays one slot read, not
        a fresh round of address/payload inspection per hop. Only the
        family-specific control check (an ethertype set membership)
        runs per call, because it differs between families.
        """
        self.counters.received += 1
        if frame.src._value == self._own_src:
            return
        if frame.ethertype in self._control_ethertypes:
            payload_type = self._control_payload
            if payload_type is None or isinstance(frame.payload,
                                                  payload_type):
                self.on_control(port, frame)
                return
        admit_data = self.admit_data
        if admit_data is not None and not admit_data(port, frame):
            return
        kind = frame._kind
        if kind is None:
            kind = frame.kind()
        if kind == KIND_ARP_DISCOVERY:
            self.on_arp(port, frame)
        elif kind == KIND_MULTICAST:
            self.on_broadcast(port, frame)
        else:
            self.on_unicast(port, frame)

    # -- classification hooks ----------------------------------------------

    def on_control(self, port: Port, frame: EthernetFrame) -> None:
        """A frame of the family's own control protocol (default: drop)."""

    def on_arp(self, port: Port, frame: EthernetFrame) -> None:
        """A multicast ARP probe. Families without special ARP handling
        inherit broadcast behaviour."""
        self.on_broadcast(port, frame)

    def on_broadcast(self, port: Port, frame: EthernetFrame) -> None:
        """A non-ARP broadcast/multicast data frame."""
        raise NotImplementedError

    def on_unicast(self, port: Port, frame: EthernetFrame) -> None:
        """A unicast data frame."""
        raise NotImplementedError

    # -- data-plane helpers ------------------------------------------------

    def forward(self, out_port: Port, frame: EthernetFrame) -> None:
        """Send a data frame out of one specific port.

        The frame goes to the link directly, as :meth:`Node.flood` hands
        it; a port without carrier discards it, as in :meth:`Port.send`.
        """
        self.counters.forwarded += 1
        link = out_port.link
        if link is not None and link.up:
            link.transmit(out_port, frame)

    def flood_data(self, frame: EthernetFrame,
                   exclude: Optional[Port] = None) -> int:
        """Flood a data frame on all ports but *exclude*, counting it."""
        copies = self.flood(frame, exclude)
        self.counters.flooded_frames += 1
        self.counters.flooded_copies += copies
        return copies

    def filter_frame(self) -> None:
        """Account for a deliberately discarded frame."""
        self.counters.filtered += 1

    # -- introspection hooks -----------------------------------------------
    #
    # The protocol-neutral surface experiments use instead of
    # ``isinstance(bridge, <FamilyBridge>)`` checks: every family
    # answers the same three questions (how much dynamic state, which
    # ethertypes are control traffic, what repairs completed) plus a
    # free-form counter bag for family-specific mechanisms.

    def state_entries(self, now: Optional[float] = None) -> int:
        """Comparable dynamic-state size of this bridge.

        The per-family definition of "state a bridge must hold":
        ARP-Path counts locked-table entries, SPB counts LSDB entries
        plus advertised hosts, the controller family counts installed
        flow entries. The default covers any family with an aging
        ``fdb`` (STP, the learning switch): entries *live at now*, not
        raw store size — the stores reap lazily, so a raw ``len`` would
        credit a bridge with endpoints whose entries expired long ago.
        """
        fdb = getattr(self, "fdb", None)
        if fdb is None:
            return 0
        return fdb.live_count(self.sim.now if now is None else now)

    def repair_events(self) -> List[float]:
        """Completed path-repair durations (seconds), in completion
        order. Families without a repair mechanism report none."""
        return []

    def protocol_counters(self) -> Dict[str, int]:
        """Family-specific mechanism counters, keyed by stable names.

        Experiments sum these across bridges (``relocks``,
        ``proxy_suppressed``, ``frames_buffered``, ...) instead of
        reaching into family internals; absent keys read as zero.
        """
        return {}


# -- bridge-family registry --------------------------------------------------
#
# A :class:`BridgeFamily` is the one self-describing record a protocol
# family publishes about itself: how to build its bridges, how long its
# control plane needs to settle, whether it survives loops, and which
# configuration knobs it exposes. Families register themselves at
# import of their own package; everything downstream — factory lookup,
# experiment protocol choices, CLI ``--protocols`` values, the serve
# API's schema — derives from this registry, so adding a family touches
# only its own package plus this file's import list.


@dataclass(frozen=True)
class FamilyOption:
    """One configuration knob of a bridge family's factory."""

    name: str
    #: JSON-ish type label for the serve schema ("int", "float",
    #: "bool", "object").
    type: str
    #: Default value; None for object-typed knobs (described in *help*).
    default: Any
    help: str

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.type,
                "default": self.default, "help": self.help}


@dataclass(frozen=True)
class BridgeFamily:
    """Self-registering descriptor for one bridge protocol family."""

    name: str
    #: One-line description (Param help strings, serve schema).
    title: str
    #: Factory *builder*: ``factory(**config) -> BridgeFactory`` where a
    #: BridgeFactory is ``(sim, name, mac) -> Bridge``. Builders may
    #: attach a ``network_finalize(net)`` attribute to the returned
    #: closure; :meth:`repro.topology.builder.Network.finalize_topology`
    #: runs it once after the wiring is complete (the controller family
    #: wires its out-of-band control plane there).
    factory: Callable[..., Callable]
    #: The bridge class the factory builds; its ``control_ethertypes``
    #: are the family's.
    bridge: Type[Bridge]
    #: Warmup budget (simulated seconds) before measurement traffic.
    warmup: float
    #: Does the family keep a loopy fabric broadcast-storm free?
    loop_safe: bool = True
    #: Canonical display position (choices tuples, schema listings).
    order: int = 100
    #: The factory's configuration knobs (serve API sub-schema).
    options: Tuple[FamilyOption, ...] = ()
    #: Optional timer-scaling hook: ``scaled(factor) -> (display_name,
    #: BridgeFactory, warmup)``. Only meaningful for timer-driven
    #: families (STP's ``stp_scale`` axis).
    scaled: Optional[Callable[[float], Tuple[str, Callable, float]]] = None

    @property
    def control_ethertypes(self) -> Tuple[int, ...]:
        """Ethertypes of the family's control frames, sorted — the
        union over registered families is what experiments count as
        control load."""
        return tuple(sorted(self.bridge.control_ethertypes))

    def describe(self) -> Dict[str, Any]:
        """The family's serve-API sub-schema (JSON-safe)."""
        return {
            "name": self.name,
            "title": self.title,
            "warmup": self.warmup,
            "loop_safe": self.loop_safe,
            "control_ethertypes": [f"0x{e:04x}"
                                   for e in self.control_ethertypes],
            "scalable": self.scaled is not None,
            "config": [option.describe() for option in self.options],
        }


_FAMILIES: Dict[str, BridgeFamily] = {}
_families_loaded = False


def register_family(family: BridgeFamily) -> BridgeFamily:
    """Register *family* (idempotent per name; latest wins)."""
    _FAMILIES[family.name] = family
    return family


def load_families() -> None:
    """Import every family package so each registers itself.

    The one place that knows the full family list. Lazy (called from
    the lookup functions) so ``base`` itself stays import-light and the
    family modules — which import this one — load cleanly.
    """
    global _families_loaded
    if _families_loaded:
        return
    _families_loaded = True
    import repro.core.bridge            # noqa: F401  arppath
    import repro.stp.bridge             # noqa: F401  stp
    import repro.spb.bridge             # noqa: F401  spb
    import repro.switching.learning     # noqa: F401  learning
    import repro.switching.controller   # noqa: F401  controller


def family(name: str) -> BridgeFamily:
    """Look up a registered family by name.

    Raises ``KeyError`` with the sorted known names for unknown ones.
    """
    load_families()
    try:
        return _FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise KeyError(f"unknown bridge family {name!r} "
                       f"(known: {known})") from None


def all_families() -> List[BridgeFamily]:
    """Every registered family in canonical (order, name) order."""
    load_families()
    return sorted(_FAMILIES.values(), key=lambda f: (f.order, f.name))


def family_names(loop_safe_only: bool = False) -> Tuple[str, ...]:
    """Family names in canonical order; optionally only the families
    that keep a loopy fabric storm-free."""
    return tuple(f.name for f in all_families()
                 if f.loop_safe or not loop_safe_only)


def control_ethertypes() -> Tuple[int, ...]:
    """The sorted union of every family's control ethertypes."""
    load_families()
    union = set()
    for fam in _FAMILIES.values():
        union.update(fam.control_ethertypes)
    return tuple(sorted(union))
