"""A plain 802.1 transparent learning switch (no loop protection).

Safe only on loop-free topologies; it exists as (a) the data plane the
STP bridge runs on its forwarding ports and (b) a didactic baseline that
demonstrably melts down on loops (a test asserts the broadcast storm).
"""

from __future__ import annotations

from repro.frames.ethernet import EthernetFrame
from repro.frames.mac import MAC
from repro.netsim.engine import Simulator
from repro.netsim.node import Port
from repro.switching.base import (Bridge, BridgeFamily, FamilyOption,
                                  register_family)
from repro.switching.table import DEFAULT_AGING_TIME, ForwardingTable


class LearningSwitch(Bridge):
    """Learn source addresses; forward known unicast, flood the rest.

    No control protocol: the inherited data-only dataplane routes every
    frame to :meth:`on_broadcast`/:meth:`on_unicast` after the source
    learning done in :meth:`admit_data`.
    """

    def __init__(self, sim: Simulator, name: str, mac: MAC,
                 aging_time: float = DEFAULT_AGING_TIME):
        super().__init__(sim, name, mac)
        self.fdb = ForwardingTable(aging_time=aging_time, sim=sim)

    def admit_data(self, port: Port, frame: EthernetFrame) -> bool:
        self.fdb.learn(frame.src, port, self.sim._now)
        return True

    def on_broadcast(self, port: Port, frame: EthernetFrame) -> None:
        self.flood_data(frame, exclude=port)

    def on_unicast(self, port: Port, frame: EthernetFrame) -> None:
        out_port = self.fdb.lookup(frame.dst, self.sim._now)
        if out_port is None:
            self.flood_data(frame, exclude=port)
        elif out_port is port:
            self.filter_frame()
        else:
            self.forward(out_port, frame)

    def link_state_changed(self, port: Port, up: bool) -> None:
        if not up:
            self.fdb.flush_port(port)

    def reset_state(self) -> None:
        """Power-cycle wipe: forget every learnt address."""
        self.fdb.flush()


def _learning_factory(aging_time: float = DEFAULT_AGING_TIME):
    """A factory producing plain learning switches (loop-unsafe)."""

    def build(sim: Simulator, name: str, mac: MAC) -> LearningSwitch:
        return LearningSwitch(sim, name, mac, aging_time=aging_time)

    return build


register_family(BridgeFamily(
    name="learning",
    title="Plain 802.1 learning switch (no loop protection)",
    factory=_learning_factory,
    bridge=LearningSwitch,
    warmup=1.0,
    loop_safe=False,
    order=40,
    options=(
        FamilyOption("aging_time", "float", DEFAULT_AGING_TIME,
                     "FDB entry aging time (seconds)"),
    ),
))
