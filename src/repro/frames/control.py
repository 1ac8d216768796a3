"""ARP-Path control frames: Hello and the Path Repair messages.

The paper (§2.1.4) repairs broken paths with three messages that
"emulate an ARP exchange": **PathFail** (unicast back towards the source
edge bridge), **PathRequest** (broadcast, raced through the network like
an ARP Request) and **PathReply** (unicast, travels the winning path
like an ARP Reply). We carry them in a dedicated experimental ethertype
(0x88B5, IEEE local-experimental) exactly as a hardware port would.

**Hello** frames implement the lightweight neighbour discovery the
bridges use to classify ports as bridge-facing or host-facing; they are
link-local (never forwarded).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frames.mac import MAC

#: Link-local multicast address Hello frames are sent to (never relayed,
#: chosen inside the 01:80:c2 bridge-reserved block like LLDP).
HELLO_MULTICAST = MAC("01:80:c2:00:00:0e")

OP_HELLO = 1
OP_PATH_REQUEST = 2
OP_PATH_REPLY = 3
OP_PATH_FAIL = 4

_OP_NAMES = {
    OP_HELLO: "HELLO",
    OP_PATH_REQUEST: "PATH_REQUEST",
    OP_PATH_REPLY: "PATH_REPLY",
    OP_PATH_FAIL: "PATH_FAIL",
}

CONTROL_WIRE_SIZE = 26  # op(2) + origin(6) + source(6) + target(6) + seq(4) + ttl(2)


@dataclass(frozen=True, slots=True)
class ArpPathControl:
    """A control message of the ARP-Path protocol.

    ``origin``
        The bridge that generated the message.
    ``source`` / ``target``
        The end-host MAC addresses of the broken conversation: the
        repair re-establishes the path from *source* to *target*.
    ``seq``
        Per-origin sequence number; lets bridges and tests correlate a
        request with its reply and suppress stale retries.
    ``ttl``
        Hop budget, decremented on every relay; frames arriving with a
        zero budget are dropped (defence in depth against loops).

    A frozen value type without a ``__dict__``: control frames are
    re-allocated on every relay hop (:meth:`relayed`).
    """

    op: int
    origin: MAC
    source: MAC
    target: MAC
    seq: int = 0
    ttl: int = 64

    def __post_init__(self) -> None:
        if self.op not in _OP_NAMES:
            raise ValueError(f"unknown ARP-Path control op {self.op}")
        if self.seq < 0:
            raise ValueError("seq must be non-negative")
        if self.ttl < 0:
            raise ValueError("ttl must be non-negative")

    @property
    def op_name(self) -> str:
        return _OP_NAMES[self.op]

    @property
    def is_hello(self) -> bool:
        return self.op == OP_HELLO

    @property
    def is_path_request(self) -> bool:
        return self.op == OP_PATH_REQUEST

    @property
    def is_path_reply(self) -> bool:
        return self.op == OP_PATH_REPLY

    @property
    def is_path_fail(self) -> bool:
        return self.op == OP_PATH_FAIL

    @property
    def wire_size(self) -> int:
        return CONTROL_WIRE_SIZE

    def relayed(self) -> "ArpPathControl":
        """A copy with the hop budget decremented (for forwarding)."""
        if self.ttl <= 0:
            raise ValueError("control frame hop budget exhausted")
        return ArpPathControl(op=self.op, origin=self.origin,
                              source=self.source, target=self.target,
                              seq=self.seq, ttl=self.ttl - 1)

    def __str__(self) -> str:
        return (f"{self.op_name} origin={self.origin} source={self.source} "
                f"target={self.target} seq={self.seq}")


def make_hello(bridge_mac: MAC, seq: int = 0) -> ArpPathControl:
    """A link-local Hello announcing *bridge_mac* on a port."""
    return ArpPathControl(op=OP_HELLO, origin=bridge_mac, source=bridge_mac,
                          target=bridge_mac, seq=seq, ttl=1)


def make_path_request(origin: MAC, source: MAC, target: MAC, seq: int,
                      ttl: int) -> ArpPathControl:
    """A broadcast PathRequest looking for *target* on behalf of *source*."""
    return ArpPathControl(op=OP_PATH_REQUEST, origin=origin, source=source,
                          target=target, seq=seq, ttl=ttl)


def make_path_reply(origin: MAC, source: MAC, target: MAC, seq: int,
                    ttl: int) -> ArpPathControl:
    """The PathReply answering a PathRequest (sent with eth.src=target)."""
    return ArpPathControl(op=OP_PATH_REPLY, origin=origin, source=source,
                          target=target, seq=seq, ttl=ttl)


def make_path_fail(origin: MAC, source: MAC, target: MAC, seq: int,
                   ttl: int) -> ArpPathControl:
    """A PathFail notifying the source edge bridge that *target* was lost."""
    return ArpPathControl(op=OP_PATH_FAIL, origin=origin, source=source,
                          target=target, seq=seq, ttl=ttl)
