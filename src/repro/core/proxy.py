"""ARP-Proxy: broadcast suppression inside the bridges.

Paper §2.2 ("Scalability"): *"ARP broadcast traffic can be reduced
dramatically by implementing ARP Proxy function inside the switches"*,
citing EtherProxy (Elmeleegy & Cox, INFOCOM 2009). The bridge snoops
IP↔MAC bindings from every ARP packet it sees; when a host's ARP
Request arrives on a host-facing port and the answer is cached, the
bridge replies directly and the broadcast never enters the fabric.

Suppressed requests mean the data path to the target may not exist yet;
the first data frame then triggers the Path Repair machinery, which
builds it with a PathRequest race — preserving the minimum-latency
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.frames import arp as arp_proto
from repro.frames.arp import ArpPacket
from repro.frames.ipv4 import IPv4Address
from repro.frames.mac import MAC


@dataclass
class ProxyBinding:
    mac: MAC
    expires: float


@dataclass
class ProxyCounters:
    snooped: int = 0
    answered: int = 0
    misses: int = 0


class ArpProxy:
    """A snooping IP→MAC cache that can answer ARP Requests."""

    def __init__(self, timeout: float = 60.0):
        self.timeout = timeout
        self._bindings: Dict[IPv4Address, ProxyBinding] = {}
        self.counters = ProxyCounters()

    def snoop(self, pkt: ArpPacket, now: float) -> None:
        """Learn the sender binding from any ARP packet."""
        if int(pkt.spa) == 0 or pkt.sha.is_multicast:
            return
        self.counters.snooped += 1
        self._bindings[pkt.spa] = ProxyBinding(mac=pkt.sha,
                                               expires=now + self.timeout)

    def lookup(self, ip: IPv4Address, now: float) -> Optional[MAC]:
        binding = self._bindings.get(ip)
        if binding is None:
            return None
        if binding.expires <= now:
            del self._bindings[ip]
            return None
        return binding.mac

    def answer(self, request: ArpPacket, now: float) -> Optional[ArpPacket]:
        """The proxied ARP Reply for *request*, or None on cache miss.

        Gratuitous ARPs (target == sender) are never answered.
        """
        if not request.is_request or request.tpa == request.spa:
            return None
        mac = self.lookup(request.tpa, now)
        if mac is None:
            self.counters.misses += 1
            return None
        if mac == request.sha:
            return None
        self.counters.answered += 1
        return arp_proto.make_reply(mac, request.tpa, request.sha,
                                    request.spa)

    def clear(self) -> None:
        """Forget every snooped binding (bridge restart)."""
        self._bindings.clear()

    def __len__(self) -> int:
        return len(self._bindings)
