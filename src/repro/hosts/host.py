"""End hosts: a single-homed host is a population of one.

The stack itself — ARP resolution, IPv4, UDP sockets, ICMP echo — is
:class:`~repro.hosts.population.HostPopulation`'s; a :class:`Host` adds
only its identity: a name and the MAC and IP it was given.
"""

from __future__ import annotations

from repro.frames.ipv4 import IPv4Address
from repro.frames.mac import MAC
from repro.hosts.population import (DEFAULT_ARP_TIMEOUT, HostPopulation,
                                    _Active)
from repro.netsim.engine import Simulator


class Host(HostPopulation):
    """A single-homed end host with an ARP/IPv4/UDP/ICMP stack."""

    def __init__(self, sim: Simulator, name: str, mac: MAC, ip: IPv4Address,
                 arp_timeout: float = DEFAULT_ARP_TIMEOUT):
        super().__init__(sim, name, 1, 0, arp_timeout)
        self.mac = mac
        self.ip = ip
        # Given addresses, not the builder's host-index plan.
        self._mac_base = mac._value
        self._ip_base = ip._value
        self._active[0] = _Active(mac, ip)

    def __repr__(self) -> str:
        return f"<Host {self.name} mac={self.mac} ip={self.ip}>"
