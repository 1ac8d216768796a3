"""End-host models: one ARP/IPv4/UDP/ICMP stack, for a host or a
flyweight population of many."""

from repro.hosts.host import Host
from repro.hosts.population import (DEFAULT_ARP_TIMEOUT, Endpoint,
                                    HostCounters, HostPopulation)

__all__ = ["DEFAULT_ARP_TIMEOUT", "Host", "HostCounters", "Endpoint",
           "HostPopulation"]
