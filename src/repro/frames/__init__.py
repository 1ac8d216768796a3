"""Frame and packet models: Ethernet, ARP, IPv4, UDP, ICMP, ARP-Path control.

This package is the frame substrate everything else builds on.
"""

from repro.frames.arp import (ArpPacket, OP_REPLY, OP_REQUEST, make_gratuitous,
                              make_reply, make_request)
from repro.frames.control import (ArpPathControl, HELLO_MULTICAST, OP_HELLO,
                                  OP_PATH_FAIL, OP_PATH_REPLY,
                                  OP_PATH_REQUEST, make_hello, make_path_fail,
                                  make_path_reply, make_path_request)
from repro.frames.ethernet import (ETH_MIN_FRAME, ETHERTYPE_ARP,
                                   ETHERTYPE_ARPPATH, ETHERTYPE_BPDU,
                                   ETHERTYPE_IPV4, ETHERTYPE_LSP,
                                   EthernetFrame, STP_MULTICAST)
from repro.frames.icmp import (IcmpEcho, TYPE_ECHO_REPLY, TYPE_ECHO_REQUEST,
                               make_echo_request)
from repro.frames.ipv4 import (IPv4Address, IPv4Packet, PROTO_ICMP, PROTO_UDP,
                               ip_for_host, payload_size)
from repro.frames.mac import BROADCAST, MAC, ZERO, mac_for_bridge, mac_for_host
from repro.frames.udp import UdpDatagram

__all__ = [
    "ArpPacket", "OP_REPLY", "OP_REQUEST", "make_gratuitous", "make_reply",
    "make_request",
    "ArpPathControl", "HELLO_MULTICAST", "OP_HELLO", "OP_PATH_FAIL",
    "OP_PATH_REPLY", "OP_PATH_REQUEST", "make_hello", "make_path_fail",
    "make_path_reply", "make_path_request",
    "ETH_MIN_FRAME", "ETHERTYPE_ARP", "ETHERTYPE_ARPPATH",
    "ETHERTYPE_BPDU", "ETHERTYPE_IPV4", "ETHERTYPE_LSP", "EthernetFrame",
    "STP_MULTICAST",
    "IcmpEcho", "TYPE_ECHO_REPLY", "TYPE_ECHO_REQUEST", "make_echo_request",
    "IPv4Address", "IPv4Packet", "PROTO_ICMP", "PROTO_UDP", "ip_for_host",
    "payload_size",
    "BROADCAST", "MAC", "ZERO", "mac_for_bridge", "mac_for_host",
    "UdpDatagram",
]
