"""Export simulated traffic as a standard pcap capture.

The byte codec (:mod:`repro.frames.codec`) gives every simulated frame
a real wire format; this module writes link-level events out as a
classic libpcap file that Wireshark/tcpdump can open — the simulator
equivalent of port-mirroring a NetFPGA interface.

Attach a :class:`PcapRecorder` to one or more links before the run:
every frame handed to those links is encoded and buffered at capture
time, then :meth:`PcapRecorder.save` writes the file and
:func:`read_pcap` parses one back.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.frames.codec import encode_frame
from repro.frames.ethernet import EthernetFrame
from repro.netsim.link import Link

#: libpcap magic (microsecond timestamps, little-endian).
PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
#: LINKTYPE_ETHERNET
PCAP_LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


def pcap_global_header(snaplen: int = 65_535) -> bytes:
    """The 24-byte libpcap file header."""
    return _GLOBAL_HEADER.pack(PCAP_MAGIC, PCAP_VERSION[0], PCAP_VERSION[1],
                               0, 0, snaplen, PCAP_LINKTYPE_ETHERNET)


def pcap_record(timestamp: float, frame_bytes: bytes) -> bytes:
    """One pcap record: header plus the captured bytes."""
    seconds = int(timestamp)
    micros = int(round((timestamp - seconds) * 1e6))
    if micros >= 1_000_000:  # rounding carried over
        seconds += 1
        micros -= 1_000_000
    header = _RECORD_HEADER.pack(seconds, micros, len(frame_bytes),
                                 len(frame_bytes))
    return header + frame_bytes


class PcapRecorder:
    """Captures frames transmitted on selected links.

    Wraps each link's ``transmit`` so every frame (including flooded
    copies) is encoded at capture time; the original behaviour is
    preserved. Detach with :meth:`close`.
    """

    def __init__(self, links: Sequence[Link], snaplen: int = 65_535):
        if not links:
            raise ValueError("need at least one link to capture")
        self.snaplen = snaplen
        self.packets: List[Tuple[float, bytes]] = []
        self._originals = []
        for link in links:
            self._attach(link)

    def _attach(self, link: Link) -> None:
        original = link.transmit

        def capturing_transmit(from_port, frame: EthernetFrame,
                               _original=original, _link=link):
            self._capture(_link.sim.now, frame)
            _original(from_port, frame)

        self._originals.append((link, original))
        link.transmit = capturing_transmit  # type: ignore[method-assign]

    def _capture(self, now: float, frame: EthernetFrame) -> None:
        raw = encode_frame(frame)[:self.snaplen]
        self.packets.append((now, raw))

    def close(self) -> None:
        """Restore the wrapped links (idempotent)."""
        for link, original in self._originals:
            link.transmit = original  # type: ignore[method-assign]
        self._originals.clear()

    # -- output --------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The complete capture as libpcap bytes."""
        chunks = [pcap_global_header(self.snaplen)]
        for timestamp, raw in self.packets:
            chunks.append(pcap_record(timestamp, raw))
        return b"".join(chunks)

    def save(self, path: str) -> int:
        """Write the capture to *path*; returns the packet count."""
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())
        return len(self.packets)

    def __len__(self) -> int:
        return len(self.packets)


def read_pcap(data: bytes) -> List[Tuple[float, bytes]]:
    """Parse libpcap bytes back into (timestamp, frame bytes) pairs.

    Supports exactly the dialect :func:`pcap_global_header` writes;
    used by the round-trip tests.
    """
    if len(data) < _GLOBAL_HEADER.size:
        raise ValueError("truncated pcap: no global header")
    (magic, _major, _minor, _tz, _sigfigs, _snaplen,
     linktype) = _GLOBAL_HEADER.unpack_from(data)
    if magic != PCAP_MAGIC:
        raise ValueError(f"bad pcap magic: {magic:#x}")
    if linktype != PCAP_LINKTYPE_ETHERNET:
        raise ValueError(f"unsupported linktype: {linktype}")
    packets = []
    offset = _GLOBAL_HEADER.size
    while offset < len(data):
        if offset + _RECORD_HEADER.size > len(data):
            raise ValueError("truncated pcap record header")
        seconds, micros, caplen, _origlen = _RECORD_HEADER.unpack_from(
            data, offset)
        offset += _RECORD_HEADER.size
        if offset + caplen > len(data):
            raise ValueError("truncated pcap record body")
        packets.append((seconds + micros / 1e6, data[offset:offset + caplen]))
        offset += caplen
    return packets
