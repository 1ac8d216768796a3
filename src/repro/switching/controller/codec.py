"""Wire codec for controller-channel messages.

Registered with :func:`repro.frames.codec.register_ethertype` at import
(from the package ``__init__``), so the wire codec — and with it pcap
export — serialises controller frames losslessly, like every other
ethertype the simulator carries.

Layout (network byte order), matching
:data:`repro.switching.controller.frames.FIXED_WIRE_SIZE`::

    op(1) origin(6) src(6) dst(6) port(2, signed) seq(4) time(8, double)
    flags(1) nports(1) [port(2)] * nports

Decoding uses ``unpack_from`` and the ``nports`` count, so the zero
padding short frames carry on the wire is ignored.
"""

from __future__ import annotations

import struct

from repro.frames.codec import CodecError, register_ethertype
from repro.frames.ethernet import ETHERTYPE_CONTROLLER
from repro.frames.mac import MAC
from repro.switching.controller.frames import ControllerControl

_FIXED = struct.Struct("!B6s6s6shIdBB")
_PORT = struct.Struct("!H")


def encode_controller(msg: ControllerControl) -> bytes:
    ports = msg.ports
    raw = _FIXED.pack(msg.op, msg.origin.to_bytes(), msg.src.to_bytes(),
                      msg.dst.to_bytes(), msg.port, msg.seq, msg.time,
                      msg.flags, len(ports))
    if ports:
        raw += struct.pack(f"!{len(ports)}H", *ports)
    return raw


def decode_controller(data: bytes) -> ControllerControl:
    if len(data) < _FIXED.size:
        raise CodecError(f"controller message too short: {len(data)} bytes")
    (op, origin, src, dst, port, seq, time, flags,
     nports) = _FIXED.unpack_from(data)
    end = _FIXED.size + 2 * nports
    if len(data) < end:
        raise CodecError(f"controller message truncated port list: "
                         f"{len(data)} < {end} bytes")
    ports = struct.unpack_from(f"!{nports}H", data, _FIXED.size) \
        if nports else ()
    try:
        return ControllerControl(op=op, origin=MAC(origin), src=MAC(src),
                                 dst=MAC(dst), port=port, seq=seq,
                                 time=time, flags=flags, ports=ports)
    except ValueError as exc:
        raise CodecError(str(exc)) from exc


register_ethertype(ETHERTYPE_CONTROLLER, encode_controller,
                   decode_controller)
