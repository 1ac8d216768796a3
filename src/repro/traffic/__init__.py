"""Workloads: video streaming, ping trains, traffic matrices."""

from repro.traffic.matrix import (DEFAULT_FLOW_PORT_BASE, Flow, TrafficMatrix,
                                  all_pairs_arp_warmup)
from repro.traffic.ping import PingResult, PingSeries, ping_between
from repro.traffic.video import (DEFAULT_CHUNK_SIZE, DEFAULT_FPS,
                                 DEFAULT_PORT, Interruption, VideoChunk,
                                 VideoSink, VideoSource, stream_between)

__all__ = [
    "DEFAULT_FLOW_PORT_BASE", "Flow", "TrafficMatrix",
    "all_pairs_arp_warmup",
    "PingResult", "PingSeries", "ping_between",
    "DEFAULT_CHUNK_SIZE", "DEFAULT_FPS", "DEFAULT_PORT", "Interruption",
    "VideoChunk", "VideoSink", "VideoSource", "stream_between",
]
