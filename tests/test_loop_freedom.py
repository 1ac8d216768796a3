"""Loop-freedom under churn, swept: the paper's headline claim.

The first copy of a broadcast locks its source to the ingress port and
later copies lose (§2.1.1, §2.1.3), so no bridge relays one broadcast
twice — provided every lock outlives the slowest copy of its race.
Each example builds a grid whose links carry up to 0.1–0.3 s of
jitter, so copies of one race reach a bridge up to a second apart; sets
``lock_timeout`` and ``guard_timeout`` to the race-spread bound; and
runs link flaps, unicast flows (so PathFails and repair races) and a
raw IPv4 broadcast from every host every 0.37 s under
:mod:`repro.check`, whose ``loop`` rule fails on a second relay.

Each of these relays a copy twice, and the sweep finds them: a PathFail
or a carrier loss that ends a race's lock along with the path it led
to; a broadcast accepted on a path port that arms no lock; and a bridge
that starts a repair with no path left to the source and accepts its
own PathRequest when it comes back over a loop.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import check
from repro.core.config import ArpPathConfig
from repro.frames.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.frames.mac import BROADCAST
from repro.netsim.dynamics import EventTimeline
from repro.netsim.engine import Simulator
from repro.topology import arppath, grid
from repro.traffic.matrix import TrafficMatrix

BROADCAST_INTERVAL = 0.37


def race_spread_bound(rows, cols, jitter, seed):
    """The sum of the fabric's link latencies. No bridge relays a race
    twice, so a copy's path is simple and crosses each link at most
    once: no copy trails the first one by more."""
    net = grid(Simulator(seed=seed), arppath(), rows, cols,
               latency_jitter=jitter, seed=seed)
    return sum(link.latency for link in net.fabric_links())


@pytest.mark.unchecked    # the checker is attached per example below
@settings(max_examples=60, derandomize=True, deadline=None)
# A repair started as a fallback at a bridge with no path left to the
# source: its own PathRequest came back over a loop and was relayed again.
@example(shape=(3, 3), jitter=0.1, seed=7)
@given(shape=st.sampled_from([(3, 3), (2, 4)]),
       jitter=st.sampled_from([0.1, 0.2, 0.3]),
       seed=st.integers(min_value=1, max_value=20))
def test_no_broadcast_is_relayed_twice_under_churn(shape, jitter, seed):
    rows, cols = shape
    bound = race_spread_bound(rows, cols, jitter, seed)
    config = ArpPathConfig(lock_timeout=bound, guard_timeout=bound)
    sim = Simulator(seed=seed)
    checker = check.attach(sim)
    net = grid(sim, arppath(config), rows, cols, latency_jitter=jitter,
               seed=seed)
    net.run(2.0)
    timeline = EventTimeline(net)
    flaps = timeline.random_churn(seed, start=3.0, duration=20.0,
                                  flap_rate=0.5, mean_down_time=0.5)
    timeline.arm()
    matrix = TrafficMatrix(net)
    matrix.random_pairs(4, packets=150, interval=0.1)
    matrix.start()
    hosts = [net.host(name) for name in sorted(net.hosts)]

    def shout():
        for host in hosts:
            host.port.send(EthernetFrame(BROADCAST, host.mac,
                                         ETHERTYPE_IPV4, bytes(46)))

    sim.schedule_periodic(BROADCAST_INTERVAL, shout)
    net.run(23.0)
    checker.close()
    bridges = net.bridges.values()
    assert flaps > 0
    assert sum(bridge.apc.broadcast_guard_filtered for bridge in bridges)
    assert sum(bridge.apc.discovery_filtered for bridge in bridges)
