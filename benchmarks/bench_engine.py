"""EXP-E1: simulator micro-benchmarks (supporting, not from the paper).

Calibrates the substrate: event throughput, flood fan-out cost and the
cost of one full ARP race on the demo topology. These use normal
multi-round timing (the numbers are wall-clock performance, not
simulated results).
"""

from repro.netsim.engine import Simulator
from repro.topology import arppath, grid, netfpga_demo


def test_event_throughput(benchmark):
    """Schedule+fire cost of bare simulator events."""

    def burn():
        sim = Simulator(seed=0)
        for _ in range(10_000):
            sim.schedule(1.0, lambda: None)
        sim.run()
        return sim.events_processed

    events = benchmark(burn)
    assert events == 10_000


def test_arp_race_cost(benchmark):
    """One full ARP exchange (race + reply) on the demo topology."""

    def race():
        sim = Simulator(seed=0)
        net = netfpga_demo(sim, arppath())
        net.run(2.0)
        rtts = []
        net.host("A").ping(net.host("B").ip,
                           on_reply=lambda s, r: rtts.append(r))
        net.run(1.0)
        return len(rtts)

    answered = benchmark(race)
    assert answered == 1


def test_flood_fanout_cost(benchmark):
    """Broadcast storm-free flood over a 4x4 grid fabric."""

    def flood():
        sim = Simulator(seed=0)
        net = grid(sim, arppath(), 4, 4, hosts_at_corners=True)
        net.run(2.0)
        net.host("H0").gratuitous_arp()
        net.run(1.0)
        return sim.tracer.frames_sent

    sent = benchmark(flood)
    assert sent > 0


def test_sustained_stream_cost(benchmark):
    """1000 UDP datagrams across an established 3-bridge path."""
    from repro.topology import line

    def stream():
        sim = Simulator(seed=0)
        net = line(sim, arppath(), 3)
        net.run(2.0)
        h0, h1 = net.host("H0"), net.host("H1")
        got = []
        h1.bind_udp(9, lambda sip, sp, p, pkt: got.append(1))
        h0.send_udp(h1.ip, 9, 9, b"prime")
        net.run(1.0)
        # 10 us spacing keeps the sender under line rate; the whole
        # train is injected in one schedule_bulk batch (one heapify).
        sim.schedule_bulk((index * 10e-6, h0.send_udp, h1.ip, 9, 9,
                           b"x" * 200) for index in range(1000))
        net.run(1.0)
        return len(got)

    delivered = benchmark(stream)
    assert delivered == 1001
