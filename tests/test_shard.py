"""Tests for the sharded parallel engine, a library seam behind
``scale.run_case_sharded``.

The acceptance bar is the determinism contract: sharded and
single-process runs produce **byte-identical experiment records at any
shard count**. Rows here are frozen-field dataclasses built from
primitives, so ``==`` over :class:`ScaleRow` *is* byte-identity of the
records. The single-engine run is ``shards=1`` of the one cell body, so
the independent reference is the ``scale`` goldens in
``tests/goldens.json``, re-run here at K = 2 and 3
(:class:`TestFrozenReference`).

Also pinned: the by-reference frame hand-over across the cut, the
frozen wiring of an adopted network, the per-shard seed derivation
(part of the determinism contract — re-deriving differently would
silently change any future experiment drawing from ``sim.rng``), the
BFS-band partition, the ``run_below`` window primitive, and the
``audit_pending_events`` cross-check against the O(1) counter.
"""

import dataclasses
import functools
import threading
import time

import pytest

import goldens
from repro.core.config import ArpPathConfig
from repro.experiments import common, scale
from repro.experiments.registry import protocol_specs
from repro.netsim.engine import Simulator
from repro.netsim.errors import TopologyError
from repro.netsim import shard as shard_mod
from repro.netsim.shard import (ShardedSimulator, ShardRuntime,
                                ShardStallError, ShardWorkerError,
                                derive_shard_seed, run_sharded)
from repro.netsim.tracer import DELIVERED, DROP_LINK_DOWN
from repro.topology import arppath, grid, line
from repro.topology.partition import partition_network
from repro.traffic.matrix import TrafficMatrix


def spec(name):
    return protocol_specs([name], stp_scale=0.1)[0]


def arppath_spec():
    return spec("arppath")


class TestDeriveShardSeed:
    def test_identity_at_shard_zero(self):
        for seed in (0, 1, 7, 12345, 2**31):
            assert derive_shard_seed(seed, 0) == seed

    def test_pinned_values(self):
        # The derivation is part of the determinism contract: these
        # exact values must never change (seed ^ golden-ratio mix).
        assert derive_shard_seed(0, 1) == 2654435769
        assert derive_shard_seed(0, 2) == 1013904242
        assert derive_shard_seed(7, 0) == 7
        assert derive_shard_seed(5, 1) == 2654435772

    def test_siblings_never_collide(self):
        seeds = [derive_shard_seed(0, k) for k in range(16)]
        assert len(set(seeds)) == 16


class TestPartition:
    def test_plan_is_deterministic(self, sim):
        net = grid(sim, arppath(), 3, 3, hosts_at_corners=True)
        first = partition_network(net, 3)
        second = partition_network(net, 3)
        assert first.node_shard == second.node_shard
        assert first.cut_links == second.cut_links
        assert first.lookahead == second.lookahead

    def test_hosts_ride_with_access_bridge(self, sim):
        net = grid(sim, arppath(), 3, 3, hosts_at_corners=True)
        plan = partition_network(net, 3)
        for name, host in net.hosts.items():
            access = host.port.peer.node.name
            assert plan.shard_of(name) == plan.shard_of(access)

    def test_host_links_never_cut(self, sim):
        net = grid(sim, arppath(), 3, 3, hosts_at_corners=True)
        plan = partition_network(net, 4)
        for link_name in plan.cut_links:
            wire = net.links[link_name]
            assert wire.port_a.node.name in net.bridges
            assert wire.port_b.node.name in net.bridges

    def test_single_shard_cuts_nothing(self, sim):
        net = grid(sim, arppath(), 3, 3, hosts_at_corners=True)
        plan = partition_network(net, 1)
        assert plan.cut_links == ()
        assert plan.lookahead == float("inf")

    def test_more_shards_than_bridges_refused(self, sim):
        net = grid(sim, arppath(), 2, 2)
        with pytest.raises(TopologyError):
            partition_network(net, 5)


class TestScaleParity:
    """Sharded scale rows are byte-identical to single-process rows."""

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_grid_rows_identical(self, shards, seed):
        spec = arppath_spec()
        direct = scale.run_case(spec, "grid", 16, seed=seed)
        sharded = scale.run_case_sharded(spec, "grid", 16, seed=seed,
                                         shards=shards)
        assert sharded == direct

    def test_stp_display_name_rebuilds_by_key(self):
        # Scaled STP's display name is "stp(x0.1)", not a registry key.
        # This was a real crash when workers rebuilt the spec by name:
        # any sharded run including stp died with "unknown protocol:
        # stp(x0.1)". Workers now get the caller's spec itself.
        spec = protocol_specs(["stp"], stp_scale=0.1)[0]
        assert spec.name == "stp(x0.1)"
        direct = scale.run_case(spec, "grid", 9, seed=0)
        sharded = scale.run_case_sharded(spec, "grid", 9, seed=0,
                                         shards=2)
        assert sharded == direct

    def test_learning_line_rows_identical(self):
        spec = protocol_specs(["learning"], stp_scale=0.1)[0]
        direct = scale.run_case(spec, "line", 16, seed=0)
        sharded = scale.run_case_sharded(spec, "line", 16, seed=0,
                                         shards=2)
        assert sharded == direct

    def test_shards_one_is_passthrough(self):
        spec = arppath_spec()
        assert scale.run_case_sharded(spec, "grid", 9, seed=0,
                                      shards=1) \
            == scale.run_case(spec, "grid", 9, seed=0)


class TestCallerSpecHonoured:
    """Every shard count runs the spec it was handed, not the registry
    default of the same family (workers used to rebuild the spec by
    key at K > 1, silently dropping a custom config)."""

    CELL = dict(kind="grid", size=9, pairs=3, probes=3, seed=1)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_custom_arppath_config(self, shards):
        brisk = common.spec("arppath",
                            arppath_config=ArpPathConfig(hello_interval=0.25))
        single = scale.run_case(brisk, **self.CELL)
        assert single != scale.run_case(arppath_spec(), **self.CELL)
        assert scale.run_case_sharded(brisk, shards=shards,
                                      **self.CELL) == single

    @pytest.mark.parametrize("shards", [2, 3])
    def test_hellos_disabled(self, shards):
        quiet = common.spec("arppath",
                            arppath_config=ArpPathConfig(hello_enabled=False))
        single = scale.run_case(quiet, **self.CELL)
        assert single.control_frames == 0  # the default family sends 28
        sharded = scale.run_case_sharded(quiet, shards=shards, **self.CELL)
        # peak_wheel_timers is left out: which timers a sample finds
        # still on the wheel depends on what else heads the engine's
        # heap (pours go bucket by bucket), and with no hellos a shard's
        # heap is too quiet to pour in step with the single engine
        # (21 there, 24 sharded; the wheel + heap total is equal).
        assert dataclasses.replace(
            sharded, peak_wheel_timers=single.peak_wheel_timers) == single

    @pytest.mark.parametrize("shards", [2, 3])
    def test_pre_scaled_stp(self, shards):
        slower = common.spec("stp", stp_scale=0.2)
        single = scale.run_case(slower, **self.CELL)
        assert single.protocol == "stp(x0.2)"
        assert single != scale.run_case(spec("stp"), **self.CELL)
        assert scale.run_case_sharded(slower, shards=shards,
                                      **self.CELL) == single


def sharded_cells():
    """The single-engine ``scale`` goldens at shards 2 and 3.

    ``scale-spb-line`` is checked at K = 1 only: SPB's synchronised LSP
    floods on the line produce *exact* same-instant ties across a cut,
    the documented limit of the boundary order.
    """
    return [pytest.param(cell, shards, id=f"{cell}-k{shards}")
            for cell in ("arppath-grid", "stp-grid", "spb-grid",
                         "controller-grid", "arppath-line", "stp-line",
                         "learning-line", "controller-line")
            for shards in (2, 3)]


class TestFrozenReference:
    """Every shard count reproduces the single-engine goldens.

    The ``scale`` entries of ``tests/goldens.json`` pin the rows of the
    deleted hand-written single-engine bodies (``tests/test_goldens.py``
    checks them at K = 1). Here each one re-runs with its cell split
    over two and three engines and must hash to the same digest.
    """

    @staticmethod
    def check(monkeypatch, golden_id, shards):
        monkeypatch.setattr(scale, "run_case", functools.partial(
            scale.run_case_sharded, shards=shards))
        golden = goldens.by_id(golden_id)
        assert goldens.digest(golden) == golden["sha256"], \
            f"{golden_id} moved at {shards} shards"

    @pytest.mark.parametrize("cell,shards", sharded_cells())
    def test_scale_rows(self, monkeypatch, cell, shards):
        self.check(monkeypatch, f"scale-{cell}", shards)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_population_rows(self, monkeypatch, shards):
        self.check(monkeypatch, "scale-population-arppath-grid", shards)


class TestDrainPathAcrossTheCut:
    """A frame leaving through ``Link._drain`` crosses the cut at the
    local instant, to the ulp.

    On this congested population cell ``_start_tx`` used to export
    ``now + ser + latency`` while scheduling the local delivery at
    ``now + (ser + latency)``; one ulp apart, which flipped a
    downstream ``busy_until > now`` test and queued one frame more or
    fewer (114202 events single-engine, 114203 at K=2, 114200 at K=3).
    """

    CELL = dict(kind="grid", size=64, pairs=24, probes=16, seed=1,
                endpoints_per_port=2500)

    @pytest.fixture(scope="class")
    def single(self):
        return scale.run_case(arppath_spec(), **self.CELL)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_row_equal_including_events_processed(self, single, shards):
        sharded = scale.run_case_sharded(arppath_spec(), shards=shards,
                                         **self.CELL)
        assert sharded.events_processed == single.events_processed
        assert sharded == single


@pytest.fixture
def runtimes(monkeypatch):
    """Every ``ShardRuntime`` that adopts a network during the test."""
    adopted = []
    adopt = ShardRuntime.adopt

    def spying_adopt(runtime, net, plan):
        adopt(runtime, net, plan)
        adopted.append(runtime)

    monkeypatch.setattr(ShardRuntime, "adopt", spying_adopt)
    return adopted


class TestSingleEngineIsMachineryFree:
    """``shards=1`` of a cell body installs none of the boundary
    machinery — what makes "single-engine = shards 1" cost nothing."""

    def assert_plain(self, runtime):
        net = runtime.net
        assert runtime.endpoint is None
        assert net.sim.now > 0 and net.sim.events_processed > 0
        for nodes in (net.bridges, net.hosts, net.populations,
                      net.controllers):
            assert not any(node.shard_ghost for node in nodes.values())
        for wire in net.links.values():
            assert "take_down" not in vars(wire)
            assert all(direction.export is None
                       for direction in wire._dirs.values())

    @pytest.mark.parametrize("protocol", ["arppath", "controller"])
    def test_scale_body(self, runtimes, protocol):
        scale.run_case(spec(protocol), "grid", 9, pairs=2, probes=2,
                       endpoints_per_port=10)
        (runtime,) = runtimes
        self.assert_plain(runtime)


def _cut_flap_worker(shard_id, shard_count, endpoint):
    """A flow over B1-B2 — the cut at K=2 — while that link flaps:
    200 us of propagation keeps some 20 frames in flight at the cut,
    part released on the importing engine, part still staged."""
    sim = Simulator(seed=derive_shard_seed(3, shard_id))
    net = line(sim, arppath(), 4, latency=2e-4)
    runtime = ShardRuntime(sim, shard_id, endpoint)
    runtime.adopt(net, partition_network(net, shard_count))
    runtime.run_for(5.0)
    matrix = TrafficMatrix(net)
    matrix.add_flow("H0", "H1", packets=600, interval=1e-5, size=1000)
    matrix.start(owner=runtime.owns)
    wire = net.link_between("B1", "B2")
    # Replicated dynamics: every shard replays the flap on its replica.
    sim.at(sim.now + 3.0e-3, wire.take_down)
    sim.at(sim.now + 3.5e-3, wire.bring_up)
    runtime.run_for(0.02)
    cut = [direction for wire in runtime._links.values()
           for direction in wire._dirs.values()]
    return {
        "cut_links": sorted(runtime._links),
        "carrier_drops": {name: wire.carrier_drops
                          for name, wire in net.links.items()},
        "drop_link_down": sim.tracer.count(DROP_LINK_DOWN),
        "delivered": sim.tracer.count(DELIVERED),
        "cut_pending": sum(len(direction.pending) for direction in cut),
        "pending_adjust": runtime.pending_adjust(),
    }


class TestInFlightFifoAcrossTheCut:
    """The import side of a cut link keeps the same in-flight FIFO as a
    local direction: nothing fired is retained, and a carrier loss
    drops exactly what the single engine drops."""

    def test_cut_link_flap_drops_what_the_single_engine_drops(self):
        (single,) = run_sharded(_cut_flap_worker, 1)
        halves = run_sharded(_cut_flap_worker, 2)
        assert single["cut_links"] == []
        assert all(half["cut_links"] == ["B1-B2"] for half in halves)
        merged = {name: {port: sum(half["carrier_drops"][name][port]
                                   for half in halves)
                         for port in drops}
                  for name, drops in single["carrier_drops"].items()}
        assert merged == single["carrier_drops"]
        assert sum(single["carrier_drops"]["B1-B2"].values()) >= 20
        for key in ("drop_link_down", "delivered"):
            assert sum(half[key] for half in halves) == single[key]
        # Quiescent at the end: nothing in flight, nothing retained.
        assert [half["cut_pending"] for half in halves] == [0, 0]
        assert [half["pending_adjust"] for half in halves] == [(0, 0)] * 2

    def test_no_fired_import_is_retained_after_a_scale_cell(self, runtimes):
        scale.run_case_sharded(arppath_spec(), "grid", 16, pairs=4,
                               probes=4, endpoints_per_port=50, shards=2)
        assert len(runtimes) == 2
        for runtime in runtimes:
            assert runtime._links and runtime._export_seq > 0
            for wire in runtime._links.values():
                for direction in wire._dirs.values():
                    # Hellos may be mid-flight at the final instant;
                    # the leak was thousands of *fired* events.
                    assert all(event._sim is not None
                               for event in direction.pending)
                    assert len(direction.pending) <= 1


class TestHandOver:
    """A frame crossing the cut is handed over by reference: the
    importing engine delivers the very object the exporting engine
    transmitted, and its ``repr`` (addresses, ethertype, payload field
    by field, uid and hop trace) is the same at export, at delivery and
    at cell end — the immutability the hand-over rests on."""

    CELLS = [pytest.param(protocol, {}, id=protocol)
             for protocol in ("arppath", "stp", "spb", "controller")] \
        + [pytest.param("arppath", dict(pairs=2, probes=2,
                                        endpoints_per_port=10),
                        id="population")]

    @pytest.fixture
    def crossings(self, monkeypatch):
        """``(exported, delivered)``: every frame object a cut direction
        exported, by id, with its ``repr`` at each export; every frame
        the importing side delivered, with its ``repr`` at delivery."""
        exported, delivered = {}, []
        adopt = ShardRuntime.adopt

        def spy_export(export):
            def spy(send_time, deliver_time, frame):
                exported.setdefault(id(frame), (frame, []))[1].append(
                    repr(frame))
                export(send_time, deliver_time, frame)
            return spy

        def spy_deliver(deliver):
            def spy(direction, frame):
                delivered.append((frame, repr(frame)))
                deliver(direction, frame)
            return spy

        def spying_adopt(runtime, net, plan):
            adopt(runtime, net, plan)
            for wire in runtime._links.values():
                # A cut link's deliveries on this engine are exactly the
                # frames released from the peer's exports.
                wire._deliver_cb = spy_deliver(wire._deliver_cb)
                for direction in wire._dirs.values():
                    if direction.export is not None:
                        direction.export = spy_export(direction.export)

        monkeypatch.setattr(ShardRuntime, "adopt", spying_adopt)
        return exported, delivered

    @pytest.mark.parametrize("protocol,extra", CELLS)
    def test_released_frame_is_the_exported_object(self, crossings,
                                                   protocol, extra):
        exported, delivered = crossings
        scale.run_case_sharded(spec(protocol), "grid", 9, seed=1,
                               shards=2, **extra)
        assert delivered
        for frame, at_delivery in delivered:
            source, at_export = exported.get(id(frame), (None, []))
            assert source is frame
            assert set(at_export) == {at_delivery}
            assert repr(frame) == at_delivery


def test_link_added_after_adopt_is_refused(sim):
    net = grid(sim, arppath(), 3, 3, hosts_at_corners=True)
    plan = partition_network(net, 2)
    assert plan.shard_of("H0") != plan.shard_of("B2_2")
    ShardRuntime(sim, 0, None).adopt(net, plan)
    with pytest.raises(TopologyError, match="H0-B2_2"):
        net.migrate_host("H0", "B2_2")
    assert "H0-B2_2" not in net.links


def live_shard_threads(before):
    """Names of ``shard-*`` threads started since *before* and alive."""
    return sorted(thread.name for thread in threading.enumerate()
                  if thread not in before
                  and thread.name.startswith("shard-"))


class TestRunSharded:
    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            run_sharded(lambda *a: None, 0)
        with pytest.raises(ValueError):
            ShardedSimulator(0)

    def test_single_shard_runs_inline(self):
        calls = []

        def worker(shard_id, shard_count, endpoint):
            calls.append((shard_id, shard_count, endpoint))
            return shard_id

        assert run_sharded(worker, 1) == [0]
        assert calls == [(0, 1, None)]

    def test_worker_failure_raises_with_traceback(self):
        def worker(shard_id, shard_count, endpoint):
            raise RuntimeError(f"boom in shard {shard_id}")

        with pytest.raises(ShardWorkerError, match="boom in shard"):
            run_sharded(worker, 2)

    def test_failed_worker_leaves_no_live_peer(self):
        # Shard 1 is parked in recv on a shard that will never answer;
        # the fabric close must unwind it (it used to leak, holding its
        # whole replica network, in every pool worker).
        def worker(shard_id, shard_count, endpoint):
            if shard_id == 0:
                raise RuntimeError("boom")
            endpoint.recv(0)

        before = set(threading.enumerate())
        with pytest.raises(ShardWorkerError, match="boom") as excinfo:
            run_sharded(worker, 2)
        # The report is the original failure, not the peers' unwinding.
        assert "fabric closed" not in str(excinfo.value)
        assert live_shard_threads(before) == []


class TestRunBelow:
    def test_strictly_below_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(3.0, fired.append, "c")
        sim.run_below(2.0)
        # The event at exactly the bound must NOT fire: the window only
        # guarantees knowledge of remote events below it.
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run_below(3.0 + 1e-9)
        assert fired == ["a", "b", "c"]

    def test_jumps_clock_when_idle(self):
        sim = Simulator()
        sim.run_below(5.0)
        assert sim.now == 5.0

    def test_noop_at_or_before_now(self):
        sim = Simulator()
        sim.run_for(2.0)
        sim.run_below(2.0)
        sim.run_below(1.0)
        assert sim.now == 2.0

    def test_pours_wheel_timers_in_window(self):
        sim = Simulator()
        fired = []
        sim.schedule_timer(0.5, fired.append, "timer")
        sim.schedule_timer(5.0, fired.append, "late")
        sim.run_below(1.0)
        assert fired == ["timer"]
        assert sim.pending_events == 1  # the late timer survives


class TestAuditPendingEvents:
    """The O(n) audit agrees with the O(1) counter through bulk
    scheduling, timer-wheel pours and cancellations."""

    def test_bulk_and_timers_and_cancels(self):
        sim = Simulator()
        sink = []
        bulk = sim.schedule_bulk(
            [(0.1 * i, sink.append, i) for i in range(10)])
        timers = [sim.schedule_timer(0.05 + 0.2 * i, sink.append, 100 + i)
                  for i in range(5)]
        assert sim.pending_events == 15
        assert sim.audit_pending_events() == 15

        bulk[3].cancel()
        timers[0].cancel()
        timers[4].cancel()
        assert sim.audit_pending_events() == sim.pending_events == 12

        # Run partway: pours move timers from the wheel to the heap —
        # the audit must count both homes without double-counting.
        sim.run(until=0.45)
        assert sim.audit_pending_events() == sim.pending_events

        sim.run(until=10.0)
        assert sim.audit_pending_events() == sim.pending_events == 0
        assert len(sink) == 12

    def test_audit_after_run_below_window(self):
        sim = Simulator()
        sink = []
        sim.schedule_bulk([(0.2, sink.append, "a"), (0.8, sink.append, "b")])
        sim.schedule_timer(0.5, sink.append, "t")
        sim.run_below(0.5)
        assert sink == ["a"]
        assert sim.audit_pending_events() == sim.pending_events == 2


def _wedged_worker(shard_id, shard_count, endpoint):
    # Shard 0 wedges before its first round; the others block forever
    # in recv waiting for its horizon message.
    import time as _time
    if shard_id == 0:
        _time.sleep(3600.0)
        return
    for peer in endpoint.peers:
        endpoint.send(peer, (0.0, False, []))
    for peer in endpoint.peers:
        endpoint.recv(peer)


class TestStallWatchdog:
    def test_thread_mesh_stall_raises_with_snapshot(self):
        before = set(threading.enumerate())
        with pytest.raises(ShardStallError) as excinfo:
            run_sharded(_wedged_worker, 2, stall_budget=0.5)
        assert sorted(excinfo.value.snapshot) == [0, 1]
        # snapshot rows carry the per-shard progress fields
        for fields in excinfo.value.snapshot.values():
            assert {"rounds", "horizon", "staged"} <= set(fields)
        # The peer parked in recv unwound; only the shard wedged
        # outside the protocol (a sleep) is beyond a thread's reach.
        assert live_shard_threads(before) == ["shard-0"]

    def test_stall_error_is_a_shard_worker_error(self):
        assert issubclass(ShardStallError, ShardWorkerError)

    def test_fingerprint_ignores_round_counter(self):
        # A shard spinning rounds without advancing its horizon is a
        # livelock, and must still count as stalled.
        board = shard_mod.ProgressBoard(2)
        board.update(0, rounds=1, horizon=1.0, now=0.5, staged=3)
        before = board.fingerprint()
        board.update(0, rounds=99, horizon=1.0, now=0.5, staged=3)
        assert board.fingerprint() == before
        board.update(0, rounds=100, horizon=2.0, now=0.5, staged=3)
        assert board.fingerprint() != before

    def test_healthy_mesh_never_trips_the_watchdog(self):
        def worker(shard_id, shard_count, endpoint):
            return shard_id

        assert run_sharded(worker, 2, stall_budget=30.0) == [0, 1]

    def test_advancing_mesh_is_never_aborted(self, monkeypatch):
        # Progress is the only hang detector: a mesh whose board keeps
        # moving outlives the stall budget — and the progress-blind
        # 600 s wall limit that used to sit beside it (patched short
        # here so the parent's false abort shows).
        monkeypatch.setattr(shard_mod, "_WORKER_TIMEOUT", 0.2,
                            raising=False)

        def worker(shard_id, shard_count, endpoint):
            deadline = time.monotonic() + 0.8
            rounds = 0
            while time.monotonic() < deadline:
                rounds += 1
                endpoint.progress.update(shard_id, rounds, float(rounds),
                                         0.0, 0)
                time.sleep(0.02)
            return shard_id

        assert run_sharded(worker, 2, stall_budget=0.3) == [0, 1]
