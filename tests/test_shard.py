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
BFS-band partition, the ``run_below`` window primitive, the
``audit_pending_events`` cross-check against the O(1) counter, and the
lockstep driver: shard bodies are generators stepped in the calling
thread, and every body that leaves the lockstep early is named.
"""

import ast
import functools
import pathlib
import threading

import pytest

import goldens
from repro.core.config import ArpPathConfig
from repro.experiments import common, scale
from repro.experiments.registry import protocol_specs
from repro.netsim.engine import Simulator
from repro.netsim.errors import TopologyError
from repro.netsim.shard import (ShardedSimulator, ShardRuntime,
                                ShardWorkerError, derive_shard_seed,
                                run_sharded)
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
        assert scale.run_case_sharded(quiet, shards=shards,
                                      **self.CELL) == single

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
    The ``shard_pair`` benchmark's own cell shape (size 100, seed 3) is
    pinned beside it at K=2.
    """

    CELLS = {
        "congested": dict(kind="grid", size=64, pairs=24, probes=16,
                          seed=1, endpoints_per_port=2500),
        "shard_pair": dict(kind="grid", size=100, pairs=12, probes=16,
                           seed=3, endpoints_per_port=2500),
    }

    @pytest.fixture(scope="class")
    def singles(self):
        """Single-engine rows by cell name, each computed once."""
        return {}

    @pytest.mark.parametrize("cell,shards", [
        pytest.param("congested", 2, id="2"),
        pytest.param("congested", 3, id="3"),
        pytest.param("shard_pair", 2, id="shard_pair-2")])
    def test_row_equal_including_events_processed(self, singles, cell,
                                                  shards):
        if cell not in singles:
            singles[cell] = scale.run_case(arppath_spec(),
                                           **self.CELLS[cell])
        single = singles[cell]
        sharded = scale.run_case_sharded(arppath_spec(), shards=shards,
                                         **self.CELLS[cell])
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
        assert runtime.peers is None
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


def _cut_flap_worker(shard_id, shard_count, peers):
    """A flow over B1-B2 — the cut at K=2 — while that link flaps:
    200 us of propagation keeps some 20 frames in flight at the cut,
    part released on the importing engine, part still staged."""
    sim = Simulator(seed=derive_shard_seed(3, shard_id))
    net = line(sim, arppath(), 4, latency=2e-4)
    runtime = ShardRuntime(sim, shard_id, peers)
    runtime.adopt(net, partition_network(net, shard_count))
    yield from runtime.run_for(5.0)
    matrix = TrafficMatrix(net)
    matrix.add_flow("H0", "H1", packets=600, interval=1e-5, size=1000)
    matrix.start(owner=runtime.owns)
    wire = net.link_between("B1", "B2")
    # Replicated dynamics: every shard replays the flap on its replica.
    sim.at(sim.now + 3.0e-3, wire.take_down)
    sim.at(sim.now + 3.5e-3, wire.bring_up)
    yield from runtime.run_for(0.02)
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
        assert [half["pending_adjust"] for half in halves] == [0, 0]

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


def _lockstep_body(shard_id, peers, rounds, log=None):
    """A generator shard body: *rounds* lockstep rounds, each yielding
    ``(shard_id, round)`` to every peer and checking that each peer's
    message for the same round came back. *log* collects ``"closed"``
    when the driver closes the body early."""
    try:
        for index in range(rounds):
            inbox = yield {peer: (shard_id, index) for peer in peers}
            assert inbox == {peer: (peer, index) for peer in peers}
    except GeneratorExit:
        if log is not None:
            log.append("closed")
        raise
    return shard_id


class TestRunSharded:
    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            run_sharded(lambda *a: None, 0)
        with pytest.raises(ValueError):
            ShardedSimulator(0)

    def test_single_shard_runs_inline(self):
        calls = []

        def worker(shard_id, shard_count, peers):
            calls.append((shard_id, shard_count, peers))
            return shard_id

        assert run_sharded(worker, 1) == [0]
        assert calls == [(0, 1, None)]

    def test_worker_failure_raises_with_traceback(self):
        def worker(shard_id, shard_count, peers):
            yield from _lockstep_body(shard_id, peers, 2)
            raise RuntimeError(f"boom in shard {shard_id}")

        with pytest.raises(ShardWorkerError, match="boom in shard 0") \
                as excinfo:
            run_sharded(worker, 2)
        message = str(excinfo.value)
        assert message.startswith("shard 0:\nTraceback")
        assert "in worker" in message

        def plain(shard_id, shard_count, peers):
            raise RuntimeError(f"boom in shard {shard_id}")

        with pytest.raises(ShardWorkerError, match="shard 0:\nTraceback"):
            run_sharded(plain, 2)

    def test_failed_worker_leaves_no_live_peer(self):
        # Shard 0 fails in round 3 while shard 1 would run forever:
        # the run fails at once, the peer is closed at its yield, and
        # no thread was ever started.
        log = []

        def worker(shard_id, shard_count, peers):
            if shard_id == 0:
                yield from _lockstep_body(shard_id, peers, 2)
                raise RuntimeError("boom")
            yield from _lockstep_body(shard_id, peers, 10**9, log)

        threads = threading.active_count()
        with pytest.raises(ShardWorkerError, match="boom") as excinfo:
            run_sharded(worker, 2)
        assert str(excinfo.value).startswith("shard 0:")
        assert log == ["closed"]
        assert threading.active_count() == threads


class TestLockstep:
    """The driver steps K generator bodies round by round in the calling
    thread; a body that leaves the lockstep early is a named error."""

    def test_plain_worker_returns_its_value(self):
        # The benchmark's spawn probe: a worker that never yields.
        calls = []

        def worker(shard_id, shard_count, peers):
            calls.append(peers)
            return shard_id

        assert ShardedSimulator(2).run(worker) == [0, 1]
        assert run_sharded(worker, 3) == [0, 1, 2]
        assert calls == [[1], [0], [1, 2], [0, 2], [0, 1]]

    def test_each_round_hands_every_shard_its_peers_messages(self):
        # A long mesh runs to completion: there is no time budget.
        def worker(shard_id, shard_count, peers):
            return (yield from _lockstep_body(shard_id, peers, 2000))

        for shards in (2, 3):
            assert run_sharded(worker, shards) == list(range(shards))

    def test_body_returning_mid_phase_names_both_shards(self):
        log = []

        def worker(shard_id, shard_count, peers):
            if shard_id == 0:
                return (yield from _lockstep_body(shard_id, peers, 1))
            return (yield from _lockstep_body(shard_id, peers, 10**9,
                                              log))

        threads = threading.active_count()
        with pytest.raises(ShardWorkerError,
                           match="shard 0 returned in round 2 while "
                                 "shard 1 still yielded in round 2"):
            run_sharded(worker, 2)
        assert log == ["closed"]
        assert threading.active_count() == threads

    def test_plain_worker_beside_a_yielding_peer(self):
        def worker(shard_id, shard_count, peers):
            if shard_id == 1:
                return shard_id         # a plain call, not a generator
            return _lockstep_body(shard_id, peers, 3)

        with pytest.raises(ShardWorkerError,
                           match="shard 1 returned in round 0 while "
                                 "shard 0 still yielded in round 1"):
            run_sharded(worker, 2)

    def test_single_engine_body_never_yields(self):
        def worker(shard_id, shard_count, peers):
            return (yield from _lockstep_body(shard_id, [], 1))

        with pytest.raises(ShardWorkerError, match="single engine"):
            run_sharded(worker, 1)


#: ShardRuntime's generator methods: a bare call builds a generator and
#: drops it, so the shard silently runs nothing.
_LOCKSTEP_CALLS = {"run_for", "run_until"}


def bare_lockstep_calls(source, filename="<src>"):
    """``file:line`` of each statement that calls ``runtime.run_for``
    / ``run_until`` (``self.run_*`` inside ``ShardRuntime``) without
    ``yield from``."""
    found = []

    def visit(node, in_runtime):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name == "ShardRuntime")
                continue
            if isinstance(child, ast.Expr) \
                    and isinstance(child.value, ast.Call) \
                    and isinstance(child.value.func, ast.Attribute) \
                    and child.value.func.attr in _LOCKSTEP_CALLS:
                receiver = ast.unparse(child.value.func.value)
                if "runtime" in receiver.lower() \
                        or (in_runtime and receiver == "self"):
                    found.append(f"{filename}:{child.lineno}")
            visit(child, in_runtime)

    visit(ast.parse(source), False)
    return found


class TestLockstepCallsAreDriven:
    SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

    def test_no_bare_run_for_or_run_until_in_src(self):
        sources = {str(path.relative_to(self.SRC)): path.read_text()
                   for path in sorted(self.SRC.rglob("*.py"))}
        bare = [site for name, source in sources.items()
                for site in bare_lockstep_calls(source, name)]
        assert bare == []
        driven = sum(source.count("yield from runtime.run_for(")
                     for source in sources.values())
        assert driven >= 4              # the scale body's four phases

    def test_the_check_sees_a_bare_call(self):
        source = ("def body(runtime):\n"
                  "    runtime.run_for(1.0)\n"
                  "    yield from runtime.run_for(1.0)\n"
                  "class ShardRuntime:\n"
                  "    def run_for(self, duration):\n"
                  "        self.run_until(duration)\n"
                  "def plain(sim):\n"
                  "    sim.run_for(1.0)\n")
        assert bare_lockstep_calls(source) == ["<src>:2", "<src>:6"]


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
    scheduling, timers and cancellations."""

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

        # Run partway: cancelled timers and events still sit in the
        # heap until they reach its head — the audit must skip them.
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
