"""Model-based oracle for the two aging address tables.

Hypothesis drives :class:`LockedAddressTable` and
:class:`ForwardingTable` through random operation sequences and checks
every step against a plain-dict reference written from the tables'
docstrings — no ``AgingStore``, no integer keys, no in-place refresh.
Addresses are rebuilt as a *fresh* ``MAC`` object on every call, so
object identity can never stand in for value equality.

Each table runs twice: standalone (lazy reaping only — every
observable, including ``len`` / ``in`` / ``expiries``, is determined)
and backed by a ``Simulator`` (deadline buckets reclaim memory at times
the reference does not model, so only reclamation-independent
observables are compared — and the store invariant the in-place refresh
relies on is asserted instead: every entry is filed on itself under one
pending bucket, a lazily reaped key's filing sits in its pending bucket,
every pending bucket has one armed engine timer, and nothing outlives
its deadline by a granule).
"""

from collections import Counter
from dataclasses import asdict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.table import EntryState, LockedAddressTable
from repro.frames.mac import MAC
from repro.netsim.aging import RECLAIM_GRANULE
from repro.netsim.engine import Simulator
from repro.switching.table import ForwardingTable

LOCK, GUARD, LEARNT = 1.0, 0.5, 4.0
AGING, SHORT_AGING = 4.0, 1.0


class FakePort:
    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return f"<FakePort {self.index}>"


PORTS = [FakePort(i) for i in range(3)]
VALUES = [0x02_00_00_00_00_00 | i for i in range(4)]

values = st.sampled_from(VALUES)
ports = st.sampled_from(PORTS)
#: Binary-exact steps straddling every timeout above (0.5, 1.0, 4.0).
steps = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 3.75, 4.0, 4.25,
                         10.0])

MODEL_SETTINGS = settings(max_examples=60, stateful_step_count=40,
                          deadline=None)


# -- references --------------------------------------------------------------

class LockedReference:
    """``LockedAddressTable`` restated over two plain dicts."""

    def __init__(self):
        self.paths = {}     # value -> dict(port, state, expires, race_until)
        self.guards = {}    # value -> (port, expires)
        self.counters = Counter()

    def get(self, value, now):
        rec = self.paths.get(value)
        if rec is not None and rec["expires"] <= now:
            del self.paths[value]               # lazy reap
            self.counters["expiries"] += 1
            return None
        return rec

    def lock(self, value, port, now):
        live = self.get(value, now)
        self.counters["relocks" if live is not None else "locks"] += 1
        self.paths[value] = dict(port=port, state=EntryState.LOCKED,
                                 expires=now + LOCK, race_until=now + LOCK)
        return self.paths[value]

    def _refresh_learnt(self, rec, now):
        locked = rec["state"] is EntryState.LOCKED
        self.counters["confirms" if locked else "refreshes"] += 1
        rec.update(state=EntryState.LEARNT, expires=now + LEARNT)
        return rec

    def learn(self, value, port, now):
        rec = self.get(value, now)
        if rec is None:
            self.counters["learns"] += 1
            self.paths[value] = dict(port=port, state=EntryState.LEARNT,
                                     expires=now + LEARNT, race_until=0.0)
            return self.paths[value]
        if rec["port"] is not port:
            self.counters["blocked_moves"] += 1
            return rec
        return self._refresh_learnt(rec, now)

    def confirm(self, value, now):
        rec = self.get(value, now)
        return None if rec is None else self._refresh_learnt(rec, now)

    def refresh_lock(self, value, now):
        rec = self.get(value, now)
        if rec is None:
            return None
        self.counters["refreshes"] += 1
        locked = rec["state"] is EntryState.LOCKED
        rec.update(expires=now + (LOCK if locked else LEARNT),
                   race_until=now + LOCK)
        return rec

    def remove(self, value):
        return self.paths.pop(value, None) is not None

    def guard_port(self, value, now):
        guard = self.guards.get(value)
        if guard is not None and guard[1] <= now:
            del self.guards[value]
            return None
        return guard[0] if guard is not None else None

    def set_guard(self, value, port, now):
        self.guards[value] = (port, now + GUARD)

    def flush_port(self, port):
        stale = [v for v, rec in self.paths.items() if rec["port"] is port]
        for value in stale:
            del self.paths[value]
        self.counters["port_flushes"] += len(stale)
        self.guards = {v: g for v, g in self.guards.items()
                       if g[0] is not port}
        return len(stale)

    def expire(self, now):
        stale = [v for v, rec in self.paths.items() if rec["expires"] <= now]
        for value in stale:
            del self.paths[value]
        self.counters["expiries"] += len(stale)
        self.guards = {v: g for v, g in self.guards.items() if g[1] > now}
        return len(stale)

    def occupancy(self, now):
        live = [rec for rec in self.paths.values() if rec["expires"] > now]
        locked = sum(rec["state"] is EntryState.LOCKED for rec in live)
        return {"locked": locked, "learnt": len(live) - locked,
                "guards": sum(g[1] > now for g in self.guards.values())}


class FdbReference:
    """``ForwardingTable`` restated over one plain dict."""

    def __init__(self):
        self.fdb = {}       # value -> [port, expires]
        self.aging = AGING
        self.learns = self.moves = 0

    def learn(self, value, port, now):
        rec = self.fdb.get(value)
        if rec is None or rec[1] <= now:        # expired == absent
            self.learns += 1
            self.fdb[value] = [port, now + self.aging]
            return
        if rec[0] is not port:
            self.moves += 1
            rec[0] = port
        rec[1] = now + self.aging

    def lookup(self, value, now):
        rec = self.fdb.get(value)
        if rec is not None and rec[1] <= now:
            del self.fdb[value]                 # lazy reap
            return None
        return rec[0] if rec is not None else None

    def flush_port(self, port):
        stale = [v for v, rec in self.fdb.items() if rec[0] is port]
        for value in stale:
            del self.fdb[value]
        return len(stale)

    def expire(self, now):
        stale = [v for v, rec in self.fdb.items() if rec[1] <= now]
        for value in stale:
            del self.fdb[value]
        return len(stale)

    def live_count(self, now):
        return sum(rec[1] > now for rec in self.fdb.values())


# -- shared machinery ----------------------------------------------------------

class StoreAudit:
    """The bucket invariant of sim-backed stores, checked step by step.

    Remembers, per store, where each key was filed — on its entry, or
    in the store's orphans once reaped lazily — and the latest deadline
    it ever held: a filing that appeared since the previous step was
    made from the deadline the entry has now (one operation per step,
    and the clock rule changes no deadline).
    """

    def __init__(self, sim, *stores):
        self.sim = sim
        self.stores = stores
        self.filed = [{} for _ in stores]       # key -> slot, last step
        self.latest = [{} for _ in stores]      # key -> max deadline ever

    def check(self):
        sim = self.sim
        now = sim.now
        sim.audit_pending_events()
        pending = [entry[3] for entry in sim._queue]
        pending.extend(sim.wheel._iter_events())
        pending = [event for event in pending if not event.cancelled]
        for store, filed, latest in zip(self.stores, self.filed,
                                        self.latest):
            # Every pending bucket: exactly one armed timer, on its boundary.
            armed = Counter()
            for event in pending:
                if event.callback == store._bucket_due:
                    (slot,) = event.args
                    armed[slot] += 1
                    assert event.time == slot * RECLAIM_GRANULE > now
            assert set(armed) == set(store._buckets)
            assert set(armed.values()) <= {1}, armed
            # Every live entry: filed (every deadline is finite) in a
            # pending bucket that holds its key.
            for key, entry in store.entries.items():
                slot = entry.filed
                assert key in store._buckets.get(slot, ()), (key, slot)
                deadline = entry.expires
                if filed.get(key) != slot:      # filed during this step
                    assert slot * RECLAIM_GRANULE > deadline
                    assert (slot - 1) * RECLAIM_GRANULE <= max(deadline, now)
                latest[key] = max(latest.get(key, deadline), deadline)
                # Gone within a granule of the latest deadline it held.
                assert now < latest[key] + RECLAIM_GRANULE, (key, entry)
            # Every orphaned filing: a reaped key, in its pending bucket.
            for key, slot in store._orphans.items():
                assert key not in store.entries, key
                assert key in store._buckets.get(slot, ()), (key, slot)
            filed.clear()
            filed.update(store._orphans)
            filed.update((key, entry.filed)
                         for key, entry in store.entries.items())


class ClockedMachine(RuleBasedStateMachine):
    """A clock that is the simulator's when one is attached."""

    sim_backed = False

    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=0) if self.sim_backed else None
        self.now = 0.0
        self.audit = None

    def audit_stores(self, *stores):
        if self.sim_backed:
            self.audit = StoreAudit(self.sim, *stores)

    @invariant()
    def keys_are_filed_under_one_pending_bucket(self):
        if self.audit is not None:
            self.audit.check()

    @rule(dt=steps)
    def advance(self, dt):
        if self.sim is not None:
            self.sim.run_for(dt)
            assert self.sim.now == self.now + dt
        self.now += dt

    @rule(past=st.sampled_from([0.0, 0.0625, 0.1]))
    def cross_boundary(self, past):
        """Land on or just past the next reclamation boundary — off the
        quarter-second grid every other step keeps the clock on."""
        boundary = (int(self.now / RECLAIM_GRANULE) + 1) * RECLAIM_GRANULE
        self.advance(boundary + past - self.now)


# -- LockedAddressTable ------------------------------------------------------

class LockedTableMachine(ClockedMachine):
    def __init__(self):
        super().__init__()
        self.table = LockedAddressTable(LOCK, LEARNT, GUARD, sim=self.sim)
        self.ref = LockedReference()
        self.audit_stores(self.table._entries, self.table._guards)

    def same_entry(self, entry, rec, value):
        if rec is None:
            assert entry is None
            return
        assert entry.mac == MAC(value)
        assert entry.port is rec["port"]
        assert (entry.state, entry.expires, entry.race_until) \
            == (rec["state"], rec["expires"], rec["race_until"])

    @rule(value=values)
    def get(self, value):
        self.same_entry(self.table.get(MAC(value), self.now),
                        self.ref.get(value, self.now), value)

    @rule(value=values, port=ports, probed=st.booleans())
    def lock(self, value, port, probed):
        if probed:      # the bridge's way: hand lock the probe it made
            live = self.table.get(MAC(value), self.now)
            entry = self.table.lock(MAC(value), port, self.now, live)
        else:
            entry = self.table.lock(MAC(value), port, self.now)
        self.same_entry(entry, self.ref.lock(value, port, self.now), value)

    @rule(value=values, port=ports)
    def learn(self, value, port):
        self.same_entry(self.table.learn(MAC(value), port, self.now),
                        self.ref.learn(value, port, self.now), value)

    @rule(value=values, probed=st.booleans())
    def confirm(self, value, probed):
        live = self.table.get(MAC(value), self.now) if probed else None
        if live is not None:
            entry = self.table.confirm_entry(live, self.now)
        else:
            entry = self.table.confirm(MAC(value), self.now)
        self.same_entry(entry, self.ref.confirm(value, self.now), value)

    @rule(value=values, probed=st.booleans())
    def refresh_lock(self, value, probed):
        live = self.table.get(MAC(value), self.now) if probed else None
        entry = self.table.refresh_lock(MAC(value), self.now, live)
        self.same_entry(entry, self.ref.refresh_lock(value, self.now), value)

    @rule(value=values, port=ports)
    def set_guard(self, value, port):
        self.table.set_guard(MAC(value), port, self.now)
        self.ref.set_guard(value, port, self.now)

    @rule(value=values)
    def guard_port(self, value):
        assert self.table.guard_port(MAC(value), self.now) \
            is self.ref.guard_port(value, self.now)

    @rule(value=values)
    def remove(self, value):
        removed = self.table.remove(MAC(value))
        expected = self.ref.remove(value)
        if not self.sim_backed:
            assert removed == expected

    @rule(port=ports)
    def flush_port(self, port):
        flushed = self.table.flush_port(port)
        expected = self.ref.flush_port(port)
        if not self.sim_backed:
            assert flushed == expected

    @rule()
    def expire(self):
        reaped = self.table.expire(self.now)
        expected = self.ref.expire(self.now)
        if not self.sim_backed:
            assert reaped == expected

    @invariant()
    def same_observables(self):
        now = self.now
        assert self.table.occupancy(now) == self.ref.occupancy(now)
        live = {entry.mac.value: entry for entry in self.table.entries(now)}
        expected = {v: rec for v, rec in self.ref.paths.items()
                    if rec["expires"] > now}
        assert live.keys() == expected.keys()
        for value, entry in live.items():
            self.same_entry(entry, expected[value], value)
        counters = asdict(self.table.counters)
        reference = {name: self.ref.counters[name] for name in counters}
        if self.sim_backed:
            # Counted when memory is reclaimed, which the buckets decide.
            for name in ("expiries", "port_flushes"):
                del counters[name], reference[name]
        else:
            assert len(self.table) == len(self.ref.paths)
            for value in VALUES:
                assert (MAC(value) in self.table) == (value in self.ref.paths)
        assert counters == reference

    def teardown(self):
        if self.sim is not None:
            # Memory comes back with no lookup at all.
            self.sim.run_for(2 * (LOCK + LEARNT))
            assert len(self.table) == 0
            assert len(self.table._guards) == 0
            assert self.sim.pending_events == 0


class SimBackedLockedTableMachine(LockedTableMachine):
    sim_backed = True


# -- ForwardingTable -----------------------------------------------------------

class ForwardingTableMachine(ClockedMachine):
    def __init__(self):
        super().__init__()
        self.table = ForwardingTable(aging_time=AGING, sim=self.sim)
        self.ref = FdbReference()
        self.audit_stores(self.table._entries)

    @rule(value=values, port=ports)
    def learn(self, value, port):
        self.table.learn(MAC(value), port, self.now)
        self.ref.learn(value, port, self.now)

    @rule(value=values)
    def lookup(self, value):
        assert self.table.lookup(MAC(value), self.now) \
            is self.ref.lookup(value, self.now)

    @rule(value=values)
    def forget(self, value):
        self.table.forget(MAC(value))
        self.ref.fdb.pop(value, None)

    @rule(port=ports)
    def flush_port(self, port):
        flushed = self.table.flush_port(port)
        expected = self.ref.flush_port(port)
        if not self.sim_backed:
            assert flushed == expected

    @rule()
    def expire(self):
        reaped = self.table.expire(self.now)
        expected = self.ref.expire(self.now)
        if not self.sim_backed:
            assert reaped == expected

    @rule(shorten=st.booleans())
    def set_aging(self, shorten):
        if shorten:
            self.table.set_aging(SHORT_AGING)
            self.ref.aging = SHORT_AGING
        else:
            self.table.restore_aging()
            self.ref.aging = AGING

    @invariant()
    def same_observables(self):
        assert self.table.live_count(self.now) \
            == self.ref.live_count(self.now)
        assert (self.table.learns, self.table.moves) \
            == (self.ref.learns, self.ref.moves)
        if self.sim_backed:
            # The raw views depend on what the buckets have reclaimed;
            # lookups and the learn / move counters never do.
            return
        assert len(self.table) == len(self.ref.fdb)
        for value in VALUES:
            assert (MAC(value) in self.table) == (value in self.ref.fdb)
        for port in PORTS:
            macs = self.table.macs_on(port)
            assert all(type(mac) is MAC for mac in macs)
            assert sorted(mac.value for mac in macs) == sorted(
                v for v, rec in self.ref.fdb.items() if rec[0] is port)

    def teardown(self):
        if self.sim is not None:
            self.sim.run_for(2 * AGING)
            assert len(self.table) == 0
            assert self.sim.pending_events == 0


class SimBackedForwardingTableMachine(ForwardingTableMachine):
    sim_backed = True


TestLockedTableModel = LockedTableMachine.TestCase
TestLockedTableModelWithSim = SimBackedLockedTableMachine.TestCase
TestForwardingTableModel = ForwardingTableMachine.TestCase
TestForwardingTableModelWithSim = SimBackedForwardingTableMachine.TestCase
for _case in (TestLockedTableModel, TestLockedTableModelWithSim,
              TestForwardingTableModel, TestForwardingTableModelWithSim):
    _case.settings = MODEL_SETTINGS
