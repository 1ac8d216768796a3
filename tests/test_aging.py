"""Tests for the shared AgingStore (bucketed table aging)."""

import gc
import weakref
from dataclasses import dataclass

import pytest

from repro.netsim.aging import ARM_HORIZON, RECLAIM_GRANULE, AgingStore
from repro.netsim.engine import Simulator


@dataclass
class Entry:
    value: str
    expires: float


class TestStandalone:
    """Without a simulator: lazy reap plus the explicit sweep."""

    def test_get_live(self):
        store = AgingStore()
        store.put("k", Entry("v", expires=10.0))
        assert store.get("k", now=5.0).value == "v"

    def test_get_reaps_expired(self):
        store = AgingStore()
        store.put("k", Entry("v", expires=10.0))
        assert store.get("k", now=10.0) is None
        assert len(store) == 0

    def test_on_reap_hook_called_once(self):
        reaped = []
        store = AgingStore(on_reap=lambda key, entry: reaped.append(key))
        store.put("k", Entry("v", expires=1.0))
        store.get("k", now=2.0)
        store.get("k", now=3.0)
        assert reaped == ["k"]

    def test_pop_is_not_a_reap(self):
        reaped = []
        store = AgingStore(on_reap=lambda key, entry: reaped.append(key))
        store.put("k", Entry("v", expires=1.0))
        assert store.pop("k").value == "v"
        assert reaped == []

    def test_reap_sweep(self):
        store = AgingStore()
        store.put("a", Entry("x", expires=1.0))
        store.put("b", Entry("y", expires=5.0))
        assert store.reap(now=2.0) == 1
        assert "b" in store and "a" not in store

    def test_pop_matching(self):
        store = AgingStore()
        store.put("a", Entry("x", expires=1.0))
        store.put("b", Entry("y", expires=1.0))
        assert store.pop_matching(lambda k, e: e.value == "x") == 1
        assert len(store) == 1

    def test_live_views(self):
        store = AgingStore()
        store.put("a", Entry("x", expires=1.0))
        store.put("b", Entry("y", expires=5.0))
        assert store.live_count(now=2.0) == 1
        assert [e.value for e in store.live_values(2.0)] == ["y"]
        assert len(store) == 2  # raw view keeps the expired entry


class TestWheelBacked:
    """With a simulator: one engine timer per deadline bucket reclaims
    memory within a granule of the deadline."""

    def test_expired_entry_reclaimed_without_lookup(self):
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        store.put("k", Entry("v", expires=1.0))
        sim.run(until=2.0)
        assert len(store) == 0  # no get() ever happened

    def test_reap_hook_fires_from_timer(self):
        """... in (deadline, deadline + granule], on a boundary."""
        for deadline in (1.5, 1.6, 0.1, 1.7499, 299.99):
            sim = Simulator(seed=0)
            reaped = []
            store = AgingStore(sim, on_reap=lambda key, entry:
                               reaped.append((key, sim.now)))
            store.put("k", Entry("v", expires=deadline))
            sim.run(until=deadline + 5.0)
            [(key, at)] = reaped
            assert key == "k"
            assert deadline < at <= deadline + RECLAIM_GRANULE
            assert at == int(at / RECLAIM_GRANULE) * RECLAIM_GRANULE
            assert sim.pending_events == 0

    def test_one_timer_per_bucket_not_per_key(self):
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        for key in range(100):
            store.put(key, Entry("v", expires=1.0 + key / 1000))   # one bucket
        store.put("later", Entry("v", expires=1.3))                 # the next
        assert sim.pending_events == 2
        sim.run(until=2.0)
        assert len(store) == 0 and sim.events_processed == 2

    def test_refresh_extends_via_lazy_rearm(self):
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        entry = Entry("v", expires=1.0)
        store.put("k", entry)
        sim.schedule(0.5, lambda: setattr(entry, "expires", 3.0))
        sim.run(until=2.0)
        assert store.get("k", sim.now) is entry  # re-filed, not reaped
        sim.run(until=4.0)
        assert len(store) == 0  # new deadline enforced

    def test_hot_entry_costs_one_visit_per_bucket_not_per_refresh(self):
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        entry = Entry("v", expires=0.2)
        store.put("k", entry)           # filed under the bucket due at 0.25

        def refresh():
            entry.expires = sim.now + 0.2

        for i in range(10):             # every 50 ms until 0.45
            sim.schedule(0.05 * i, refresh)
        refreshes = sim.pending_events - 1
        sim.run(until=2.0)
        assert len(store) == 0
        # Due at 0.25 (deadline 0.45 by then: re-filed), at 0.5
        # (deadline 0.65: re-filed), at 0.75 (reaped) — three visits
        # for ten refreshes.
        assert sim.events_processed - refreshes == 3
        assert sim.pending_events == 0

    def test_pop_leaves_nothing_to_cancel(self):
        sim = Simulator(seed=0)
        reaped = []
        store = AgingStore(sim, on_reap=lambda key, entry: reaped.append(key))
        store.put("k", Entry("v", expires=1.0))
        assert store.pop("k").value == "v"
        assert sim.audit_pending_events() == 1   # the bucket stays armed
        sim.run()
        assert reaped == [] and sim.audit_pending_events() == 0

    def test_popped_then_reput_key_is_reclaimed_once(self):
        sim = Simulator(seed=0)
        reaped = []
        store = AgingStore(sim, on_reap=lambda key, entry:
                           reaped.append((entry.value, sim.now)))
        store.put("k", Entry("first", expires=1.0))
        store.pop("k")
        store.put("k", Entry("second", expires=1.1))  # same bucket, twice
        store.pop("k")
        store.put("k", Entry("third", expires=2.1))   # and a later one
        assert sim.audit_pending_events() == 2
        sim.run()
        assert reaped == [("third", 2.25)]
        assert len(store) == 0 and sim.audit_pending_events() == 0

    def test_replacing_entry_keeps_single_timer(self):
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        for round_ in range(5):
            store.put("k", Entry(str(round_), expires=sim.now + 1.0 + round_))
        assert sim.pending_events == 1

    def test_clear_leaves_nothing_to_cancel(self):
        sim = Simulator(seed=0)
        reaped = []
        store = AgingStore(sim, on_reap=lambda key, entry: reaped.append(key))
        for key in range(10):
            store.put(key, Entry("v", expires=1.0))
        store.clear()
        assert len(store) == 0
        assert sim.audit_pending_events() == 1   # ten keys, one bucket
        store.put(3, Entry("again", expires=1.2))  # same bucket, after clear
        sim.run()
        assert reaped == [3] and len(store) == 0
        assert sim.audit_pending_events() == 0

    def test_idle_store_schedules_nothing(self):
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        assert store.get("k", 0.0) is None and store.reap(10.0) == 0
        store.clear()
        assert sim.pending_events == 0
        store.put("k", Entry("v", expires=0.5))
        sim.run(until=10.0)
        assert sim.events_processed == 1 and sim.pending_events == 0

    def test_entry_expired_on_arrival_is_never_served(self):
        sim = Simulator(seed=0)
        sim.run(until=5.1)
        reaped = []
        store = AgingStore(sim, on_reap=lambda key, entry:
                           reaped.append((key, sim.now)))
        store.put("past", Entry("v", expires=0.1))
        store.put("now", Entry("v", expires=5.1))
        assert store.live_count(sim.now) == 0
        sim.run(until=6.0)
        assert reaped == [("past", 5.25), ("now", 5.25)]
        store.put("served?", Entry("v", expires=1.0))
        assert store.get("served?", sim.now) is None    # reaped on lookup
        assert len(store) == 0

    @pytest.mark.unchecked      # a checker would keep the simulator alive
    def test_far_buckets_wait_off_the_heap_and_keep_nothing_alive(self):
        """A bucket due beyond the horizon waits until the latest armed
        one comes due; what waits is the simulator's, so a dropped
        simulator is collected with its stores."""
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        store.put("near", Entry("v", expires=1.0))          # armed: 1.25
        store.put("far", Entry("v", expires=ARM_HORIZON + 2.0))
        assert sim.audit_pending_events() == 1
        sim.run(until=1.25)
        assert sim.audit_pending_events() == 1 and "far" in store
        sim.run()
        assert len(store) == 0 and sim.events_processed == 2
        store.put("near", Entry("v", expires=sim.now + 1.0))
        store.put("far", Entry("v", expires=sim.now + 60.0))
        assert sim.audit_pending_events() == 1      # "far" waits
        alive = weakref.ref(sim)
        del sim, store
        gc.collect()
        assert alive() is None

    def test_never_expiring_entry_is_stored_and_filed_nowhere(self):
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        forever = Entry("v", expires=float("inf"))
        assert store.put("k", forever) is forever   # parent: OverflowError
        assert sim.pending_events == 0
        sim.run(until=1000.0)
        assert store.get("k", sim.now) is forever
        # A finite deadline assigned in place is picked up by the next put ...
        forever.expires = sim.now + 1.0
        store.put("k", forever)
        assert sim.pending_events == 1
        sim.run(until=1002.0)
        assert len(store) == 0 and sim.pending_events == 0

    def test_never_expiring_entry_made_finite_is_reaped_lazily(self):
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        forever = Entry("v", expires=float("inf"))
        store.put("k", forever)
        forever.expires = 1.0           # ... or, with no put, by a lookup.
        sim.run(until=2.0)
        assert len(store) == 1
        assert store.get("k", sim.now) is None and len(store) == 0

    def test_refresh_to_never_forgets_the_filing(self):
        sim = Simulator(seed=0)
        store = AgingStore(sim)
        entry = Entry("v", expires=1.0)
        store.put("k", entry)
        entry.expires = float("inf")
        sim.run(until=10.0)
        assert store.get("k", sim.now) is entry and sim.pending_events == 0
        entry.expires = 11.0
        store.put("k", entry)           # not filed any more: files anew
        sim.run(until=12.0)
        assert len(store) == 0
