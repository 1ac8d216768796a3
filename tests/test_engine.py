"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import (PRIORITY_EARLY, PRIORITY_LATE,
                                 PRIORITY_NORMAL, Simulator, TimerWheel)
from repro.netsim.errors import SchedulingError


class TestScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(1.5, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        order = []
        sim.at(2.0, order.append, "x")
        sim.run()
        assert sim.now == 2.0 and order == ["x"]

    def test_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.at(0.5, lambda: None)

    def test_fifo_within_same_time(self, sim):
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_beats_insertion_order(self, sim):
        order = []
        sim.schedule(1.0, order.append, "normal", priority=PRIORITY_NORMAL)
        sim.schedule(1.0, order.append, "early", priority=PRIORITY_EARLY)
        sim.schedule(1.0, order.append, "late", priority=PRIORITY_LATE)
        sim.run()
        assert order == ["early", "normal", "late"]

    def test_call_soon_runs_after_current(self, sim):
        order = []

        def outer():
            sim.call_soon(order.append, "inner")
            order.append("outer")

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_events_scheduled_while_running(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestRunControl:
    def test_run_until_stops_clock_exactly(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=3.0)
        assert sim.now == 3.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_for_is_relative(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_for(2.0)
        assert sim.now == 2.0
        sim.run_for(2.0)
        assert sim.now == 4.0

    def test_max_events(self, sim):
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4

    def test_step(self, sim):
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_events_processed_counter(self, sim):
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7


#: Event times: mostly an exact 1/8 s grid reaching past the wheel's
#: 16 s span (so times collide with each other and with the bound, and
#: timers land in fine and coarse buckets), some arbitrary floats.
_times = st.one_of(st.integers(0, 400).map(lambda n: n / 8),
                   st.floats(min_value=0.0, max_value=50.0))
_loop_ops = st.lists(
    st.tuples(st.sampled_from(("schedule", "timer", "at")), _times,
              st.sampled_from((PRIORITY_EARLY, PRIORITY_NORMAL,
                               PRIORITY_LATE)),
              st.booleans()),                       # cancelled afterwards
    min_size=1, max_size=25)


class TestOneLoopTwoBounds:
    """``run`` (closed bound) and ``run_below`` (open bound) are one
    loop, ``Simulator._run``: between them they fire every event exactly
    once, in (time, priority, seq) order, whichever way a run is cut."""

    @staticmethod
    def build(ops):
        """A simulator at t=0 holding *ops*; the list its callbacks
        append ``(now, priority, index)`` to; and that list as it must
        read once everything live has fired."""
        sim = Simulator(seed=0)
        fired = []
        events = []
        for index, (how, time, priority, _cancel) in enumerate(ops):
            def callback(priority=priority, index=index):
                fired.append((sim.now, priority, index))
            if how == "schedule":
                events.append(sim.schedule(time, callback, priority=priority))
            elif how == "timer":
                events.append(sim.schedule_timer(time, callback,
                                                 priority=priority))
            else:
                events.append(sim.at(time, callback, priority=priority))
        for event, op in zip(events, ops):
            if op[3]:
                event.cancel()
        # Scheduling order is seq order, so sorting by index is sorting
        # by seq.
        expected = sorted((time, priority, index) for index,
                          (_how, time, priority, cancel) in enumerate(ops)
                          if not cancel)
        return sim, fired, expected

    @settings(max_examples=200, deadline=None)
    @given(ops=_loop_ops, pick=st.integers(min_value=0),
           coincide=st.booleans(),
           free_bound=st.floats(min_value=0.01, max_value=60.0),
           max_events=st.integers(0, 8))
    def test_any_cut_fires_the_same_events_in_the_same_order(
            self, ops, pick, coincide, free_bound, max_events):
        bound = ops[pick % len(ops)][1] if coincide else free_bound
        sim, fired, expected = self.build(ops)
        below = [entry for entry in expected if entry[0] < bound]
        upto = [entry for entry in expected if entry[0] <= bound]

        # Open bound: everything strictly before it, then the jump.
        sim.run_below(bound)
        assert fired == below
        assert sim.now == bound
        sim.audit_pending_events()

        # Closed bound: exactly the events at it are left to fire.
        sim.run(until=bound)
        assert fired == upto
        assert sim.now == bound
        sim.audit_pending_events()

        # The two slices together are one run(until=bound).
        whole, fired_whole, _expected = self.build(ops)
        whole.run(until=bound)
        assert fired_whole == fired
        assert (whole.now, whole.events_processed, whole.pending_events) \
            == (sim.now, sim.events_processed, sim.pending_events)

        # A bound at or behind the clock is a no-op.
        for stale in (bound, bound / 2):
            sim.run_below(stale)
            assert fired == upto and sim.now == bound
        assert sim.events_processed == len(upto)

        # max_events stops on the last fired event, clock included.
        sim.run(max_events=max_events)
        assert fired == expected[:len(upto) + max_events]
        assert sim.now == (fired[-1][0] if len(fired) > len(upto) else bound)
        sim.audit_pending_events()

        sim.run()
        assert fired == expected
        assert sim.audit_pending_events() == 0


class TestPeriodic:
    def test_fires_repeatedly(self, sim):
        count = []
        sim.schedule_periodic(1.0, count.append, 1)
        sim.run(until=5.5)
        assert len(count) == 5

    def test_stop(self, sim):
        count = []
        timer = sim.schedule_periodic(1.0, count.append, 1)
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert len(count) == 2

    def test_stop_is_idempotent(self, sim):
        timer = sim.schedule_periodic(1.0, lambda: None)
        timer.stop()
        timer.stop()

    def test_zero_interval_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule_periodic(0.0, lambda: None)

    def test_jitter_spreads_firings(self):
        sim = Simulator(seed=7)
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now),
                              jitter=0.5)
        sim.run(until=20.0)
        deltas = {round(b - a, 6) for a, b in zip(times, times[1:])}
        assert len(deltas) > 1  # jitter actually varies
        assert all(1.0 <= d < 1.5 + 1e-9 for d in deltas)

    def test_interval_property(self, sim):
        timer = sim.schedule_periodic(2.5, lambda: None)
        assert timer.interval == 2.5
        timer.stop()


class TestPendingEvents:
    def test_schedule_increments(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2

    def test_cancellation_decrements(self, sim):
        """Regression: the O(1) counter must track Event.cancel()."""
        keep = sim.schedule(1.0, lambda: None)
        victim = sim.schedule(2.0, lambda: None)
        victim.cancel()
        assert sim.pending_events == 1
        assert sim.audit_pending_events() == 1
        keep.cancel()
        assert sim.pending_events == 0

    def test_cancel_idempotent_counts_once(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_events == 0

    def test_firing_decrements(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_firing_is_noop(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.pending_events == 0

    def test_wheel_timers_counted(self, sim):
        timer = sim.schedule_timer(0.5, lambda: None)
        assert sim.pending_events == 1
        assert sim.audit_pending_events() == 1
        timer.cancel()
        assert sim.pending_events == 0
        assert sim.audit_pending_events() == 0

    def test_audit_matches_after_mixed_workload(self, sim):
        events = [sim.schedule(i * 0.1, lambda: None) for i in range(10)]
        timers = [sim.schedule_timer(i * 0.3, lambda: None)
                  for i in range(10)]
        for victim in events[::2] + timers[::2]:
            victim.cancel()
        sim.run(until=0.45)
        assert sim.audit_pending_events() == sim.pending_events


class TestTimerWheel:
    def test_timer_fires_at_deadline(self, sim):
        fired = []
        sim.schedule_timer(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]

    def test_cancelled_timer_never_fires(self, sim):
        fired = []
        timer = sim.schedule_timer(1.0, fired.append, "x")
        timer.cancel()
        sim.run()
        assert fired == []

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule_timer(-0.1, lambda: None)

    def test_orders_with_heap_events(self, sim):
        """Wheel timers interleave with heap events in exact time order."""
        order = []
        sim.schedule(1.0, order.append, "heap-1.0")
        sim.schedule_timer(0.5, order.append, "wheel-0.5")
        sim.schedule_timer(1.5, order.append, "wheel-1.5")
        sim.schedule(2.0, order.append, "heap-2.0")
        sim.run()
        assert order == ["wheel-0.5", "heap-1.0", "wheel-1.5", "heap-2.0"]

    def test_same_instant_late_priority(self, sim):
        """Timers default to PRIORITY_LATE: data events at the same
        instant run first."""
        order = []
        sim.schedule_timer(1.0, order.append, "timer")
        sim.schedule(1.0, order.append, "data")
        sim.run()
        assert order == ["data", "timer"]

    def test_far_future_timer_cascades(self, sim):
        """A timer beyond the fine wheel span (coarse bucket) still
        fires at its exact deadline."""
        span = sim.wheel.span
        fired = []
        sim.schedule_timer(span * 3.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(span * 3.5)]

    def test_run_until_leaves_future_timers(self, sim):
        fired = []
        sim.schedule_timer(5.0, fired.append, "late")
        sim.run(until=1.0)
        assert fired == []
        sim.run(until=10.0)
        assert fired == ["late"]

    def test_timer_deterministic_order_within_instant(self, sim):
        order = []
        sim.schedule_timer(1.0, order.append, "a")
        sim.schedule_timer(1.0, order.append, "b")
        sim.run()
        assert order == ["a", "b"]

    def test_awkward_resolution_keeps_exact_order(self):
        """Regression: bucket boundaries that are not exactly
        representable (1.7/0.1 rounds up to 17.0, and 17*0.1 > 1.7)
        must not file a timer past its own deadline — the LATE wheel
        timer still beats a later-priority heap event at the same
        instant."""
        sim = Simulator(seed=0)
        sim.wheel = TimerWheel(resolution=0.1)
        order = []
        sim.schedule_timer(1.7, order.append, "timer-late")
        sim.schedule(1.7, order.append, "heap-later",
                     priority=PRIORITY_LATE + 5)
        sim.run()
        assert order == ["timer-late", "heap-later"]
        assert sim.now == pytest.approx(1.7)

    def test_awkward_resolution_exact_interleave(self):
        """Wheel and heap events interleave identically to heap-only
        scheduling at a non-power-of-two resolution."""
        def firing_order(use_wheel):
            sim = Simulator(seed=0)
            sim.wheel = TimerWheel(resolution=0.1)
            order = []
            for i in range(50):
                delay = round(0.1 + i * 0.17, 10)
                if use_wheel and i % 2:
                    sim.schedule_timer(delay, order.append, i,
                                       priority=PRIORITY_NORMAL)
                else:
                    sim.schedule(delay, order.append, i)
            sim.run()
            return order

        assert firing_order(True) == firing_order(False)

    def test_run_until_does_not_drain_far_wheel_timers(self, sim):
        """Regression: slice-stepping (run(until=...)) must leave
        timers beyond the slice on the wheel, where cancellation stays
        O(1) — not pour them into the heap."""
        timer = sim.schedule_timer(500.0, lambda: None)
        sim.run(until=1.0)
        assert len(sim.wheel) == 1
        timer.cancel()
        assert sim.pending_events == 0
        sim.run()

    def test_step_pours_wheel(self, sim):
        fired = []
        sim.schedule_timer(0.5, fired.append, "x")
        assert sim.step() is True
        assert fired == ["x"]
        assert sim.step() is False


class TestScheduleBulk:
    def test_bulk_matches_individual_scheduling(self):
        def run_with(bulk):
            sim = Simulator(seed=0)
            order = []
            specs = [(0.3, order.append, "a"), (0.1, order.append, "b"),
                     (0.2, order.append, "c")]
            if bulk:
                sim.schedule_bulk(specs)
            else:
                for delay, callback, arg in specs:
                    sim.schedule(delay, callback, arg)
            sim.run()
            return order

        assert run_with(bulk=True) == run_with(bulk=False) == ["b", "c", "a"]

    def test_bulk_counts_pending(self, sim):
        events = sim.schedule_bulk((i * 0.1, lambda: None)
                                   for i in range(50))
        assert len(events) == 50
        assert sim.pending_events == 50
        events[0].cancel()
        assert sim.pending_events == 49

    def test_bulk_preserves_existing_queue(self, sim):
        order = []
        sim.schedule(0.15, order.append, "old")
        sim.schedule_bulk([(0.1, order.append, "new-early"),
                           (0.2, order.append, "new-late")])
        sim.run()
        assert order == ["new-early", "old", "new-late"]

    def test_bulk_rejects_past(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule_bulk([(-1.0, lambda: None)])

    def test_bulk_events_cancellable(self, sim):
        fired = []
        events = sim.schedule_bulk([(0.1, fired.append, i)
                                    for i in range(5)])
        events[2].cancel()
        sim.run()
        assert fired == [0, 1, 3, 4]


class TestDeterminism:
    def _run_once(self, seed):
        sim = Simulator(seed=seed)
        trace = []

        def noisy(tag):
            trace.append((round(sim.now, 9), tag, sim.rng.random()))

        for tag in range(5):
            sim.schedule_periodic(0.1 + tag * 0.01, noisy, tag)
        sim.run(until=2.0)
        return trace

    def test_same_seed_same_trace(self):
        assert self._run_once(3) == self._run_once(3)

    def test_different_seed_different_rng(self):
        first = self._run_once(3)
        second = self._run_once(4)
        assert [t[:2] for t in first] == [t[:2] for t in second]
        assert first != second

    @given(st.lists(st.floats(min_value=0.001, max_value=10.0),
                    min_size=1, max_size=20))
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator(seed=0)
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
