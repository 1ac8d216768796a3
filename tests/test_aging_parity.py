"""Exact-timer parity of :class:`AgingStore` with its frozen reference.

The store keeps each key's filing on the entry itself (``entry.filed``)
plus a side map for keys reaped lazily while their bucket is pending;
:mod:`aging_reference` is the store as it was with a parallel key → slot
dict. Memory layout is all that may differ: a Hypothesis state machine
drives both, each on its own ``Simulator``, through the same operations
and asserts after every step that they hold the same entries, made the
same reap-hook calls at the same instants, have the same bucket timers
pending and have processed the same number of engine events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from aging_reference import ReferenceAgingStore
from repro import check
from repro.netsim.aging import ARM_HORIZON, AgingStore
from repro.netsim.engine import Simulator

keys = st.sampled_from(range(3))
#: Deadlines relative to now: expired on arrival, on and off the
#: quarter-second grid, several buckets out, and never.
offsets = st.sampled_from([-0.1, 0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0,
                           float("inf")])
#: Clock steps: within a bucket, onto and across boundaries, and far
#: enough (10 s) to drain every finite filing.
steps = st.sampled_from([0.0, 0.05, 0.25, 0.3, 0.5, 1.0, 3.0, 10.0])


class Entry:
    __slots__ = ("tag", "expires", "filed")

    def __init__(self, tag, expires):
        self.tag = tag
        self.expires = expires
        self.filed = 0


class Side:
    """One store on its own simulator, logging its reap-hook calls."""

    def __init__(self, store_class):
        self.sim = Simulator(seed=0)
        self.reaped = []
        self.store = store_class(self.sim, on_reap=self._on_reap)

    def _on_reap(self, key, entry):
        self.reaped.append((key, entry.tag, self.sim.now))

    def entries(self):
        return {key: (entry.tag, entry.expires)
                for key, entry in self.store.entries.items()}

    def timers(self):
        """(time, priority, slot) of every pending bucket timer, in time
        order."""
        return sorted((time, priority, event.args)
                      for time, priority, _, event in self.sim._queue
                      if not event.cancelled
                      and event.callback == self.store._bucket_due)


def tag_of(entry):
    return None if entry is None else entry.tag


class AgingParityMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sides = (Side(AgingStore), Side(ReferenceAgingStore))
        self.tags = 0

    @property
    def now(self):
        return self.sides[0].sim.now

    @rule(key=keys, offset=offsets, same=st.booleans(),
          probed=st.booleans())
    def put(self, key, offset, same, probed):
        """A new entry, or (*same*) the stored one put again; *probed*
        looks the key up first, as the tables' ``lock`` / ``learn`` do
        (so an expired entry is reaped lazily right before the put)."""
        if probed:
            self.get(key)
        self.tags += 1
        for side in self.sides:
            entry = side.store.entries.get(key) if same else None
            if entry is None:
                entry = Entry(self.tags, self.now + offset)
            assert side.store.put(key, entry) is entry

    @rule(key=keys)
    def get(self, key):
        live, ref = (tag_of(side.store.get(key, self.now))
                     for side in self.sides)
        assert live == ref

    @rule(key=keys, offset=offsets)
    def refresh(self, key, offset):
        """The owners' in-place refresh: a new deadline, no ``put``."""
        for side in self.sides:
            entry = side.store.entries.get(key)
            if entry is not None:
                entry.expires = self.now + offset

    @rule(key=keys)
    def pop(self, key):
        live, ref = (tag_of(side.store.pop(key)) for side in self.sides)
        assert live == ref

    @rule(parity=st.sampled_from([0, 1]))
    def pop_matching(self, parity):
        live, ref = (side.store.pop_matching(
            lambda key, entry: entry.tag % 2 == parity)
            for side in self.sides)
        assert live == ref

    @rule()
    def clear(self):
        for side in self.sides:
            side.store.clear()

    @rule()
    def reap(self):
        live, ref = (side.store.reap(self.now) for side in self.sides)
        assert live == ref

    @rule(dt=steps)
    def run_for(self, dt):
        for side in self.sides:
            side.sim.run_for(dt)

    @invariant()
    def same_entries_reaps_timers_and_events(self):
        live, ref = self.sides
        assert live.sim.now == ref.sim.now
        assert live.entries() == ref.entries()
        assert live.reaped == ref.reaped
        assert live.timers() == ref.timers()
        assert live.sim.events_processed == ref.sim.events_processed


TestAgingParity = AgingParityMachine.TestCase
TestAgingParity.settings = settings(max_examples=200,
                                    stateful_step_count=50, deadline=None)


def test_a_replacing_put_inherits_the_filing():
    """Filing the replacement anew would arm a second bucket now."""
    machine = AgingParityMachine()
    machine.put(key=0, offset=-0.1, same=False, probed=False)   # slot 1
    machine.put(key=0, offset=0.25, same=False, probed=False)   # stays
    machine.same_entries_reaps_timers_and_events()
    machine.run_for(10.0)
    machine.same_entries_reaps_timers_and_events()


def test_a_lazily_reaped_key_keeps_its_filing():
    """A re-put after a lazy reap, while the bucket is pending, takes
    the filing over: the reference re-files the key when that bucket
    comes due, not at the put."""
    machine = AgingParityMachine()
    machine.put(key=0, offset=0.0, same=False, probed=False)    # slot 1
    machine.put(key=0, offset=1.0, same=False, probed=True)     # reaps
    machine.same_entries_reaps_timers_and_events()
    machine.run_for(10.0)
    machine.same_entries_reaps_timers_and_events()


#: Deadlines around and far past the arm-when-near horizon, where the
#: live store's bucket timers wait off the heap and the reference's do
#: not.
far_offsets = st.sampled_from([-0.1, 0.3, 1.0, ARM_HORIZON - 0.1,
                               ARM_HORIZON, ARM_HORIZON + 0.1, 6.0, 30.0,
                               float("inf")])
far_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 2), keys, far_offsets),
    st.tuples(st.just("refresh"), st.integers(0, 2), keys, far_offsets),
    st.tuples(st.just("pop"), st.integers(0, 2), keys),
    st.tuples(st.just("run_for"),
              st.sampled_from([0.05, 0.25, 1.0, 5.0, 40.0]))), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=far_ops)
def test_far_buckets_reap_in_the_same_order_as_armed_at_once(ops):
    """Three stores share a simulator, as a fabric's tables do; the
    reference arms every bucket timer at once. Same-instant buckets of
    different stores must come due in the same order — the reap log is
    compared as a sequence — after the same number of engine events,
    with the live side's bucket invariant audited after every step."""
    sides = []
    for store_class in (AgingStore, ReferenceAgingStore):
        sim, log = Simulator(seed=0), []
        stores = [store_class(sim, on_reap=lambda key, entry, i=i, log=log,
                              sim=sim: log.append((i, key, entry.tag,
                                                   sim.now)))
                  for i in range(3)]
        sides.append((sim, stores, log))
    checker = check.attach(sides[0][0])
    for tag, op in enumerate(ops):
        for sim, stores, _log in sides:
            if op[0] == "put":
                stores[op[1]].put(op[2], Entry(tag, sim.now + op[3]))
            elif op[0] == "refresh":
                entry = stores[op[1]].entries.get(op[2])
                if entry is not None:
                    entry.expires = sim.now + op[3]
            elif op[0] == "pop":
                stores[op[1]].pop(op[2])
            else:
                sim.run_for(op[1])
        checker.audit()
        (live, _, live_log), (ref, _, ref_log) = sides
        assert live_log == ref_log
        assert live.events_processed == ref.events_processed
    for sim, _stores, _log in sides:
        sim.run()
    checker.close()
    assert sides[0][2] == sides[1][2]
    assert sides[0][0].events_processed == sides[1][0].events_processed
