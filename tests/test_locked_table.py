"""Tests for the locked address table (the paper's core data structure)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.table import EntryState, LockedAddressTable
from repro.frames.mac import mac_for_host

M0, M1, M2 = mac_for_host(0), mac_for_host(1), mac_for_host(2)


class FakePort:
    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return f"<FakePort {self.index}>"


P0, P1 = FakePort(0), FakePort(1)


@pytest.fixture
def table():
    return LockedAddressTable(lock_timeout=1.0, learnt_timeout=10.0,
                              guard_timeout=0.5)


class TestLocking:
    def test_lock_creates_locked_entry(self, table):
        entry = table.lock(M0, P0, now=0.0)
        assert entry.state is EntryState.LOCKED
        assert entry.port is P0

    def test_lock_expires_after_lock_timeout(self, table):
        table.lock(M0, P0, now=0.0)
        assert table.get(M0, now=0.5) is not None
        assert table.get(M0, now=1.0) is None

    def test_lock_arms_race_guard(self, table):
        table.lock(M0, P0, now=0.0)
        lock = table.race(M0, now=0.5)
        assert lock is not None and lock.port is P0 and lock.path
        assert table.race(M0, now=1.0) is None

    def test_relock_replaces_port(self, table):
        table.lock(M0, P0, now=0.0)
        entry = table.lock(M0, P1, now=0.5)
        assert entry.port is P1
        assert table.counters.relocks == 1
        assert table.counters.locks == 1

    def test_lock_over_expired_unreaped_entry_is_not_a_relock(self, table):
        """``relocks`` is record-visible (``protocol_counters``), so it
        may not depend on whether the expired entry was reclaimed yet."""
        table.lock(M0, P0, now=0.0)
        assert len(table) == 1
        table.lock(M0, P1, now=2.0)     # nobody reaped the first entry
        assert table.counters.locks == 2
        assert table.counters.relocks == 0

    def test_expired_entries_reaped_on_access(self, table):
        table.lock(M0, P0, now=0.0)
        table.get(M0, now=5.0)
        assert len(table) == 0


class TestLearning:
    def test_learn_creates_learnt_entry(self, table):
        entry = table.learn(M0, P0, now=0.0)
        assert entry.state is EntryState.LEARNT

    def test_learn_expires_after_learnt_timeout(self, table):
        table.learn(M0, P0, now=0.0)
        assert table.get(M0, now=9.9) is not None
        assert table.get(M0, now=10.0) is None

    def test_learn_same_port_refreshes(self, table):
        table.learn(M0, P0, now=0.0)
        table.learn(M0, P0, now=8.0)
        assert table.get(M0, now=17.0) is not None

    def test_learn_other_port_blocked_while_entry_lives(self, table):
        """Paths are sticky: unicast from another port can't move them."""
        table.learn(M0, P0, now=0.0)
        entry = table.learn(M0, P1, now=1.0)
        assert entry.port is P0
        assert table.counters.blocked_moves == 1

    def test_learn_after_expiry_moves(self, table):
        table.learn(M0, P0, now=0.0)
        entry = table.learn(M0, P1, now=20.0)
        assert entry.port is P1

    def test_learn_upgrades_locked_same_port(self, table):
        table.lock(M0, P0, now=0.0)
        entry = table.learn(M0, P0, now=0.1)
        assert entry.state is EntryState.LEARNT

    def test_learn_preserves_race_guard(self, table):
        """A unicast confirm must not erase the race window: the path
        moves into a LEARNT entry, and the lock stays, path-less."""
        table.lock(M0, P0, now=0.0)
        entry = table.learn(M0, P0, now=0.1)
        lock = table.race(M0, now=0.5)
        assert entry is not lock and entry.port is P0
        assert lock is not None and lock.port is P0 and not lock.path

    def test_learn_without_lock_has_no_guard(self, table):
        table.learn(M0, P0, now=0.0)
        assert table.race(M0, now=0.0) is None


class TestConfirm:
    def test_confirm_upgrades_locked(self, table):
        table.lock(M0, P0, now=0.0)
        entry = table.confirm(M0, now=0.5)
        assert entry.state is EntryState.LEARNT

    def test_confirm_extends_to_learnt_timeout(self, table):
        table.lock(M0, P0, now=0.0)
        table.confirm(M0, now=0.5)
        assert table.get(M0, now=5.0) is not None

    def test_confirm_refreshes_learnt(self, table):
        table.learn(M0, P0, now=0.0)
        table.confirm(M0, now=8.0)
        assert table.get(M0, now=17.0) is not None

    def test_confirm_missing_returns_none(self, table):
        assert table.confirm(M0, now=0.0) is None

    def test_confirm_and_refresh_count_no_lock_or_learn(self, table):
        table.lock(M0, P0, now=0.0)
        table.confirm(M0, now=0.1)
        table.confirm(M0, now=0.2)
        assert (table.counters.locks, table.counters.relocks,
                table.counters.learns) == (1, 0, 0)


class TestRefreshLock:
    def test_rearms_lock_timer(self, table):
        table.lock(M0, P0, now=0.0)
        table.refresh_lock(M0, now=0.9)
        assert table.get(M0, now=1.5) is not None

    def test_rearms_race_guard(self, table):
        table.lock(M0, P0, now=0.0)
        lock = table.refresh_lock(M0, now=0.9)
        assert lock is table.race(M0, now=1.5)
        assert lock.expires > 1.5

    def test_learnt_entry_keeps_learnt_timeout(self, table):
        table.learn(M0, P0, now=0.0)
        table.refresh_lock(M0, now=1.0)
        assert table.get(M0, now=10.5) is not None

    def test_missing_returns_none(self, table):
        assert table.refresh_lock(M0, now=0.0) is None


class TestRemoveAndFlush:
    def test_remove(self, table):
        table.learn(M0, P0, now=0.0)
        assert table.remove(M0) is True
        assert table.remove(M0) is False

    def test_flush_port_erases_only_that_port(self, table):
        table.learn(M0, P0, now=0.0)
        table.learn(M1, P1, now=0.0)
        assert table.flush_port(P0) == 1
        assert M0 not in table and M1 in table

    def test_flush_port_keeps_guards(self, table):
        """Carrier loss erases paths, never a race: late copies of a
        broadcast that won on the dead port must still lose."""
        table.guard(M0, P0, now=0.0)
        table.lock(M1, P0, now=0.0)
        assert table.flush_port(P0) == 1        # M1's LOCKED path
        assert table.race(M0, now=0.1).port is P0
        lock = table.race(M1, now=0.1)
        assert lock.port is P0 and not lock.path
        assert table.get(M1, now=0.1) is None

    def test_remove_keeps_the_lock(self, table):
        """PathFail erases the path and leaves its race running."""
        table.lock(M0, P0, now=0.0)
        table.confirm(M0, now=0.1)
        assert table.remove(M0) is True
        assert table.get(M0, now=0.2) is None
        assert table.race(M0, now=0.2).port is P0

    def test_flush_all(self, table):
        table.learn(M0, P0, now=0.0)
        table.guard(M1, P1, now=0.0)
        table.flush()
        assert len(table) == 0
        assert table.race(M1, now=0.0) is None

    def test_expire_sweep(self, table):
        table.lock(M0, P0, now=0.0)
        table.learn(M1, P1, now=0.0)
        assert table.expire(now=2.0) == 1  # lock gone, learnt alive
        assert M1 in table and M0 not in table


class TestGuards:
    """A guard is a path-less lock armed for guard_timeout."""

    def test_guard_lifecycle(self, table):
        table.guard(M0, P0, now=0.0)
        assert table.race(M0, now=0.4).port is P0
        assert table.race(M0, now=0.5) is None

    def test_guard_does_not_create_path_entry(self, table):
        table.guard(M0, P0, now=0.0)
        assert table.get(M0, now=0.1) is None

    def test_guard_replaced(self, table):
        table.guard(M0, P0, now=0.0)
        table.guard(M0, P1, now=0.6)        # after the first one ended
        assert table.race(M0, now=0.7).port is P1

    def test_guard_extends_a_discovery_lock_and_keeps_its_path(self, table):
        table.lock(M0, P0, now=0.0)
        table.guard(M0, P0, now=0.9)        # 0.9 + 0.5 > 1.0
        assert table.get(M0, now=1.2).port is P0
        table.lock(M0, P0, now=1.25)        # never shortens the lock
        assert table.race(M0, now=1.25).expires == 2.25

    def test_a_lock_takes_over_a_guard(self, table):
        """A discovery copy on the guard's port locks the path there."""
        table.guard(M0, P0, now=0.0)
        lock = table.lock(M0, P0, now=0.1)
        assert lock.path and table.get(M0, now=0.2) is lock
        assert table.counters.locks == 1


class TestIntrospection:
    def test_occupancy(self, table):
        table.lock(M0, P0, now=0.0)
        table.learn(M1, P1, now=0.0)
        table.guard(M2, P0, now=0.0)
        occ = table.occupancy(now=0.1)
        assert occ == {"locked": 1, "learnt": 1}

    def test_entries_filtered_by_time(self, table):
        table.lock(M0, P0, now=0.0)
        table.learn(M1, P1, now=0.0)
        assert len(table.entries()) == 2
        assert len(table.entries(now=2.0)) == 1

    def test_contains(self, table):
        table.lock(M0, P0, now=0.0)
        assert M0 in table and M1 not in table


class TestPropertyBased:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["lock", "learn", "confirm", "remove"]),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=1)),
        max_size=40))
    def test_entry_port_is_always_a_real_port(self, ops):
        """Whatever the operation sequence, live entries stay coherent."""
        table = LockedAddressTable(lock_timeout=1.0, learnt_timeout=5.0,
                                   guard_timeout=0.5)
        ports = [FakePort(0), FakePort(1)]
        now = 0.0
        for op, mac_index, port_index in ops:
            now += 0.1
            mac = mac_for_host(mac_index)
            port = ports[port_index]
            if op == "lock":
                table.lock(mac, port, now)
            elif op == "learn":
                table.learn(mac, port, now)
            elif op == "confirm":
                table.confirm(mac, now)
            else:
                table.remove(mac)
            for entry in table.entries(now=now):
                assert entry.port in ports
                assert entry.expires > now

    @given(st.integers(min_value=0, max_value=100))
    def test_lock_timeout_always_respected(self, steps):
        table = LockedAddressTable(lock_timeout=1.0, learnt_timeout=5.0,
                                   guard_timeout=0.5)
        table.lock(M0, P0, now=0.0)
        entry = table.get(M0, now=steps * 0.02)
        if steps * 0.02 >= 1.0:
            assert entry is None
        else:
            assert entry is not None
