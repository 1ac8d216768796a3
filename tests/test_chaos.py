"""Deterministic chaos harness: crash isolation, retries, parity.

The acceptance bar across this module: the records that survive any
injected fault sequence are byte-identical to the fault-free run's
records. Faults target the execution machinery (pool workers, store
writes), never the simulated network.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (ChaosParityError, FaultSet, KillWorker,
                         RaiseError, check_parity, first_divergence,
                         run_lines, seeded_plan)
from repro.experiments import registry, runner
from repro.experiments.runner import (BACKOFF_BASE, BACKOFF_CAP,
                                      FAILED_PERMANENT, OK,
                                      backoff_schedule)

registry.load_all()

#: The cheapest real grid: 4 cells of the tiny proxy case.
CELLS = runner.expand_grid(["proxy"], seeds=[0, 1, 2, 3],
                           axes={"rows": [2], "cols": [2],
                                 "rounds": [1]})


@pytest.fixture(scope="module")
def reference():
    lines, report = run_lines(CELLS)
    assert report.ok
    return lines


class TestBackoffSchedule:
    @given(retries=st.integers(0, 12), cell_index=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_deterministic_and_monotone(self, retries, cell_index):
        first = backoff_schedule(retries, cell_index)
        again = backoff_schedule(retries, cell_index)
        assert first == again  # pure function of its arguments
        assert len(first) == retries
        assert all(later >= earlier for earlier, later
                   in zip(first, first[1:]))

    @given(retries=st.integers(1, 12), cell_index=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_base_and_cap(self, retries, cell_index):
        delays = backoff_schedule(retries, cell_index)
        assert all(delay <= BACKOFF_CAP for delay in delays)
        assert delays[0] >= BACKOFF_BASE

    def test_different_cells_jitter_differently(self):
        schedules = {tuple(backoff_schedule(5, index))
                     for index in range(8)}
        assert len(schedules) > 1


class TestSerialRetries:
    def test_transient_fault_retried_with_identical_rows(self, reference):
        hook = RaiseError(cell_index=1, failures=1)
        lines, report = run_lines(CELLS, retries=1, cell_hook=hook)
        assert report.ok
        retried = {result.cell.index for result in report.retried}
        assert retried == {1}
        by_index = {r.cell.index: r for r in report.cells}
        assert by_index[1].attempts == 2
        assert by_index[0].attempts == 1
        check_parity(reference, lines, "serial retry")

    def test_exhausted_budget_is_failed_permanent(self):
        hook = RaiseError(cell_index=0, failures=5)
        _, report = run_lines(CELLS, retries=2, cell_hook=hook)
        failed = {r.cell.index: r for r in report.errors}
        assert set(failed) == {0}
        assert failed[0].status == FAILED_PERMANENT
        assert failed[0].attempts == 3
        assert "injected transient fault" in failed[0].error
        # every other cell still returned its rows
        assert all(r.status == OK for r in report.cells
                   if r.cell.index != 0)

    def test_zero_retries_fails_on_first_fault(self):
        hook = RaiseError(cell_index=2, failures=1)
        _, report = run_lines(CELLS, cell_hook=hook)
        assert [r.cell.index for r in report.errors] == [2]
        assert report.attempts == len(CELLS)


class TestPoolCrashIsolation:
    def test_worker_kill_retried_to_identical_rows(self, reference):
        hook = KillWorker(cell_index=2, kills=1)
        lines, report = run_lines(CELLS, jobs=2, retries=1,
                                  cell_hook=hook)
        assert report.ok
        assert {r.cell.index for r in report.retried} == {2}
        check_parity(reference, lines, "pool kill retry")

    def test_crash_without_retries_names_the_cell(self):
        hook = KillWorker(cell_index=1, kills=1, exit_code=137)
        _, report = run_lines(CELLS, jobs=2, cell_hook=hook)
        failed = {r.cell.index: r for r in report.errors}
        assert set(failed) == {1}
        error = failed[0] if 0 in failed else failed[1]
        assert error.error.startswith("WorkerCrashError:")
        assert CELLS[1].label() in error.error
        assert "exitcode 137" in error.error
        # the other cells survived the crash untouched
        good = [r for r in report.cells if r.cell.index != 1]
        assert all(r.ok for r in good)

    def test_seeded_plan_parity(self, reference):
        plan = seeded_plan(seed=7, cells_total=len(CELLS), kills=1,
                           errors=1)
        lines, report = run_lines(CELLS, jobs=2, retries=1,
                                  cell_hook=plan)
        assert report.ok
        assert len(report.retried) == 2
        check_parity(reference, lines, "seeded plan")

    def test_seeded_plan_is_deterministic(self):
        def shape(plan: FaultSet):
            return [(type(fault).__name__, fault.cell_index)
                    for fault in plan.faults]
        assert shape(seeded_plan(3, 10)) == shape(seeded_plan(3, 10))
        assert shape(seeded_plan(3, 10)) != shape(seeded_plan(4, 10))

    def test_repeated_kill_exhausts_pool_budget(self):
        hook = KillWorker(cell_index=0, kills=3)
        _, report = run_lines(CELLS, jobs=2, retries=1, cell_hook=hook)
        failed = {r.cell.index: r for r in report.errors}
        assert set(failed) == {0}
        assert failed[0].attempts == 2
        assert failed[0].error.startswith("WorkerCrashError:")


class TestParityHelpers:
    def test_first_divergence(self):
        assert first_divergence(["a", "b"], ["a", "b"]) is None
        assert first_divergence(["a", "b"], ["a", "c"]) == 1
        assert first_divergence(["a"], ["a", "b"]) == 1
        assert first_divergence(["a", "b"], ["a"]) == 1

    def test_check_parity_raises_with_context(self):
        with pytest.raises(ChaosParityError, match="my context.*line 0"):
            check_parity(['{"a":1}'], ['{"a":2}'], "my context")
