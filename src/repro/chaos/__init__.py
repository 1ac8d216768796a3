"""Deterministic chaos harness for the execution layer.

This package injects *faults into the machinery that runs
simulations* — pool workers, the serve daemon's store, shard
workers — never into the simulated network (that is
:mod:`repro.netsim.dynamics`). Every fault is deterministic: a pure function
of its constructor arguments (and, for :func:`faults.seeded_plan`, a
seed), so a chaos run is exactly reproducible.

The acceptance bar, pinned by ``tests/test_chaos.py`` and
``.github/scripts/parity.py chaos``: the records
that survive any injected fault sequence are **byte-identical** to the
fault-free run's records.

Fault seams:

* :class:`faults.KillWorker` / :class:`faults.RaiseError` — picklable
  ``cell_hook`` callables run inside sweep pool workers
  (:class:`repro.experiments.runner.SweepRunner` ``cell_hook=``).
* :class:`faults.FlakyWrites` — raises on the Nth store append
  (:attr:`repro.server.store.Store.write_fault`).
* Daemon SIGKILL + restart and shard stalls are orchestrated by
  ``parity.py chaos`` and the tests directly (a process kill is not
  injectable from inside).
"""

from repro.chaos.faults import (FaultSet, FlakyWrites, KillWorker,
                                RaiseError, seeded_plan)
from repro.chaos.harness import (ChaosParityError, check_parity,
                                 first_divergence, run_lines)

__all__ = ["ChaosParityError", "FaultSet", "FlakyWrites", "KillWorker",
           "RaiseError", "check_parity", "first_divergence",
           "run_lines", "seeded_plan"]
