"""Sim-as-a-service: the ``repro serve`` daemon.

The CLI runs one grid per process; this package runs the simulator as
a long-lived service in the shape of a production Python network
daemon — a persistent process, an HTTP/JSON query surface, durable
storage and background workers:

* :mod:`repro.server.store` — SQLite-backed job + record store; jobs
  and their streamed record rows survive daemon restarts and stay
  queryable as history.
* :mod:`repro.server.jobs` — the job queue and worker orchestration:
  submissions validated against the scenario registry expand through
  :func:`repro.experiments.runner.expand_grid` and execute on the
  existing :class:`~repro.experiments.runner.SweepRunner` pool, with a
  concurrency cap, per-job timeouts and cancellation.
* :mod:`repro.server.http` — the stdlib HTTP/JSON API
  (``GET /v1/scenarios``, ``POST /v1/jobs``, record streaming with
  offset resumption, ``GET /v1/stats``), documented in ``docs/API.md``.
* :mod:`repro.server.daemon` — process lifecycle: pidfile,
  signal-driven graceful shutdown, structured logs.
* :mod:`repro.server.docgen` — renders ``docs/API.md`` from the
  registry so the reference documentation cannot drift from the code
  (CI regenerates it and fails on diff).

Determinism contract: a job's stored records are byte-identical to the
same (scenario, seeds, ``--set``) grid run via ``repro sweep --jsonl``,
at any worker-pool size — both sides serialize each row with
:func:`repro.metrics.report.record_line` and emit rows in cell-index
order.
"""
