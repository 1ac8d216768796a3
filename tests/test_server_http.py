"""End-to-end HTTP API tests: a real daemon on an ephemeral port.

One module-scoped daemon backs the read-only endpoint tests; the
determinism, cancellation and durability tests boot their own daemons
against tmp databases so restarts can be exercised.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.experiments import registry, runner
from repro.metrics.report import record_line
from repro.server import jobs as jobs_mod
from repro.server import store as store_mod
from repro.server.daemon import Daemon, DaemonConfig, PidfileError

registry.load_all()

SCALE_SPEC = {"scenario": "scale", "seeds": [0, 1],
              "set": {"sizes": [9], "protocols": ["arppath"],
                      "pairs": [1], "probes": [1]}}


def request(base, path, method="GET", payload=None):
    """(status, headers, body-str) — 4xx/5xx don't raise."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(base + path, data=data,
                                 headers=headers, method=method)
    try:
        with urllib.request.urlopen(req) as response:
            return response.status, dict(response.headers), \
                response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), \
            error.read().decode()


def get_json(base, path):
    status, _, body = request(base, path)
    return status, json.loads(body)


def wait_state(base, job_id, states, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, payload = get_json(base, f"/v1/jobs/{job_id}")
        if payload["job"]["state"] in states:
            return payload["job"]
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {states}")


def make_daemon(tmp_path, **overrides):
    config = dict(host="127.0.0.1", port=0,
                  db=str(tmp_path / "serve.db"), workers=2, pool=2)
    config.update(overrides)
    daemon = Daemon(DaemonConfig(**config))
    daemon.start()
    return daemon, "http://{}:{}".format(*daemon.address)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    daemon, base = make_daemon(tmp_path_factory.mktemp("serve"))
    yield base
    daemon.stop()


class TestReadEndpoints:
    def test_health(self, served):
        status, payload = get_json(served, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_scenarios_match_registry(self, served):
        status, payload = get_json(served, "/v1/scenarios")
        assert status == 200
        assert [s["title"] for s in payload["scenarios"]] == \
            registry.names()
        assert payload["submission"]["required"] == ["scenario"]

    def test_single_scenario_schema(self, served):
        status, payload = get_json(served, "/v1/scenarios/scale")
        assert status == 200
        assert payload == registry.get("scale").schema()

    def test_unknown_scenario_404(self, served):
        status, payload = get_json(served, "/v1/scenarios/nope")
        assert status == 404
        assert "error" in payload

    def test_unknown_endpoint_404(self, served):
        status, _ = get_json(served, "/v1/nonsense")
        assert status == 404

    def test_wrong_verb_405(self, served):
        status, _, _ = request(served, "/v1/health", method="POST",
                               payload={})
        assert status == 405
        # and the shared-path case: GET on the POST-only cancel route
        status, _, _ = request(served, "/v1/jobs/1/cancel")
        assert status == 405

    def test_missing_job_404(self, served):
        status, _ = get_json(served, "/v1/jobs/424242")
        assert status == 404

    def test_non_numeric_job_id_400(self, served):
        status, _ = get_json(served, "/v1/jobs/abc")
        assert status == 400

    def test_bad_submission_400_names_field(self, served):
        status, _, body = request(
            served, "/v1/jobs", method="POST",
            payload={"scenario": "scale", "set": {"bogus": [1]}})
        assert status == 400
        assert json.loads(body)["error"]["field"] == "set.bogus"

    @pytest.mark.parametrize("scenario", ["scale", "churn"])
    def test_shards_is_not_a_parameter(self, served, scenario):
        # Sharding is a library seam, not a knob a job can select.
        _, schema = get_json(served, f"/v1/scenarios/{scenario}")
        assert "shards" not in json.dumps(schema)
        status, _, body = request(
            served, "/v1/jobs", method="POST",
            payload={"scenario": scenario, "set": {"shards": [2]}})
        assert status == 400
        assert json.loads(body)["error"]["field"] == "set.shards"

    def test_malformed_body_400(self, served):
        req = urllib.request.Request(
            served + "/v1/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req)
        assert excinfo.value.code == 400

    def test_bad_state_filter_400(self, served):
        status, _ = get_json(served, "/v1/jobs?state=sideways")
        assert status == 400


class TestJobsOverHTTP:
    def test_submit_run_stream_summary(self, tmp_path):
        daemon, base = make_daemon(tmp_path)
        try:
            status, _, body = request(base, "/v1/jobs", method="POST",
                                      payload=SCALE_SPEC)
            assert status == 202
            job = json.loads(body)["job"]
            assert job["state"] == store_mod.QUEUED
            assert job["cells_total"] == 2
            # the persisted spec is the normalized one
            assert job["spec"]["jobs"] == 1
            assert job["spec"]["timeout"] is None

            final = wait_state(base, job["id"], store_mod.TERMINAL)
            assert final["state"] == store_mod.COMPLETED

            status, headers, ndjson = request(
                base, f"/v1/jobs/{job['id']}/records")
            assert status == 200
            assert headers["Content-Type"] == "application/x-ndjson"
            assert headers["X-Job-State"] == store_mod.COMPLETED
            lines = ndjson.splitlines()
            assert int(headers["X-Next-Offset"]) == len(lines)

            status, payload = get_json(
                base, f"/v1/jobs/{job['id']}/summary")
            assert status == 200
            assert payload["summary"]["summary"]

            status, payload = get_json(base, "/v1/jobs?limit=5")
            assert [j["id"] for j in payload["jobs"]] == [job["id"]]
        finally:
            daemon.stop()

    def test_records_byte_identical_to_sweep_at_any_pool_size(
            self, tmp_path):
        # THE acceptance criterion: same grid, three surfaces, one
        # byte stream — serial sweep, pooled daemon, HTTP NDJSON.
        spec = jobs_mod.validate_submission(SCALE_SPEC)
        cells = jobs_mod.spec_cells(spec)
        report = runner.SweepReport(cells=sorted(
            runner.SweepRunner(cells, jobs=1).stream(),
            key=lambda r: r.cell.index))
        expected = [record_line(row) for row in report.rows()]

        for pool in (1, 2):
            daemon, base = make_daemon(tmp_path, pool=pool,
                                       db=str(tmp_path /
                                              f"p{pool}.db"))
            try:
                _, _, body = request(
                    base, "/v1/jobs", method="POST",
                    payload=dict(SCALE_SPEC, jobs=pool))
                job = json.loads(body)["job"]
                wait_state(base, job["id"], store_mod.TERMINAL)
                _, _, ndjson = request(
                    base, f"/v1/jobs/{job['id']}/records")
                assert ndjson.splitlines() == expected, \
                    f"pool={pool} diverged"
            finally:
                daemon.stop()

    def test_offset_resumption_covers_the_stream(self, tmp_path):
        daemon, base = make_daemon(tmp_path)
        try:
            _, _, body = request(base, "/v1/jobs", method="POST",
                                 payload=SCALE_SPEC)
            job = json.loads(body)["job"]
            wait_state(base, job["id"], store_mod.TERMINAL)
            _, _, whole = request(base,
                                  f"/v1/jobs/{job['id']}/records")
            expected = whole.splitlines()

            # page through two records at a time via X-Next-Offset
            collected, offset = [], 0
            while True:
                _, headers, page = request(
                    base,
                    f"/v1/jobs/{job['id']}/records"
                    f"?offset={offset}&limit=2")
                collected += page.splitlines()
                next_offset = int(headers["X-Next-Offset"])
                if next_offset == offset:
                    break
                offset = next_offset
            assert collected == expected

            # format=json envelope carries the same rows
            _, payload = get_json(
                base, f"/v1/jobs/{job['id']}/records?format=json")
            assert [record_line(r) for r in payload["records"]] == \
                expected
            assert payload["state"] == store_mod.COMPLETED
            assert payload["next_offset"] == len(expected)
        finally:
            daemon.stop()

    def test_cancel_over_http(self, tmp_path):
        daemon, base = make_daemon(tmp_path, workers=1, pool=1)
        try:
            slow = {"scenario": "churn", "seeds": list(range(40)),
                    "set": {"duration": [120],
                            "protocols": ["arppath"]}}
            _, _, body = request(base, "/v1/jobs", method="POST",
                                 payload=slow)
            job = json.loads(body)["job"]
            wait_state(base, job["id"],
                       (store_mod.RUNNING,) + store_mod.TERMINAL)
            status, _, body = request(
                base, f"/v1/jobs/{job['id']}/cancel", method="POST",
                payload={})
            assert status == 202
            final = wait_state(base, job["id"], store_mod.TERMINAL)
            assert final["state"] == store_mod.CANCELLED
        finally:
            daemon.stop()

    def test_worker_crash_surfaces_traceback(self, tmp_path):
        daemon, base = make_daemon(tmp_path)
        try:
            bad = {"scenario": "churn", "seeds": [0],
                   "set": {"topology": ["demo"],
                           "protocols": ["learning"],
                           "duration": [1]}}
            _, _, body = request(base, "/v1/jobs", method="POST",
                                 payload=bad)
            job = json.loads(body)["job"]
            final = wait_state(base, job["id"], store_mod.TERMINAL)
            assert final["state"] == store_mod.FAILED
            assert "Traceback" in final["error"]
        finally:
            daemon.stop()

    def test_stats_counts_requests_and_jobs(self, tmp_path):
        daemon, base = make_daemon(tmp_path)
        try:
            get_json(base, "/v1/health")
            _, _, body = request(base, "/v1/jobs", method="POST",
                                 payload=SCALE_SPEC)
            job = json.loads(body)["job"]
            wait_state(base, job["id"], store_mod.TERMINAL)
            status, payload = get_json(base, "/v1/stats")
            assert status == 200
            routes = {(r["method"], r["route"], r["status"])
                      for r in payload["requests"]}
            assert ("GET", "/v1/health", 200) in routes
            assert ("POST", "/v1/jobs", 202) in routes
            # the job-status route is labelled by template, not path
            assert ("GET", "/v1/jobs/<job_id>", 200) in routes
            assert payload["jobs"][store_mod.COMPLETED] >= 1
            histogram = payload["latency"]["/v1/health"]
            assert histogram["total"] >= 1
            assert sum(histogram["counts"]) == histogram["total"]
            assert payload["workers"]["workers"] == 2
        finally:
            daemon.stop()


class TestDurability:
    def test_history_and_records_survive_restart(self, tmp_path):
        db = str(tmp_path / "serve.db")
        daemon, base = make_daemon(tmp_path, db=db)
        _, _, body = request(base, "/v1/jobs", method="POST",
                             payload=SCALE_SPEC)
        job = json.loads(body)["job"]
        wait_state(base, job["id"], store_mod.TERMINAL)
        _, _, before = request(base, f"/v1/jobs/{job['id']}/records")
        daemon.stop()

        daemon, base = make_daemon(tmp_path, db=db)
        try:
            _, payload = get_json(base, "/v1/jobs")
            assert [j["id"] for j in payload["jobs"]] == [job["id"]]
            assert payload["jobs"][0]["state"] == store_mod.COMPLETED
            _, _, after = request(base,
                                  f"/v1/jobs/{job['id']}/records")
            assert after == before
        finally:
            daemon.stop()


class TestPidfile:
    def test_live_pidfile_refuses_second_daemon(self, tmp_path):
        pidfile = str(tmp_path / "serve.pid")
        daemon, _ = make_daemon(tmp_path, pidfile=pidfile)
        try:
            import os
            assert int(open(pidfile).read()) == os.getpid()
            second = Daemon(DaemonConfig(
                host="127.0.0.1", port=0,
                db=str(tmp_path / "other.db"), pidfile=pidfile))
            with pytest.raises(PidfileError):
                second.start()
        finally:
            daemon.stop()
        assert not __import__("os").path.exists(pidfile)

    def test_stale_pidfile_is_replaced(self, tmp_path):
        pidfile = tmp_path / "serve.pid"
        pidfile.write_text("999999999\n")  # no such pid
        daemon, base = make_daemon(tmp_path, pidfile=str(pidfile))
        try:
            status, _ = get_json(base, "/v1/health")
            assert status == 200
        finally:
            daemon.stop()


class TestErrorSurfacing:
    FAILING_SPEC = {"scenario": "churn", "seeds": [0],
                    "set": {"topology": ["demo"],
                            "protocols": ["learning"],
                            "duration": [1]}}

    def test_failed_job_error_rides_headers_and_envelope(self, tmp_path):
        daemon, base = make_daemon(tmp_path)
        try:
            _, _, body = request(base, "/v1/jobs", method="POST",
                                 payload=self.FAILING_SPEC)
            job = json.loads(body)["job"]
            final = wait_state(base, job["id"], store_mod.TERMINAL)
            assert final["state"] == store_mod.FAILED

            status, headers, _ = request(
                base, f"/v1/jobs/{job['id']}/records")
            assert status == 200
            assert headers["X-Job-State"] == store_mod.FAILED
            # one header-safe line: the traceback's terminal summary
            error_line = headers["X-Job-Error"]
            assert "ValueError" in error_line
            assert "\n" not in error_line
            assert len(error_line) <= 200

            status, payload = get_json(
                base, f"/v1/jobs/{job['id']}/records?format=json")
            assert status == 200
            assert payload["state"] == store_mod.FAILED
            # the envelope carries the *full* error, traceback and all
            assert "Traceback" in payload["error"]
            assert "ValueError" in payload["error"]
        finally:
            daemon.stop()

    def test_completed_job_has_no_error_header(self, tmp_path):
        daemon, base = make_daemon(tmp_path)
        try:
            _, _, body = request(base, "/v1/jobs", method="POST",
                                 payload=SCALE_SPEC)
            job = json.loads(body)["job"]
            wait_state(base, job["id"], store_mod.TERMINAL)
            _, headers, _ = request(base,
                                    f"/v1/jobs/{job['id']}/records")
            assert "X-Job-Error" not in headers
            _, payload = get_json(
                base, f"/v1/jobs/{job['id']}/records?format=json")
            assert payload["error"] is None
        finally:
            daemon.stop()


class TestCliDaemonProcess:
    """The real ``python -m repro.cli serve`` process, signal handlers
    and all (the in-process daemons above call ``start()``, which
    installs none)."""

    def test_pooled_job_completes(self, tmp_path):
        # Regression: Daemon.run()'s SIGTERM handler used to be
        # inherited by the forked sweep-pool workers, so the pool's
        # terminate()+join() at the end of a jobs>=2 job hung forever
        # and the job never left ``running``.
        log_file = tmp_path / "serve.log"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--pool", "2", "--db", str(tmp_path / "serve.db"),
             "--log-file", str(log_file)],
            env=env, start_new_session=True)
        try:
            base = self._wait_listening(daemon, log_file)
            spec = dict(SCALE_SPEC, jobs=2)
            status, _, body = request(base, "/v1/jobs", method="POST",
                                      payload=spec)
            assert status == 202
            job = json.loads(body)["job"]
            final = wait_state(base, job["id"], store_mod.TERMINAL,
                               timeout=30.0)
            assert final["state"] == store_mod.COMPLETED
            assert final["cells_done"] == 2
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=15.0) == 0
        finally:
            # The whole session: a wedged pool worker must not outlive
            # a failing run of this test.
            try:
                os.killpg(daemon.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            daemon.wait()

    @staticmethod
    def _wait_listening(daemon, log_file, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            assert daemon.poll() is None, "daemon exited during start-up"
            if log_file.exists():
                for line in log_file.read_text().splitlines():
                    event = json.loads(line)
                    if event.get("event") == "started":
                        return "http://{host}:{port}".format(**event)
            time.sleep(0.05)
        raise AssertionError("daemon never logged its listening address")
