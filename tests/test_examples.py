"""Smoke tests: every example script runs end to end.

Examples are the first thing a new user touches; these tests keep them
working as the API evolves. Each runs in-process (runpy) with stdout
captured and checked for its headline content.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"missing example: {path}"
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "selected path: A -> NF1" in out
        assert "Locked address tables" in out

    def test_stp_comparison(self, capsys):
        out = run_example("stp_comparison.py", capsys)
        assert "ARP-Path RTT advantage over STP" in out

    def test_video_failover(self, capsys):
        out = run_example("video_failover.py", capsys)
        assert "100.0%" in out  # ARP-Path delivers everything
        assert "repair times" in out

    def test_proxy_scaling(self, capsys):
        out = run_example("proxy_scaling.py", capsys)
        assert "reduced" in out

    def test_datacenter_loadbalance(self, capsys):
        out = run_example("datacenter_loadbalance.py", capsys)
        assert "per-link load — arppath" in out

    def test_full_demo(self, capsys):
        out = run_example("full_demo.py", capsys)
        assert "PART 1" in out and "PART 2" in out
        assert "repair times" in out

    def test_serve_client(self, capsys, monkeypatch):
        # boots an in-process daemon on an ephemeral port, submits a
        # churn grid over HTTP and streams the records back
        monkeypatch.setattr(sys, "argv", ["serve_client.py"])
        with pytest.raises(SystemExit) as excinfo:
            run_example("serve_client.py", capsys)
        assert excinfo.value.code in (None, 0)
        out = capsys.readouterr().out
        assert "scenarios on offer" in out
        assert "job ended completed" in out
        assert "daemon stopped cleanly" in out
