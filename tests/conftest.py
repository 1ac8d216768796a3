"""Shared fixtures for the test suite.

The plain helper functions (``ping_once``, ``fast_config``, ``mac``,
``ip``) live in :mod:`repro.testing` so test modules can import them
without depending on conftest path-resolution order.

Every :class:`Simulator` a test builds in this process runs under
:mod:`repro.check`: the autouse ``invariant_checks`` fixture closes
(audits) each checker at the test's teardown, so a loop, a delivery
over a dead link or a broken in-flight FIFO fails the test that caused
it. A test marked ``unchecked`` builds bare simulators; the mark is
only for tests that pin listener absence or call counts.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro import check
from repro.netsim.engine import Simulator
from repro.netsim.errors import InvariantError
from repro.topology import arppath, netfpga_demo, pair
from repro.topology.builder import Network

# Hypothesis profiles. CI exports HYPOTHESIS_PROFILE=ci: the per-example
# deadline is disabled (shared runners stall unpredictably — a deadline
# there reports flaky timeouts, not bugs). The example database
# (.hypothesis/) is cached between CI runs, so a counterexample found
# once replays on every later run until fixed — which is why the
# profile must NOT set derandomize=True: that forces database=None and
# would silently disable exactly that replay guarantee.
settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class Checks:
    """The checkers attached since the last teardown. While ``on`` is
    false, new simulators are built bare."""

    on = True
    attached: list = []

    @classmethod
    def expected(cls, error):
        """A positive control caught *error*: its checker is not closed."""
        cls.attached = [checker for checker in cls.attached
                        if checker.error is not error]


_init, _pid = Simulator.__init__, os.getpid()


def _checked_init(sim, *args, **kwargs):
    _init(sim, *args, **kwargs)
    # Pool workers forked from this process build bare simulators.
    if Checks.on and os.getpid() == _pid:
        Checks.attached.append(check.attach(sim))


# Installed at import, not per test, so class- and module-scoped
# fixtures' simulators are checked too (closed with the first test
# that built them).
Simulator.__init__ = _checked_init


@pytest.fixture(autouse=True)
def invariant_checks(request):
    """Checks every simulator this test builds; closes each at teardown
    and raises the first violation, even one the code under test caught."""
    Checks.on = request.node.get_closest_marker("unchecked") is None
    yield Checks
    attached, Checks.attached, Checks.on = Checks.attached, [], True
    errors = []
    for checker in attached:
        try:
            checker.close()
        except InvariantError as error:
            errors.append(error)
    if errors:
        raise errors[0]


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=42)


@pytest.fixture
def traced_sim() -> Simulator:
    """A simulator recording per-frame hop traces."""
    return Simulator(seed=42, trace_hops=True)


@pytest.fixture
def demo_net(sim) -> Network:
    """The NetFPGA demo topology under ARP-Path, warmed up."""
    net = netfpga_demo(sim, arppath())
    net.run(5.0)
    return net


@pytest.fixture
def pair_net(sim) -> Network:
    """Two ARP-Path bridges, two hosts, warmed up."""
    net = pair(sim, arppath())
    net.run(5.0)
    return net
