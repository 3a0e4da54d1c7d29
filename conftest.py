"""Test bootstrap: make ``src/`` importable without an installed wheel.

The benchmark environment has no network, so ``pip install -e .`` cannot
fetch the PEP 517 build backend; this path shim is the offline equivalent.

Also home of the ``wan_seed`` fixture: every test that builds a WAN
backend derives its impairment seed from here, so jitter/loss/reorder
decisions are bit-reproducible run-to-run (per-flow RNG streams in
``kernel/net/wan.py``) yet decorrelated across tests.
"""

import os
import sys
import zlib

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))


@pytest.fixture
def wan_seed(request):
    """Deterministic per-test WAN impairment seed.

    Derived from the test's node id (stable across runs and workers, no
    wall-clock or hash-randomization input), so a failing impairment
    pattern can always be replayed exactly by re-running the test.
    """
    return zlib.crc32(request.node.nodeid.encode())


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "allow_lost_wakeups: the test provokes a lost wakeup "
        "on purpose, so no_lost_wakeups does not check it")


@pytest.fixture
def no_lost_wakeups(request, monkeypatch):
    """Fail a test if any kernel it built counted ``sched.lost_wakeups``:
    a blocked task slept out its safety slice and then found its wait
    condition true, so some wake source changed state without kicking
    it.  The blocking suites apply this through ``pytestmark``."""
    from repro.kernel.kernel import Kernel

    kernels = []
    init = Kernel.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernels.append(self)

    monkeypatch.setattr(Kernel, "__init__", tracking_init)
    yield
    if request.node.get_closest_marker("allow_lost_wakeups"):
        return
    lost = [k.trace.counters.get("sched.lost_wakeups") for k in kernels
            if k.trace is not None]
    assert not any(lost), f"lost wakeups per kernel: {lost}"
