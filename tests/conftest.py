"""Test-suite configuration: deterministic, deadline-free hypothesis,
and the chaos tests' worker killer."""

import os
import signal
import time

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def kill_a_worker():
    """``kill(executor, after=0.5, running=None)``: SIGKILL one of the
    executor's pool workers ``after`` seconds once its pool is up (the
    chaos tests).  With ``running``, kill only while ``running()`` is
    true; returns whether it killed."""

    def kill(executor, after=0.5, running=None, timeout=30.0):
        deadline = time.monotonic() + timeout
        while executor._pool is None or not executor._pool._processes:
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.01)
        time.sleep(after)
        if running is not None and not running():
            return False
        os.kill(next(iter(executor._pool._processes)), signal.SIGKILL)
        return True

    return kill
