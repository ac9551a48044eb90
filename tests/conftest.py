import os

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """Let a two-worker campaign fork its child even where this process may
    run on one CPU only: the pool is capped at the CPUs it may use (at
    os.cpu_count() where the platform does not say). Below two, the
    affinity reads two CPUs and cannot be set, so no process is ever moved
    to a CPU it may not use."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
