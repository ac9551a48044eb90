"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on a few cores of a shared host whose speed moves between
states up to about 1.7x apart, for seconds to minutes at a time, and the
workloads slow down with it: interpreter loops, scipy quadrature and numpy
linear algebra timed back to back rise and fall together.
A raw time taken in a slow state cannot be compared with one taken in a fast
state. So the benchmark times this computation right before and right after
every round, and scales the round's times by ``NOMINAL_S`` over the mean of
the two: times are reported in seconds at the host's nominal speed.

The computation is the benchmark's own and does not touch the package, so a
change to the package cannot move it. It mixes the three kinds of work the
workloads do: a pure-Python loop, ``scipy.integrate.quad`` over a Python
integrand, and complex numpy draws, Gram products and Cholesky solves.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.integrate

# Typical time of ``run()`` on the machine the benchmark was defined on
# (Intel Xeon, 2 vCPUs at 2.1 GHz, Python 3.11, one thread); it ranged from
# 0.35 to 0.60 s there as the host's speed moved.
NOMINAL_S = 0.45


def _interpreter():
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    return total


def _quadrature():
    total = 0.0
    for k in range(1000):
        scale = 500.0 + k
        total += scipy.integrate.quad(
            lambda r: r * math.exp(-r * r / scale) / (1.0 + r**3), 0.0, 4000.0, limit=200
        )[0]
    return total


def _linear_algebra():
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(170):
        h = rng.standard_normal((10, 2000)) + 1j * rng.standard_normal((10, 2000))
        gram = h @ h.conj().T + np.eye(10)
        total += float(np.linalg.cholesky(gram)[0, 0].real)
    return total


def run() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    _interpreter()
    _quadrature()
    _linear_algebra()
    return time.perf_counter() - start
