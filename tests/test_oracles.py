"""Independent high-precision oracles (mpmath) for the special functions and
the Gaussian-cluster panel rule.

mpmath is a test-only dependency: the whole module is skipped without it.
"""

import numpy as np
import pytest

from sinrdist import (
    DEFAULT_QUADRATURE,
    GaussianCluster,
    PsiEvaluator,
    hyp2f1_first_unit,
    regularized_upper_gamma,
)

mp = pytest.importorskip("mpmath")


def test_hyp2f1_first_unit_arrays_match_mpmath():
    mp.mp.dps = 30
    xs = np.concatenate([10.0 ** np.arange(-300.0, 301.0, 25.0), [0.3, 0.999, 1.0, 1.001, 3.0]])
    for b in (0.05, 0.1, 0.3, 0.5, 2.0 / 3.0, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.5, 8.0):
        got = hyp2f1_first_unit(b, xs)
        ref = np.array([float(mp.hyp2f1(1, b, b + 1, -mp.mpf(x))) for x in xs])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0, err_msg=f"b={b}")


def _psi_gaussian_mpmath(v, alpha, gamma):
    """psi of GaussianCluster(rho=1, v) as an mpmath integral over s = log r."""
    v, alpha, log_gamma = mp.mpf(v), mp.mpf(alpha), mp.log(gamma)

    def integrand(s):
        r = mp.exp(s)
        kernel = 1 / (1 + mp.exp(alpha * s - log_gamma))
        return 2 * mp.pi * r**3 / v**2 * mp.exp(-(r**2) / (2 * v**2)) * kernel

    knee, scale = log_gamma / alpha, mp.log(v)
    lo, hi = min(knee, scale) - 30, scale + mp.log(14)
    cuts = sorted({lo, hi, *(p for p in (knee, scale, scale + mp.log(6)) if lo < p < hi)})
    return float(mp.quad(integrand, cuts))


def test_gaussian_panel_route_matches_mpmath():
    mp.mp.dps = 20
    gammas = np.geomspace(1e-6, 1e12, 7)
    rel_tol = DEFAULT_QUADRATURE.rel_tol
    for v in (1.0, 500.0, 1e4):
        for alpha in (2.5, 3.0, 4.0):
            got = PsiEvaluator(GaussianCluster(rho=1.0, v=v), alpha).value(gammas)
            ref = [_psi_gaussian_mpmath(v, alpha, g) for g in gammas]
            np.testing.assert_allclose(got, ref, rtol=rel_tol, atol=0.0, err_msg=f"v={v} alpha={alpha}")
