"""Independent high-precision oracles (mpmath, and a brentq root) for the
special functions, the psi of each power-law piece, the Gaussian-cluster
panel rule, the fit-poly reference, the Gaussian and polynomial samplers
(near the origin and across the polynomial's kink), the truncation budget
and the MMSE combiner on near-singular covariances.

mpmath is a test-only dependency: the whole module is skipped without it.
"""

import json
import math

import numpy as np
import pytest

from sinrdist import (
    DEFAULT_QUADRATURE,
    DiskRegion,
    GaussianCluster,
    LinkConfig,
    PolynomialWithTail,
    PowerLaw,
    PsiEvaluator,
    SinrDistribution,
    budget_truncation_radius,
    cdf_gamma,
    draw_channels,
    hyp2f1_first_unit,
    mmse_sinr,
    regularized_lower_gamma,
    regularized_upper_gamma,
    sample_location,
    trial_rng,
)

from sinrdist.intensity import _piece_psi

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


def _piece_psi_mpmath(c, k, lo, hi, alpha, gamma):
    """psi of c * r**k on (lo, hi] as an mpmath integral over s = log r."""
    c, k, alpha, log_gamma = mp.mpf(c), mp.mpf(k), mp.mpf(alpha), mp.log(gamma)

    def integrand(s):
        return 2 * mp.pi * c * mp.exp((k + 2) * s) / (1 + mp.exp(alpha * s - log_gamma))

    a = -mp.inf if lo == 0 else mp.log(lo)
    b = mp.inf if hi == math.inf else mp.log(hi)
    knee = log_gamma / alpha
    cuts = [a, *(p for p in (knee - 10, knee, knee + 10) if a < p < b), b]
    return float(mp.quad(integrand, cuts))


# (c, k, lo, hi) as functions of alpha: k = alpha - 2 is the outer form's pole
PIECES = {
    "plane": lambda alpha: (1.0, -0.5, 0.0, math.inf),
    "disk": lambda alpha: (0.3, 1.5, 0.0, 40.0),
    "tail": lambda alpha: (2.0, -1.5, 30.0, math.inf),
    "annulus above the pole": lambda alpha: (0.7, alpha - 1.0, 5.0, 60.0),
    "annulus within the margin": lambda alpha: (0.7, alpha - 2.005, 5.0, 60.0),
    "annulus below the margin": lambda alpha: (0.7, alpha - 2.02, 5.0, 60.0),
    "annulus at k = -2": lambda alpha: (0.7, -2.0, 5.0, 60.0),
}


@pytest.mark.parametrize("shape", PIECES)
def test_piece_psi_matches_mpmath(shape):
    mp.mp.dps = 30
    # one array across the knee of every annulus, so both of its forms run
    gammas = np.geomspace(1e-3, 1e12, 6)
    for alpha in (2.5, 4.0):
        piece = PIECES[shape](alpha)
        got = _piece_psi(*piece, alpha, gammas)
        ref = [_piece_psi_mpmath(*piece, alpha, g) for g in gammas]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0, err_msg=f"alpha={alpha}")


def _fit_poly_reference_mpmath(profile, scales, rho0, eps_tail, R0, alpha, gamma):
    """psi of profile(r) on (0, R0] plus rho0 * r**eps_tail beyond, as an
    mpmath integral over s = log r, cut at the knee, the profile's scales
    and R0."""
    alpha, log_gamma, top = mp.mpf(alpha), mp.log(gamma), mp.log(R0)

    def kernel(s):
        return 2 * mp.pi * mp.exp(2 * s) / (1 + mp.exp(alpha * s - log_gamma))

    knee = log_gamma / alpha
    lo = min([knee, *(mp.log(x) for x in scales)]) - 40
    cuts = sorted({lo, top, *(p for p in (knee, *map(mp.log, scales)) if lo < p < top)})
    disk = mp.quad(lambda s: profile(mp.exp(s)) * kernel(s), cuts)
    tail_cuts = sorted({top, mp.inf, *([knee] if knee > top else [])})
    tail = mp.quad(lambda s: rho0 * mp.exp(eps_tail * s) * kernel(s), tail_cuts)
    return float(disk + tail)


@pytest.mark.parametrize(
    "model, profile, scales, R0, alpha",
    [  # the analytic-sweep and test shape, a wider cluster cut inside its
        # bulk, and a power law whose own tail would not decay (eps > alpha - 2)
        (
            {"family": "gaussian_cluster", "rho": 1.0, "v": 500.0},
            lambda r: r / 500**2 * mp.exp(-(r**2) / (2 * 500**2)),
            (500.0,),
            1500.0,
            3.0,
        ),
        (
            {"family": "gaussian_cluster", "rho": 2.0, "v": 1e4},
            lambda r: 2 * r / mp.mpf(1e4) ** 2 * mp.exp(-(r**2) / (2 * mp.mpf(1e4) ** 2)),
            (1e4,),
            5e3,
            4.0,
        ),
        ({"family": "power_law", "rho": 0.02, "eps": 2.5}, lambda r: 0.02 * r**2.5, (), 300.0, 4.0),
    ],
)
def test_fit_poly_reference_matches_mpmath(tmp_path, model, profile, scales, R0, alpha):
    from sinrdist.cli import parse_config

    mp.mp.dps = 20
    rho0, eps_tail = 1e-3, -1.5
    config = parse_config(json.dumps({
        "experiment": "fit-poly",
        "model": model,
        "link": {"alpha": alpha, "sigma2": 1e-14, "r_T": 20.0, "L": 4},
        "R0": R0,
        "degrees": [2],
        "tail": {"rho0": rho0, "eps_tail": eps_tail},
        "gamma_grid": {"min": 1e-2, "max": 1e12, "points": 8},
        "output_path": str(tmp_path / "fit.csv"),
    }))
    got = config.reference_psi()
    ref = [
        _fit_poly_reference_mpmath(profile, scales, rho0, eps_tail, R0, alpha, g)
        for g in config.gamma_grid
    ]
    np.testing.assert_allclose(got, ref, rtol=DEFAULT_QUADRATURE.rel_tol, atol=0.0)


class _FixedUniforms:
    """Generator stand-in whose radial uniforms u = 1 - random() are chosen."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniform(self, low, high, size):
        return np.full(size, low)

    def random(self, size):
        return 1.0 - self.u[:size]


def test_gaussian_sampler_near_origin_matches_mpmath():
    """Radii drawn at u <= 1e-6 sit where the Maxwell radial CDF equals u."""
    mp.mp.dps = 30
    v, R = 500.0, 4000.0
    rng = _FixedUniforms([1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6])
    u = 1.0 - rng.random(rng.u.size)  # the uniforms the sampler inverts
    r, _ = sample_location(GaussianCluster(rho=1.0, v=v), DiskRegion(R), rng, size=u.size)

    def maxwell_cdf(x):
        return mp.gammainc(1.5, 0, mp.mpf(x) ** 2 / (2 * v**2), regularized=True)

    ref = [float(maxwell_cdf(x) / maxwell_cdf(R)) for x in r]
    np.testing.assert_allclose(ref, u, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "coeffs, rho0",  # profiles continuous at R0 = 110
    [((0.005, 0.0), 0.005 * 110**1.5), ((0.0, 1e-4), 1e-4 * 110**2.5)],
)
def test_polynomial_sampler_near_origin_matches_root(coeffs, rho0):
    """Radii drawn at u <= 1e-9 sit at the root of the closed-form count."""
    from scipy.optimize import brentq

    R = 400.0
    model = PolynomialWithTail(coeffs=coeffs, R0=110.0, rho0=rho0, eps_tail=-1.5)
    rng = _FixedUniforms([1e-15, 1e-12, 1e-10, 1e-9])
    u = 1.0 - rng.random(rng.u.size)  # the uniforms the sampler inverts
    r, _ = sample_location(model, DiskRegion(R), rng, size=u.size)
    total = model.cumulative_count(R)
    roots = [
        brentq(lambda x: model.cumulative_count(x) - ui * total, 0.0, R, xtol=1e-300, rtol=1e-15)
        for ui in u
    ]
    np.testing.assert_allclose(r, roots, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "coeffs, R0, rho0, R",  # profiles continuous at R0, where the CDF has a kink
    [
        ((0.0, 0.0, 1e-6), 50.0, 1e-6 * 50**3.5, 2000.0),
        ((0.005, 0.0), 110.0, 0.005 * 110**1.5, 4000.0),
    ],
)
def test_polynomial_sampler_across_the_kink_matches_root(coeffs, R0, rho0, R):
    """Radii drawn round the CDF value at R0, and across (0, 1], sit at the
    root of the closed-form count."""
    from scipy.optimize import brentq

    model = PolynomialWithTail(coeffs=coeffs, R0=R0, rho0=rho0, eps_tail=-1.5)
    total = model.cumulative_count(R)
    at_kink = model.cumulative_count(R0) / total
    rng = _FixedUniforms(
        np.concatenate([at_kink * np.linspace(0.8, 1.2, 81), np.linspace(1e-3, 1.0, 100)])
    )
    u = 1.0 - rng.random(rng.u.size)  # the uniforms the sampler inverts
    r, _ = sample_location(model, DiskRegion(R), rng, size=u.size)
    roots = [
        brentq(lambda x: model.cumulative_count(x) - ui * total, 0.0, R, xtol=1e-300, rtol=1e-15)
        for ui in u
    ]
    np.testing.assert_allclose(r, roots, rtol=1e-12, atol=0.0)


def _truncation_error_mpmath(model, link, psi, radius, gamma):
    """P(L, x) - P(L, x - tail) at gamma, the tail of psi beyond radius by mpmath.quad.

    psi is the untruncated functional at gamma (beta = 1 models only); the
    tail integrates 2 pi rho r^(1+eps) gamma / (r^alpha + gamma) over (radius, inf).
    """
    if isinstance(model, PowerLaw):
        rho, eps = model.rho, model.eps
    else:
        rho, eps = model.rho0, model.eps_tail
    rho, eps, alpha, g = mp.mpf(rho), mp.mpf(eps), mp.mpf(link.alpha), mp.mpf(gamma)
    knee = g ** (1 / alpha)

    def integrand(r):
        return 2 * mp.pi * rho * r ** (1 + eps) * g / (r**alpha + g)

    edges = sorted({mp.mpf(radius), max(mp.mpf(radius), knee), 10 * max(mp.mpf(radius), knee)})
    tail = mp.quad(integrand, [*edges, mp.inf])
    x = mp.mpf(psi) + mp.mpf(link.sigma2) * g
    L = link.L
    return mp.gammainc(L, 0, x, regularized=True) - mp.gammainc(L, 0, x - tail, regularized=True)


def _power_law_psi_mpmath(model, alpha, gamma):
    c = (2 + mp.mpf(model.eps)) / alpha
    return 2 * mp.pi**2 * model.rho / alpha * mp.mpf(gamma) ** c / mp.sin(mp.pi * c)


FIELD_LINK = LinkConfig(alpha=4.0, sigma2=1e-12, r_T=10.0, L=10)
TAIL_POLYNOMIAL = PolynomialWithTail(
    coeffs=(0.005, 0.0), R0=110.0, rho0=0.005 * 110.0**1.5, eps_tail=-1.5
)


@pytest.mark.parametrize(
    "model, trials",
    [
        (PowerLaw(rho=0.023, eps=-0.5), 60),
        (PowerLaw(rho=0.023, eps=-0.5), 1000),
        (PowerLaw(rho=0.023, eps=-0.5), 20000),
        (TAIL_POLYNOMIAL, 1000),
    ],
    ids=["power_law-60", "power_law-1000", "power_law-20000", "polynomial-1000"],
)
def test_budget_truncation_radius_meets_its_budget(model, trials):
    """At the budget radius the CDF error stays within 1% of 1.36/sqrt(trials),
    and at 0.9 of it the error exceeds that budget."""
    mp.mp.dps = 30
    link = FIELD_LINK
    budget = 0.01 * 1.36 / math.sqrt(trials)
    R = budget_truncation_radius(model, link, trials)
    evaluator = PsiEvaluator(model, link.alpha)

    # the whole functional: mpmath's cosecant form for the power law, the
    # polynomial's closed form (checked against quadrature elsewhere); the
    # truncated part is always mpmath's integral
    def psi(g):
        if isinstance(model, PowerLaw):
            return _power_law_psi_mpmath(model, link.alpha, g)
        return evaluator.value(g)

    gammas = np.geomspace(1e2, 1e10, 33)
    errors = [_truncation_error_mpmath(model, link, psi(g), R, g) for g in gammas]
    assert max(errors) <= budget
    worst = float(gammas[np.argmax(errors)])
    assert _truncation_error_mpmath(model, link, psi(worst), 0.9 * R, worst) > budget


def test_lower_gamma_small_argument_matches_mpmath():
    mp.mp.dps = 30
    # 1 - Q cancels to exactly 0 here; the true value is about 2.753e-37
    assert 1.0 - regularized_upper_gamma(10, 1e-3) == 0.0
    xs = np.geomspace(1e-3, 700.0, 25)
    for L in (1, 2, 3, 5, 10, 20, 40, 64):
        got = regularized_lower_gamma(L, xs)
        ref = [float(mp.gammainc(L, 0, mp.mpf(x), regularized=True)) for x in xs]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0, err_msg=f"L={L}")


def test_cdf_lower_tail_keeps_relative_accuracy():
    mp.mp.dps = 30
    model = PowerLaw(rho=0.023, eps=-0.5)
    link = LinkConfig(alpha=4.0, sigma2=1e-12, r_T=10.0, L=10)
    evaluator = PsiEvaluator(model, link.alpha)
    gammas = np.geomspace(1e-2, 1e2, 5)
    got = cdf_gamma(SinrDistribution(evaluator, link), gammas)
    x = evaluator.value(gammas) + link.sigma2 * gammas
    ref = [float(mp.gammainc(link.L, 0, mp.mpf(v), regularized=True)) for v in x]
    assert min(ref) < 1e-20
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def _mmse_sinr_mpmath(radii, g_t, G, link):
    L, n = G.shape
    powers = [mp.mpf(float(r)) ** -mp.mpf(link.alpha) for r in radii]
    Gm = [[mp.mpc(complex(G[i, k])) for k in range(n)] for i in range(L)]
    cov = mp.matrix(L, L)
    for i in range(L):
        for j in range(L):
            cov[i, j] = mp.fsum(Gm[i][k] * powers[k] * mp.conj(Gm[j][k]) for k in range(n))
        cov[i, i] += mp.mpf(link.sigma2)
    g = mp.matrix([mp.mpc(complex(v)) for v in g_t])
    solved = mp.lu_solve(cov, g)
    quad = mp.fsum(mp.conj(g[i]) * solved[i] for i in range(L))
    return float(quad.real * mp.mpf(link.r_T) ** -mp.mpf(link.alpha))


@pytest.mark.parametrize(
    "L, radii, sigma2",
    [
        # one interferer 1e4 times closer than the rest
        (2, [1e-3, 0.7, 1.3], 1e-12),
        (3, [8e-4, 0.5, 0.9, 1.1, 2.0], 1e-12),
        # fewer interferers than antennas: noise alone fills the null space
        (4, [0.3, 0.6], 1e-12),
        (4, [2e-3, 0.4, 0.8, 1.5, 3.0, 5.0], 1e-10),
    ],
)
def test_mmse_near_singular_covariance_matches_mpmath(L, radii, sigma2):
    mp.mp.dps = 50
    link = LinkConfig(alpha=4.0, sigma2=sigma2, r_T=2.0, L=L)
    radii = np.asarray(radii)
    g_t, G = draw_channels(radii.size, L, trial_rng(17, L * 100 + radii.size))
    expected = _mmse_sinr_mpmath(radii, g_t, G, link)
    assert mmse_sinr(radii, g_t, G, link) == pytest.approx(expected, rel=1e-9)
