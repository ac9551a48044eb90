"""Independent high-precision oracles (mpmath, and a brentq root) for the
special functions, the psi of each power-law piece, the Gaussian-cluster
panel rule and count, the adaptive psi reference near its hard cases, the
fit-poly reference, the Gaussian and polynomial samplers (near the origin
and across the polynomial's kink), psi over a disk for every family and
the MMSE combiner on near-singular covariances.

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
    PiecewisePowerLaw,
    PolynomialWithTail,
    PowerLaw,
    PsiEvaluator,
    QuadratureSpec,
    SinrDistribution,
    antenna_gain_delta,
    cdf_gamma,
    draw_channels,
    hyp2f1_first_unit,
    mmse_sinr,
    pdf_gamma,
    psi_power_law,
    psi_quadrature,
    psi_quadrature_radial,
    regularized_lower_gamma,
    regularized_upper_gamma,
    sample_location,
    trial_rng,
)

from sinrdist.intensity import MAXWELL_MEDIAN, _piece_psi, _power_mass
from sinrdist.specfun import three_halves_gamma

mp = pytest.importorskip("mpmath")


def test_hyp2f1_first_unit_arrays_match_mpmath():
    mp.mp.dps = 30
    xs = np.concatenate([10.0 ** np.arange(-300.0, 301.0, 25.0), [0.3, 0.999, 1.0, 1.001, 3.0]])
    for b in (0.05, 0.1, 0.3, 0.5, 2.0 / 3.0, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.5, 8.0):
        got = hyp2f1_first_unit(b, xs)
        ref = np.array([float(mp.hyp2f1(1, b, b + 1, -mp.mpf(x))) for x in xs])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0, err_msg=f"b={b}")


# The in-package special functions against mpmath, each at least as accurate
# as the scipy.special function it replaced, at every point. Where both are
# at the rounding level the comparison has a floor: 4 ulps for the
# hypergeometric function, and for the incomplete gamma functions also the
# rounding of an exponent of size |ln f|, which any double evaluation of
# f = e^(-a) pays (a ulp of a is a relative error of f).
EPS = np.finfo(float).eps


def _assert_no_worse_than_scipy(got, theirs, ref, floor, label):
    got, theirs, ref = (np.asarray(a, dtype=float) for a in (got, theirs, ref))
    normal = ref > 1e-300  # below, the float range itself limits both
    assert np.all(np.abs(got[~normal] - ref[~normal]) <= 1e-300), label
    ref, got, theirs, floor = ref[normal], got[normal], theirs[normal], np.broadcast_to(floor, normal.shape)[normal]
    ours = np.abs(got - ref) / ref
    scipy_error = np.nan_to_num(np.abs(theirs - ref) / ref, nan=np.inf)
    worse = np.flatnonzero(ours > np.maximum(scipy_error, floor))
    assert worse.size == 0, f"{label}: " + ", ".join(
        f"ref {ref[i]:.3e}: {ours[i]:.1e} against scipy's {scipy_error[i]:.1e}" for i in worse[:5]
    )


@pytest.mark.parametrize("L", (1, 2, 3, 5, 10, 20, 64, 100, 170, 171, 200, 500, 1000, 10_000, 100_000))
def test_regularized_gamma_no_worse_than_scipy(L):
    """Up to the cap ANTENNAS_MAX = 1e5, with points within a few sqrt(L) of
    x = L, where the Poisson sums are longest."""
    special = pytest.importorskip("scipy.special")
    mp.mp.dps = 40
    near = np.maximum(L + math.sqrt(L) * np.array([-3.0, -1.0, 1.0, 3.0]), 0.0)
    x = np.concatenate([[0.0, 1e-12], np.geomspace(1e-10, 1e15, 26), L * np.array([0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0]), near])
    # mpmath takes the smaller tail (its lower series stalls at large L and
    # x), the other being 1 minus it at 40 digits
    lower, upper = [], []
    for v in x:
        if v < L:
            lower.append(mp.gammainc(L, 0, mp.mpf(v), regularized=True))
            upper.append(1 - lower[-1])
        else:
            upper.append(mp.gammainc(L, mp.mpf(v), mp.inf, regularized=True))
            lower.append(1 - upper[-1])
    for got, theirs, ref, label in (
        (regularized_lower_gamma(L, x), special.gammainc(L, x), lower, "P"),
        (regularized_upper_gamma(L, x), special.gammaincc(L, x), upper, "Q"),
    ):
        ref = np.array([float(r) for r in ref])
        with np.errstate(divide="ignore"):
            floor = EPS * (4.0 + np.abs(np.log(ref)))
        _assert_no_worse_than_scipy(got, theirs, ref, floor, f"{label}({L}, x)")


@pytest.mark.parametrize("L", (1, 2, 10, 100, 171, 1000, 10_000, 100_000))
def test_gamma_density_matches_mpmath(L):
    """The Poisson term x^k e^-x / k! as the SINR density (k = L - 1, times
    the slope of x) and the outage reduction of one more antenna (k = L)
    take it, at x near L/2, L, L + 3 sqrt(L) and 1.5 L: within 4 ulps plus
    the rounding of its exponent, as for the incomplete gamma. A log-domain
    x^k e^-x / k! is off by up to 3e-10 at L = 1e5."""
    mp.mp.dps = 40

    def pmf(k, x):
        x = mp.mpf(float(x))
        return mp.exp(-x) * x**k / mp.factorial(k)

    link = LinkConfig(4.0, 0.0, 1.0, L)
    dist = SinrDistribution(PsiEvaluator(PowerLaw(0.023, -0.5), 4.0), link)
    # psi = psi(1) gamma^(3/8) on this field
    targets = np.array([L / 2, L, L + 3 * math.sqrt(L), 1.5 * L])
    gammas = (targets / dist.psi.value(1.0)) ** (8.0 / 3.0)
    x, slope = dist.psi.value(gammas), dist.psi.derivative(gammas)
    cases = (
        ("pdf_gamma", pdf_gamma(dist, gammas), [pmf(L - 1, a) * mp.mpf(float(b)) for a, b in zip(x, slope)]),
        ("antenna_gain_delta", [antenna_gain_delta(dist, g) for g in gammas], [pmf(L, a) for a in x]),
    )
    for label, got, ref in cases:
        got, ref = np.asarray(got, dtype=float), np.array([float(r) for r in ref])
        with np.errstate(divide="ignore"):
            floor = EPS * (4.0 + np.abs(np.log(ref)))
        normal = ref > 1e-300  # below, the float range itself limits the value
        assert np.all(np.abs(got[~normal] - ref[~normal]) <= 1e-300), label
        error = np.abs(got[normal] - ref[normal]) / ref[normal]
        assert np.all(error <= floor[normal]), f"{label} at L={L}: {error / EPS} ulps"


def test_three_halves_gamma_no_worse_than_scipy():
    """P(3/2, y) from deep inside the origin to the 12v tail (y = 72) and
    beyond, across the switch from the series to erfc at y = 1."""
    special = pytest.importorskip("scipy.special")
    mp.mp.dps = 40
    y = np.concatenate([np.geomspace(1e-30, 700.0, 41), [0.5, 0.999, 1.0, 1.001, 72.0]])
    ref = np.array([float(mp.gammainc(1.5, 0, mp.mpf(v), regularized=True)) for v in y])
    floor = EPS * (4.0 + np.abs(np.log(ref)))
    _assert_no_worse_than_scipy(three_halves_gamma(y), special.gammainc(1.5, y), ref, floor, "P(3/2, y)")
    assert three_halves_gamma(0.0) == 0.0 and three_halves_gamma(np.inf) == 1.0


def test_maxwell_median_matches_mpmath():
    """The radius, in units of v, within which half a Gaussian cluster's
    count lies: P(3/2, m^2 / 2) = 1/2."""
    mp.mp.dps = 40
    m = mp.findroot(lambda t: mp.gammainc(1.5, 0, t * t / 2, regularized=True) - 0.5, 1.5)
    assert MAXWELL_MEDIAN == float(m)


def test_hyp2f1_no_worse_than_scipy_at_and_near_integer_b():
    """2F1(1, b; b+1; -x) on a b grid that holds the integers and the points
    1e-9 either side of them, where scipy's transformation loses up to seven
    digits, and at b = 32 and 40.5 on the same two routes."""
    special = pytest.importorskip("scipy.special")
    mp.mp.dps = 40
    x = np.concatenate([[0.0], np.geomspace(1e-12, 1e15, 28), [0.999, 1.0, 1.001, 2.0, 2.001]])
    bs = [k + d for k in range(6) for d in (-1e-9, 0.0, 1e-9) if k + d > 0] + [1 / 3, 0.5, 2 / 3, 2.5, 7.3, 32.0, 40.5]
    for b in bs:
        ref = [float(mp.hyp2f1(1, mp.mpf(b), mp.mpf(b) + 1, -mp.mpf(v))) for v in x]
        theirs = special.hyp2f1(1.0, b, b + 1.0, -x)
        _assert_no_worse_than_scipy(hyp2f1_first_unit(b, x), theirs, ref, 4 * EPS, f"b={b!r}")


def _psi_gaussian_mpmath(v, alpha, gamma, fine=False, radius=None):
    """psi of GaussianCluster(rho=1, v) as an mpmath integral over s = log r,
    on the disk (0, radius] if given."""
    v, alpha, log_gamma = mp.mpf(v), mp.mpf(alpha), mp.log(gamma)

    def integrand(s):
        r = mp.exp(s)
        kernel = 1 / (1 + mp.exp(alpha * s - log_gamma))
        return 2 * mp.pi * r**3 / v**2 * mp.exp(-(r**2) / (2 * v**2)) * kernel

    knee, scale = log_gamma / alpha, mp.log(v)
    lo, hi = min(knee, scale) - 30, scale + mp.log(14) if radius is None else mp.log(radius)
    cuts = sorted({lo, hi, *(p for p in (knee, scale, scale + mp.log(6)) if lo < p < hi)})
    if fine:
        # where psi is tiny (gamma = 1e-30, v = 500, alpha = 3) mpmath needs
        # Gauss-Legendre on quarter steps in log r: on unit steps it is still
        # 4e-7 off, and tanh-sinh 8e-8
        cuts = [lo + mp.mpf(k) / 4 for k in range(int(4 * (hi - lo)))] + [hi]
        return float(mp.quad(integrand, cuts, method="gauss-legendre"))
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


def test_gaussian_quadrature_reference_matches_mpmath():
    # the knee gamma^(1/alpha) sits decades from v: inside it (gamma = 1e-6),
    # where almost all of psi comes from the profile's r-linear start, or far
    # beyond 6v (v = 1, gamma >= 3e8), where the mass packs against the inner
    # end of the split interval [6v, knee]
    mp.mp.dps = 30
    cases = ((500.0, 4.0, 1e-6), (1e4, 3.0, 1e-6), (1e4, 3.0, 1e12), (1.0, 2.5, 3e8), (1.0, 2.5, 1e12))
    for v, alpha, gamma in cases:
        model = GaussianCluster(rho=1.0, v=v)
        ref = _psi_gaussian_mpmath(v, alpha, gamma)
        got = psi_quadrature(model, alpha, gamma, QuadratureSpec(abs_tol=0.0))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (v, alpha, gamma)
        if ref > DEFAULT_QUADRATURE.abs_tol:  # below it, the default spec is held to abs_tol
            assert psi_quadrature(model, alpha, gamma) == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("v, alpha, gamma", [(500.0, 3.0, 1e-30), (500.0, 3.0, 1e-120), (1e4, 4.0, 1e-12)])
def test_gaussian_quadrature_reference_at_tiny_psi(v, alpha, gamma):
    # psi is 1e-34 to 1e-123 here: the reference holds its relative accuracy
    # once abs_tol = 0 (the default spec's abs_tol = 1e-12 makes it an
    # absolute one below |psi| = 1e-3), and its head, the count below the
    # knee, does not cancel
    mp.mp.dps = 30
    got = psi_quadrature(GaussianCluster(rho=1.0, v=v), alpha, gamma, QuadratureSpec(abs_tol=0.0))
    assert got == pytest.approx(_psi_gaussian_mpmath(v, alpha, gamma, fine=True), rel=1e-12, abs=0.0)


def test_gaussian_count_matches_mpmath_near_the_origin():
    # the count goes like r^3 there: 8.4e-30 at r = 1e-8 for v = 500
    mp.mp.dps = 30
    v = 500.0
    model = GaussianCluster(rho=1.0, v=v)
    radii = np.geomspace(1e-40, 12.0 * v, 60)
    total = 2 * mp.pi * v * mp.sqrt(mp.pi / 2)
    ref = [float(total * mp.gammainc(1.5, 0, (mp.mpf(r) / v) ** 2 / 2, regularized=True)) for r in radii]
    got = model.cumulative_count(radii)
    assert np.all(got > 0.0)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


REFERENCE_GAMMAS = (1e-3, 1.0, 10.0, 1e6)


@pytest.mark.parametrize("alpha", (2.52, 3.0, 4.0))
@pytest.mark.parametrize("distance", (0.011, 0.005, 0.001))
def test_quadrature_reference_near_the_pole(alpha, distance):
    # eps = alpha - 2 - distance: the tail decays like r^-distance in log r
    model = PowerLaw(0.1, alpha - 2.0 - distance)
    closed = PsiEvaluator(model, alpha)
    ref = PsiEvaluator(model, alpha, method="quadrature")
    for gamma in REFERENCE_GAMMAS:
        assert ref.value(gamma) == pytest.approx(closed.value(gamma), rel=1e-9, abs=0.0)
        slope = closed.derivative(gamma)
        assert ref.derivative(gamma) == pytest.approx(slope, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("alpha", (2.5, 4.0))
@pytest.mark.parametrize("eps", (-1.99, -1.999, -1.9999))
def test_quadrature_reference_near_the_origin_singularity(alpha, eps):
    # nearly all of psi sits at radii decades below the knee, where the
    # integrand in log r decays like r^(2 + eps)
    model = PowerLaw(0.1, eps)
    for gamma in REFERENCE_GAMMAS:
        ref = psi_quadrature(model, alpha, gamma)
        assert ref == pytest.approx(psi_power_law(0.1, eps, alpha, gamma), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("alpha", (3.0, 4.0))
def test_radial_reference_on_power_laws(alpha):
    # a bare profile has no head or tail in closed form: its ends near the
    # origin singularity, on a plain tail and near the pole are QUADPACK's
    for eps in (-1.99, 0.5, alpha - 2.01):
        for gamma in REFERENCE_GAMMAS:
            ref = psi_quadrature_radial(lambda r: 0.1 * r**eps, alpha, gamma)
            assert ref == pytest.approx(psi_power_law(0.1, eps, alpha, gamma), rel=1e-9, abs=0.0)


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


@pytest.mark.parametrize("k", (-2.0 - 1e-7, -2.0 - 1e-9, -2.0, -2.0 + 1e-9, -2.0 + 1e-7))
def test_annulus_psi_near_k_minus_two_matches_mpmath(k):
    """The annulus (1, 2] of r**k at alpha = 3: the disk and outer
    differences cancel like 1/(k + 2) inside the knee (1.8e-9 off at
    k = -1.9999999, gamma = 1), its count less what the kernel removes does
    not."""
    mp.mp.dps = 30
    gammas = np.array([1e-3, 1.0, 10.0, 1e3, 1e6])
    got = _piece_psi(1.0, k, 1.0, 2.0, 3.0, gammas)
    ref = [_piece_psi_mpmath(1.0, k, 1.0, 2.0, 3.0, g) for g in gammas]
    np.testing.assert_allclose(got, ref, rtol=4e-15, atol=0.0)


def test_power_mass_near_k_minus_two_matches_mpmath():
    """The count of c * r**k on an annulus (lo, r] near k = -2, where
    r^(k+2) - lo^(k+2) cancels (4.5e-12 off for the piecewise count at
    r = 3 and 9.8e-11 for the bare piece on (10, 10.5]); lo^(k+2)
    expm1((k+2) log(r/lo)) does not."""
    mp.mp.dps = 40

    def mass(c, k, lo, r):
        p = mp.mpf(k) + 2
        return 2 * mp.pi * c * (mp.mpf(r) ** p - mp.mpf(lo) ** p) / p

    model = PiecewisePowerLaw(((1e-6, -0.5, 1.0), (1.0, -2.00001, 3.0)))
    r = np.array([2.0, 3.0])
    ref = [float(mass(1e-6, -0.5, 0, 1.0) + mass(1.0, -2.00001, 1.0, x)) for x in r]
    np.testing.assert_allclose(model.cumulative_count(r), ref, rtol=1e-14, atol=0.0)
    got = _power_mass(1.0, -2.00001, 10.0, 10.5)
    assert got == pytest.approx(float(mass(1.0, -2.00001, 10.0, 10.5)), rel=1e-14, abs=0.0)


# (model, disk radius, the power-law pieces (c, k, lo, hi) of the profile
# cut at the disk, written out by hand)
_POLYNOMIAL = PolynomialWithTail(coeffs=(0.005, 1e-4), R0=110.0, rho0=0.016 * 110.0**1.5, eps_tail=-1.5)
DISKS = {
    "power law": (PowerLaw(rho=0.023, eps=-0.5), 20.0, [(0.023, -0.5, 0.0, 20.0)]),
    "piecewise cut inside its support": (
        PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0))),
        300.0,
        [(0.5, -0.5, 0.0, 100.0), (0.2, -2.5, 100.0, 300.0)],
    ),
    "polynomial cut below R0": (_POLYNOMIAL, 50.0, [(0.005, 0.0, 0.0, 50.0), (1e-4, 1.0, 0.0, 50.0)]),
    "polynomial cut above R0": (
        _POLYNOMIAL,
        500.0,
        [(0.005, 0.0, 0.0, 110.0), (1e-4, 1.0, 0.0, 110.0), (0.016 * 110.0**1.5, -1.5, 110.0, 500.0)],
    ),
}


@pytest.mark.parametrize("shape", DISKS)
def test_disk_psi_matches_mpmath(shape):
    """psi over a disk, by the closed form (the model's pieces cut at the
    disk) and by the adaptive reference, against mpmath on the pieces of
    the cut profile."""
    mp.mp.dps = 30
    model, radius, pieces = DISKS[shape]
    gammas = np.geomspace(1e-3, 1e12, 6)
    for alpha in (2.5, 4.0):
        ref = [float(mp.fsum(_piece_psi_mpmath(*piece, alpha, g) for piece in pieces)) for g in gammas]
        got = PsiEvaluator(model, alpha).value(gammas, radius)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0, err_msg=f"alpha={alpha}")
        quadrature = PsiEvaluator(model, alpha, method="quadrature").value(gammas, radius)
        np.testing.assert_allclose(quadrature, ref, rtol=1e-9, atol=0.0, err_msg=f"alpha={alpha}")


@pytest.mark.parametrize("disk", (3.0, 7.0))
def test_gaussian_disk_psi_matches_mpmath(disk):
    """A Gaussian cluster's psi over disks inside its 12v support, one
    inside and one beyond the 6v split: the panel rule to rel_tol, and
    the adaptive reference to its own max(abs_tol, rel_tol * |psi|)."""
    mp.mp.dps = 20
    v, spec = 500.0, DEFAULT_QUADRATURE
    gammas = np.geomspace(1e-6, 1e12, 7)
    for alpha in (2.5, 3.0, 4.0):
        model = GaussianCluster(rho=1.0, v=v)
        ref = [_psi_gaussian_mpmath(v, alpha, g, radius=disk * v) for g in gammas]
        got = PsiEvaluator(model, alpha).value(gammas, disk * v)
        np.testing.assert_allclose(got, ref, rtol=spec.rel_tol, atol=0.0, err_msg=f"alpha={alpha}")
        got = PsiEvaluator(model, alpha, method="quadrature").value(gammas, disk * v)
        np.testing.assert_allclose(got, ref, rtol=spec.rel_tol, atol=spec.abs_tol, err_msg=f"alpha={alpha}")


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
    """The inherited inverse CDF (table and Newton polish) puts u <= 1e-6,
    and u across (0, 1], where the Maxwell radial CDF equals u, on disks of
    1.2v (where draw_radii uses it), 8v and 12v."""
    mp.mp.dps = 30
    v = 500.0
    u = np.array([1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 0.3, 0.9, 1.0])

    def maxwell_cdf(x):
        return mp.gammainc(1.5, 0, mp.mpf(x) ** 2 / (2 * v**2), regularized=True)

    for R in (1.2 * v, 8.0 * v, 12.0 * v):
        r = GaussianCluster(rho=1.0, v=v).sample_radii(u, R)
        ref = [float(maxwell_cdf(x) / maxwell_cdf(R)) for x in r]
        np.testing.assert_allclose(ref, u, rtol=1e-12, atol=0.0, err_msg=f"R = {R}")


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
