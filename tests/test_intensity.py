"""Tests for the radial intensity models, their sampling and the profile fit."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrdist import (
    DEFAULT_QUADRATURE,
    DiskRegion,
    DivergenceError,
    FULL_PLANE,
    GaussianCluster,
    PiecewisePowerLaw,
    PolynomialWithTail,
    PowerLaw,
    PsiEvaluator,
    QuadratureSpec,
    fit_polynomial,
    integrate_radial,
    location_pdf,
    mean_count,
    sample_location,
)
from sinrdist.intensity import (
    FAMILIES,
    INVERSE_CDF_KNOTS,
    MAXWELL_MEDIAN,
    ConfigError,
    IntensityModel,
    PowerLawSum,
    _inverse_cdf_table,
    _psi_sum,
    _table_radii,
)
from sinrdist.interference import _psi_adaptive, _psi_panels

TWO_PI = 2.0 * math.pi


def _quadrature_count(model, radius):
    return integrate_radial(
        lambda r: TWO_PI * r * float(model.radial_intensity(r)), 0.0, radius
    )


# ---------------------------------------------------------------------------
# constructors and validation


def test_power_law_validation():
    with pytest.raises(ValueError):
        PowerLaw(rho=-1.0, eps=0.0)
    with pytest.raises(ValueError):
        PowerLaw(rho=1.0, eps=-2.0)
    with pytest.raises(ValueError):
        PowerLaw(rho=1.0, eps=0.0, beta=-0.5)
    assert PowerLaw(rho=0.0, eps=0.0).rho == 0.0  # an empty plane is allowed


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewisePowerLaw(segments=((1.0, 0.0, 200.0), (0.5, -1.0, 100.0)))
    with pytest.raises(ValueError):
        PiecewisePowerLaw(segments=((1.0, -2.5, 100.0),))  # innermost too steep
    with pytest.raises(ValueError):
        PiecewisePowerLaw(segments=((0.0, 0.0, 100.0),))  # rho_k must be positive
    with pytest.raises(ValueError):
        PiecewisePowerLaw(segments=())
    # outer segments may be steeper than -2 (no origin singularity out there)
    model = PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0)))
    assert model.support_radius == 1000.0


@pytest.mark.filterwarnings("error")
def test_piecewise_overflowing_count_is_refused():
    # 2 pi rho overflows: the whole-plane count was inf * 0 = NaN at r = 0,
    # with an invalid-value RuntimeWarning; so does a scale beta that
    # carries a finite count past the float range
    with pytest.raises(ValueError, match="segments .* make the total count overflow"):
        PiecewisePowerLaw(segments=((1.7e308, -0.5, 10.0), (1.0, 0.0, 50.0)))
    with pytest.raises(ValueError, match="total count overflow"):
        PiecewisePowerLaw(segments=((1e300, 0.0, 1e4),), beta=1e10)


@pytest.mark.filterwarnings("error")
def test_mean_count_overflow_is_inf_without_a_warning():
    assert mean_count(PowerLaw(rho=1e307, eps=-0.5), DiskRegion(10.0)) == math.inf


def test_polynomial_validation():
    with pytest.raises(ValueError):
        PolynomialWithTail(coeffs=(1.0,), R0=100.0, rho0=1.0, eps_tail=-2.3)
    with pytest.raises(ValueError):
        PolynomialWithTail(coeffs=(1.0,), R0=100.0, rho0=1.0, eps_tail=-0.9)
    with pytest.raises(ValueError):
        PolynomialWithTail(coeffs=(1.0,), R0=-5.0, rho0=1.0, eps_tail=-1.5)
    with pytest.raises(ValueError):
        # dips negative inside [0, R0]
        PolynomialWithTail(coeffs=(0.1, -1.0), R0=10.0, rho0=1.0, eps_tail=-1.5)


def test_polynomial_continuity_warning():
    with pytest.warns(UserWarning, match="continuity"):
        PolynomialWithTail(coeffs=(1.0,), R0=100.0, rho0=1.0, eps_tail=-1.5)
    # matched boundary stays quiet
    rho0 = 1.0 * 100.0**1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        PolynomialWithTail(coeffs=(1.0,), R0=100.0, rho0=rho0, eps_tail=-1.5)


def test_gaussian_validation_and_total():
    with pytest.raises(ValueError):
        GaussianCluster(rho=1.0, v=0.0)
    gc = GaussianCluster.with_total_count(1000.0, 500.0)
    assert math.isclose(gc.total_count, 1000.0, rel_tol=1e-12)
    assert math.isclose(
        gc.rho, 1000.0 / (TWO_PI * 500.0 * math.sqrt(math.pi / 2.0)), rel_tol=1e-12
    )


def test_models_are_hashable():
    models = {
        PowerLaw(rho=1.0, eps=0.0): "a",
        PiecewisePowerLaw(segments=((1.0, 0.0, 10.0),)): "b",
        GaussianCluster(rho=1.0, v=2.0): "c",
    }
    assert len(models) == 3


# ---------------------------------------------------------------------------
# mean counts


def test_mean_count_uniform_disk():
    # uniform density over a 1 km disk, calibrated to ~3142 points
    model = PowerLaw(rho=1.0003e-3, eps=0.0)
    region = DiskRegion(1000.0)
    mu = mean_count(model, region)
    assert mu == pytest.approx(math.pi * 1.0003e-3 * 1000.0**2, rel=1e-12)
    assert mu == pytest.approx(3142.0, rel=1e-3)


def test_mean_count_zero_density():
    assert mean_count(PowerLaw(rho=0.0, eps=0.0), DiskRegion(10.0)) == 0.0


def test_mean_count_divergence():
    with pytest.raises(DivergenceError):
        mean_count(PowerLaw(rho=1.0, eps=0.0), FULL_PLANE)
    with pytest.raises(DivergenceError):
        mean_count(
            PolynomialWithTail(coeffs=(1.0,), R0=1.0, rho0=1.0, eps_tail=-1.5),
            FULL_PLANE,
        )


def test_mean_count_gaussian_full_plane():
    gc = GaussianCluster.with_total_count(1000.0, 500.0)
    assert mean_count(gc, FULL_PLANE) == pytest.approx(1000.0, rel=1e-12)
    # the P(3/2) disk counts agree with quadrature
    for R in (250.0, 700.0, 2000.0):
        got = mean_count(gc, DiskRegion(R))
        assert got == pytest.approx(_quadrature_count(gc, R), rel=1e-9)


def test_mean_count_piecewise_additive():
    inner = (0.5, -0.5, 100.0)
    outer = (0.2, -2.5, 1000.0)
    model = PiecewisePowerLaw(segments=(inner, outer))
    mass_inner = TWO_PI * 0.5 * 100.0**1.5 / 1.5
    mass_outer = TWO_PI * 0.2 * (1000.0**-0.5 - 100.0**-0.5) / -0.5
    total = mean_count(model, FULL_PLANE)  # bounded support, so this is fine
    assert total == pytest.approx(mass_inner + mass_outer, rel=1e-12)
    assert total == pytest.approx(_quadrature_count(model, 1000.0), rel=1e-8)
    # the region can cut a segment mid-way
    assert mean_count(model, DiskRegion(400.0)) == pytest.approx(
        _quadrature_count(model, 400.0), rel=1e-8
    )


def test_mean_count_quadrature_cross_check():
    cases = [
        (PowerLaw(rho=0.3, eps=-0.5), 50.0),
        (PowerLaw(rho=2.0, eps=1.0), 5.0),
        (GaussianCluster(rho=0.7, v=3.0), 12.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cases.append(
            (PolynomialWithTail(coeffs=(0.2, 1e-3, -1e-7), R0=800.0, rho0=0.9, eps_tail=-1.5), 2000.0)
        )
    for model, R in cases:
        assert mean_count(model, DiskRegion(R)) == pytest.approx(
            _quadrature_count(model, R), rel=1e-8
        )


@given(
    beta=st.floats(min_value=0.25, max_value=16.0),
    rho=st.floats(min_value=1e-4, max_value=10.0),
    eps=st.floats(min_value=-1.9, max_value=2.0),
)
def test_mean_count_scales_with_beta(beta, rho, eps):
    base = PowerLaw(rho=rho, eps=eps)
    scaled = dataclasses.replace(base, beta=beta)
    region = DiskRegion(37.0)
    assert mean_count(scaled, region) == pytest.approx(
        beta * mean_count(base, region), rel=1e-12
    )


@given(
    r1=st.floats(min_value=0.0, max_value=500.0),
    r2=st.floats(min_value=0.0, max_value=500.0),
)
def test_cumulative_count_monotone(r1, r2):
    model = PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0)))
    lo, hi = sorted((r1, r2))
    assert model.cumulative_count(hi) >= model.cumulative_count(lo)


# ---------------------------------------------------------------------------
# location pdf


def test_location_pdf_uniform_disk():
    model = PowerLaw(rho=0.5, eps=0.0)
    region = DiskRegion(200.0)
    r = np.array([0.0, 50.0, 199.0, 200.0, 250.0])
    got = location_pdf(model, region, r)
    # radial marginal is 2r/R^2, spread uniformly over theta
    expected = np.where(r < 200.0, 2.0 * r / 200.0**2 / TWO_PI, 0.0)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_location_pdf_normalization():
    cases = [
        (PowerLaw(rho=0.3, eps=-0.5), DiskRegion(50.0)),
        (GaussianCluster(rho=0.7, v=3.0), FULL_PLANE),
        (GaussianCluster(rho=0.7, v=3.0), DiskRegion(5.0)),
    ]
    for model, region in cases:
        # the joint polar density already carries the Jacobian r, so the
        # normalization integral is just 2*pi * integral of pdf over r
        total = integrate_radial(
            lambda r: TWO_PI * location_pdf(model, region, r) if r > 0 else 0.0,
            0.0,
            region.radius,
        )
        assert total == pytest.approx(1.0, rel=1e-8)


def test_location_pdf_zero_mass_raises():
    with pytest.raises(ValueError):
        location_pdf(PowerLaw(rho=0.0, eps=0.0), DiskRegion(10.0), 1.0)


# ---------------------------------------------------------------------------
# sampling


def test_sample_location_scalar_and_array():
    rng = np.random.default_rng(3)
    model = PowerLaw(rho=1.0, eps=0.0)
    r, theta = sample_location(model, DiskRegion(10.0), rng)
    assert isinstance(r, float) and isinstance(theta, float)
    assert 0.0 < r <= 10.0 and 0.0 <= theta < TWO_PI
    rs, thetas = sample_location(model, DiskRegion(10.0), rng, size=1000)
    assert rs.shape == (1000,) and thetas.shape == (1000,)
    assert np.all(rs > 0.0) and np.all(rs <= 10.0)


def test_sample_location_deterministic():
    model = GaussianCluster(rho=1.0, v=5.0)
    a = sample_location(model, DiskRegion(40.0), np.random.default_rng(11), size=64)
    b = sample_location(model, DiskRegion(40.0), np.random.default_rng(11), size=64)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_sample_location_rejects_divergent_region():
    with pytest.raises(DivergenceError):
        sample_location(PowerLaw(rho=1.0, eps=0.0), FULL_PLANE, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_location(PowerLaw(rho=0.0, eps=0.0), DiskRegion(5.0), np.random.default_rng(0))


def test_sample_uniform_disk_radial_law():
    """For a flat profile the radial CDF is (r/R)^2."""
    rng = np.random.default_rng(101)
    R = 30.0
    r, theta = sample_location(PowerLaw(rho=1.0, eps=0.0), DiskRegion(R), rng, size=100_000)
    ks = scipy.stats.kstest(r, lambda x: (np.asarray(x) / R) ** 2)
    assert ks.statistic < 0.01
    ks_theta = scipy.stats.kstest(theta, scipy.stats.uniform(loc=0.0, scale=TWO_PI).cdf)
    assert ks_theta.statistic < 0.01


def test_sample_power_law_radial_law():
    rng = np.random.default_rng(202)
    R = 30.0
    r, _ = sample_location(PowerLaw(rho=0.4, eps=-0.5), DiskRegion(R), rng, size=100_000)
    ks = scipy.stats.kstest(r, lambda x: (np.asarray(x) / R) ** 1.5)
    assert ks.statistic < 0.01


def test_sample_piecewise_matches_cumulative():
    model = PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0)))
    rng = np.random.default_rng(303)
    total = model.cumulative_count(1000.0)
    r, _ = sample_location(model, DiskRegion(1000.0), rng, size=100_000)
    ks = scipy.stats.kstest(r, lambda x: model.cumulative_count(np.asarray(x)) / total)
    assert ks.statistic < 0.01
    # restricting the region renormalizes the same law
    r_cut, _ = sample_location(model, DiskRegion(90.0), rng, size=20_000)
    assert np.all(r_cut <= 90.0)
    cut_total = model.cumulative_count(90.0)
    ks_cut = scipy.stats.kstest(
        r_cut, lambda x: model.cumulative_count(np.asarray(x)) / cut_total
    )
    assert ks_cut.statistic < 0.015


def test_piecewise_sampler_does_not_cancel_near_p_zero():
    """A piece at eps = -2.00001 (p = k + 2 = -1e-5) from lo = 1, where
    solving the mass r^p = lo^p + share p for r would cancel: the inherited
    sampler polishes each draw on cumulative_count, whose annulus mass does
    not cancel there; the root against an mpmath inverse of the exact masses
    at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    segments = ((1e-6, -0.5, 1.0), (1.0, -2.00001, 3.0))
    u = np.linspace(0.05, 1.0, 20)
    r = PiecewisePowerLaw(segments).sample_radii(u, 3.0)
    with mpmath.workdps(40):
        pieces = [
            (rho, mpmath.mpf(eps) + 2, mpmath.mpf(lo), mpmath.mpf(hi))
            for (rho, eps, hi), lo in zip(segments, (0.0, 1.0))
        ]
        masses = [2 * mpmath.pi * rho * (hi**p - lo**p) / p for rho, p, lo, hi in pieces]
        worst = 0.0
        for u_k, r_k in zip(u, r):
            target = mpmath.mpf(u_k) * sum(masses)
            i = 0 if target <= masses[0] else 1
            rho, p, lo, _ = pieces[i]
            share = (target - sum(masses[:i])) / (2 * mpmath.pi * rho)
            root = (lo**p + share * p) ** (1 / p)
            worst = max(worst, float(abs(r_k - root) / root))
    assert worst < 1e-14


def test_sample_polynomial_matches_cumulative():
    with pytest.warns(UserWarning):
        model = PolynomialWithTail(
            coeffs=(0.2, 1e-3, -1e-7), R0=800.0, rho0=0.9, eps_tail=-1.5
        )
    rng = np.random.default_rng(404)
    R = 1500.0
    total = model.cumulative_count(R)
    r, _ = sample_location(model, DiskRegion(R), rng, size=100_000)
    ks = scipy.stats.kstest(r, lambda x: model.cumulative_count(np.asarray(x)) / total)
    assert ks.statistic < 0.01


def test_sample_gaussian_chi_square():
    """Binned goodness of fit for the Gaussian radial law drawn as v |Z|."""
    gc = GaussianCluster(rho=1.0, v=500.0)
    region = DiskRegion(5 * 500.0)
    rng = np.random.default_rng(505)
    n = 50_000
    r, _ = sample_location(gc, region, rng, size=n)
    total = gc.cumulative_count(region.radius)
    edges = np.linspace(0.0, region.radius, 33)
    expected = np.diff(gc.cumulative_count(edges)) / total * n
    observed, _ = np.histogram(r, bins=edges)
    result = scipy.stats.chisquare(observed, expected)
    assert result.pvalue > 0.001


@pytest.mark.parametrize("disk", [8.0, 12.0, math.inf, 1.6, 1.0])
def test_gaussian_draw_radii_follow_the_maxwell_law(disk):
    """draw_radii against P(3/2, r^2/2v^2) / P(3/2, r_max^2/2v^2): v |Z| on
    the plane (cut at 12v) down to 1.6v, where about half of the draws fall
    outside and are drawn again, and the inherited inverse CDF on the v disk,
    below the Maxwell median. Every radius lies in (0, r_max], and a seed
    replays its radii."""
    v, n = 500.0, 100_000
    model = GaussianCluster(rho=1.0, v=v)
    r_max = min(disk * v, model.support_radius)
    r = model.draw_radii(np.random.default_rng(606), n, disk * v)
    assert r.shape == (n,) and r.min() > 0.0 and r.max() <= r_max
    np.testing.assert_array_equal(r, model.draw_radii(np.random.default_rng(606), n, disk * v))
    mass = scipy.special.gammainc(1.5, 0.5 * (r_max / v) ** 2)
    ks = scipy.stats.kstest(r, lambda x: scipy.special.gammainc(1.5, 0.5 * (x / v) ** 2) / mass)
    assert ks.pvalue > 0.001
    if disk < MAXWELL_MEDIAN:
        fallback = model.sample_radii(1.0 - np.random.default_rng(606).random(n), r_max)
        np.testing.assert_array_equal(r, fallback)


# ---------------------------------------------------------------------------
# the inverse-CDF table and the default sampler


with warnings.catch_warnings():
    warnings.simplefilter("ignore", UserWarning)  # the intensity halves at R0
    JUMP_POLYNOMIAL = PolynomialWithTail(
        coeffs=(0.005,), R0=110.0, rho0=0.5 * 0.005 * 110**1.5, eps_tail=-1.5
    )


# four annuli of the benchmark's piecewise shape, intensity 0.1 at each outer edge
FOUR_ANNULI = PiecewisePowerLaw(
    segments=tuple((0.1 / r**e, e, r) for r, e in ((20.0, -0.5), (90.0, -0.8), (380.0, 0.6), (1200.0, -2.2)))
)


@pytest.mark.parametrize("disk", [5.0, 8.0, 12.0])
def test_inverse_cdf_table_follows_the_exact_gaussian_inverse(disk):
    """Above its 64th knot the table's guess for the Newton polish is within
    2e-12 of the Gaussian's exact inverse in the median and 1.2e-8 at worst
    (below it the radius goes like u^(1/3), which the cubics follow badly)."""
    v = 500.0
    model, R = GaussianCluster.with_total_count(1000.0, v), disk * v
    u = 1.0 - np.random.default_rng(11).random(200_000)
    radii, knots = _table_radii(model, R, u)
    far = u >= knots[64]
    mass = scipy.special.gammainc(1.5, 0.5 * (R / v) ** 2)
    exact = v * np.sqrt(2.0 * scipy.special.gammaincinv(1.5, u[far] * mass))
    error = np.abs(radii[far] / exact - 1.0)
    assert np.median(error) <= 2e-12
    assert error.max() <= 1.2e-8


@pytest.mark.parametrize(
    "model, R",
    [
        (GaussianCluster.with_total_count(1000.0, 500.0), 4000.0),
        (GaussianCluster.with_total_count(1000.0, 500.0), 6000.0),
        (PolynomialWithTail(coeffs=(0.0, 0.0, 1e-6), R0=50.0, rho0=1e-6 * 50**3.5, eps_tail=-1.5), 2000.0),
        (JUMP_POLYNOMIAL, 400.0),
    ],
    ids=["gaussian-8v", "gaussian-12v", "polynomial-kink", "polynomial-jump"],
)
def test_inverse_cdf_table_is_monotone_and_exact_at_its_knots(model, R):
    """Radii rise with u, stay on [0, R] and are the grid radii at the knots."""
    u = np.linspace(0.0, 1.0, 2_000_000)
    radii, knots = _table_radii(model, R, u)
    assert np.all(np.diff(radii) >= 0.0)
    assert radii.min() >= 0.0 and radii.max() <= R
    grid = np.linspace(0.0, R, INVERSE_CDF_KNOTS)
    cdf = np.maximum.accumulate(model.cumulative_count(grid) / model.cumulative_count(R))
    cdf, keep = np.unique(cdf, return_index=True)
    np.testing.assert_array_equal(knots, cdf)
    np.testing.assert_array_equal(_table_radii(model, R, knots)[0], grid[keep])


@pytest.mark.parametrize(
    "model, R",
    [(FOUR_ANNULI, 1200.0), (GaussianCluster.with_total_count(1000.0, 500.0), 4000.0)],
    ids=["piecewise-4-annuli", "gaussian-8v"],
)
def test_default_sampler_stops_once_its_bracket_closes(model, R, monkeypatch):
    """The inherited table-and-Newton sampler ends a draw when its bracket has
    closed to adjacent doubles, where cumulative_count's rounding would keep
    its steps bouncing: at most 12 counts per batch, table included, and
    every draw at the root of the count."""
    from scipy.optimize import brentq

    calls = []
    count = type(model).cumulative_count
    monkeypatch.setattr(type(model), "cumulative_count", lambda self, r: calls.append(1) or count(self, r))
    _inverse_cdf_table.cache_clear()
    u = 1.0 - np.random.default_rng(12).random(1000)
    r = IntensityModel.sample_radii(model, u, R)
    assert len(calls) <= 12
    monkeypatch.undo()
    total = model.cumulative_count(R)
    roots = [
        brentq(lambda x: model.cumulative_count(x) - ui * total, 0.0, R, xtol=1e-300, rtol=1e-15)
        for ui in u
    ]
    np.testing.assert_allclose(r, roots, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# polynomial profile fitting


def test_fit_constant_profile():
    coeffs, resid = fit_polynomial(lambda r: 3.7, degree=0, R0=100.0)
    assert coeffs[0] == pytest.approx(3.7, rel=1e-12)
    assert resid < 1e-10


def test_fit_quadratic_profile():
    coeffs, resid = fit_polynomial(lambda r: r * r, degree=2, R0=10.0)
    assert coeffs[2] == pytest.approx(1.0, rel=1e-8)
    assert abs(coeffs[0]) < 1e-8 and abs(coeffs[1]) < 1e-8
    assert resid < 1e-7


def test_fit_gaussian_profile_improves_with_degree():
    gc = GaussianCluster.with_total_count(1000.0, 500.0)
    h = lambda r: float(gc.radial_intensity(r))
    residuals = [fit_polynomial(h, degree=m, R0=1500.0)[1] for m in (2, 4, 8)]
    assert residuals[0] > residuals[1] > residuals[2]


def test_fit_degree_limits():
    with pytest.raises(ValueError):
        fit_polynomial(lambda r: 1.0, degree=31, R0=10.0)
    with pytest.raises(ValueError):
        fit_polynomial(lambda r: 1.0, degree=-1, R0=10.0)
    with pytest.raises(ValueError):
        fit_polynomial(lambda r: 1.0, degree=2, R0=0.0)


# ---------------------------------------------------------------------------
# the family protocol


def _polynomial(coeffs, R0, rho0, eps_tail, beta=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # continuity at R0 is not required
        return PolynomialWithTail(coeffs=coeffs, R0=R0, rho0=rho0, eps_tail=eps_tail, beta=beta)


PROTOCOL_MODELS = (
    PowerLaw(rho=0.02, eps=-0.5, beta=3.0),
    PiecewisePowerLaw(segments=((1e-3, 0.0, 50.0), (2e-2, -1.0, 300.0)), beta=0.5),
    PolynomialWithTail((0.005, 0.0, 1e-6), 110.0, (0.005 + 1e-6 * 110**2) * 110**1.5, -1.5, 2.0),
    GaussianCluster(rho=1.0, v=500.0, beta=4.0),
)


def test_registry_holds_every_family_once():
    assert {type(m) for m in PROTOCOL_MODELS} == set(FAMILIES.values())
    assert all(FAMILIES[cls.family] is cls for cls in FAMILIES.values())


@pytest.mark.parametrize("model", PROTOCOL_MODELS, ids=lambda m: m.family)
def test_every_family_answers_every_protocol_member(model):
    _assert_answers_protocol(model)


@dataclass(frozen=True)
class _Pieces(PowerLawSum):
    """A family that declares only its pieces: a disk profile and an
    annulus on top of it, then a decaying tail."""

    family = "test_pieces"
    pieces = ((2e-3, 0.0, 0.0, 50.0), (1e-4, 1.0, 20.0, 50.0), (5e-2, -1.5, 50.0, math.inf))

    beta: float = 1.0


def test_a_family_of_pieces_alone_answers_every_protocol_member(monkeypatch):
    monkeypatch.setitem(FAMILIES, _Pieces.family, _Pieces)
    model = _Pieces(beta=2.0)
    assert model.quadrature_breakpoints == (20.0, 50.0)
    assert model.algebraic_tail == (5e-2, -1.5, 50.0)
    _assert_answers_protocol(model)


@pytest.mark.parametrize("model", (*PROTOCOL_MODELS, _Pieces(beta=2.0)), ids=lambda m: m.family)
@pytest.mark.parametrize("alpha", (2.5, 3.0, 4.0))
def test_panel_rule_and_reference_share_one_layout(monkeypatch, model, alpha):
    # both quadratures integrate the body of one layout, so over sixty decades
    # of gamma they agree to rel_tol, and no panel point falls back
    import sinrdist.interference

    spec = QuadratureSpec(abs_tol=0.0)
    gammas = np.geomspace(1e-30, 1e30, 25)
    ref = {d: np.array([_psi_adaptive(model, alpha, g, spec, d) for g in gammas]) for d in (0, 1)}
    fallbacks = []
    monkeypatch.setattr(
        sinrdist.interference, "_psi_adaptive", lambda *args: fallbacks.append(args) or _psi_adaptive(*args)
    )
    psi = _psi_panels(model, alpha, gammas, spec, False)
    slope = _psi_panels(model, alpha, gammas, spec, True)
    np.testing.assert_allclose(psi, ref[0], rtol=spec.rel_tol, atol=0.0)
    normal = ref[1] >= np.finfo(float).tiny
    np.testing.assert_allclose(slope[normal], ref[1][normal], rtol=spec.rel_tol, atol=0.0)
    assert fallbacks == []


def _assert_answers_protocol(model):
    alpha, R = 4.0, 1000.0
    gammas = np.geomspace(1e2, 1e10, 9)
    assert isinstance(model, IntensityModel)
    assert IntensityModel.from_dict(model.to_dict()) == model
    assert model.radial_intensity(1.0) > 0
    assert model.support_radius > 0
    assert all(0 < b < model.support_radius for b in model.quadrature_breakpoints)
    model.check_alpha(alpha)
    # a family has a finite support or an algebraic tail, not both, and the
    # count over the plane is finite exactly when the support is
    assert math.isfinite(model.support_radius) != (model.algebraic_tail is not None)
    if math.isfinite(model.support_radius):
        plane = mean_count(model, FULL_PLANE)
        assert plane == model.cumulative_count(model.support_radius)
        assert plane == pytest.approx(model.cumulative_count(1e12), rel=1e-12)
        assert np.all(np.isfinite(model.sample_radii(np.array([0.5, 1.0]), math.inf)))
    else:
        with pytest.raises(DivergenceError):
            mean_count(model, FULL_PLANE)
    if model.algebraic_tail is not None:
        rho, eps, r0 = model.algebraic_tail
        far = max(r0, 1.0) * 10.0
        assert model.radial_intensity(far) == pytest.approx(model.beta * rho * far**eps, rel=1e-12)
    # the sampler inverts cumulative_count on the disk
    u = np.linspace(0.01, 1.0, 25)
    r = model.sample_radii(u, R)
    cut = min(R, model.support_radius)
    np.testing.assert_allclose(model.cumulative_count(r) / model.cumulative_count(cut), u, rtol=1e-6)
    # the panel rule integrates psi, whether or not a closed form exists
    panels = _psi_panels(model, alpha, gammas, DEFAULT_QUADRATURE, False)
    np.testing.assert_allclose(panels, PsiEvaluator(model, alpha).value(gammas), rtol=1e-8)
    if model.pieces is not None:
        nominal = _psi_sum(model.pieces, alpha, gammas)
        np.testing.assert_array_equal(model.beta * nominal, PsiEvaluator(model, alpha).value(gammas))
    if model.dpsi_closed_form is not None:
        psi = PsiEvaluator(model, alpha).value(gammas)
        slope = _psi_panels(model, alpha, gammas, DEFAULT_QUADRATURE, True)
        np.testing.assert_allclose(model.dpsi_closed_form(alpha, gammas, psi), slope, rtol=1e-8)


_scale = st.floats(1e-6, 1e3)
_betas = st.floats(0.0, 1e3)


@st.composite
def _piecewise(draw):
    n = draw(st.integers(1, 4))
    widths = draw(st.lists(st.floats(1e-2, 1e3), min_size=n, max_size=n))
    radii = np.cumsum(widths).tolist()
    eps = [draw(st.floats(-1.99, 3.0))] + draw(st.lists(st.floats(-5.0, 5.0), min_size=n - 1, max_size=n - 1))
    rho = draw(st.lists(_scale, min_size=n, max_size=n))
    return PiecewisePowerLaw(segments=tuple(zip(rho, eps, radii)), beta=draw(_betas))


@st.composite
def _polynomials(draw):
    coeffs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    return _polynomial(
        tuple(coeffs), draw(st.floats(1.0, 1e3)), draw(_scale), draw(st.floats(-1.99, -1.01)), draw(_betas)
    )


@st.composite
def _gaussians_by_total(draw):
    raw = {"family": "gaussian_cluster", "total_count": draw(_scale), "v": draw(_scale)}
    if draw(st.booleans()):
        raw["beta"] = draw(_betas)
    return IntensityModel.from_dict(raw)


_models = st.one_of(
    st.builds(PowerLaw, rho=st.floats(0.0, 1e3), eps=st.floats(-1.99, 5.0), beta=_betas),
    _piecewise(),
    _polynomials(),
    st.builds(GaussianCluster, rho=st.floats(0.0, 1e3), v=_scale, beta=_betas),
    _gaussians_by_total(),
)


@settings(max_examples=150, deadline=None)
@given(_models)
def test_config_form_round_trips(model):
    raw = model.to_dict()
    assert FAMILIES[raw["family"]] is type(model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert IntensityModel.from_dict(raw) == model
        assert type(model).from_dict(json.loads(json.dumps(raw))) == model


def test_config_form_names_an_unknown_or_missing_family():
    with pytest.raises(ConfigError, match="'spiral'"):
        IntensityModel.from_dict({"family": "spiral", "rho": 1.0})
    with pytest.raises(ConfigError, match="missing key 'family' in model"):
        IntensityModel.from_dict({"rho": 1.0, "eps": 0.0})
    with pytest.raises(ConfigError, match="'gaussian_cluster'"):
        PowerLaw.from_dict({"family": "gaussian_cluster", "rho": 1.0, "v": 1.0})
