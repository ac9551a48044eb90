"""Tests for the radial intensity models, their sampling and the profile fit."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
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
    fit_polynomial,
    integrate_radial,
    location_pdf,
    mean_count,
    sample_location,
)
from sinrdist.intensity import (
    FAMILIES,
    INVERSE_CDF_KNOTS,
    ConfigError,
    IntensityModel,
    PowerLawSum,
    _pchip_coefficients,
    _table_radii,
)
from sinrdist.interference import _psi_panels

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
    # erf-based disk counts agree with quadrature
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
        upper = region.radius if region.is_finite else math.inf
        # the joint polar density already carries the Jacobian r, so the
        # normalization integral is just 2*pi * integral of pdf over r
        total = integrate_radial(
            lambda r: TWO_PI * location_pdf(model, region, r) if r > 0 else 0.0,
            0.0,
            upper,
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
    """Binned goodness of fit for the table-inverted Gaussian radial law."""
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


# ---------------------------------------------------------------------------
# polynomial profile fitting


@pytest.mark.parametrize(
    "model, R",
    [
        (GaussianCluster(rho=1.0, v=500.0), 4000.0),
        (PolynomialWithTail(coeffs=(0.005,), R0=110.0, rho0=0.005 * 110**1.5, eps_tail=-1.5), 400.0),
    ],
)
def test_inverse_cdf_table_matches_scipy_pchip(model, R):
    """The sampler table is scipy's PchipInterpolator bit for bit, at random
    uniforms, at every knot and at both ends."""
    from scipy.interpolate import PchipInterpolator

    grid = np.linspace(0.0, R, INVERSE_CDF_KNOTS)
    cdf = np.maximum.accumulate(model.cumulative_count(grid) / model.cumulative_count(R))
    cdf, keep = np.unique(cdf, return_index=True)
    u = np.concatenate([1.0 - np.random.default_rng(7).random(100_000), cdf, [0.0, 1.0]])
    radii, knots = _table_radii(model, R, u)
    np.testing.assert_array_equal(knots, cdf)
    assert np.all(radii == PchipInterpolator(cdf, grid[keep])(np.clip(u, cdf[0], cdf[-1])))


@pytest.mark.parametrize("n", [2, 3, 5, 40])
def test_pchip_coefficients_match_scipy_on_shaped_data(n):
    """Data with sign changes, flat runs and uneven spacing take every slope
    branch; the coefficients equal scipy's bit for bit."""
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(n)
    for _ in range(50):
        x = np.cumsum(rng.uniform(0.01, 3.0, n))
        y = rng.choice([-1.0, 0.0, 1.0, 2.5], n) * rng.uniform(0.5, 2.0, n)
        assert np.all(_pchip_coefficients(x, y) == PchipInterpolator(x, y).c)


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


def _assert_answers_protocol(model):
    alpha, R = 4.0, 1000.0
    gammas = np.geomspace(1e2, 1e10, 9)
    assert isinstance(model, IntensityModel)
    assert IntensityModel.from_dict(model.to_dict()) == model
    assert model.radial_intensity(1.0) > 0
    assert model.support_radius > 0
    assert all(0 < b < model.support_radius for b in model.quadrature_breakpoints)
    model.check_alpha(alpha)
    # the count over the plane is finite exactly when the region may be the plane
    try:
        plane = model.plane_count()
    except DivergenceError:
        assert model.algebraic_tail is not None
    else:
        assert plane == pytest.approx(model.cumulative_count(1e12), rel=1e-12)
        assert np.all(np.isfinite(model.sample_radii(np.array([0.5, 1.0]), math.inf)))
    # a family truncates either at a fixed radius or by its algebraic tail
    assert (model.fixed_truncation_radius is None) != (model.algebraic_tail is None)
    if model.algebraic_tail is not None:
        rho, eps, r0 = model.algebraic_tail
        far = max(r0, 1.0) * 10.0
        assert model.radial_intensity(far) == pytest.approx(model.beta * rho * far**eps, rel=1e-12)
    # the sampler inverts cumulative_count on the disk
    u = np.linspace(0.01, 1.0, 25)
    r = model.sample_radii(u, R)
    cut = min(R, model.support_radius)
    np.testing.assert_allclose(model.cumulative_count(r) / model.cumulative_count(cut), u, rtol=1e-6)
    # the panel layout integrates psi, whether or not a closed form exists
    knee = gammas ** (1.0 / alpha)
    small, inner, upper, breakpoints = model.panel_layout(alpha, knee)
    assert np.all(np.minimum(knee, inner) < upper) and all(b > 0 for b in breakpoints)
    panels = _psi_panels(model, alpha, gammas, DEFAULT_QUADRATURE, False)
    np.testing.assert_allclose(panels, PsiEvaluator(model, alpha).value(gammas), rtol=1e-8)
    if model.psi_closed_form is not None:
        nominal = model.psi_closed_form(alpha, gammas)
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
