"""Tests for the SINR distribution: CDF/PDF identities, outage, scaling limit."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrdist import (
    GaussianCluster,
    LinkConfig,
    PiecewisePowerLaw,
    PolynomialWithTail,
    PowerLaw,
    PsiEvaluator,
    SinrDistribution,
    antenna_gain_delta,
    cdf_gamma,
    cdf_gamma_double_sum,
    outage_probability,
    pdf_gamma,
    regularized_gamma_limit_scan,
    scaling_limit,
)
import sinrdist.distribution
from sinrdist.distribution import BracketingError, argument_supremum


def _dist(model, alpha, sigma2, r_T, L):
    return SinrDistribution(
        psi=PsiEvaluator(model, alpha),
        link=LinkConfig(alpha=alpha, sigma2=sigma2, r_T=r_T, L=L),
    )


# a sparse field with analytic psi and a dense cluster with quadrature psi
SPARSE = _dist(PowerLaw(rho=0.023, eps=-0.5), 4.0, 1e-12, 10.0, 10)
CLUSTER = _dist(GaussianCluster.with_total_count(1000.0, 500.0), 3.0, 1e-14, 20.0, 10)


# ---------------------------------------------------------------------------
# configuration objects


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(alpha=2.0, sigma2=0.0, r_T=1.0, L=1)
    with pytest.raises(ValueError):
        LinkConfig(alpha=4.0, sigma2=-1e-9, r_T=1.0, L=1)
    with pytest.raises(ValueError):
        LinkConfig(alpha=4.0, sigma2=0.0, r_T=0.0, L=1)
    with pytest.raises(ValueError):
        LinkConfig(alpha=4.0, sigma2=0.0, r_T=1.0, L=0)
    with pytest.raises(ValueError):
        LinkConfig(alpha=4.0, sigma2=0.0, r_T=1.0, L=2.5)
    assert LinkConfig(alpha=4.0, sigma2=0.0, r_T=1.0, L=4.0).L == 4


def test_distribution_requires_matching_alpha():
    psi = PsiEvaluator(PowerLaw(rho=1.0, eps=0.0), 4.0)
    link = LinkConfig(alpha=3.0, sigma2=0.0, r_T=1.0, L=1)
    with pytest.raises(ValueError):
        SinrDistribution(psi=psi, link=link)


# ---------------------------------------------------------------------------
# CDF


def test_cdf_at_zero_and_validation():
    assert cdf_gamma(SPARSE, 0.0) == 0.0
    with pytest.raises(ValueError):
        cdf_gamma(SPARSE, -1.0)


def test_cdf_single_antenna_median():
    """With L=1 and no noise, the median sits where psi crosses log 2."""
    dist = _dist(PowerLaw(rho=1.0, eps=0.0), 4.0, 0.0, 1.0, 1)
    gamma_median = (2.0 * math.log(2.0) / math.pi**2) ** 2
    assert cdf_gamma(dist, gamma_median) == pytest.approx(0.5, rel=1e-12)


def test_cdf_cluster_frozen_value():
    assert cdf_gamma(CLUSTER, 8e5) == pytest.approx(0.4110150924, rel=1e-6)


def test_cdf_single_antenna_is_exponential():
    dist = dataclasses.replace(SPARSE, link=dataclasses.replace(SPARSE.link, L=1))
    for gamma in (1.0, 1e3, 1e6):
        x = dist.psi.value(gamma) + dist.link.sigma2 * gamma
        assert cdf_gamma(dist, gamma) == pytest.approx(-math.expm1(-x), rel=1e-12)


def test_double_sum_matches_gamma_route():
    gammas = np.logspace(1.0, 7.0, 5)
    for base in (SPARSE, CLUSTER):
        for L in (1, 2, 4, 10, 20):
            dist = dataclasses.replace(base, link=dataclasses.replace(base.link, L=L))
            for gamma in gammas:
                a = cdf_gamma(dist, float(gamma))
                b = cdf_gamma_double_sum(dist, float(gamma))
                assert abs(a - b) <= 1e-10, (L, gamma)


def test_double_sum_cap():
    dist = dataclasses.replace(SPARSE, link=dataclasses.replace(SPARSE.link, L=65))
    with pytest.raises(ValueError):
        cdf_gamma_double_sum(dist, 1.0)


def test_double_sum_noiseless_branch():
    # sigma2 = 0 sends all mixed terms through the guard paths
    dist = _dist(PowerLaw(rho=0.023, eps=-0.5), 4.0, 0.0, 10.0, 6)
    for gamma in (10.0, 1e5):
        assert cdf_gamma_double_sum(dist, gamma) == pytest.approx(
            cdf_gamma(dist, gamma), abs=1e-12
        )


@given(
    g1=st.floats(min_value=1e-3, max_value=1e9),
    g2=st.floats(min_value=1e-3, max_value=1e9),
)
def test_cdf_monotone_in_gamma(g1, g2):
    lo, hi = sorted((g1, g2))
    assert cdf_gamma(SPARSE, hi) >= cdf_gamma(SPARSE, lo) - 1e-12


@given(L=st.integers(min_value=1, max_value=30), g=st.floats(min_value=1.0, max_value=1e8))
def test_cdf_nonincreasing_in_antennas(L, g):
    d1 = dataclasses.replace(SPARSE, link=dataclasses.replace(SPARSE.link, L=L))
    d2 = dataclasses.replace(SPARSE, link=dataclasses.replace(SPARSE.link, L=L + 1))
    assert cdf_gamma(d2, g) <= cdf_gamma(d1, g) + 1e-12


@given(beta=st.floats(min_value=1.0, max_value=64.0), g=st.floats(min_value=1.0, max_value=1e8))
def test_cdf_nondecreasing_in_density(beta, g):
    base = PowerLaw(rho=0.023, eps=-0.5)
    d1 = _dist(base, 4.0, 1e-12, 10.0, 10)
    d2 = _dist(dataclasses.replace(base, beta=beta), 4.0, 1e-12, 10.0, 10)
    assert cdf_gamma(d2, g) >= cdf_gamma(d1, g) - 1e-12


def test_cdf_saturates_at_one():
    assert cdf_gamma(SPARSE, 1e14) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# PDF


def test_pdf_validation():
    with pytest.raises(ValueError):
        pdf_gamma(SPARSE, 0.0)
    with pytest.raises(ValueError):
        pdf_gamma(SPARSE, -1.0)


@pytest.mark.filterwarnings("error")
def test_pdf_refuses_a_non_finite_density(monkeypatch):
    def infinite(self, gamma):
        return np.full(np.shape(gamma), np.inf)

    monkeypatch.setattr(PsiEvaluator, "derivative", infinite)
    with pytest.raises(ArithmeticError, match="density is not finite"):
        pdf_gamma(SPARSE, [1e4, 1e5])


def test_pdf_matches_cdf_slope():
    for dist in (SPARSE, CLUSTER):
        for gamma in np.logspace(3.0, 6.0, 4):
            h = 1e-4 * gamma
            fd = (cdf_gamma(dist, gamma + h) - cdf_gamma(dist, gamma - h)) / (2.0 * h)
            assert pdf_gamma(dist, gamma) == pytest.approx(fd, rel=1e-5)


def test_pdf_integrates_to_one():
    # substitute u = log gamma; the analytic-psi model keeps this cheap
    total, err = scipy.integrate.quad(
        lambda u: pdf_gamma(SPARSE, math.exp(u)) * math.exp(u),
        math.log(1e-2),
        math.log(1e12),
        limit=200,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_pdf_nonnegative():
    for gamma in np.logspace(-2.0, 10.0, 25):
        assert pdf_gamma(SPARSE, float(gamma)) >= 0.0


# ---------------------------------------------------------------------------
# outage


def test_outage_is_cdf_at_threshold():
    tau = 10.0
    got = outage_probability(SPARSE, tau)
    assert got == cdf_gamma(SPARSE, tau * 10.0**4)
    # explicit r_target overrides the link distance
    assert outage_probability(SPARSE, tau, r_target=10.0) == got
    assert outage_probability(SPARSE, tau, r_target=5.0) < got


def test_outage_validation():
    assert outage_probability(SPARSE, 0.0) == 0.0
    with pytest.raises(ValueError):
        outage_probability(SPARSE, -1.0)
    with pytest.raises(ValueError):
        outage_probability(SPARSE, 1.0, r_target=0.0)


def test_outage_uniform_field_example():
    # ~3142 interferers per 1000 m disk, 4 antennas, 10 dB threshold at 5 m
    dist = _dist(PowerLaw(rho=1.0003e-3, eps=0.0), 4.0, 1e-12, 5.0, 4)
    out = outage_probability(dist, 10.0)
    assert out == pytest.approx(7.1e-4, rel=0.05)


# ---------------------------------------------------------------------------
# antenna gain


def test_antenna_gain_is_cdf_difference():
    for base in (SPARSE, CLUSTER):
        for L in range(1, 21):
            dL = dataclasses.replace(base, link=dataclasses.replace(base.link, L=L))
            dL1 = dataclasses.replace(base, link=dataclasses.replace(base.link, L=L + 1))
            for gamma in (1e3, 1e5):
                delta = antenna_gain_delta(dL, gamma)
                ref = cdf_gamma(dL, gamma) - cdf_gamma(dL1, gamma)
                assert delta == pytest.approx(ref, abs=1e-12)
                assert delta >= 0.0


def test_antenna_gain_at_zero():
    assert antenna_gain_delta(SPARSE, 0.0) == 0.0


# ---------------------------------------------------------------------------
# scaling limit


def test_scaling_limit_uniform_closed_form():
    # psi_c(gamma) = (pi^2/2) sqrt(gamma) crosses 1 at gamma = (2/pi^2)^2
    got = scaling_limit(PowerLaw(rho=1.0, eps=0.0), 1.0, 4.0, 1.0)
    assert got == pytest.approx((2.0 / math.pi**2) ** 2, rel=1e-9)


def test_scaling_limit_cluster_frozen_value():
    got = scaling_limit(GaussianCluster(rho=1.0, v=500.0), 1.0, 3.0, 20.0)
    assert got == pytest.approx(1.592567035856024, rel=1e-6)


def test_scaling_limit_decreases_with_density_ratio():
    model = PowerLaw(rho=1.0, eps=0.0)
    lims = [scaling_limit(model, q, 4.0, 1.0) for q in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(lims, lims[1:]))


def test_scaling_limit_distance_scaling():
    model = PowerLaw(rho=1.0, eps=0.0)
    near = scaling_limit(model, 1.0, 4.0, 1.0)
    far = scaling_limit(model, 1.0, 4.0, 2.0)
    assert far == pytest.approx(near / 16.0, rel=1e-12)


def test_scaling_limit_saturation():
    # bounded total mass can sit below 1/q; no crossing exists then
    cluster = GaussianCluster.with_total_count(5.0, 100.0)
    with pytest.raises(ValueError, match="saturat"):
        scaling_limit(cluster, 0.1, 3.0, 10.0)
    ring = PiecewisePowerLaw(segments=((0.01, 0.0, 10.0),))
    with pytest.raises(ValueError, match="saturat"):
        scaling_limit(ring, 0.05, 3.0, 10.0)


def test_scaling_limit_validation():
    with pytest.raises(ValueError):
        scaling_limit(PowerLaw(rho=1.0, eps=0.0), 0.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        scaling_limit(PowerLaw(rho=1.0, eps=0.0), 1.0, 4.0, -1.0)


def _inversion_models():
    return (
        GaussianCluster(rho=1.0, v=500.0),
        PowerLaw(rho=1.0, eps=0.0),
        PiecewisePowerLaw(segments=((0.01, 0.0, 10.0), (0.001, -0.5, 50.0))),
        PolynomialWithTail(coeffs=(0.005,), R0=110.0, rho0=0.005 * 110.0**1.5, eps_tail=-1.5),
    )


@pytest.mark.parametrize("model", _inversion_models(), ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_scaling_limit_inverts_psi(model, alpha):
    """q * psi_c(gamma*) = 1 to 1e-13, and gamma* is scipy's brentq root to
    1e-12, for moderate q and for q that put the root beyond 1e+-100."""
    from scipy.optimize import brentq

    evaluator = PsiEvaluator(model, alpha)
    qs = [0.5, 1.0, 2.0, 10.0, 1.0 / evaluator.value(1e-120)]
    if math.isinf(argument_supremum(model)):
        qs.append(1.0 / evaluator.value(1e120))
    for q in qs:
        gamma = scaling_limit(model, q, alpha, 1.0)
        assert abs(q * evaluator.value(gamma) - 1.0) <= 1e-13
        expected = brentq(
            lambda g: evaluator.value(g) - 1.0 / q, gamma / 2, gamma * 2, xtol=1e-300, rtol=1e-12
        )
        assert gamma == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_scaling_limit_nan_psi_is_a_bracketing_error(monkeypatch):
    monkeypatch.setattr(PsiEvaluator, "value", lambda self, gamma: math.nan)
    with pytest.raises(BracketingError, match="NaN"):
        scaling_limit(PowerLaw(rho=1.0, eps=0.0), 1.0, 4.0, 1.0)


def test_scaling_limit_step_cap_is_a_bracketing_error(monkeypatch):
    monkeypatch.setattr(sinrdist.distribution, "NEWTON_MAX_STEPS", 2)
    with pytest.raises(BracketingError, match="did not converge in 2 steps"):
        scaling_limit(GaussianCluster(rho=1.0, v=500.0), 1.0, 3.0, 20.0)


def test_scaling_limit_root_beyond_the_double_range():
    # psi_c = (pi^2/2) sqrt(gamma) reaches 1/q = 1e-200 only at gamma ~ 1e-400
    with pytest.raises(BracketingError, match="only below gamma"):
        scaling_limit(PowerLaw(rho=1.0, eps=0.0), 1e200, 4.0, 1.0)
    with pytest.raises(BracketingError, match="only above gamma"):
        scaling_limit(PowerLaw(rho=1.0, eps=0.0), 1e-200, 4.0, 1.0)


def test_argument_supremum():
    cluster = GaussianCluster.with_total_count(5.0, 100.0)
    assert argument_supremum(cluster) == pytest.approx(5.0, rel=1e-12)
    assert math.isinf(argument_supremum(PowerLaw(rho=1.0, eps=0.0)))
    assert argument_supremum(cluster, 1.0) == pytest.approx(np.finfo(float).max)


# ---------------------------------------------------------------------------
# regularized-gamma limit scan


def test_limit_scan_frozen_values():
    low = regularized_gamma_limit_scan(0.8, [10, 100, 1000])
    np.testing.assert_allclose(
        low, [0.7166242587270101, 0.9828916869648668, 0.9999999999944986], rtol=1e-10
    )
    high = regularized_gamma_limit_scan(1.2, [10, 100, 1000])
    np.testing.assert_allclose(
        high,
        [0.24239216167051272, 0.027863739890520652, 1.288160608628143e-09],
        rtol=1e-10,
    )


def test_limit_scan_monotone_branches():
    low = regularized_gamma_limit_scan(0.8, [10, 100, 1000])
    assert low[0] < low[1] < low[2] and low[2] > 0.99
    high = regularized_gamma_limit_scan(1.2, [10, 100, 1000])
    assert high[0] > high[1] > high[2] and high[2] < 0.01


def test_limit_scan_boundary_case():
    """At q=1 the values hug 1/2; only the deviation shrinks (like 1/sqrt(L))."""
    vals = regularized_gamma_limit_scan(1.0, [10, 100, 1000])
    assert all(0.0 < v < 0.55 for v in vals)
    dev = [abs(v - 0.5) for v in vals]
    assert dev[0] > dev[1] > dev[2]


def test_limit_scan_validation():
    with pytest.raises(ValueError):
        regularized_gamma_limit_scan(0.0, [10])
