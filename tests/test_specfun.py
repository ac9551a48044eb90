"""Tests for the low-level special-function and quadrature helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrdist import (
    AccuracyError,
    DEFAULT_QUADRATURE,
    DivergenceError,
    PowerLaw,
    QuadratureSpec,
    hyp2f1_first_unit,
    integrate_log_panels,
    integrate_radial,
    ln_gamma,
    psi_quadrature,
    regularized_upper_gamma,
)


# ---------------------------------------------------------------------------
# ln_gamma


def test_ln_gamma_integer_values():
    assert ln_gamma(1.0) == 0.0
    assert math.isclose(ln_gamma(5.0), math.log(24.0), rel_tol=1e-15)
    assert math.isclose(ln_gamma(0.5), 0.5 * math.log(math.pi), rel_tol=1e-15)


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-3.0)


# ---------------------------------------------------------------------------
# regularized_upper_gamma


def test_upper_gamma_frozen_value():
    # Q(4, 0.39025), checked against mpmath.gammainc(4, a=0.39025, regularized=True)
    got = regularized_upper_gamma(4, 0.39025)
    assert math.isclose(got, 0.999291278816737, rel_tol=1e-12)


def test_upper_gamma_edge_cases():
    assert regularized_upper_gamma(3, 0.0) == 1.0
    assert math.isclose(regularized_upper_gamma(1, 2.5), math.exp(-2.5), rel_tol=1e-14)
    # integral floats are accepted, true fractions are not
    assert regularized_upper_gamma(4.0, 1.0) == regularized_upper_gamma(4, 1.0)
    with pytest.raises(ValueError):
        regularized_upper_gamma(2.5, 1.0)
    with pytest.raises(ValueError):
        regularized_upper_gamma(0, 1.0)
    with pytest.raises(ValueError):
        regularized_upper_gamma(3, -0.1)


def test_upper_gamma_matches_mpmath_across_former_branches():
    # an earlier implementation switched from a Poisson sum to scipy's
    # continued fraction at L = 64 / x = 700; both sides must stay exact
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for L in (1, 3, 17, 63, 64, 65, 128, 200):
        for x in (1e-6, 0.5, 10.0, 63.0, 64.0, 65.0, 199.0, 350.0, 699.0, 701.0, 2000.0):
            got = regularized_upper_gamma(L, x)
            ref = float(mp.gammainc(L, a=x, regularized=True))
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-300), (L, x)


def test_upper_gamma_arrays_broadcast():
    L = np.array([1, 4, 10])
    x = np.array([0.5, 5.0, 50.0])
    got = regularized_upper_gamma(L, x)
    assert np.array_equal(got, [regularized_upper_gamma(int(a), float(b)) for a, b in zip(L, x)])
    assert regularized_upper_gamma(4, x).shape == (3,)
    with pytest.raises(ValueError):
        regularized_upper_gamma(np.array([2, 0]), 1.0)
    with pytest.raises(ValueError):
        regularized_upper_gamma(3, np.array([1.0, -0.1]))


def test_upper_gamma_large_argument_tails():
    assert regularized_upper_gamma(1000, 800.0) >= 0.99
    assert regularized_upper_gamma(1000, 1200.0) <= 0.01


@given(
    L=st.integers(min_value=1, max_value=40),
    x=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_upper_gamma_poisson_recurrence(L, x):
    """Q(L+1,x) - Q(L,x) is the Poisson pmf term x^L e^-x / L!."""
    lhs = regularized_upper_gamma(L + 1, x) - regularized_upper_gamma(L, x)
    if x == 0.0:
        term = 0.0
    else:
        term = math.exp(L * math.log(x) - x - ln_gamma(L + 1.0))
    assert lhs == pytest.approx(term, abs=1e-13)


@given(
    L=st.integers(min_value=1, max_value=60),
    x=st.floats(min_value=1e-3, max_value=500.0),
    dx=st.floats(min_value=1e-3, max_value=50.0),
)
def test_upper_gamma_monotone(L, x, dx):
    q = regularized_upper_gamma(L, x)
    assert 0.0 <= q <= 1.0
    assert regularized_upper_gamma(L + 1, x) >= q
    assert regularized_upper_gamma(L, x + dx) <= q + 1e-15


# ---------------------------------------------------------------------------
# hyp2f1_first_unit


def test_hyp2f1_b1_is_log1p_over_x():
    for x in (1e-8, 0.5, 3.0, 1e4):
        assert hyp2f1_first_unit(1.0, x) == pytest.approx(math.log1p(x) / x, rel=1e-14)


def test_hyp2f1_b1_survives_huge_argument():
    # the generic scipy route loses all precision here; the log identity does not
    x = 1e16
    got = hyp2f1_first_unit(1.0, x)
    assert got == pytest.approx(math.log1p(x) / x, rel=1e-13)
    assert got > 0.0


def test_hyp2f1_frozen_values():
    # 2F1(1,2;3;-z) = 2 (z - log(1+z)) / z^2
    assert hyp2f1_first_unit(2.0, 3.0) == pytest.approx(2.0 * (3.0 - math.log(4.0)) / 9.0, rel=1e-12)
    # 2F1(1,1/2;3/2;-x) = arctan(sqrt(x)) / sqrt(x), so at x=1 it is pi/4
    assert hyp2f1_first_unit(0.5, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_hyp2f1_arrays_match_scalars():
    xs = np.array([0.0, 1e-8, 0.5, 3.0, 1e4, 1e16])
    for b in (0.5, 1.0, 2.5):
        got = hyp2f1_first_unit(b, xs)
        assert np.array_equal(got, [hyp2f1_first_unit(b, float(x)) for x in xs])
        assert got[0] == 1.0
    with pytest.raises(ValueError):
        hyp2f1_first_unit(1.0, np.array([1.0, -0.5]))


def test_hyp2f1_at_zero_and_validation():
    assert hyp2f1_first_unit(0.7, 0.0) == 1.0
    with pytest.raises(ValueError):
        hyp2f1_first_unit(0.0, 1.0)
    with pytest.raises(ValueError):
        hyp2f1_first_unit(1.0, -0.5)


@given(
    b=st.floats(min_value=0.05, max_value=20.0),
    x=st.floats(min_value=0.0, max_value=1e6),
)
def test_hyp2f1_euler_integral_bounds(b, x):
    """b * integral of t^(b-1)/(1+xt) over [0,1] lies in [1/(1+x), 1]."""
    f = hyp2f1_first_unit(b, x)
    assert 1.0 / (1.0 + x) - 1e-12 <= f <= 1.0 + 1e-12


@given(
    b=st.floats(min_value=0.05, max_value=20.0),
    x=st.floats(min_value=1e-6, max_value=1e5),
    scale=st.floats(min_value=1.01, max_value=10.0),
)
def test_hyp2f1_decreasing_in_x(b, x, scale):
    assert hyp2f1_first_unit(b, x * scale) <= hyp2f1_first_unit(b, x) + 1e-14


# ---------------------------------------------------------------------------
# integrate_radial


def test_integrate_radial_basic():
    assert integrate_radial(lambda r: r, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert integrate_radial(lambda r: math.exp(-r), 0.0, math.inf) == pytest.approx(1.0, rel=1e-10)
    # Rayleigh-type moment over the half line
    got = integrate_radial(lambda r: r * math.exp(-0.5 * r * r), 0.0, math.inf)
    assert got == pytest.approx(1.0, rel=1e-10)


def test_integrate_radial_offset_lower_limit():
    got = integrate_radial(lambda r: math.exp(-(r - 3.0)), 3.0, math.inf)
    assert got == pytest.approx(1.0, rel=1e-10)


def test_integrate_radial_degenerate_and_invalid():
    assert integrate_radial(lambda r: r, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate_radial(lambda r: r, -1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_radial(lambda r: r, 2.0, 1.0)


def test_integrate_radial_reports_accuracy_failure():
    # an oscillation the single allowed subdivision cannot resolve
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=1)
    rough = lambda r: math.cos(1e3 * r)
    with pytest.raises(AccuracyError) as info:
        integrate_radial(rough, 0.0, 50.0, spec=spec)
    err = info.value
    assert err.error_bound > 0.0
    assert math.isfinite(err.estimate)


def test_log_panels_integrate_and_flag_unresolved_points():
    # integral of r exp(-r^2/2) over [lower, upper] = e^(-lower^2/2) - e^(-upper^2/2)
    def g(s, rows):
        r2 = np.exp(2.0 * s)
        return r2 * np.exp(-0.5 * r2)

    lower = np.array([1e-8, 1e-3, 0.5])
    values, converged = integrate_log_panels(g, lower, 12.0, breakpoints=(1.0, 6.0))
    exact = np.exp(-0.5 * lower**2) - math.exp(-72.0)
    np.testing.assert_allclose(values, exact, rtol=1e-14)
    assert converged.all()
    # a bump a tenth of a panel wide is flagged, not silently accepted
    spike = lambda s, rows: np.exp(-(((s - 0.1) / 0.02) ** 2))
    _, converged = integrate_log_panels(spike, np.array([0.5]), 2.0)
    assert not converged.any()


def test_integrate_radial_node_at_infinity_is_typed():
    # heavy subdivision of the t/(1-t) map puts QUADPACK nodes on t == 1.0,
    # i.e. r = inf; the slowly decaying tail must end in a value or a typed error
    model = PowerLaw(0.1, 1.0 - 1e-6)
    try:
        got = psi_quadrature(model, 3.0, 1e4)
    except (AccuracyError, DivergenceError):
        return
    assert math.isfinite(got) and got > 0.0


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    assert DEFAULT_QUADRATURE.rel_tol == 1e-9
