"""Tests for the low-level special-function and quadrature helpers."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrdist import (
    AccuracyError,
    DEFAULT_QUADRATURE,
    PowerLaw,
    QuadratureSpec,
    hyp2f1_first_unit,
    integrate_log_panels,
    integrate_radial,
    ln_gamma,
    psi_power_law,
    psi_quadrature,
    regularized_lower_gamma,
    regularized_upper_gamma,
)
from sinrdist.specfun import ANTENNAS_MAX, poisson_pmf, three_halves_gamma


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


def test_gamma_functions_arrays_match_scalars():
    """An element's value is its own, whatever shares its batch: a scalar
    call of the Poisson sums or of P(3/2, y) is a batch of one. The first
    two points are where a float twin of the sums was an ulp off the array
    value."""
    rng = np.random.default_rng(5)
    L = np.r_[3, 3, rng.integers(1, 300, 200)]
    x = np.r_[3.7524112570756003, 12.970147236465635, L[2:] * np.exp(rng.normal(0.0, 0.5, 200))]
    for f in (regularized_lower_gamma, regularized_upper_gamma):
        got = f(L, x)
        assert np.array_equal(got, [f(int(a), float(b)) for a, b in zip(L, x)])
        assert np.array_equal(got[:7], f(L[:7], x[:7]))
    y = np.geomspace(1e-20, 50.0, 101)
    for upper in (False, True):
        got = three_halves_gamma(y, upper=upper)
        assert np.array_equal(got, [three_halves_gamma(float(v), upper=upper) for v in y])
    # an empty batch is an empty result, as for any ufunc
    for f in (regularized_lower_gamma, regularized_upper_gamma):
        assert f(4, []).shape == (0,) and f(np.array([], dtype=int), 1.0).shape == (0,)
    assert three_halves_gamma(np.empty((0, 3))).shape == (0, 3)
    assert hyp2f1_first_unit(0.5, []).shape == (0,)


def test_gamma_antenna_cap_and_time_there():
    """L is refused above ANTENNAS_MAX; at it, where x is near L and the
    Poisson sums are longest (O(sqrt L) terms), a batch stays fast."""
    for f in (regularized_lower_gamma, regularized_upper_gamma):
        with pytest.raises(ValueError, match=str(ANTENNAS_MAX)):
            f(ANTENNAS_MAX + 1, 1.0)
    x = ANTENNAS_MAX + math.sqrt(ANTENNAS_MAX) * np.linspace(-3.0, 3.0, 1000)
    start = time.perf_counter()
    p = regularized_lower_gamma(ANTENNAS_MAX, x)
    q = regularized_upper_gamma(ANTENNAS_MAX, x)
    assert time.perf_counter() - start < 1.0  # about 0.06 s on one Xeon core
    np.testing.assert_allclose(p + q, 1.0, rtol=0.0, atol=4e-16)


def test_poisson_pmf_edges_and_shapes():
    """pmf(0; 0) = 1 and pmf(k; 0) = 0 for k > 0 stand in for the special
    cases of a log-domain form; x = inf gives 0; k is not capped at
    ANTENNAS_MAX; k and x broadcast, and a scalar pair returns a float."""
    assert poisson_pmf(0, 0.0) == 1.0 and poisson_pmf(3, 0.0) == 0.0
    assert poisson_pmf(0, np.inf) == 0.0 and poisson_pmf(ANTENNAS_MAX + 1, np.inf) == 0.0
    assert isinstance(poisson_pmf(2, 1.5), float)
    at_cap = poisson_pmf(ANTENNAS_MAX + 1, float(ANTENNAS_MAX + 1))
    assert at_cap == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * (ANTENNAS_MAX + 1)), rel=1e-5)
    grid = poisson_pmf(np.arange(4)[:, None], np.array([0.5, 2.0]))
    assert grid.shape == (4, 2)
    assert grid[2, 1] == poisson_pmf(2, 2.0)
    for k, x in ((-1, 1.0), (1.5, 1.0), (2, -1.0)):
        with pytest.raises(ValueError):
            poisson_pmf(k, x)


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
    # the connection formula at b = 1 is log(x)/x plus a rule in 1/x, so it
    # keeps full precision where a plain transformation would lose it
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
    values, errors = integrate_log_panels(g, lower, 12.0, breakpoints=(1.0, 6.0))
    exact = np.exp(-0.5 * lower**2) - math.exp(-72.0)
    np.testing.assert_allclose(values, exact, rtol=1e-14)
    assert np.all(errors <= DEFAULT_QUADRATURE.rel_tol * values)
    # a bump a tenth of a panel wide is flagged, not silently accepted
    spike = lambda s, rows: np.exp(-(((s - 0.1) / 0.02) ** 2))
    values, errors = integrate_log_panels(spike, np.array([0.5]), 2.0)
    assert np.all(errors > DEFAULT_QUADRATURE.rel_tol * values)


def test_integrate_radial_node_at_infinity_is_typed():
    # a tail 1e-6 from the pole decays too slowly for any quadrature node to
    # reach where it has died out; the reference integrates to a finite cut
    # and adds the rest in closed form, so it matches the cosecant form
    model = PowerLaw(0.1, 1.0 - 1e-6)
    got = psi_quadrature(model, 3.0, 1e4)
    assert got == pytest.approx(psi_power_law(0.1, 1.0 - 1e-6, 3.0, 1e4), rel=1e-9)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    assert DEFAULT_QUADRATURE.rel_tol == 1e-9
