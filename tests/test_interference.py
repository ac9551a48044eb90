"""Closed-form interference functionals validated against adaptive quadrature.

Every closed form in the interference module has an independent quadrature
route through the raw radial profile; these tests keep the two in lockstep
and pin a few hand-derived values.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sinrdist import (
    DEFAULT_QUADRATURE,
    AccuracyError,
    DivergenceError,
    GaussianCluster,
    PiecewisePowerLaw,
    PolynomialWithTail,
    PowerLaw,
    PsiEvaluator,
    QuadratureSpec,
    psi_derivative,
    psi_gaussian,
    psi_piecewise,
    psi_polynomial,
    psi_power_law,
    psi_quadrature,
)

GAMMAS = (1e-2, 1.0, 1e3, 1e6)


def _poly_model():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return PolynomialWithTail(
            coeffs=(0.2, 1e-3, -1e-7), R0=800.0, rho0=0.9, eps_tail=-1.5
        )


# ---------------------------------------------------------------------------
# frozen values


def test_power_law_unit_case():
    # rho=1, eps=0, alpha=4, gamma=1: (2 pi^2/4) / sin(pi/2) = pi^2/2
    assert psi_power_law(1.0, 0.0, 4.0, 1.0) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)


def test_power_law_sparse_field_value():
    got = psi_power_law(0.02372, -0.5, 4.0, 6250.0)
    assert got == pytest.approx(3.3591089881850658, rel=1e-12)
    assert got == pytest.approx(3.359, rel=1e-3)


def test_zero_gamma_returns_zero():
    assert psi_power_law(1.0, 0.0, 4.0, 0.0) == 0.0
    assert psi_piecewise(((1.0, 0.0, 10.0),), 4.0, 0.0) == 0.0
    assert psi_polynomial((1.0,), 10.0, 0.0, -1.5, 4.0, 0.0) == 0.0
    assert psi_gaussian(1.0, 5.0, 3.0, 0.0) == 0.0
    assert psi_quadrature(PowerLaw(rho=1.0, eps=0.0), 4.0, 0.0) == 0.0


def test_power_law_validation():
    with pytest.raises(DivergenceError):
        psi_power_law(1.0, 2.0, 4.0, 1.0)  # eps = alpha - 2 diverges
    with pytest.raises(DivergenceError):
        psi_power_law(1.0, -2.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        psi_power_law(-1.0, 0.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        psi_power_law(1.0, 0.0, 4.0, -1.0)
    with pytest.raises(ValueError):
        psi_power_law(1.0, 0.0, 2.0, 1.0)  # alpha must exceed 2
    with pytest.raises(DivergenceError):
        psi_quadrature(PowerLaw(rho=1.0, eps=2.1), 4.0, 1.0)


# ---------------------------------------------------------------------------
# closed form vs quadrature


def test_power_law_matches_quadrature():
    cases = [
        (1.0, 0.0, 4.0),
        (0.023, -0.5, 4.0),
        (0.5, 1.2, 4.5),
    ]
    for rho, eps, alpha in cases:
        model = PowerLaw(rho=rho, eps=eps)
        for gamma in GAMMAS:
            closed = psi_power_law(rho, eps, alpha, gamma)
            quad = psi_quadrature(model, alpha, gamma)
            assert closed == pytest.approx(quad, rel=1e-7), (rho, eps, alpha, gamma)


def test_piecewise_matches_quadrature():
    models = [
        PiecewisePowerLaw(segments=((0.5, -0.5, 100.0),)),
        PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0))),
        # middle segment exponent at alpha-2 exercises the pole-dodging branch
        PiecewisePowerLaw(segments=((1.0, 0.0, 50.0), (0.3, 2.0, 80.0), (0.1, -1.0, 400.0))),
    ]
    for model in models:
        for alpha in (3.0, 4.0):
            for gamma in GAMMAS:
                closed = psi_piecewise(model.segments, alpha, gamma)
                quad = psi_quadrature(model, alpha, gamma)
                assert closed == pytest.approx(quad, rel=1e-7, abs=1e-12), (
                    model.segments,
                    alpha,
                    gamma,
                )


def test_piecewise_unit_hypergeometric_branch():
    # alpha=3 with eps=1 drives the 2F1 parameter to b=1, the log identity path
    model = PiecewisePowerLaw(segments=((0.2, 1.0, 60.0),))
    for gamma in (1.0, 1e4, 1e8):
        closed = psi_piecewise(model.segments, 3.0, gamma)
        assert closed == pytest.approx(psi_quadrature(model, 3.0, gamma), rel=1e-9)


def test_polynomial_matches_quadrature():
    model = _poly_model()
    for alpha, gammas in ((3.0, GAMMAS), (4.0, (1.0, 1e4, 1e8))):
        for gamma in gammas:
            closed = psi_polynomial(
                model.coeffs, model.R0, model.rho0, model.eps_tail, alpha, gamma
            )
            quad = psi_quadrature(model, alpha, gamma)
            assert closed == pytest.approx(quad, rel=1e-7), (alpha, gamma)


def test_polynomial_tail_only():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = PolynomialWithTail(coeffs=(0.0,), R0=50.0, rho0=0.9, eps_tail=-1.5)
    for gamma in (1.0, 1e4, 1e8):
        closed = psi_polynomial((0.0,), 50.0, 0.9, -1.5, 3.0, gamma)
        assert closed == pytest.approx(psi_quadrature(model, 3.0, gamma), rel=1e-7)


def test_polynomial_small_disk_limit():
    # R0^alpha << gamma makes the hypergeometric factor 1, leaving pi*a0*R0^2
    got = psi_polynomial((2.5,), 1.0, 0.0, -1.5, 4.0, 1e8)
    assert got == pytest.approx(math.pi * 2.5, rel=1e-5)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        psi_polynomial((1.0,), 0.0, 1.0, -1.5, 4.0, 1.0)
    with pytest.raises(ValueError):
        psi_polynomial((1.0,), 10.0, -1.0, -1.5, 4.0, 1.0)
    with pytest.raises(ValueError):
        psi_polynomial((1.0,), 10.0, 1.0, -0.5, 4.0, 1.0)
    # rho0=0 drops the tail and ignores eps_tail entirely
    assert psi_polynomial((1.0,), 10.0, 0.0, 7.0, 4.0, 1.0) > 0.0


# ---------------------------------------------------------------------------
# structural identities


def test_piecewise_disk_additivity():
    rho, eps, alpha = 0.7, -0.3, 3.5
    Ra, Rb = 40.0, 250.0
    inner = psi_piecewise(((rho, eps, Ra),), alpha, 100.0)
    ring = psi_piecewise(((1e-300, 0.0, Ra), (rho, eps, Rb)), alpha, 100.0)
    union = psi_piecewise(((rho, eps, Rb),), alpha, 100.0)
    assert inner + ring == pytest.approx(union, rel=1e-9)


def test_piecewise_identical_segments_merge():
    for gamma in (1.0, 1e4):
        split = psi_piecewise(((0.5, -0.5, 100.0), (0.5, -0.5, 1000.0)), 3.0, gamma)
        merged = psi_piecewise(((0.5, -0.5, 1000.0),), 3.0, gamma)
        assert split == pytest.approx(merged, rel=1e-9)


def test_truncated_power_law_approaches_unbounded():
    # a single huge segment must converge to the infinite-plane closed form
    full = psi_power_law(0.5, -0.5, 4.0, 10.0)
    for R, rel in ((1e4, 1e-2), (1e8, 1e-7)):
        trunc = psi_piecewise(((0.5, -0.5, R),), 4.0, 10.0)
        assert trunc <= full  # equality at machine precision for huge R
        assert trunc == pytest.approx(full, rel=rel)


@given(
    beta=st.floats(min_value=0.1, max_value=32.0),
    gamma=st.floats(min_value=1e-3, max_value=1e9),
)
def test_evaluator_homogeneous_in_beta(beta, gamma):
    base = PowerLaw(rho=0.4, eps=-0.5)
    ev1 = PsiEvaluator(base, 4.0)
    ev2 = PsiEvaluator(dataclasses.replace(base, beta=beta), 4.0)
    assert ev2.value(gamma) == pytest.approx(beta * ev1.value(gamma), rel=1e-12)


def test_quadrature_route_includes_beta():
    model = PiecewisePowerLaw(segments=((0.5, -0.5, 100.0),), beta=3.0)
    ev_auto = PsiEvaluator(model, 3.0)
    ev_quad = PsiEvaluator(model, 3.0, method="quadrature")
    got_auto = ev_auto.value(50.0)
    assert got_auto == pytest.approx(3.0 * psi_piecewise(model.segments, 3.0, 50.0), rel=1e-12)
    assert got_auto == pytest.approx(ev_quad.value(50.0), rel=1e-9)


def test_monotone_in_gamma_all_families():
    alpha = 3.0
    models = [
        PowerLaw(rho=0.3, eps=-0.5),
        PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0))),
        _poly_model(),
        GaussianCluster(rho=1.0, v=500.0),
    ]
    gammas = np.logspace(-2.0, 8.0, 64)
    for model in models:
        ev = PsiEvaluator(model, alpha)
        values = np.array([ev.value(g) for g in gammas])
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) > -1e-9 * values[:-1]), type(model).__name__


def test_bounded_mass_saturates():
    # with a bounded total count, psi can never exceed the mean count
    model = GaussianCluster(rho=1.0, v=500.0)
    ev = PsiEvaluator(model, 3.0)
    total = model.total_count
    assert ev.value(1e12) < total
    assert ev.value(1e12) > 0.999 * total


# ---------------------------------------------------------------------------
# derivative


def test_derivative_power_law_analytic():
    ev = PsiEvaluator(PowerLaw(rho=1.0, eps=0.0), 4.0)
    assert ev.derivative(1.0) == pytest.approx(math.pi**2 / 4.0, rel=1e-12)


def test_derivative_matches_finite_difference():
    models = [
        PowerLaw(rho=0.3, eps=-0.5),
        PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0))),
        _poly_model(),
        GaussianCluster(rho=1.0, v=500.0),
    ]
    for model in models:
        ev = PsiEvaluator(model, 3.0)
        for gamma in (10.0, 1e4):
            h = 1e-5 * gamma
            fd = (ev.value(gamma + h) - ev.value(gamma - h)) / (2.0 * h)
            got = ev.derivative(gamma)
            assert got > 0.0
            assert got == pytest.approx(fd, rel=1e-6), (type(model).__name__, gamma)


def test_derivative_power_law_quadrature_route_agrees():
    model = PowerLaw(rho=0.3, eps=-0.5)
    analytic = PsiEvaluator(model, 3.0).derivative(100.0)
    quad = PsiEvaluator(model, 3.0, method="quadrature").derivative(100.0)
    assert analytic == pytest.approx(quad, rel=1e-8)


def test_psi_derivative_free_function():
    ev = PsiEvaluator(PowerLaw(rho=1.0, eps=0.0), 4.0)
    assert psi_derivative(ev, 2.0) == ev.derivative(2.0)
    with pytest.raises(ValueError):
        psi_derivative(ev, 0.0)


# ---------------------------------------------------------------------------
# evaluator configuration


def test_evaluator_validation():
    with pytest.raises(ValueError):
        PsiEvaluator(PowerLaw(rho=1.0, eps=0.0), 4.0, method="bogus")
    with pytest.raises(DivergenceError):
        PsiEvaluator(PowerLaw(rho=1.0, eps=2.0), 4.0)  # eps >= alpha - 2
    with pytest.raises(ValueError):
        PsiEvaluator(PowerLaw(rho=1.0, eps=0.0), 1.5)


def test_evaluator_is_callable():
    ev = PsiEvaluator(PowerLaw(rho=1.0, eps=0.0), 4.0)
    assert ev(1.0) == ev.value(1.0)
    assert ev(0.0) == 0.0


def test_gaussian_panel_route_matches_quadrature():
    # auto and closed_form share the log-r panel rule; quadrature is the
    # adaptive reference, so the routes agree within the spec's rel_tol
    model = GaussianCluster(rho=0.25, v=500.0)
    auto = PsiEvaluator(model, 3.0).value(1e4)
    closed = PsiEvaluator(model, 3.0, method="closed_form").value(1e4)
    quad = PsiEvaluator(model, 3.0, method="quadrature").value(1e4)
    assert auto == closed
    assert auto == pytest.approx(quad, rel=DEFAULT_QUADRATURE.rel_tol)


# ---------------------------------------------------------------------------
# array evaluation and the Gaussian panel rule


def _all_families():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        poly = dataclasses.replace(_poly_model(), beta=2.0)
    return [
        (PowerLaw(rho=0.3, eps=-0.5), 3.0),
        (PiecewisePowerLaw(segments=((0.5, -0.5, 100.0), (0.2, -2.5, 1000.0))), 3.0),
        (poly, 3.5),
        (GaussianCluster(rho=1.0, v=500.0, beta=3.0), 3.0),
        (GaussianCluster(rho=1.0, v=50.0), 4.0),
    ]


def test_vector_and_scalar_calls_agree_bit_for_bit(monkeypatch):
    import sinrdist.specfun

    gammas = np.sort(10.0 ** np.random.default_rng(1).uniform(-4.0, 10.0, 97))
    for model, alpha in _all_families():
        ev = PsiEvaluator(model, alpha)
        values, slopes = ev.value(gammas), ev.derivative(gammas)
        assert isinstance(ev.value(1e3), float) and isinstance(ev.derivative(1e3), float)
        assert np.array_equal(values, [ev.value(float(g)) for g in gammas])
        assert np.array_equal(slopes, [ev.derivative(float(g)) for g in gammas])
        assert np.array_equal(ev.value(gammas[::5]), values[::5])
        assert np.array_equal(ev.value(gammas.reshape(1, -1))[0], values)
        # chunking of the panel buffer must not move a single bit
        monkeypatch.setattr(sinrdist.specfun, "PANEL_BUFFER", 3000)
        assert np.array_equal(ev.value(gammas), values)
        assert np.array_equal(ev.derivative(gammas), slopes)
        monkeypatch.undo()


def test_array_zero_gamma_and_validation():
    for model, alpha in _all_families():
        ev = PsiEvaluator(model, alpha)
        got = ev.value(np.array([0.0, 1.0]))
        assert got[0] == 0.0 and got[1] > 0.0
        with pytest.raises(ValueError):
            ev.value(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ev.derivative(np.array([1.0, 0.0]))


def test_gaussian_panel_route_matches_quadrature_grid():
    # the adaptive reference itself misses mass when the knee gamma^(1/alpha)
    # sits many decades from v (see the mpmath oracle test), so the
    # comparison keeps knee / v within [1e-4, 1e3]
    spec = DEFAULT_QUADRATURE
    gammas = np.geomspace(1e-6, 1e12, 19)
    for v in (1.0, 500.0, 1e4):
        for alpha in (2.5, 3.0, 4.0):
            knee = gammas ** (1.0 / alpha) / v
            grid = gammas[(knee >= 1e-4) & (knee <= 1e3)]
            model = GaussianCluster(rho=1.0, v=v)
            fast = PsiEvaluator(model, alpha, spec).value(grid)
            ref = PsiEvaluator(model, alpha, spec, method="quadrature").value(grid)
            np.testing.assert_allclose(fast, ref, rtol=spec.rel_tol, atol=0.0)


def test_derivative_panel_route_matches_quadrature():
    gammas = np.geomspace(8e2, 8e8, 13)  # the fig2 grid's span
    for model, alpha in _all_families()[1:]:
        fast = PsiEvaluator(model, alpha).derivative(gammas)
        ref = PsiEvaluator(model, alpha, method="quadrature").derivative(gammas)
        np.testing.assert_allclose(fast, ref, rtol=DEFAULT_QUADRATURE.rel_tol, atol=0.0)


def test_panel_fallback_uses_adaptive_route(monkeypatch):
    import sinrdist.specfun

    model = GaussianCluster(rho=1.0, v=500.0)
    gammas = np.array([1e2, 1e5, 1e8])
    # panels far too wide for the 16-node rule: every point misses the spec
    monkeypatch.setattr(sinrdist.specfun, "PANEL_WIDTH", 8.0)
    ev = PsiEvaluator(model, 3.0)
    ref = PsiEvaluator(model, 3.0, method="quadrature")
    assert np.array_equal(ev.value(gammas), ref.value(gammas))
    assert np.array_equal(ev.derivative(gammas), ref.derivative(gammas))
    # and where the adaptive route cannot converge either, the error is typed
    tight = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=1)
    with pytest.raises(AccuracyError):
        PsiEvaluator(model, 3.0, tight).value(gammas)
