"""The interference functional that drives the SINR distribution.

For a radially symmetric intensity Lambda and path-loss exponent alpha, the
functional is

    psi(gamma) = integral over the plane of Lambda(r) * gamma / (r^alpha + gamma)

written in polar form as int_0^inf 2*pi*Lambda(r)*r * gamma/(r^alpha+gamma) dr.
It is the only way the spatial model enters the SINR law, so this module
provides it two independent ways: fast array routes per model family
(hypergeometric / cosecant closed forms, and a fixed-panel Gauss-Legendre
rule in log r for the Gaussian cluster) and generic adaptive quadrature, one
point at a time. The fast routes must match adaptive quadrature; the test
suite enforces the agreement.

Every psi helper takes gamma as a scalar (float result) or an array. The
closed forms live beside their families in intensity and are re-exported
here; this module holds what does not depend on the family: the kernels, the
adaptive reference, the panel rule, and PsiEvaluator, which wraps a model
object, applies its beta scale, and takes the model's closed form where it
has one and the panel rule where it has none.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .intensity import (
    PANEL_TAIL_EFOLDS,
    TWO_PI,
    GaussianCluster,
    IntensityModel,
    _check_alpha,
    _gamma_array,
    psi_piecewise,
    psi_polynomial,
    psi_power_law,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    integrate_log_panels,
    integrate_radial,
)

__all__ = [
    "PsiEvaluator",
    "psi_power_law",
    "psi_piecewise",
    "psi_polynomial",
    "psi_gaussian",
    "psi_quadrature",
    "psi_quadrature_radial",
    "psi_derivative",
]

# Above this value of alpha*log(r), r**alpha is treated as dominating gamma.
_LOG_HUGE = 700.0


def _check_gamma(gamma: float) -> None:
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")


def _sinr_kernel(r: float, alpha: float, gamma: float) -> float:
    """gamma / (r**alpha + gamma), stable against r**alpha overflow."""
    if r == 0.0:
        return 1.0
    log_ra = alpha * math.log(r)
    if log_ra > _LOG_HUGE:
        # r^alpha dwarfs gamma; drop it from the denominator
        return gamma * math.exp(-log_ra)
    return gamma / (math.exp(log_ra) + gamma)


def _sinr_kernel_derivative(r: float, alpha: float, gamma: float) -> float:
    """r**alpha / (r**alpha + gamma)**2, the gamma-derivative of the kernel."""
    if r == 0.0:
        return 0.0
    log_ra = alpha * math.log(r)
    if log_ra > 0.0:
        y = math.exp(-log_ra)  # <= 1, no overflow anywhere below
        return y / (1.0 + gamma * y) ** 2
    x = math.exp(log_ra)
    return x / (x + gamma) ** 2


def psi_quadrature_radial(
    radial_fn: Callable[[float], float],
    alpha: float,
    gamma: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    breakpoints: Sequence[float] = (),
    upper: float = math.inf,
) -> float:
    """Interference functional of an arbitrary radial intensity profile.

    Integrates 2*pi*radial_fn(r)*r*gamma/(r^alpha+gamma) over (0, upper),
    splitting at the supplied breakpoints and at the kernel knee gamma^(1/alpha)
    where the integrand changes character.
    """
    _check_alpha(alpha)
    _check_gamma(gamma)
    if gamma == 0.0:
        return 0.0
    return _integrate_kernel(radial_fn, _sinr_kernel, alpha, gamma, spec, breakpoints, upper)


def _integrate_kernel(radial_fn, kernel, alpha, gamma, spec, breakpoints, upper) -> float:
    """Adaptive integral of 2*pi*radial_fn(r)*r*kernel(r, alpha, gamma) over
    (0, upper), split at the breakpoints and at the knee gamma^(1/alpha)."""

    def integrand(r: float) -> float:
        k = kernel(r, alpha, gamma)
        if k == 0.0:
            return 0.0
        return TWO_PI * float(radial_fn(r)) * r * k

    knee = gamma ** (1.0 / alpha)
    pts = sorted({p for p in (*breakpoints, knee) if 0.0 < p < upper})
    edges = [0.0, *pts, upper]
    return math.fsum(
        integrate_radial(integrand, lo, hi, spec)
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def psi_quadrature(
    model: IntensityModel,
    alpha: float,
    gamma: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Interference functional of a model by adaptive quadrature.

    The reference route: every closed form is validated against this.
    Raises DivergenceError where the model's check_alpha says the integral
    cannot converge (power law with eps >= alpha - 2).
    """
    _check_alpha(alpha)
    model.check_alpha(alpha)
    layout = model.quadrature_breakpoints, model.support_radius
    return psi_quadrature_radial(model.radial_intensity, alpha, gamma, spec, *layout)


def _dpsi_quadrature(model, alpha: float, gamma: float, spec: QuadratureSpec) -> float:
    """d psi / d gamma of a model at one gamma > 0, by adaptive quadrature.

    Integrates the gamma-differentiated kernel 2*pi*Lambda(r)*r*r^alpha/
    (r^alpha+gamma)^2 (differentiation under the integral sign; dominated
    convergence applies under the same constraints that make psi finite).
    """
    layout = model.quadrature_breakpoints, model.support_radius
    return _integrate_kernel(
        model.radial_intensity, _sinr_kernel_derivative, alpha, gamma, spec, *layout
    )


def _psi_panels(
    model,
    alpha: float,
    gamma: np.ndarray,
    spec: QuadratureSpec,
    derivative: bool = False,
    radius: float = math.inf,
):
    """psi (or d psi / d gamma) at positive gammas by the log-r panel rule,
    over the disk (0, radius] (the whole plane by default).

    With s = log r the integrand is 2*pi*Lambda(r)*r^2 times the kernel
    gamma/(r^alpha+gamma) = expit(-t) or, for the derivative,
    r^alpha/(r^alpha+gamma)^2 = expit(t)*expit(-t)/gamma, where
    t = alpha*s - log(gamma). The model's panel_layout gives the upper radius
    (cut to radius) and the breakpoints; below the smallest of the knee
    gamma^(1/alpha) and the model's inner scale the integrand decays like
    r^rate, with rate = 2 + (small-r exponent of Lambda), plus alpha for the
    derivative kernel, and the lower radius leaves PANEL_TAIL_EFOLDS of that
    decay. Points whose embedded error estimate misses the spec fall back to
    adaptive quadrature over the same disk, which raises AccuracyError when
    it cannot converge either.
    """
    log_gamma = np.log(gamma)

    def integrand(s, rows):
        r = np.exp(s)
        t = alpha * s - log_gamma[rows, None, None]
        if derivative:
            kernel = expit(t) * expit(-t) / gamma[rows, None, None]
        else:
            kernel = expit(-t)
        return TWO_PI * model.radial_intensity(r) * (r * r) * kernel

    knee = gamma ** (1.0 / alpha)
    small, inner, upper, breakpoints = model.panel_layout(alpha, knee)
    rate = 2.0 + small + (alpha if derivative else 0.0)
    lower = np.minimum(knee, inner) * math.exp(-PANEL_TAIL_EFOLDS / rate)
    upper = np.minimum(upper, radius)
    values, converged = integrate_log_panels(integrand, lower, upper, breakpoints, spec)
    kernel = _sinr_kernel_derivative if derivative else _sinr_kernel
    layout = model.quadrature_breakpoints, min(radius, model.support_radius)
    for i in np.flatnonzero(~converged):
        g = float(gamma[i])
        values[i] = _integrate_kernel(model.radial_intensity, kernel, alpha, g, spec, *layout)
    return values


@dataclass(frozen=True)
class PsiEvaluator:
    """Bundles a model with alpha and an evaluation route.

    method is one of "auto", "closed_form", "quadrature". Auto and closed_form
    use the model's psi_closed_form where it has one (power law, piecewise,
    polynomial) and the log-r panel rule where it has none (Gaussian
    cluster); quadrature is the adaptive reference, one point at a time.
    value and derivative take a scalar gamma (float result) or an array,
    through the same code, so a point's value does not depend on the batch
    it is evaluated in.

    Immutable and shareable across threads; evaluations are pure.
    """

    model: IntensityModel
    alpha: float
    spec: QuadratureSpec = DEFAULT_QUADRATURE
    method: str = "auto"

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.method not in ("auto", "closed_form", "quadrature"):
            raise ValueError(
                f"method must be auto, closed_form or quadrature, got {self.method!r}"
            )
        self.model.check_alpha(self.alpha)

    def _adaptive(self, fn, g, scalar):
        out = np.array([fn(self.model, self.alpha, x, self.spec) for x in g.ravel().tolist()])
        return float(out[0]) if scalar else out.reshape(g.shape)

    def value(self, gamma):
        """psi(gamma) via the configured route (includes the model's beta)."""
        g, scalar, _ = _gamma_array(gamma)
        m = self.model
        if self.method == "quadrature":
            return self._adaptive(psi_quadrature, g, scalar)
        if m.psi_closed_form is not None:
            return m.beta * m.psi_closed_form(self.alpha, g)
        # the panel rule on the nominal profile, scaled after the sum
        nominal = dataclasses.replace(m, beta=1.0)
        out = np.zeros(g.shape)
        pos = g > 0
        out[pos] = _psi_panels(nominal, self.alpha, g[pos], self.spec, False)
        return m.beta * (float(out) if scalar else out)

    __call__ = value

    def derivative(self, gamma):
        """d psi / d gamma at gamma > 0 (scalar or array).

        Analytic where the model has a dpsi_closed_form (the power law);
        every other family integrates the gamma-differentiated kernel
        2*pi*Lambda(r)*r*r^alpha/(r^alpha+gamma)^2 with the log-r panel rule,
        or adaptively under method="quadrature".
        """
        g = np.asarray(gamma, dtype=float)
        if not np.all(g > 0):
            raise ValueError(f"derivative requires gamma > 0, got {gamma!r}")
        scalar = g.ndim == 0
        m = self.model
        if self.method == "quadrature":
            return self._adaptive(_dpsi_quadrature, g, scalar)
        if m.dpsi_closed_form is not None:
            out = m.dpsi_closed_form(self.alpha, g, self.value(g))
        else:
            out = _psi_panels(m, self.alpha, g.reshape(-1), self.spec, True).reshape(g.shape)
        return float(out) if scalar else out


def psi_derivative(evaluator: PsiEvaluator, gamma):
    """Derivative of the interference functional at gamma (> 0)."""
    return evaluator.derivative(gamma)


def psi_gaussian(
    rho: float,
    v: float,
    alpha: float,
    gamma,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
):
    """Interference functional of a Gaussian cluster, by the log-r panel rule.

    No closed form is used: fixed-panel Gauss-Legendre in log r over
    [min(knee, v) * e^(-40/3), 12 v] is the designated evaluator for this
    family, with adaptive quadrature (split at 6v) for any point whose
    embedded error estimate misses spec.
    """
    return PsiEvaluator(GaussianCluster(rho=rho, v=v), alpha, spec).value(gamma)
