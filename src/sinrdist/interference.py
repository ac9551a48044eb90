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
closed-form helpers take raw nominal parameters (not model objects), so
workflows that produce coefficient sets directly, like the polynomial-fit
pipeline, can call them without building a model. PsiEvaluator wraps a model
object, applies its beta scale, and picks the route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .intensity import (
    GAUSSIAN_SUPPORT_FACTOR,
    TWO_PI,
    DivergenceError,
    GaussianCluster,
    IntensityModel,
    PiecewisePowerLaw,
    PolynomialWithTail,
    PowerLaw,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    hyp2f1_first_unit,
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

# Split radius (in units of v) separating the Gaussian bulk from its
# exponential tail during quadrature.
GAUSSIAN_SPLIT_FACTOR = 6.0
# Piecewise segments closer than this to the outer-form pole at eps = alpha-2
# are evaluated with the disk form instead.
_POLE_MARGIN = 0.01
# Above this value of alpha*log(r), r**alpha is treated as dominating gamma.
_LOG_HUGE = 700.0
# Where the log-r integrand decays exponentially past the knee and the
# model's scales, the panel rule stops after this many e-folds (e^-40 ~ 4e-18).
_PANEL_TAIL_EFOLDS = 40.0


def _check_alpha(alpha: float) -> None:
    if not alpha > 2:
        raise ValueError(f"path-loss exponent alpha must exceed 2, got {alpha}")


def _check_gamma(gamma: float) -> None:
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")


def _gamma_array(gamma):
    """gamma as a float array, whether it was a scalar, and a positive stand-in.

    The stand-in replaces gamma = 0 by 1 so closed forms stay finite there;
    callers zero those entries afterwards (psi(0) = 0).
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0):
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    return g, g.ndim == 0, np.where(g > 0, g, 1.0)


def _finish(g, scalar, values):
    out = np.where(g > 0, values, 0.0)
    return float(out) if scalar else out


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


def _model_breakpoints(model: IntensityModel):
    """Natural integration split points and the support bound for a model."""
    if isinstance(model, PiecewisePowerLaw):
        edges = [s[2] for s in model.segments[:-1]]
        return edges, model.support_radius
    if isinstance(model, PolynomialWithTail):
        return [model.R0], math.inf
    if isinstance(model, GaussianCluster):
        return [GAUSSIAN_SPLIT_FACTOR * model.v], math.inf
    return [], math.inf


def psi_quadrature(
    model: IntensityModel,
    alpha: float,
    gamma: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Interference functional of a model by adaptive quadrature.

    The reference route: every closed form below is validated against this.
    Raises DivergenceError when the integral cannot converge (power law with
    eps >= alpha - 2).
    """
    _check_alpha(alpha)
    if isinstance(model, PowerLaw) and not model.eps < alpha - 2:
        raise DivergenceError(
            f"power-law interference diverges unless eps < alpha - 2 "
            f"(eps={model.eps}, alpha={alpha})"
        )
    breakpoints, upper = _model_breakpoints(model)
    return psi_quadrature_radial(
        model.radial_intensity, alpha, gamma, spec, breakpoints, upper
    )


def _dpsi_quadrature(model, alpha: float, gamma: float, spec: QuadratureSpec) -> float:
    """d psi / d gamma of a model at one gamma > 0, by adaptive quadrature.

    Integrates the gamma-differentiated kernel 2*pi*Lambda(r)*r*r^alpha/
    (r^alpha+gamma)^2 (differentiation under the integral sign; dominated
    convergence applies under the same constraints that make psi finite).
    """
    breakpoints, upper = _model_breakpoints(model)
    return _integrate_kernel(
        model.radial_intensity, _sinr_kernel_derivative, alpha, gamma, spec, breakpoints, upper
    )


def _panel_range(model, alpha: float, gamma: np.ndarray, derivative: bool):
    """Per-point radii [lower, upper] for the panel rule, and its breakpoints.

    Below the smallest of the knee gamma^(1/alpha) and the model's inner scale
    the log-r integrand 2*pi*Lambda(r)*r^2*kernel decays like r^rate, with
    rate = 2 + (small-r exponent of Lambda), plus alpha for the derivative
    kernel; the lower limit leaves _PANEL_TAIL_EFOLDS of that decay. Above
    the knee and the outer breakpoint, the polynomial tail decays like
    r^(2 + eps_tail - alpha); Gaussian clusters stop at
    GAUSSIAN_SUPPORT_FACTOR * v and piecewise models at their support.
    """
    knee = gamma ** (1.0 / alpha)
    if isinstance(model, GaussianCluster):
        small, inner, breakpoints = 1.0, model.v, ()
        upper = GAUSSIAN_SUPPORT_FACTOR * model.v
    elif isinstance(model, PiecewisePowerLaw):
        breakpoints = tuple(seg[2] for seg in model.segments[:-1])
        small, inner = model.segments[0][1], model.segments[0][2]
        upper = model.support_radius
    elif isinstance(model, PolynomialWithTail):
        small = next((k for k, a in enumerate(model.coeffs) if a != 0.0), 0)
        inner, breakpoints = model.R0, (model.R0,)
        decay = alpha - 2.0 - model.eps_tail
        upper = np.maximum(knee, model.R0) * math.exp(_PANEL_TAIL_EFOLDS / decay)
    else:
        raise TypeError(f"no panel layout for {type(model).__name__}")
    rate = 2.0 + small + (alpha if derivative else 0.0)
    lower = np.minimum(knee, inner) * math.exp(-_PANEL_TAIL_EFOLDS / rate)
    return lower, upper, breakpoints


def _psi_panels(model, alpha: float, gamma: np.ndarray, spec: QuadratureSpec, derivative: bool):
    """psi (or d psi / d gamma) at positive gammas by the log-r panel rule.

    With s = log r the integrand is 2*pi*Lambda(r)*r^2 times the kernel
    gamma/(r^alpha+gamma) = expit(-t) or, for the derivative,
    r^alpha/(r^alpha+gamma)^2 = expit(t)*expit(-t)/gamma, where
    t = alpha*s - log(gamma). Points whose embedded error estimate misses the
    spec fall back to adaptive quadrature, which raises AccuracyError when it
    cannot converge either.
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

    lower, upper, breakpoints = _panel_range(model, alpha, gamma, derivative)
    values, converged = integrate_log_panels(integrand, lower, upper, breakpoints, spec)
    adaptive = _dpsi_quadrature if derivative else psi_quadrature
    for i in np.flatnonzero(~converged):
        values[i] = adaptive(model, alpha, float(gamma[i]), spec)
    return values


def psi_power_law(rho: float, eps: float, alpha: float, gamma):
    """Closed form for the unbounded power law rho * r**eps.

    psi(gamma) = (2 pi^2 rho / alpha) * gamma^((eps+2)/alpha) / sin(pi (eps+2)/alpha),
    valid for -2 < eps < alpha - 2 (the open constraint keeps the cosecant
    away from its poles).
    """
    _check_alpha(alpha)
    g, scalar, gp = _gamma_array(gamma)
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if not -2.0 < eps < alpha - 2.0:
        raise DivergenceError(
            f"power-law interference requires -2 < eps < alpha - 2, got eps={eps}"
        )
    c = (eps + 2.0) / alpha
    return _finish(g, scalar, (2.0 * math.pi**2 * rho / alpha) * gp**c / math.sin(math.pi * c))


def _disk_term(rho: float, eps: float, alpha: float, gamma, radius: float):
    """Contribution of rho*r**eps over the disk (0, radius]; needs eps > -2."""
    b = (2.0 + eps) / alpha
    return (
        TWO_PI
        * rho
        * radius ** (2.0 + eps)
        / (2.0 + eps)
        * hyp2f1_first_unit(b, radius**alpha / gamma)
    )


def _outer_term(rho: float, eps: float, alpha: float, gamma, radius: float):
    """Contribution of rho*r**eps over (radius, inf); needs eps < alpha - 2."""
    c = (alpha - 2.0 - eps) / alpha
    return (
        TWO_PI
        * rho
        * gamma
        * radius ** (2.0 + eps - alpha)
        / (alpha - 2.0 - eps)
        * hyp2f1_first_unit(c, gamma * radius ** (-alpha))
    )


def psi_polynomial(
    coeffs: Sequence[float],
    R0: float,
    rho0: float,
    eps_tail: float,
    alpha: float,
    gamma,
):
    """Closed form for a polynomial profile on [0, R0] plus a power-law tail.

    The disk part contributes one hypergeometric term per coefficient,
    2*pi*a_k*R0^(2+k)/(2+k) * 2F1(1,(2+k)/alpha;(2+k)/alpha+1;-R0^alpha/gamma),
    and the tail rho0*r**eps_tail over (R0, inf) contributes the outer-region
    term. rho0 = 0 is allowed and drops the tail (a purely disk-supported
    profile).
    """
    _check_alpha(alpha)
    g, scalar, gp = _gamma_array(gamma)
    if not R0 > 0:
        raise ValueError(f"R0 must be > 0, got {R0}")
    if not rho0 >= 0:
        raise ValueError(f"rho0 must be >= 0, got {rho0}")
    if rho0 > 0 and not -2.0 < eps_tail < -1.0:
        raise ValueError(
            f"eps_tail must lie strictly inside (-2, -1), got {eps_tail}"
        )
    x = R0**alpha / gp
    disk = 0.0
    for k, a in enumerate(coeffs):
        if a == 0.0:
            continue
        b = (2.0 + k) / alpha
        disk += a * R0 ** (2.0 + k) / (2.0 + k) * hyp2f1_first_unit(b, x)
    disk *= TWO_PI
    tail = 0.0
    if rho0 > 0:
        tail = _outer_term(rho0, eps_tail, alpha, gp, R0)
    return _finish(g, scalar, disk + tail)


def psi_piecewise(segments, alpha: float, gamma):
    """Closed form for concentric power-law annuli (zero beyond the support).

    Accepts a PiecewisePowerLaw or a raw sequence of (rho, eps, R) triples.
    Each annulus (a, b] is expressed as a difference of two hypergeometric
    terms, using the disk form when the exponent sits near or above the
    outer form's pole at eps = alpha - 2 and the outer form elsewhere; the
    two assemblies are algebraically identical where both converge.
    """
    _check_alpha(alpha)
    g, scalar, gp = _gamma_array(gamma)
    if isinstance(segments, PiecewisePowerLaw):
        if segments.beta != 1.0:
            raise ValueError(
                "psi_piecewise takes nominal segments; apply beta via PsiEvaluator"
            )
        segs = segments.segments
    else:
        segs = PiecewisePowerLaw(tuple(segments)).segments
    total = 0.0
    inner = 0.0
    for k, (rho, eps, outer) in enumerate(segs):
        if k == 0 or eps >= alpha - 2.0 - _POLE_MARGIN:
            term = _disk_term(rho, eps, alpha, gp, outer)
            if inner > 0.0:
                term -= _disk_term(rho, eps, alpha, gp, inner)
        else:
            term = _outer_term(rho, eps, alpha, gp, inner) - _outer_term(
                rho, eps, alpha, gp, outer
            )
        total += term
        inner = outer
    return _finish(g, scalar, total)


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
    _check_alpha(alpha)
    g, scalar, _ = _gamma_array(gamma)
    out = np.zeros(g.shape)
    pos = g > 0
    out[pos] = _psi_panels(GaussianCluster(rho=rho, v=v), alpha, g[pos], spec, False)
    return float(out) if scalar else out


@dataclass(frozen=True)
class PsiEvaluator:
    """Bundles a model with alpha and an evaluation route.

    method is one of "auto", "closed_form", "quadrature". Auto and closed_form
    use the closed form where one exists (power law, piecewise, polynomial)
    and the log-r panel rule for the Gaussian cluster; quadrature is the
    adaptive reference, one point at a time. value and derivative take a
    scalar gamma (float result) or an array, through the same code, so a
    point's value does not depend on the batch it is evaluated in.

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
        if isinstance(self.model, PowerLaw) and not self.model.eps < self.alpha - 2:
            raise DivergenceError(
                "power-law interference requires eps < alpha - 2, got "
                f"eps={self.model.eps}, alpha={self.alpha}"
            )

    def _adaptive(self, fn, g, scalar):
        out = np.array([fn(self.model, self.alpha, x, self.spec) for x in g.ravel().tolist()])
        return float(out[0]) if scalar else out.reshape(g.shape)

    def value(self, gamma):
        """psi(gamma) via the configured route (includes the model's beta)."""
        g, scalar, _ = _gamma_array(gamma)
        m = self.model
        if self.method == "quadrature":
            return self._adaptive(psi_quadrature, g, scalar)
        if isinstance(m, PowerLaw):
            out = psi_power_law(m.rho, m.eps, self.alpha, g)
        elif isinstance(m, PiecewisePowerLaw):
            out = psi_piecewise(m.segments, self.alpha, g)
        elif isinstance(m, PolynomialWithTail):
            out = psi_polynomial(m.coeffs, m.R0, m.rho0, m.eps_tail, self.alpha, g)
        else:
            out = psi_gaussian(m.rho, m.v, self.alpha, g, self.spec)
        return m.beta * out

    __call__ = value

    def derivative(self, gamma):
        """d psi / d gamma at gamma > 0 (scalar or array).

        Analytic for the power law; every other family integrates the
        gamma-differentiated kernel 2*pi*Lambda(r)*r*r^alpha/(r^alpha+gamma)^2
        with the log-r panel rule, or adaptively under method="quadrature".
        """
        g = np.asarray(gamma, dtype=float)
        if not np.all(g > 0):
            raise ValueError(f"derivative requires gamma > 0, got {gamma!r}")
        scalar = g.ndim == 0
        m = self.model
        if self.method == "quadrature":
            return self._adaptive(_dpsi_quadrature, g, scalar)
        if isinstance(m, PowerLaw):
            out = self.value(g) * (m.eps + 2.0) / (self.alpha * g)
        else:
            out = _psi_panels(m, self.alpha, g.reshape(-1), self.spec, True).reshape(g.shape)
        return float(out) if scalar else out


def psi_derivative(evaluator: PsiEvaluator, gamma):
    """Derivative of the interference functional at gamma (> 0)."""
    return evaluator.derivative(gamma)
