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

For a model both quadratures work in s = log r on the same expit kernels;
the adaptive reference takes the head far below the knee gamma^(1/alpha) and
an algebraic tail far beyond it in closed form (see _psi_adaptive). A bare
profile (psi_quadrature_radial) is integrated in r.

Every psi helper takes gamma as a scalar (float result) or an array. The
closed forms live beside their families in intensity and are re-exported
here; this module holds what does not depend on the family: the adaptive
reference, the panel rule, and PsiEvaluator, which wraps a model object,
applies its beta scale, and takes the model's closed form where it has one
and the panel rule where it has none.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit, log_expit

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
    _quad,
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


def _check_gamma(gamma: float) -> None:
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")


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
    where the integrand changes character. Without a model there is no head
    or tail to take in closed form, so this integral stays in r: QUADPACK
    extrapolates the algebraic ends r^(1+eps) at 0 and r^(1+eps-alpha) at
    infinity, which in log r are exponentials whose nodes leave the float
    range (a profile 0.1*r^0.5 at alpha = 3 then ends in NaN).
    """
    _check_alpha(alpha)
    _check_gamma(gamma)
    if gamma == 0.0:
        return 0.0
    log_gamma = math.log(gamma)

    def integrand(r: float) -> float:
        return TWO_PI * radial_fn(r) * r * expit(log_gamma - alpha * math.log(r))

    pts = sorted({p for p in (*breakpoints, gamma ** (1.0 / alpha)) if 0.0 < p < upper})
    edges = [0.0, *pts, upper]
    return math.fsum(integrate_radial(integrand, lo, hi, spec) for lo, hi in zip(edges, edges[1:]))


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
    _check_gamma(gamma)
    return _psi_adaptive(model, alpha, gamma, spec) if gamma > 0 else 0.0


def _psi_adaptive(model, alpha: float, gamma: float, spec, derivative=False, radius=math.inf):
    """psi (or d psi / d gamma) of a model at one gamma > 0 over the disk
    (0, radius], by adaptive quadrature in log r between a head and a tail.

    With s = log r and t = alpha*s - log(gamma) the integrand is
    2*pi*Lambda(e^s)*e^(2s)*k(t), k the kernel of _psi_panels: expit(-t), or
    expit(t)*expit(-t)/gamma for the derivative. It is split at the knee
    gamma^(1/alpha) and at the model's quadrature breakpoints.

    Head: below knee*e^(-PANEL_TAIL_EFOLDS/alpha), knee = gamma^(1/alpha), the
    psi kernel is 1 to within e^-40, so psi takes the model's cumulative
    count there; the derivative kernel is below e^-40 of its peak there, so
    d psi / d gamma drops it. Tail: a model with an algebraic tail
    beta*rho*r^eps beyond r0 is integrated up to R = max(knee, r0) *
    e^(PANEL_TAIL_EFOLDS/alpha), past which the kernel is its power asymptote
    gamma*r^-alpha (r^-alpha for the derivative) to within e^-40; the rest
    is the elementary 2*pi*beta*rho*gamma*R^-k/k (no gamma for the
    derivative), k = alpha - 2 - eps, so the reference takes no
    hypergeometric function. Raises AccuracyError where QUADPACK misses spec.
    """
    knee = gamma ** (1.0 / alpha)
    upper = min(radius, model.support_radius)
    tail = 0.0
    if math.isinf(upper) and model.algebraic_tail is not None:
        rho, eps, r0 = model.algebraic_tail
        upper = max(knee, r0) * math.exp(PANEL_TAIL_EFOLDS / alpha)
        k = alpha - 2.0 - eps
        tail = TWO_PI * model.beta * rho * (1.0 if derivative else gamma) * upper**-k / k
    lower = min(knee * math.exp(-PANEL_TAIL_EFOLDS / alpha), upper)
    head = 0.0 if derivative else float(model.cumulative_count(lower))
    log_gamma = math.log(gamma)

    def integrand(s: float) -> float:
        # e^(2s) times the kernel as one exp of a sum of logs: r*r*expit(-t)
        # is inf * 0 where r*r overflows
        t = alpha * s - log_gamma
        log_kernel = log_expit(-t) + (log_expit(t) - log_gamma if derivative else 0.0)
        return TWO_PI * model.radial_intensity(np.exp(s)) * math.exp(2.0 * s + log_kernel)

    pts = sorted({p for p in (*model.quadrature_breakpoints, knee) if lower < p < upper})
    edges = [math.log(e) for e in (lower, *pts, upper)]
    with np.errstate(over="ignore"):
        body = math.fsum(_quad(integrand, a, b, spec) for a, b in zip(edges, edges[1:]))
    return math.fsum((head, body, tail))


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
    for i in np.flatnonzero(~converged):
        values[i] = _psi_adaptive(model, alpha, float(gamma[i]), spec, derivative, radius)
    return values


@dataclass(frozen=True)
class PsiEvaluator:
    """Bundles a model with alpha and an evaluation route.

    method is "auto" or "quadrature". Auto uses the model's psi_closed_form
    where it has one (power law, piecewise, polynomial) and the log-r panel
    rule where it has none (Gaussian cluster); quadrature is the adaptive
    reference, one point at a time.
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
        if self.method not in ("auto", "quadrature"):
            raise ValueError(f"method must be auto or quadrature, got {self.method!r}")
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
            return self._adaptive(functools.partial(_psi_adaptive, derivative=True), g, scalar)
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
