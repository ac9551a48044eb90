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

For a model both quadratures work in s = log r on the same expit kernels
and one layout (_psi_layout): the head far below the knee gamma^(1/alpha)
and an algebraic tail far beyond it in closed form, the body between them
cut at the model's breakpoints. They differ only in the integrator. A bare
profile (psi_quadrature_radial) is integrated in r.

Every psi helper takes gamma as a scalar (float result) or an array. This
module holds all of psi: the closed forms of power-law pieces, which take
nominal parameters so a coefficient set needs no model object; the adaptive
reference; the panel rule; and PsiEvaluator, which wraps a model object,
applies its beta scale, and sums the closed forms of the model's pieces
where it has them and takes the panel rule where it has none. The point
process itself (profiles, counts, samplers) is intensity's.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .intensity import (
    TWO_PI,
    DivergenceError,
    GaussianCluster,
    IntensityModel,
    PiecewisePowerLaw,
    _polynomial_pieces,
    _power_mass,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    _quad,
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

# e-folds of r^alpha between the knee gamma^(1/alpha) and the layout's ends,
# where the psi kernel is 1, or its power asymptote, to within e^-40 ~ 4e-18
PANEL_TAIL_EFOLDS = 40.0
# Annulus pieces closer than this to the outer-form pole at k = alpha - 2 are
# evaluated with the disk form instead.
_POLE_MARGIN = 0.01


# ---------------------------------------------------------------------------
# closed forms of psi, on nominal parameters


def _check_alpha(alpha: float) -> None:
    if not alpha > 2:
        raise ValueError(f"path-loss exponent alpha must exceed 2, got {alpha}")


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


def psi_power_law(rho, eps, alpha: float, gamma):
    """Closed form for the unbounded power law rho * r**eps.

    psi(gamma) = (2 pi^2 rho / alpha) * gamma^((eps+2)/alpha) / sin(pi (eps+2)/alpha),
    valid for -2 < eps < alpha - 2 (the open constraint keeps the cosecant
    away from its poles). rho and eps may be arrays too, broadcast against
    gamma; the result is a float only when all three are scalars.
    """
    _check_alpha(alpha)
    g, _, gp = _gamma_array(gamma)
    rho, eps = np.asarray(rho, dtype=float), np.asarray(eps, dtype=float)
    if not np.all(rho >= 0):
        raise ValueError(f"rho must be >= 0, got {rho}")
    if not np.all((-2.0 < eps) & (eps < alpha - 2.0)):
        raise DivergenceError(
            f"power-law interference requires -2 < eps < alpha - 2, got eps={eps}"
        )
    c = (eps + 2.0) / alpha
    # numpy takes x ** 0.5 as sqrt(x) for a scalar exponent only; c = 1/2
    # entries use sqrt too, so a point's value does not depend on its batch
    power = np.where(c == 0.5, np.sqrt(gp), gp**c)
    out = _finish(g, False, (2.0 * math.pi**2 * rho / alpha) * power / np.sin(math.pi * c))
    return float(out) if out.ndim == 0 else out


def _disk_term(rho: float, eps: float, alpha: float, gamma, radius: float):
    """Contribution of rho*r**eps over the disk (0, radius]; needs eps > -2."""
    scale = TWO_PI * rho * radius ** (2.0 + eps) / (2.0 + eps)
    return scale * hyp2f1_first_unit((2.0 + eps) / alpha, radius**alpha / gamma)


def _outer_term(rho: float, eps: float, alpha: float, gamma, radius: float):
    """Contribution of rho*r**eps over (radius, inf); needs eps < alpha - 2."""
    scale = TWO_PI * rho * gamma * radius ** (2.0 + eps - alpha) / (alpha - 2.0 - eps)
    return scale * hyp2f1_first_unit((alpha - 2.0 - eps) / alpha, gamma * radius ** (-alpha))


def _piece_psi(c, k, lo, hi, alpha: float, gamma):
    """psi of c * r**k on (lo, hi] at gamma > 0: the cosecant form over the
    plane, the disk form on (0, hi] and the outer form on (lo, inf).

    An annulus is a difference of two disk forms or of two outer forms,
    algebraically identical where both converge. Each difference cancels to
    noise where its two terms saturate: the disk forms on an annulus beyond
    the knee gamma^(1/alpha), the outer forms on one inside it. So the disk
    forms are taken where the annulus starts inside the knee and the outer
    forms beyond it, except that only the disk forms hold at or above
    k = alpha - 2 - _POLE_MARGIN (near the outer form's pole) and only the
    outer forms at k <= -2. Near k = -2 (|k + 2| < 1/2) both differences
    cancel like 1/(k + 2) inside the knee, so there the annulus is its count
    less the part the kernel removes, 2 pi c r^(k+1) r^alpha / (r^alpha +
    gamma), which is the disk form of exponent k + alpha over gamma.
    """
    if lo == 0.0:
        if hi == math.inf:
            return psi_power_law(c, k, alpha, gamma)
        return _disk_term(c, k, alpha, gamma, hi)
    if hi == math.inf:
        return _outer_term(c, k, alpha, gamma, lo)

    def disk(g):
        return _disk_term(c, k, alpha, g, hi) - _disk_term(c, k, alpha, g, lo)

    def outer(g):
        return _outer_term(c, k, alpha, g, lo) - _outer_term(c, k, alpha, g, hi)

    def count_less_removed(g):
        removed = _disk_term(c, k + alpha, alpha, g, hi) - _disk_term(c, k + alpha, alpha, g, lo)
        return _power_mass(c, k, lo, hi) - removed / g

    if k >= alpha - 2.0 - _POLE_MARGIN:
        return disk(gamma)
    inner = count_less_removed if abs(k + 2.0) < 0.5 else disk if k > -2.0 else outer
    inside = lo**alpha <= gamma
    if np.all(inside):
        return inner(gamma)
    if not np.any(inside):
        return outer(gamma)
    out = np.empty(gamma.shape)
    out[inside], out[~inside] = inner(gamma[inside]), outer(gamma[~inside])
    return out


def _psi_sum(pieces, alpha: float, gamma):
    """psi of a sum of power-law pieces (see PowerLawSum), term by term."""
    _check_alpha(alpha)
    g, scalar, gp = _gamma_array(gamma)
    return _finish(g, scalar, sum(_piece_psi(*piece, alpha, gp) for piece in pieces))


def psi_polynomial(
    coeffs: Sequence[float], R0: float, rho0: float, eps_tail: float, alpha: float, gamma
):
    """Closed form for a polynomial profile on [0, R0] plus a power-law tail.

    The disk part contributes one hypergeometric term per coefficient,
    2*pi*a_k*R0^(2+k)/(2+k) * 2F1(1,(2+k)/alpha;(2+k)/alpha+1;-R0^alpha/gamma),
    and the tail rho0*r**eps_tail over (R0, inf) contributes the outer-region
    term. rho0 = 0 is allowed and drops the tail (a purely disk-supported
    profile).
    """
    if not R0 > 0:
        raise ValueError(f"R0 must be > 0, got {R0}")
    if not rho0 >= 0:
        raise ValueError(f"rho0 must be >= 0, got {rho0}")
    if rho0 > 0 and not -2.0 < eps_tail < -1.0:
        raise ValueError(f"eps_tail must lie strictly inside (-2, -1), got {eps_tail}")
    return _psi_sum(_polynomial_pieces(coeffs, R0, rho0, eps_tail), alpha, gamma)


def psi_piecewise(segments, alpha: float, gamma):
    """Closed form for concentric power-law annuli (zero beyond the support).

    segments is a sequence of (rho, eps, R) triples, each annulus one
    piece of the sum (see _piece_psi).
    """
    return _psi_sum(PiecewisePowerLaw(tuple(segments)).pieces, alpha, gamma)


# ---------------------------------------------------------------------------
# quadratures


def expit(t):
    """The logistic function 1 / (1 + e^-t), for a scalar or an array; where
    e^-t overflows (t below about -709) the result is its true value, 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


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
    _gamma_array(gamma)
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
    cannot converge (power law with eps >= alpha - 2). The tolerance is
    max(abs_tol, rel_tol * |psi|), so under the default spec (abs_tol =
    1e-12, rel_tol = 1e-9) the reference is an absolute one below |psi| =
    1e-3; pass abs_tol=0 for a relative reference at tiny psi.
    """
    return PsiEvaluator(model, alpha, spec, method="quadrature").value(gamma)


def _psi_layout(model, alpha: float, gamma, derivative=False, radius=math.inf):
    """(head, lower, upper, breakpoints, tail) of psi (or d psi / d gamma) at
    gammas > 0 over the disk (0, radius]: head + the integral over (lower,
    upper], cut at the model's breakpoints, + tail, for both quadratures.

    lower = min(knee, inner) * e^(-PANEL_TAIL_EFOLDS/alpha), with knee =
    gamma^(1/alpha) and inner the model's first scale (its smallest
    breakpoint, or the support cut to radius). Below it the psi kernel is 1
    to within e^-40, so the head of psi is the model's cumulative count.
    The derivative's head is 0: the log-r integrand of d psi / d gamma falls
    like r^alpha times the profile's own log-r density below the knee, and
    no family's density rises toward the origin below its first scale.
    upper is the support cut to radius, unless that is infinite and the
    model has an algebraic tail beta*rho*r^eps beyond r0: then R =
    max(knee, r0)*e^(PANEL_TAIL_EFOLDS/alpha), past which the kernel is
    gamma*r^-alpha (r^-alpha for the derivative) to within e^-40, and the
    tail is the elementary 2*pi*beta*rho*gamma*R^-k/k (no gamma for the
    derivative), k = alpha - 2 - eps: no hypergeometric function.
    """
    knee = gamma ** (1.0 / alpha)
    upper, tail = min(radius, model.support_radius), 0.0
    inner = min((upper, *model.quadrature_breakpoints))
    if math.isinf(upper) and model.algebraic_tail is not None:
        rho, eps, r0 = model.algebraic_tail
        upper = np.maximum(knee, r0) * math.exp(PANEL_TAIL_EFOLDS / alpha)
        k = alpha - 2.0 - eps
        tail = TWO_PI * model.beta * rho * (1.0 if derivative else gamma) * upper**-k / k
    lower = np.minimum(knee, inner) * math.exp(-PANEL_TAIL_EFOLDS / alpha)
    head = 0.0 if derivative else model.cumulative_count(lower)
    return head, lower, upper, model.quadrature_breakpoints, tail


def _integrand(model, alpha: float, gamma, derivative: bool, s):
    """The integrand of psi (or d psi / d gamma) in s = log r:
    2*pi*Lambda(r)*r^2 times the kernel gamma/(r^alpha+gamma) = expit(-t)
    or r^alpha/(r^alpha+gamma)^2 = expit(t)*expit(-t)/gamma, where
    t = alpha*s - log(gamma). r*r*kernel would be inf * 0 where r*r
    overflows; r*kernel*r is finite wherever the integrand is."""
    r = np.exp(s)
    t = alpha * s - np.log(gamma)
    kernel = expit(t) * expit(-t) / gamma if derivative else expit(-t)
    return TWO_PI * model.radial_intensity(r) * (r * kernel * r)


def _psi_adaptive(model, alpha: float, gamma: float, spec, derivative=False, radius=math.inf):
    """psi (or d psi / d gamma) of a model at one gamma > 0 over the disk
    (0, radius]: QUADPACK on _psi_layout's body, split also at the knee
    gamma^(1/alpha). Raises AccuracyError where it misses spec."""
    head, lower, upper, breakpoints, tail = _psi_layout(model, alpha, gamma, derivative, radius)
    integrand = functools.partial(_integrand, model, alpha, gamma, derivative)
    pts = sorted({p for p in (*breakpoints, gamma ** (1.0 / alpha)) if lower < p < upper})
    edges = [math.log(e) for e in (lower, *pts, upper)]
    with np.errstate(over="ignore"):
        body = math.fsum(_quad(integrand, a, b, spec) for a, b in zip(edges, edges[1:]))
    return math.fsum((float(head), body, float(tail)))


def _psi_panels(
    model,
    alpha: float,
    gamma: np.ndarray,
    spec: QuadratureSpec,
    derivative: bool = False,
    radius: float = math.inf,
):
    """psi (or d psi / d gamma) at positive gammas over the disk (0, radius]
    (the whole plane by default): the log-r panel rule on _psi_layout's body.
    Points whose embedded error estimate misses the spec, judged against the
    whole value, fall back to _psi_adaptive, which integrates the same
    layout and raises AccuracyError when it cannot converge either.
    """
    head, lower, upper, breakpoints, tail = _psi_layout(model, alpha, gamma, derivative, radius)
    column = gamma[:, None, None]

    def integrand(s, rows):
        return _integrand(model, alpha, column[rows], derivative, s)

    body, errors = integrate_log_panels(integrand, lower, upper, breakpoints)
    values = head + body + tail
    for i in np.flatnonzero(errors > np.maximum(spec.abs_tol, spec.rel_tol * np.abs(values))):
        values[i] = _psi_adaptive(model, alpha, float(gamma[i]), spec, derivative, radius)
    return values


@dataclass(frozen=True)
class PsiEvaluator:
    """Bundles a model with alpha and an evaluation route.

    method is "auto" or "quadrature". Auto sums the closed forms of the
    model's power-law pieces where it has them (power law, piecewise,
    polynomial) and takes the log-r panel rule where it has none (Gaussian
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
        if self.method not in ("auto", "quadrature"):
            raise ValueError(f"method must be auto or quadrature, got {self.method!r}")
        self.model.check_alpha(self.alpha)

    def _adaptive(self, g, scalar, **options):
        """The adaptive reference at each gamma, 0 at gamma = 0."""
        m, alpha, spec = self.model, self.alpha, self.spec
        x = g.ravel().tolist()
        out = np.array([_psi_adaptive(m, alpha, t, spec, **options) if t > 0 else 0.0 for t in x])
        return float(out[0]) if scalar else out.reshape(g.shape)

    def value(self, gamma, radius=math.inf):
        """psi(gamma) over the disk (0, radius], the whole plane by default,
        via the configured route (includes the model's beta).

        A closed form is a sum of power-law pieces (see PowerLawSum): each
        piece is cut at radius, and one that starts beyond it drops out (on
        the plane nothing is cut). The panel rule and the quadrature
        integrate over the disk.
        """
        g, scalar, _ = _gamma_array(gamma)
        m = self.model
        if self.method == "quadrature":
            return self._adaptive(g, scalar, radius=radius)
        if m.pieces is not None:
            pieces = tuple((c, k, lo, min(hi, radius)) for c, k, lo, hi in m.pieces if lo < radius)
            return m.beta * _psi_sum(pieces, self.alpha, g)
        # the panel rule on the nominal profile, scaled after the sum
        nominal = dataclasses.replace(m, beta=1.0)
        out = np.zeros(g.shape)
        pos = g > 0
        out[pos] = _psi_panels(nominal, self.alpha, g[pos], self.spec, False, radius)
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
            return self._adaptive(g, scalar, derivative=True)
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

    No closed form is used: the cumulative count below min(knee, 6 v) *
    e^(-40/alpha) plus fixed-panel Gauss-Legendre in log r from there to the
    support 12 v, split at 6 v, is the designated evaluator for this
    family, with adaptive quadrature on the same layout for any point whose
    embedded error estimate misses spec.
    """
    return PsiEvaluator(GaussianCluster(rho=rho, v=v), alpha, spec).value(gamma)
