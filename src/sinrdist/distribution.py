"""Exact distribution of the MMSE output SINR and derived quantities.

With gamma denoting the distance-normalized SINR (SINR times r_T^alpha), the
CDF under Rayleigh fading and a Poisson interferer field is

    F(gamma) = 1 - Q(L, psi(gamma) + sigma2 * gamma)

where Q is the regularized upper incomplete gamma function, L the antenna
count and psi the interference functional of the intensity model. Everything
else here (PDF, outage probability, the per-antenna outage reduction, the
dense-network scaling limit) is a corollary of that identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .intensity import FULL_PLANE, DivergenceError, IntensityModel, mean_count
from .interference import PsiEvaluator
from .specfun import (
    ANTENNAS_MAX,
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    poisson_pmf,
    regularized_lower_gamma,
    regularized_upper_gamma,
)

__all__ = [
    "BracketingError",
    "LinkConfig",
    "SinrDistribution",
    "cdf_gamma",
    "cdf_gamma_double_sum",
    "pdf_gamma",
    "outage_probability",
    "antenna_gain_delta",
    "argument_supremum",
    "gamma_argument",
    "scaling_limit",
    "regularized_gamma_limit_scan",
]

# Factorial-sum stability cap for the double-sum CDF cross-check.
DOUBLE_SUM_MAX_L = 64
# Step cap, step tolerance and bracket, in log gamma, of the scaling-limit
# inversion.
NEWTON_MAX_STEPS = 100
NEWTON_STEP_TOL = 1e-12
_LOG_GAMMA_RANGE = math.log(1e300)


class BracketingError(ArithmeticError):
    """A numerical search could not bracket the level it was asked for."""


@dataclass(frozen=True)
class LinkConfig:
    """Target-link parameters: path loss, noise, link distance, antennas.

    Powers are normalized to unit transmit power, so sigma2 is the noise
    power on that scale and the mean received power at distance r is r^-alpha.
    """

    alpha: float
    sigma2: float
    r_T: float
    L: int

    def __post_init__(self):
        if not self.alpha > 2:
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if not self.sigma2 >= 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if not self.r_T > 0:
            raise ValueError(f"r_T must be > 0, got {self.r_T}")
        L = self.L
        if isinstance(L, float):
            if not L.is_integer():
                raise ValueError(f"antenna count L must be an integer, got {L}")
            L = int(L)
            object.__setattr__(self, "L", L)
        if not (isinstance(L, int) and 1 <= L <= ANTENNAS_MAX):
            raise ValueError(f"antenna count L must be an integer in [1, {ANTENNAS_MAX}], got {L!r}")


@dataclass(frozen=True)
class SinrDistribution:
    """Distribution of the normalized SINR for one interference model + link."""

    psi: PsiEvaluator
    link: LinkConfig

    def __post_init__(self):
        if self.psi.alpha != self.link.alpha:
            raise ValueError(
                f"psi evaluator alpha ({self.psi.alpha}) must match the link "
                f"alpha ({self.link.alpha})"
            )


def gamma_argument(psi, sigma2: float, gamma):
    """x = psi(gamma) + sigma2*gamma for a psi callable; ArithmeticError where
    x is not finite, which P(L, x) would read as a CDF of 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = psi(gamma) + sigma2 * gamma
    if not np.all(np.isfinite(x)):
        raise ArithmeticError(
            f"psi + sigma2*gamma is not finite with sigma2 = {sigma2:.6g}: "
            "the interference or noise power overflows"
        )
    return x


def _gamma_argument(dist: SinrDistribution, gamma):
    return gamma_argument(dist.psi.value, dist.link.sigma2, gamma)


def cdf_gamma(dist: SinrDistribution, gamma):
    """CDF of the normalized SINR: 1 - Q(L, psi(gamma) + sigma2*gamma).

    Evaluated as the lower regularized gamma P(L, .), which keeps full
    relative accuracy in the lower tail where 1 - Q cancels. gamma may be a
    scalar (float result) or an array.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0):
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    out = regularized_lower_gamma(dist.link.L, _gamma_argument(dist, g))
    return float(out) if g.ndim == 0 else out


def cdf_gamma_double_sum(dist: SinrDistribution, gamma: float) -> float:
    """The same CDF as an explicit double factorial sum; cross-check only.

    Evaluates 1 - exp(-sigma2*gamma) * sum_{i<L} sum_{k<=i}
    (sigma2*gamma)^(i-k) / (k! (i-k)!) * psi^k * exp(-psi), term by term in
    the log domain. Capped at L = 64: beyond that the factorial sum gains
    nothing over the incomplete-gamma route and loses accuracy.
    """
    L = dist.link.L
    if L > DOUBLE_SUM_MAX_L:
        raise ValueError(
            f"double-sum form is capped at L = {DOUBLE_SUM_MAX_L}, got {L}"
        )
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    psi = dist.psi.value(gamma)
    sg = dist.link.sigma2 * gamma
    log_psi = math.log(psi) if psi > 0 else None
    log_sg = math.log(sg) if sg > 0 else None
    terms = []
    for i in range(L):
        for k in range(i + 1):
            if k > 0 and log_psi is None:
                continue  # psi^k = 0
            if i - k > 0 and log_sg is None:
                continue  # (sigma2*gamma)^(i-k) = 0
            log_term = -psi - sg - math.lgamma(k + 1) - math.lgamma(i - k + 1)
            if k > 0:
                log_term += k * log_psi
            if i - k > 0:
                log_term += (i - k) * log_sg
            terms.append(math.exp(log_term))
    return min(1.0, max(0.0, 1.0 - math.fsum(terms)))


def pdf_gamma(dist: SinrDistribution, gamma):
    """Density of the normalized SINR at gamma > 0 (scalar or array).

    x^(L-1) e^-x / (L-1)! * (sigma2 + psi'(gamma)) with x = psi(gamma) +
    sigma2*gamma: the Gamma(L, 1) density at x (specfun.poisson_pmf, finite
    at any L and x) times the slope of x.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g > 0):
        raise ValueError(f"pdf requires gamma > 0, got {gamma!r}")
    density = poisson_pmf(dist.link.L - 1, _gamma_argument(dist, g))
    slope = dist.link.sigma2 + dist.psi.derivative(g)
    with np.errstate(over="ignore", invalid="ignore"):
        out = density * slope
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("the SINR density is not finite: sigma2 + psi' overflows or is NaN")
    return float(out) if g.ndim == 0 else out


def outage_probability(dist: SinrDistribution, tau, r_target: float | None = None):
    """Probability that the SINR falls at or below the threshold tau.

    Equals the CDF at tau * r^alpha; tau may be a scalar or an array. The
    link distance defaults to the one in dist.link; pass r_target to evaluate
    the same interference field at a different link distance.
    """
    t = np.asarray(tau, dtype=float)
    if not np.all(t >= 0):
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    r = dist.link.r_T if r_target is None else r_target
    if not r > 0:
        raise ValueError(f"target distance must be > 0, got {r}")
    return cdf_gamma(dist, t * r**dist.link.alpha)


def antenna_gain_delta(dist: SinrDistribution, gamma: float) -> float:
    """Outage reduction from one extra antenna: F_L(gamma) - F_{L+1}(gamma).

    Closed form x^L e^-x / L! with x = psi(gamma) + sigma2*gamma, the L-th
    Poisson term of the incomplete-gamma identity (specfun.poisson_pmf).
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return poisson_pmf(dist.link.L, _gamma_argument(dist, gamma))


def argument_supremum(model: IntensityModel, sigma2: float = 0.0) -> float:
    """Supremum over gamma of psi(gamma) + sigma2*gamma: the model's mean count
    over the plane (inf where it diverges) plus sigma2 times the largest double."""
    try:
        mass = mean_count(model, FULL_PLANE)
    except DivergenceError:
        mass = math.inf
    return mass + sigma2 * float(np.finfo(float).max)


# as in gamma_argument: an overflowing count or psi is judged by its value
# (a saturation, NaN or bracket error), not warned about
@np.errstate(over="ignore", invalid="ignore")
def _psi_inverse(evaluator: PsiEvaluator, target: float, name: str) -> float:
    """The gamma at which psi(gamma) reaches target > 0, the level called
    name in errors.

    Newton's method on log psi(e^s) = log target in s = log gamma, whose
    slope is the elasticity gamma*psi'/psi in (0, 1]. The bracket starts as
    gamma in [1e-300, 1e300], each evaluation moves one end by the sign of
    its residual, and a step that would leave it bisects it instead; the
    search stops at a zero residual or a step of NEWTON_STEP_TOL. A NaN
    psi, a root outside the range, or NEWTON_MAX_STEPS steps without
    convergence raise BracketingError.
    """
    lo, hi = -_LOG_GAMMA_RANGE, _LOG_GAMMA_RANGE
    s = 0.0
    for _ in range(NEWTON_MAX_STEPS):
        gamma = math.exp(s)
        psi = evaluator.value(gamma)
        if math.isnan(psi):
            raise BracketingError(f"psi is NaN at gamma = {gamma!r}; {name} cannot be reached")
        ratio = psi / target
        residual = math.log(ratio) if ratio > 0 else -math.inf
        if residual == 0.0:
            break
        lo, hi = (s, hi) if residual < 0 else (lo, s)
        # Newton's step -residual / elasticity, or a bisection where it
        # would leave the bracket (or is undefined)
        dpsi = gamma * evaluator.derivative(gamma)
        step = -residual * psi / dpsi if dpsi > 0 else math.nan
        if not lo - s < step < hi - s:
            step = (lo + hi) / 2 - s
        s += step
        if abs(step) <= NEWTON_STEP_TOL:
            break
    else:
        raise BracketingError(f"the psi inverse did not converge in {NEWTON_MAX_STEPS} steps")
    if abs(s) > _LOG_GAMMA_RANGE - 1e-9:
        side = "above" if s > 0 else "below"
        raise BracketingError(
            f"psi reaches {name} = {target:.6g} only {side} gamma = {math.exp(s):.3g}"
        )
    return math.exp(s)


def scaling_limit(
    nominal: IntensityModel,
    q: float,
    alpha: float,
    r_T: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Deterministic SINR limit when antennas grow linearly with density.

    With L antennas and intensity beta * Lambda_c at beta = q * L, the SINR
    concentrates (noise neglected) on psi_c^{-1}(1/q) * r_T^{-alpha}, where
    psi_c is the interference functional of the nominal model, inverted by
    _psi_inverse.

    Models with finite total mass (bounded psi_c) may never reach 1/q; that
    saturation is a ValueError. A NaN psi_c, a root outside the range, or
    NEWTON_MAX_STEPS steps without convergence raise BracketingError.
    """
    if not q > 0:
        raise ValueError(f"q must be > 0, got {q}")
    if not r_T > 0:
        raise ValueError(f"r_T must be > 0, got {r_T}")
    evaluator = PsiEvaluator(nominal, alpha, spec)
    target = 1.0 / q
    sup_psi = argument_supremum(nominal)
    if target >= sup_psi:
        raise ValueError(
            f"interference functional saturates at {sup_psi:.6g} below the "
            f"required level 1/q = {target:.6g}; the limit does not exist"
        )
    return _psi_inverse(evaluator, target, "1/q") * r_T ** (-alpha)


def regularized_gamma_limit_scan(q: float, L_list: Sequence[int]) -> list:
    """Q(L, q*L) for each antenna count; probes the large-L outage dichotomy.

    As L grows this tends to 1 for q < 1 and to 0 for q > 1. At the q = 1
    boundary the values settle toward 1/2 from below, the deviation shrinking
    like L^{-1/2}, so no binary limit is observable at practical L.
    """
    if not q > 0:
        raise ValueError(f"q must be > 0, got {q}")
    L = np.asarray(L_list, dtype=int)
    return regularized_upper_gamma(L, q * L).tolist()
