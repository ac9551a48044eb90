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
import scipy.optimize

from .intensity import FULL_PLANE, DivergenceError, IntensityModel, mean_count
from .interference import PsiEvaluator
from .specfun import DEFAULT_QUADRATURE, QuadratureSpec, regularized_upper_gamma

__all__ = [
    "BracketingError",
    "LinkConfig",
    "SinrDistribution",
    "cdf_gamma",
    "cdf_gamma_double_sum",
    "pdf_gamma",
    "outage_probability",
    "antenna_gain_delta",
    "scaling_limit",
    "regularized_gamma_limit_scan",
]

# Factorial-sum stability cap for the double-sum CDF cross-check.
DOUBLE_SUM_MAX_L = 64
# Bracket-expansion cap for the scaling-limit inversion.
_MAX_BRACKET_STEPS = 600


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
        if not (isinstance(L, int) and L >= 1):
            raise ValueError(f"antenna count L must be an integer >= 1, got {L!r}")


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


def _gamma_argument(dist: SinrDistribution, gamma):
    return dist.psi.value(gamma) + dist.link.sigma2 * gamma


def cdf_gamma(dist: SinrDistribution, gamma):
    """CDF of the normalized SINR: 1 - Q(L, psi(gamma) + sigma2*gamma).

    gamma may be a scalar (float result) or an array.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0):
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    out = 1.0 - regularized_upper_gamma(dist.link.L, _gamma_argument(dist, g))
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

    (psi + sigma2*gamma)^(L-1) * exp(-(psi + sigma2*gamma)) *
    (sigma2 + psi'(gamma)) / (L-1)!, with the power/exponential prefactor
    accumulated in the log domain so large L and large psi cannot overflow.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g > 0):
        raise ValueError(f"pdf requires gamma > 0, got {gamma!r}")
    L = dist.link.L
    x = _gamma_argument(dist, g)
    slope = dist.link.sigma2 + dist.psi.derivative(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_prefactor = (L - 1) * np.log(x) - x - math.lgamma(L)
    at_zero = slope if L == 1 else 0.0
    out = np.where(x > 0.0, np.exp(log_prefactor) * slope, at_zero)
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

    Closed form (psi + sigma2*gamma)^L * exp(-(psi + sigma2*gamma)) / L!,
    the L-th Poisson term of the incomplete-gamma identity.
    """
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    x = _gamma_argument(dist, gamma)
    if x == 0.0:
        return 0.0
    L = dist.link.L
    return math.exp(L * math.log(x) - x - math.lgamma(L + 1))


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
    psi_c is the interference functional of the nominal model. The inverse is
    computed by bracket expansion plus Brent's method on the strictly
    increasing psi_c.

    Models with finite total mass (bounded psi_c) may never reach 1/q; that
    saturation is reported as a ValueError rather than a bracketing timeout.
    A bracket that cannot be found otherwise raises BracketingError.
    """
    if not q > 0:
        raise ValueError(f"q must be > 0, got {q}")
    if not r_T > 0:
        raise ValueError(f"r_T must be > 0, got {r_T}")
    evaluator = PsiEvaluator(nominal, alpha, spec)
    target = 1.0 / q

    # psi_c increases to the total mean count over the plane; a finite total
    # below the target means no crossing exists.
    try:
        sup_psi = mean_count(nominal, FULL_PLANE)
    except DivergenceError:
        sup_psi = math.inf
    if target >= sup_psi:
        raise ValueError(
            f"interference functional saturates at {sup_psi:.6g} below the "
            f"required level 1/q = {target:.6g}; the limit does not exist"
        )

    lo = hi = 1.0
    steps = 0
    while evaluator.value(hi) < target:
        hi *= 10.0
        steps += 1
        if steps > _MAX_BRACKET_STEPS:
            raise BracketingError("failed to bracket the interference level from above")
    steps = 0
    while evaluator.value(lo) > target:
        lo /= 10.0
        steps += 1
        if steps > _MAX_BRACKET_STEPS:
            raise BracketingError("failed to bracket the interference level from below")

    gamma_star = scipy.optimize.brentq(
        lambda g: evaluator.value(g) - target, lo, hi, rtol=1e-12, maxiter=200
    )
    return gamma_star * r_T ** (-alpha)


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
