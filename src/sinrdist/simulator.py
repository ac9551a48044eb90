"""Monte-Carlo oracle: realize the network and channel model literally.

Each trial draws a Poisson number of interferers on a finite disk, gives every
node an i.i.d. complex Gaussian channel vector, and computes the output SINR
of the linear MMSE combiner. The resulting empirical distribution validates
the analytic CDF, which is exactly what the test suite uses it for.

Determinism contract: trial t draws all of its randomness from a counter-based
stream keyed by (seed, t), so a campaign is a pure function of its config and
is bit-identical no matter how trials are scheduled across threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .distribution import LinkConfig
from .intensity import (
    DiskRegion,
    GaussianCluster,
    IntensityModel,
    PiecewisePowerLaw,
    PolynomialWithTail,
    PowerLaw,
    mean_count,
    sample_location,
)
from .interference import _outer_term, psi_polynomial

__all__ = [
    "SimConfig",
    "TrialResult",
    "EmpiricalDistribution",
    "draw_network",
    "draw_channels",
    "mmse_sinr",
    "run_trial",
    "run_trials",
    "run_campaign",
    "default_truncation_radius",
]

_MASK64 = (1 << 64) - 1
# Default bound on the interference mass ignored by truncation: the tail of
# psi beyond the simulation radius stays below this fraction of the total.
DEFAULT_TAIL_FRACTION = 1e-3
# Gaussian clusters are truncated at this multiple of v by default.
GAUSSIAN_TRUNCATION_FACTOR = 8.0
# Interferer columns per block of the MMSE Gram: a 2L x 2L x 256 dgemm stays
# below OpenBLAS's multithreading threshold (m*n*k <= 262,144) for L <= 16.
GRAM_BLOCK = 256
# Squared ratio of the extreme Cholesky pivots above which the MMSE trial
# switches to the QR route.
CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: model, link, disk size, trial count, seed."""

    trials: int
    truncation_radius: float
    seed: int
    link: LinkConfig
    model: IntensityModel

    def __post_init__(self):
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (
            math.isfinite(self.truncation_radius) and self.truncation_radius > 0
        ):
            raise ValueError(
                f"truncation_radius must be positive and finite, "
                f"got {self.truncation_radius}"
            )
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class TrialResult:
    """Output of one trial: the SINR and how many interferers were present."""

    sinr: float
    n_interferers: int

    def __post_init__(self):
        if not self.sinr > 0:
            raise ValueError(f"sinr must be > 0, got {self.sinr}")


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted sample set with ECDF and Kolmogorov-Smirnov helpers."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.sort(np.asarray(self.samples, dtype=float))
        if samples.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        object.__setattr__(self, "samples", samples)
        self.samples.setflags(write=False)

    @property
    def trials(self) -> int:
        return int(self.samples.size)

    def cdf(self, x):
        """Right-continuous empirical CDF, scalar or array argument."""
        pos = np.searchsorted(self.samples, x, side="right") / self.samples.size
        return float(pos) if np.ndim(x) == 0 else pos

    def quantile(self, p):
        return np.quantile(self.samples, p)

    def ks_distance(self, analytic_cdf: Callable[[np.ndarray], np.ndarray]) -> float:
        """Two-sided sup gap between the ECDF and a reference CDF.

        analytic_cdf is called once, on the array of sorted samples, and must
        return the CDF at each of them. Checks both i/n and (i-1)/n against F
        at each order statistic, which is where the sup of |ECDF - F| is
        attained.
        """
        n = self.samples.size
        ref = np.asarray(analytic_cdf(self.samples), dtype=float)
        steps = np.arange(1, n + 1) / n
        return float(np.max(np.maximum(steps - ref, ref - (steps - 1.0 / n))))


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trial of one campaign."""
    key = [seed & _MASK64, trial_index & _MASK64]
    return np.random.Generator(np.random.Philox(key=key))


def draw_network(model: IntensityModel, R_sim: float, rng) -> np.ndarray:
    """Draw one network: Poisson count, then i.i.d. radii on the disk.

    Only the distances matter for the SINR (channels are isotropic), so the
    angles are not returned here.
    """
    region = DiskRegion(R_sim)
    mu = mean_count(model, region)
    if mu == 0.0:
        return np.empty(0)
    n = int(rng.poisson(mu))
    if n == 0:
        return np.empty(0)
    radii, _theta = sample_location(model, region, rng, size=n)
    return radii


def draw_channels(n: int, L: int, rng):
    """Channel vectors: target g_T (length L) and interferer matrix G (L x n).

    Entries are i.i.d. circularly symmetric complex Gaussian with unit
    variance per complex entry (variance 1/2 per real component). The stream
    is consumed in the order Re g_T, Im g_T, Re G, Im G (G row-major); each
    part is drawn into one reused buffer and scaled straight into the
    complex outputs. The buffer holds one part, not all four: a transient as
    large as G itself would be handed back to the OS with G at the end of
    every trial and faulted in again by the next.
    """
    if not L >= 1:
        raise ValueError(f"antenna count L must be >= 1, got {L}")
    if not n >= 0:
        raise ValueError(f"interferer count must be >= 0, got {n}")
    scale = 1.0 / math.sqrt(2.0)
    g_t = np.empty(L, dtype=complex)
    G = np.empty((L, n), dtype=complex)
    buffer = np.empty(L * max(n, 1))
    for part in (g_t.real, g_t.imag, G.real, G.imag):
        z = buffer[: part.size].reshape(part.shape)
        rng.standard_normal(out=z)
        np.multiply(z, scale, out=part)
    return g_t, G


def _interference_covariance(powers, G, sigma2: float) -> np.ndarray:
    """G P G^H + sigma2 I from a real Gram accumulated over column blocks."""
    L, n = G.shape
    M = np.zeros((2 * L, 2 * L))
    for start in range(0, n, GRAM_BLOCK):
        cols = slice(start, start + GRAM_BLOCK)
        S = np.concatenate((G.real[:, cols], G.imag[:, cols]))
        M += (S * powers[cols]) @ S.T
    # with S = [Re G; Im G], G P G^H = (M_rr + M_ii) + i (M_ir - M_ri)
    cov = np.empty((L, L), dtype=complex)
    np.add(M[:L, :L], M[L:, L:], out=cov.real)
    np.subtract(M[L:, :L], M[:L, L:], out=cov.imag)
    cov.flat[:: L + 1] += sigma2
    return cov


def _cholesky_quadratic_form(cov, g_t):
    """g_T^H cov^{-1} g_T by Cholesky, or None when cov is too ill-conditioned."""
    factor, info = scipy.linalg.lapack.zpotrf(cov, lower=True)
    if info != 0:
        return None
    diag = np.abs(np.diag(factor))
    if (diag.max() / diag.min()) ** 2 > CONDITION_LIMIT:
        return None
    solved, _ = scipy.linalg.lapack.zpotrs(factor, g_t, lower=True)
    quad = complex(np.vdot(g_t, solved))
    if abs(quad.imag) > 1e-12 * max(1.0, abs(quad.real)):
        raise ArithmeticError(
            f"MMSE quadratic form has non-negligible imaginary part: {quad!r}"
        )
    return quad.real


def _qr_quadratic_form(powers, g_t, G, sigma2: float) -> float:
    """g_T^H cov^{-1} g_T from the QR factor of [(G P^(1/2))^H; sigma I]."""
    L = g_t.size
    # strongest interferers first, which sorts the rows by norm up to the
    # O(1) spread of |g_i|: Householder QR on rows sorted by decreasing norm
    # is row-wise backward stable (Cox and Higham, 1998)
    order = np.argsort(powers)[::-1]
    A = np.vstack(
        ((G[:, order] * np.sqrt(powers[order])).conj().T, math.sqrt(sigma2) * np.eye(L))
    )
    R = scipy.linalg.qr(A, mode="r")[0][:L]
    if not np.all(np.diag(R) != 0.0):
        raise ArithmeticError(
            "interference covariance is singular (no noise and fewer "
            "interferers than antennas): the MMSE SINR is unbounded"
        )
    y = scipy.linalg.solve_triangular(R, g_t, trans="C")
    return float(np.vdot(y, y).real)


def mmse_sinr(radii, g_t, G, link: LinkConfig) -> float:
    """Output SINR of the MMSE combiner for one network and channel draw.

    Computes r_T^-alpha * g_T^H (G P G^H + sigma2 I)^{-1} g_T with
    P = diag(r_i^-alpha). The L x L covariance comes from the real Gram
    S P S^T of the stacked S = [Re G; Im G] (2L x n), accumulated over
    column blocks of GRAM_BLOCK in block order, so thousands of interferers
    cost O(n L^2). The blocks keep each temporary in cache and each dgemm
    below OpenBLAS's multithreading threshold, so a trial never starts BLAS
    threads of its own beneath the campaign's worker threads.

    The quadratic form goes through a complex Cholesky factorization and
    triangular solves (LAPACK zpotrf/zpotrs); a residual imaginary part above
    1e-12 (relative) aborts the trial. A close interferer can make the
    covariance so ill-conditioned that forming it squares away the digits
    that matter: when the factorization fails or (max/min |diag of the
    factor|)^2 exceeds CONDITION_LIMIT, the trial takes the QR route
    instead, which factors the (n+L) x L matrix [(G P^(1/2))^H; sigma I] =
    QR, so cov = R^H R and SINR = ||R^-H g_T||^2 r_T^-alpha without ever
    squaring the condition number. A covariance that is exactly singular
    (sigma2 = 0 with fewer interferers than antennas) raises
    ArithmeticError.
    """
    radii = np.asarray(radii, dtype=float)
    g_t = np.asarray(g_t)
    G = np.asarray(G)
    L = g_t.shape[0]
    if G.shape != (L, radii.size):
        raise ValueError(
            f"channel matrix shape {G.shape} does not match L={L}, n={radii.size}"
        )
    powers = radii ** (-link.alpha)
    cov = _interference_covariance(powers, G, link.sigma2)
    quad = _cholesky_quadratic_form(cov, g_t)
    if quad is None:
        quad = _qr_quadratic_form(powers, g_t, G, link.sigma2)
    return quad * link.r_T ** (-link.alpha)


def run_trial(sim: SimConfig, trial_index: int) -> TrialResult:
    """One deterministic trial, a pure function of (config, trial index)."""
    rng = trial_rng(sim.seed, trial_index)
    radii = draw_network(sim.model, sim.truncation_radius, rng)
    g_t, G = draw_channels(radii.size, sim.link.L, rng)
    sinr = mmse_sinr(radii, g_t, G, sim.link)
    return TrialResult(sinr=sinr, n_interferers=int(radii.size))


def run_trials(sim: SimConfig, workers: int = 1) -> list:
    """All trials of a campaign, in trial order, optionally threaded.

    Results are independent of the thread count: each trial owns its stream
    and the output list is assembled by trial index.
    """
    indices = range(sim.trials)
    if workers <= 1:
        return [run_trial(sim, t) for t in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: run_trial(sim, t), indices))


def run_campaign(sim: SimConfig, workers: int = 1) -> EmpiricalDistribution:
    """Run the campaign and collect the empirical SINR distribution."""
    results = run_trials(sim, workers)
    return EmpiricalDistribution(np.array([t.sinr for t in results]))


def default_truncation_radius(
    model: IntensityModel,
    alpha: float,
    gamma_max: float,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> float:
    """Simulation disk radius making the ignored interference negligible.

    Chooses R so the part of the interference functional beyond R, at the
    largest normalized SINR of interest, stays below tail_fraction of the
    total. Piecewise models return their exact support; Gaussian clusters use
    8v (the mass beyond is astronomically small); power laws solve the tail
    bound analytically; polynomial tails expand by doubling against the
    closed-form outer term.
    """
    if not alpha > 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    if not gamma_max > 0:
        raise ValueError(f"gamma_max must be > 0, got {gamma_max}")
    if not 0 < tail_fraction < 1:
        raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction}")

    if isinstance(model, PiecewisePowerLaw):
        return model.support_radius
    if isinstance(model, GaussianCluster):
        return GAUSSIAN_TRUNCATION_FACTOR * model.v
    if isinstance(model, PowerLaw):
        c = (2.0 + model.eps) / alpha
        # bound: psi tail beyond R <= 2 pi rho gamma R^(2+eps-alpha)/(alpha-2-eps),
        # compared against the closed-form total psi
        factor = (
            alpha
            * math.sin(math.pi * c)
            / (math.pi * tail_fraction * (alpha - 2.0 - model.eps))
        )
        return gamma_max ** (1.0 / alpha) * factor ** (1.0 / (alpha - 2.0 - model.eps))
    if isinstance(model, PolynomialWithTail):
        total = psi_polynomial(
            model.coeffs, model.R0, model.rho0, model.eps_tail, alpha, gamma_max
        )
        radius = max(model.R0, gamma_max ** (1.0 / alpha))
        for _ in range(200):
            tail = _outer_term(model.rho0, model.eps_tail, alpha, gamma_max, radius)
            if tail <= tail_fraction * total:
                return radius
            radius *= 2.0
        raise ValueError("failed to bound the polynomial tail; check parameters")
    raise TypeError(f"unsupported model type: {type(model).__name__}")
