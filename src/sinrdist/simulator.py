"""Monte-Carlo oracle: realize the network and channel model literally.

Each trial draws a Poisson number of interferers on a finite disk, gives every
node an i.i.d. complex Gaussian channel vector, and computes the output SINR
of the linear MMSE combiner. The resulting empirical distribution validates
the analytic CDF, which is exactly what the test suite uses it for.

Determinism contract: trial t draws all of its randomness from a counter-based
stream keyed by (seed, t), so a campaign is a pure function of its config and
is bit-identical no matter how its trials are split across worker processes.
"""

from __future__ import annotations

import concurrent.futures.process
import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import numpy.random  # loaded with the simulator, not by its first trial

from .distribution import LinkConfig, gamma_argument
from .intensity import (
    TWO_PI,
    ConfigError,
    DiskRegion,
    IntensityModel,
    _outer_term,
    mean_count,
)
from .interference import PsiEvaluator
from .specfun import poisson_pmf, regularized_lower_gamma, regularized_upper_gamma

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
    "budget_truncation_radius",
    "truncation_cdf_bound",
    "require_draw_fits",
]

_MASK64 = (1 << 64) - 1
# Default bound on the interference mass ignored by truncation: the tail of
# psi beyond the simulation radius stays below this fraction of the total.
DEFAULT_TAIL_FRACTION = 1e-3
# Share of the 95% Kolmogorov-Smirnov critical value, KS_CRITICAL_95 /
# sqrt(trials), that truncating the simulation disk may add to the CDF the
# campaign samples from.
TRUNCATION_KS_SHARE = 0.01
KS_CRITICAL_95 = 1.36
# Nodes per decade of the gamma grid on which the truncation error is bounded,
# and the Gamma(L) quantiles (q, 1 - q) of psi + sigma2*gamma the grid spans.
# The bound holds for every gamma > 0 whatever the grid; the grid only sets
# how tight it is.
TRUNCATION_GRID_PER_DECADE = 128
TRUNCATION_GRID_QUANTILE = 1e-12
# Radii the budget search spans, and the relative width at which its
# bisection stops.
TRUNCATION_RADIUS_RANGE = (1e-20, 1e20)
TRUNCATION_RADIUS_RTOL = 1e-3
# Largest number of interferers per block of the MMSE Gram, and OpenBLAS's
# multithreading threshold on m*n*k: blocks stay below it (see _gram_block),
# so the Gram's dgemms stay single-threaded inside each worker process.
GRAM_BLOCK = 256
BLAS_THREAD_THRESHOLD = 262_144
# Bound on LAPACK's estimate of the 1-norm condition number of the MMSE
# covariance above which the trial switches to the QR route.
CONDITION_LIMIT = 1e8
# Largest expected size, in bytes, of what one Poisson draw allocates: a mean
# count that asks for more is refused before anything is drawn. A campaign's
# per-trial matrices are held to it too, at TRIAL_MATRIX_BYTES per L^2: the
# real 2L x 2L Gram (32 L^2) and five complex L x L matrices on the Cholesky
# route (the covariance, its factor, the factor's inverse, its adjoint and
# their product, 16 L^2 each), which caps a campaign at L = 3096.
MAX_DRAW_BYTES = 2**30
TRIAL_MATRIX_BYTES = 32 + 5 * 16
# Contiguous chunks of trial indices per worker process: a few per worker even
# out uneven trial costs, and each chunk returns its results as two arrays.
CHUNKS_PER_WORKER = 4


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


class TrialResult(NamedTuple):
    """Output of one trial: the SINR and how many interferers were present."""

    sinr: float
    n_interferers: int


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
    """Independent counter-based stream for one trial of one campaign. The
    key words are uint64: numpy casts a Python int of 2^63 or more through
    float64, which would give distinct seeds one stream."""
    key = np.array([seed & _MASK64, trial_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_network(model: IntensityModel, R_sim: float, rng) -> np.ndarray:
    """Draw one network: Poisson count, then i.i.d. radii on the disk.

    Only the distances matter for the SINR (channels are isotropic), so no
    angles are drawn.
    """
    region = DiskRegion(R_sim)
    mu = mean_count(model, region)
    n = int(rng.poisson(mu)) if mu != 0.0 else 0
    return model.draw_radii(rng, n, region.radius) if n else np.empty(0)


def _draw_normals(n: int, L: int, rng):
    """g = [Re g_T; Im g_T] and S = [Re G; Im G] (2L x n), views of one draw
    of 2L(n+1) normals in stream order Re g_T, Im g_T, Re G, Im G (G
    row-major), scaled by 1/sqrt(2)."""
    z = rng.standard_normal(2 * L * (n + 1))
    z *= 1.0 / math.sqrt(2.0)
    return z[: 2 * L], z[2 * L :].reshape(2 * L, n)


def _complex(stacked):
    """re + i im from [re; im] stacked along the first axis."""
    re, im = np.split(stacked, 2)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def draw_channels(n: int, L: int, rng):
    """Channel vectors: target g_T (length L) and interferer matrix G (L x n).

    Entries are i.i.d. circularly symmetric complex Gaussian with unit
    variance per complex entry, from the draw run_trial makes (_draw_normals).
    """
    if not L >= 1:
        raise ValueError(f"antenna count L must be >= 1, got {L}")
    if not n >= 0:
        raise ValueError(f"interferer count must be >= 0, got {n}")
    g, S = _draw_normals(n, L, rng)
    return _complex(g), _complex(S)


def _gram_block(L: int) -> int:
    """Interferers per Gram block at L antennas: min(GRAM_BLOCK, 262144 // 4L^2).

    A 2L x 2L x block dgemm then stays at or below OpenBLAS's threading
    threshold; the block is GRAM_BLOCK for every L <= 16.
    """
    return max(1, min(GRAM_BLOCK, BLAS_THREAD_THRESHOLD // (4 * L * L)))


def _interference_covariance(powers, S, sigma2: float) -> np.ndarray:
    """G P G^H + sigma2 I from the real Gram of S = [Re G; Im G] by column blocks."""
    L = S.shape[0] // 2
    M = np.zeros((2 * L, 2 * L))
    block = _gram_block(L)
    for start in range(0, S.shape[1], block):
        cols = S[:, start : start + block]
        M += (cols * powers[start : start + block]) @ cols.T
    # with M = S P S^T, G P G^H = (M_rr + M_ii) + i (M_ir - M_ri)
    cov = np.empty((L, L), dtype=complex)
    np.add(M[:L, :L], M[L:, L:], out=cov.real)
    np.subtract(M[L:, :L], M[:L, L:], out=cov.imag)
    cov.flat[:: L + 1] += sigma2
    return cov


def _cholesky_quadratic_form(cov, g):
    """g^H cov^{-1} g by Cholesky, or None when cov is too ill-conditioned."""
    try:
        inverse = np.linalg.inv(np.linalg.cholesky(cov))
    except np.linalg.LinAlgError:
        return None
    # cov^{-1} = F^-H F^-1 gives the exact 1-norm condition number
    adjoint = inverse.conj().T
    if not np.linalg.norm(cov, 1) * np.linalg.norm(adjoint @ inverse, 1) <= CONDITION_LIMIT:
        return None
    quad = complex(np.vdot(g, adjoint @ (inverse @ g)))
    if abs(quad.imag) > 1e-12 * max(1.0, abs(quad.real)):
        raise ArithmeticError(
            f"MMSE quadratic form has non-negligible imaginary part: {quad!r}"
        )
    return quad.real


def _qr_quadratic_form(powers, g, S, sigma2: float) -> float:
    """g^H cov^{-1} g from the QR factor of [(G P^(1/2))^H; sigma I]."""
    L = g.size
    # strongest interferers first, which sorts the rows by norm up to the
    # O(1) spread of |g_i|: Householder QR on rows sorted by decreasing norm
    # is row-wise backward stable (Cox and Higham, 1998)
    order = np.argsort(powers)[::-1]
    rows = (_complex(S[:, order]) * np.sqrt(powers[order])).conj().T
    A = np.vstack((rows, math.sqrt(sigma2) * np.eye(L)))
    # factor the rows a block at a time beneath the R of the rows before
    # them: the same R up to the phases of its rows. The block is the
    # Gram's, _gram_block(L), up to L = 40; from there on that is fewer than
    # L rows (one from L = 182), so the block is L rows, which bounds the
    # QR count by ceil((n + L) / L) where the Gram's would take up to n + L
    R = A[:0]
    step = max(_gram_block(L), L)
    for start in range(0, A.shape[0], step):
        R = np.linalg.qr(np.vstack((R, A[start : start + step])), mode="r")
    if not np.all(np.diag(R) != 0.0):
        raise ArithmeticError(
            "interference covariance is singular (no noise and fewer "
            "interferers than antennas): the MMSE SINR is unbounded"
        )
    y = np.linalg.solve(R.conj().T, g)
    return float(np.vdot(y, y).real)


def _sinr(radii, g, S, link: LinkConfig) -> float:
    """mmse_sinr of g_T = g (complex) and G = S_re + i S_im, S = [S_re; S_im]."""
    powers = radii ** (-link.alpha)
    quad = _cholesky_quadratic_form(_interference_covariance(powers, S, link.sigma2), g)
    if quad is None:
        quad = _qr_quadratic_form(powers, g, S, link.sigma2)
    return quad * link.r_T ** (-link.alpha)


def mmse_sinr(radii, g_t, G, link: LinkConfig) -> float:
    """Output SINR of the MMSE combiner for one network and channel draw.

    Computes r_T^-alpha * g_T^H (G P G^H + sigma2 I)^{-1} g_T with
    P = diag(r_i^-alpha). The L x L covariance comes from the real Gram
    S P S^T of S = [Re G; Im G] (2L x n), accumulated over column blocks of
    _gram_block(L): thousands of interferers cost O(n L^2), and no dgemm is
    large enough to start BLAS threads inside a campaign's worker processes.

    The quadratic form is g_T^H F^-H F^-1 g_T, F the Cholesky factor of the
    covariance; an imaginary part above 1e-12 (relative) aborts the trial. A
    close interferer can make the covariance so ill-conditioned that forming
    it squares away the digits that matter: when the factorization fails or
    the exact 1-norm condition number (from F^-1) exceeds CONDITION_LIMIT,
    the trial factors the (n+L) x L matrix [(G P^(1/2))^H; sigma I] = QR
    instead, so cov = R^H R and SINR = ||R^-H g_T||^2 r_T^-alpha without
    squaring the condition number. An exactly singular covariance (sigma2 = 0
    with fewer interferers than antennas) raises ArithmeticError.
    """
    radii = np.asarray(radii, dtype=float)
    g_t = np.asarray(g_t)
    G = np.asarray(G)
    if G.shape != (g_t.shape[0], radii.size):
        raise ValueError(
            f"channel matrix shape {G.shape} does not match L={g_t.shape[0]}, n={radii.size}"
        )
    return _sinr(radii, g_t, np.vstack((G.real, G.imag)), link)


def run_trial(sim: SimConfig, trial_index: int) -> TrialResult:
    """One deterministic trial, a pure function of (config, trial index): bit
    for bit the mmse_sinr of draw_network and draw_channels on the trial's
    stream, computed on the real block the channels are drawn in."""
    rng = trial_rng(sim.seed, trial_index)
    radii = draw_network(sim.model, sim.truncation_radius, rng)
    g, S = _draw_normals(radii.size, sim.link.L, rng)
    return TrialResult(sinr=_sinr(radii, _complex(g), S, sim.link), n_interferers=radii.size)


def _run_chunk(sim: SimConfig, start: int, stop: int):
    """SINRs (float64) and interferer counts (int) of trials start..stop-1."""
    sinr = np.empty(stop - start)
    counts = np.empty(stop - start, dtype=int)
    for i in range(stop - start):
        sinr[i], counts[i] = run_trial(sim, start + i)
    return sinr, counts


def _run_pool(sim: SimConfig, workers: int):
    """The campaign as two arrays, in trial order, from forked worker processes.

    Returns None where the platform cannot fork. Forked workers inherit the
    imported package and any cached sampler table, so they import nothing again
    (a spawned worker would import numpy and the package anew). Like any fork,
    this is unsafe in a process that runs other threads at the time.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    chunks = min(sim.trials, workers * CHUNKS_PER_WORKER)
    bounds = [sim.trials * k // chunks for k in range(chunks + 1)]
    context = multiprocessing.get_context("fork")
    process = concurrent.futures.process
    try:
        with process.ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            parts = list(pool.map(_run_chunk, [sim] * chunks, bounds[:-1], bounds[1:]))
    except process.BrokenProcessPool as exc:
        raise ChildProcessError(f"a campaign worker process died: {exc}") from exc
    return tuple(np.concatenate(column) for column in zip(*parts))


def require_draw_fits(mean: float, bytes_per_point: int) -> None:
    """Raise ConfigError unless a Poisson draw of this mean, at
    bytes_per_point, is expected to fit in MAX_DRAW_BYTES."""
    if not mean * bytes_per_point <= MAX_DRAW_BYTES:
        raise ConfigError(
            f"a Poisson mean of {mean:.6g} points needs {mean * bytes_per_point:.3g} B "
            f"per draw, over the {MAX_DRAW_BYTES} B limit"
        )


def _run_arrays(sim: SimConfig, workers: int):
    """SINRs and interferer counts of every trial, in trial order."""
    L = sim.link.L
    if not TRIAL_MATRIX_BYTES * L * L <= MAX_DRAW_BYTES:
        raise ConfigError(
            f"L = {L} antennas need {TRIAL_MATRIX_BYTES * L * L:.3g} B of matrices per trial, "
            f"over the {MAX_DRAW_BYTES} B limit"
        )
    # 2L doubles of normals per interferer, and complex copies on the QR route
    require_draw_fits(mean_count(sim.model, DiskRegion(sim.truncation_radius)), 32 * L)
    workers = min(workers, os.cpu_count() or 1, sim.trials)
    arrays = _run_pool(sim, workers) if workers > 1 else None
    sinr, counts = arrays if arrays is not None else _run_chunk(sim, 0, sim.trials)
    bad = np.flatnonzero(~(sinr > 0))
    if bad.size:
        raise ValueError(f"sinr must be > 0, got {sinr[bad[0]]} in trial {bad[0]}")
    return sinr, counts


def run_trials(sim: SimConfig, workers: int = 1) -> list:
    """All trials of a campaign, in trial order.

    With workers > 1 the trials run in contiguous chunks on a pool of forked
    worker processes, at most os.cpu_count() of them; where the platform
    cannot fork they run in this process. Results do not depend on the worker
    count: each trial owns its stream and the chunks are joined in trial order.
    """
    sinr, counts = _run_arrays(sim, workers)
    return [TrialResult(s, n) for s, n in zip(sinr.tolist(), counts.tolist())]


def run_campaign(sim: SimConfig, workers: int = 1) -> EmpiricalDistribution:
    """Run the campaign and collect the empirical SINR distribution."""
    return EmpiricalDistribution(_run_arrays(sim, workers)[0])


def _truncation_data(model: IntensityModel):
    """The model's fixed truncation radius and its algebraic tail (rho, eps,
    r0), one of them None; TypeError for anything that is not a model."""
    if not isinstance(model, IntensityModel):
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    return model.fixed_truncation_radius, model.algebraic_tail


def default_truncation_radius(
    model: IntensityModel,
    alpha: float,
    gamma_max: float,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> float:
    """Simulation disk radius making the ignored interference negligible.

    Chooses R so the part of the interference functional beyond R, at the
    largest normalized SINR of interest, stays below tail_fraction of the
    total. A model's fixed_truncation_radius wins (piecewise models: their
    exact support; Gaussian clusters: 8v, the mass beyond is astronomically
    small); an algebraic tail (power law from the origin, polynomial tail
    from r0 > 0) solves a bound on the tail in closed form, and never
    returns less than r0. The CLI sizes its campaigns with
    budget_truncation_radius instead.
    """
    if not alpha > 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    if not gamma_max > 0:
        raise ValueError(f"gamma_max must be > 0, got {gamma_max}")
    if not 0 < tail_fraction < 1:
        raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction}")

    fixed, tail = _truncation_data(model)
    if fixed is not None:
        return fixed
    rho, eps, r0 = tail
    # the psi tail beyond R is at most 2 pi rho gamma R^(2+eps-alpha)/(alpha-2-eps),
    # since the kernel is below gamma r^-alpha; R holds that to tail_fraction of
    # the total psi, closed form from the origin, the model's own beyond r0
    k = alpha - 2.0 - eps
    if r0 == 0.0:
        c = (2.0 + eps) / alpha
        factor = alpha * math.sin(math.pi * c) / (math.pi * tail_fraction * k)
        return gamma_max ** (1.0 / alpha) * factor ** (1.0 / k)
    total = model.psi_closed_form(alpha, gamma_max)
    return max(r0, (TWO_PI * rho * gamma_max / (k * tail_fraction * total)) ** (1.0 / k))


def _gamma_density_peak(L: int, lo, hi):
    """Largest Gamma(L, 1) density on [lo, hi]; the density peaks at L - 1."""
    return poisson_pmf(L - 1, np.clip(L - 1.0, lo, hi))


def _quantile_decades(L: int, x_dec):
    """Indices of the last x_dec (nondecreasing) at or below the q quantile
    of Gamma(L) and of the first at or above its 1 - q quantile, q =
    TRUNCATION_GRID_QUANTILE, by counting: #{P(L, x) <= q} - 1, #{Q(L, x) > q}."""
    q = TRUNCATION_GRID_QUANTILE
    lo = np.count_nonzero(regularized_lower_gamma(L, x_dec) <= q) - 1
    hi = np.count_nonzero(regularized_upper_gamma(L, x_dec) > q)
    return max(lo, 0), min(hi, x_dec.size - 1)


def _truncation_error_bound(model: IntensityModel, link: LinkConfig):
    """R -> an upper bound on sup over gamma > 0 of P(L, x) - P(L, x_R).

    For a model with an algebraic tail (see truncation_cdf_bound). psi is
    evaluated once, on a log grid gamma_0 < ... < gamma_N between the decades
    whose x = psi + sigma2*gamma brackets the TRUNCATION_GRID_QUANTILE tails
    of Gamma(L) (_quantile_decades); each call then costs one closed-form
    tail Delta_R and one density call on the grid. Between two nodes, x and
    x_R = x - Delta_R rise with gamma and Delta_R does too, so the error
    P(L, x) - P(L, x_R) there is at most Delta_R(gamma_{i+1}) times the peak of
    the Gamma(L) density on [x_R(gamma_i), x(gamma_{i+1})], with x_R(gamma_-1)
    = 0 below gamma_0; above gamma_N the error is at most Q(L, x_R(gamma_N)).
    The bound falls as R grows.
    """
    rho, eps, r0 = model.algebraic_tail
    L, alpha = link.L, link.alpha
    evaluator = PsiEvaluator(model, alpha)

    # the decades that bracket the two quantiles of x, within 10^(+-60); an
    # x that overflows lies above the top quantile, as an infinite one does
    decades = 10.0 ** np.arange(-60.0, 61.0)
    with np.errstate(over="ignore"):
        x_dec = evaluator.value(decades) + link.sigma2 * decades
    lo, hi = _quantile_decades(L, x_dec)
    gamma = np.geomspace(decades[lo], decades[hi], TRUNCATION_GRID_PER_DECADE * (hi - lo) + 1)
    x = gamma_argument(evaluator.value, link.sigma2, gamma)

    def bound(radius: float) -> float:
        delta = model.beta * _outer_term(rho, eps, alpha, gamma, max(radius, r0))
        if radius < r0:
            # the polynomial part on (radius, r0]: the kernel is below 1
            delta += model.cumulative_count(r0) - model.cumulative_count(radius)
        x_r = np.maximum(x - delta, 0.0)
        gaps = delta * _gamma_density_peak(L, np.r_[0.0, x_r[:-1]], x)
        top = regularized_upper_gamma(L, x_r[-1])
        return float(max(gaps.max(), top))

    return bound


def truncation_cdf_bound(model: IntensityModel, link: LinkConfig, radius: float) -> float:
    """Bound on the largest CDF error that truncating the disk at radius leaves.

    The analytic CDF is F(gamma) = P(L, x) with x = psi(gamma) + sigma2*gamma
    for any intensity, the one cut off at radius included, so a campaign on
    the disk samples exactly P(L, x_R) with x_R = x - Delta_R, Delta_R being
    the part of psi from beyond radius. This returns an upper bound on
    sup over gamma > 0 of F - P(L, x_R): for algebraic tails from the exact
    closed-form Delta_R on a log grid in gamma (see _truncation_error_bound);
    for the other families the kernel is below 1, so Delta_R is at most the
    mean count beyond radius and the bound is that count times the peak of
    the Gamma(L) density (0.0 for a piecewise model cut at its support).
    A bound above 1 says nothing, and is reported as 1.
    """
    if model.algebraic_tail is not None:
        bound = _truncation_error_bound(model, link)(radius)
    else:
        bound = model.count_beyond(radius) * _gamma_density_peak(link.L, 0.0, math.inf)
    return min(bound, 1.0)


def budget_truncation_radius(model: IntensityModel, link: LinkConfig, trials: int) -> float:
    """Simulation disk radius sized by an error budget on the sampled CDF.

    Algebraic-tail families (power law, polynomial with tail) take the
    smallest R >= r0 (0 for the power law, R0 for the polynomial) at which
    truncation_cdf_bound stays within TRUNCATION_KS_SHARE * 1.36 /
    sqrt(trials), a hundredth of the 95% Kolmogorov-Smirnov critical value
    of the campaign; the search bisects in log R over
    TRUNCATION_RADIUS_RANGE down to a relative TRUNCATION_RADIUS_RTOL.
    Piecewise models keep their exact support and Gaussian clusters 8v, as
    in default_truncation_radius.
    """
    if not trials >= 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    fixed, tail = _truncation_data(model)
    if fixed is not None:
        return fixed
    r0 = tail[2]
    budget = TRUNCATION_KS_SHARE * KS_CRITICAL_95 / math.sqrt(trials)
    bound = _truncation_error_bound(model, link)

    def fits(radius):
        return bound(radius) <= budget

    # bisection in log R between the smallest and the largest radius searched
    lo, hi = max(r0, TRUNCATION_RADIUS_RANGE[0]), TRUNCATION_RADIUS_RANGE[1]
    if fits(lo):
        return lo
    if not fits(hi):
        raise ArithmeticError("truncation error never falls within its budget")
    while hi > lo * (1.0 + TRUNCATION_RADIUS_RTOL):
        mid = math.sqrt(lo * hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi
