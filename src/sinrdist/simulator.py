"""Monte-Carlo oracle: realize the network and channel model literally.

Each trial draws a Poisson number of interferers on a finite disk, gives every
node an i.i.d. complex Gaussian channel vector, and computes the output SINR
of the linear MMSE combiner. The resulting empirical distribution validates
the analytic CDF, which is exactly what the test suite uses it for.

Determinism contract: trial t draws all of its randomness from a counter-based
stream keyed by (seed, t), so a campaign is a pure function of its config and
is bit-identical no matter how its trials are split across worker processes.

A campaign runs in chunks of consecutive trials (_run_chunk), which take the
Poisson mean once, re-key one generator to each trial's stream and factor
their trials' covariances a batch at a time, in one stacked Cholesky pass
(_cholesky_quadratic_forms); run_trial and mmse_sinr take the same pass with
a stack of one, so a trial's SINR does not depend on the batch it lands in.
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

from .distribution import LinkConfig, _psi_inverse
from .intensity import TWO_PI, ConfigError, DiskRegion, IntensityModel, mean_count
from .interference import PsiEvaluator

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
    "campaign_truncation_radius",
    "require_draw_fits",
]

_MASK64 = (1 << 64) - 1
# Default bound on the interference mass ignored by truncation: the tail of
# psi beyond the simulation radius stays below this fraction of the total.
DEFAULT_TAIL_FRACTION = 1e-3
# The disk a campaign samples (campaign_truncation_radius): the share of psi
# it may leave out at gamma*, and the bound on P(N <= L - 1), N ~ Poisson of
# mean psi(gamma*), that fixes gamma*.
CAMPAIGN_TAIL_FRACTION = 0.01
CAMPAIGN_COUNT_TAIL = 1e-4
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
# real 2L x 2L Gram (32 L^2) and the five complex L x L matrices each trial
# keeps in its batch's stacks (the covariance, its Cholesky factor, the
# factor's inverse, its adjoint and their product, 16 L^2 each), which caps
# a campaign at L = 3096. A batch takes as many trials as fit in
# BATCH_MATRIX_BYTES, and at least one (see _batch_size), so its matrices fit
# in MAX_DRAW_BYTES at every L a campaign accepts.
MAX_DRAW_BYTES = 2**30
TRIAL_MATRIX_BYTES = 32 + 5 * 16
BATCH_MATRIX_BYTES = 2**20
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


def _draw_radii(model: IntensityModel, mean: float, radius: float, rng) -> np.ndarray:
    """A Poisson count of the given mean, then that many i.i.d. radii on the disk."""
    n = int(rng.poisson(mean)) if mean != 0.0 else 0
    return model.draw_radii(rng, n, radius) if n else np.empty(0)


def draw_network(model: IntensityModel, R_sim: float, rng) -> np.ndarray:
    """Draw one network: Poisson count, then i.i.d. radii on the disk.

    Only the distances matter for the SINR (channels are isotropic), so no
    angles are drawn.
    """
    region = DiskRegion(R_sim)
    return _draw_radii(model, mean_count(model, region), region.radius, rng)


def _draw_normals(n: int, L: int, rng):
    """g = [Re g_T; Im g_T] and S = [Re G; Im G] (2L x n), views of one draw
    of 2L(n+1) normals in stream order Re g_T, Im g_T, Re G, Im G (G
    row-major), scaled by 1/sqrt(2)."""
    z = rng.standard_normal(2 * L * (n + 1))
    z *= 1.0 / math.sqrt(2.0)
    return z[: 2 * L], z[2 * L :].reshape(2 * L, n)


def _complex(stacked, out=None):
    """re + i im from [re; im] stacked along the first axis, into out if given."""
    half = len(stacked) // 2
    re, im = stacked[:half], stacked[half:]
    if out is None:
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


def _interference_covariance(powers, S, sigma2: float, out=None) -> np.ndarray:
    """G P G^H + sigma2 I from the real Gram of S = [Re G; Im G] by column
    blocks, into out (L x L complex) if given."""
    L = S.shape[0] // 2
    M = np.zeros((2 * L, 2 * L))
    block = _gram_block(L)
    for start in range(0, S.shape[1], block):
        cols = S[:, start : start + block]
        M += (cols * powers[start : start + block]) @ cols.T
    # with M = S P S^T, G P G^H = (M_rr + M_ii) + i (M_ir - M_ri)
    cov = np.empty((L, L), dtype=complex) if out is None else out
    np.add(M[:L, :L], M[L:, L:], out=cov.real)
    np.subtract(M[L:, :L], M[:L, L:], out=cov.imag)
    cov.flat[:: L + 1] += sigma2
    return cov


def _cholesky_quadratic_forms(cov, g):
    """g_k^H cov_k^{-1} g_k for a stack of covariances cov (B x L x L) and
    vectors g (B x L), by one stacked Cholesky pass, and a mask of the trials
    the pass accepts: those whose factorization succeeds and whose exact
    1-norm condition number is at most CONDITION_LIMIT. A stacked
    factorization fails as a whole when one matrix fails, and the stack is
    then factored a matrix at a time. Forms the pass rejects are 0."""
    try:
        inverse = np.linalg.inv(np.linalg.cholesky(cov))
    except np.linalg.LinAlgError:
        if len(cov) == 1:
            return np.zeros(1, dtype=complex), np.zeros(1, dtype=bool)
        parts = [_cholesky_quadratic_forms(cov[k : k + 1], g[k : k + 1]) for k in range(len(cov))]
        return tuple(np.concatenate(column) for column in zip(*parts))
    # cov^{-1} = F^-H F^-1 gives the exact 1-norm condition number
    adjoint = inverse.conj().swapaxes(-1, -2)
    condition = np.linalg.norm(cov, 1, axis=(-2, -1)) * np.linalg.norm(
        adjoint @ inverse, 1, axis=(-2, -1)
    )
    accepted = condition <= CONDITION_LIMIT
    y = adjoint @ (inverse @ g[..., None])
    quad = (g.conj()[..., None, :] @ y)[:, 0, 0]
    return np.where(accepted, quad, 0.0), accepted


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


def _sinrs(cov, g, link: LinkConfig, redraw) -> np.ndarray:
    """SINRs of a stack of trials from their covariances and target channels:
    the stacked Cholesky pass, then, in trial order, the QR route for each
    trial the pass rejects, on the powers, g_T and S that redraw(k) gives for
    trial k of the stack."""
    quad, accepted = _cholesky_quadratic_forms(cov, g)
    out = quad.real.copy()
    imaginary = np.abs(quad.imag) > 1e-12 * np.maximum(1.0, np.abs(quad.real))
    for k in np.flatnonzero(~accepted | imaginary):
        if accepted[k]:
            raise ArithmeticError(
                f"MMSE quadratic form has non-negligible imaginary part: {complex(quad[k])!r}"
            )
        out[k] = _qr_quadratic_form(*redraw(k), link.sigma2)
    return out * link.r_T ** (-link.alpha)


def mmse_sinr(radii, g_t, G, link: LinkConfig) -> float:
    """Output SINR of the MMSE combiner for one network and channel draw.

    Computes r_T^-alpha * g_T^H (G P G^H + sigma2 I)^{-1} g_T with
    P = diag(r_i^-alpha). The L x L covariance comes from the real Gram
    S P S^T of S = [Re G; Im G] (2L x n), accumulated over column blocks of
    _gram_block(L): thousands of interferers cost O(n L^2), and no dgemm is
    large enough to start BLAS threads inside a campaign's worker processes.

    The quadratic form is g_T^H F^-H F^-1 g_T, F the Cholesky factor of the
    covariance, from the stacked pass a campaign factors its batches in, on a
    stack of one (_cholesky_quadratic_forms), so the SINR is bit for bit the
    one a campaign gets for the same draws; an imaginary part above 1e-12
    (relative) aborts the trial. A close interferer can make the covariance
    so ill-conditioned that forming it squares away the digits that matter:
    when the factorization fails or the exact 1-norm condition number (from
    F^-1) exceeds CONDITION_LIMIT, the trial factors the (n+L) x L matrix
    [(G P^(1/2))^H; sigma I] = QR instead, so cov = R^H R and SINR = ||R^-H g_T||^2 r_T^-alpha without
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
    powers = radii ** (-link.alpha)
    S = np.vstack((G.real, G.imag))
    cov = _interference_covariance(powers, S, link.sigma2)
    return float(_sinrs(cov[None], g_t[None], link, lambda k: (powers, g_t, S))[0])


def run_trial(sim: SimConfig, trial_index: int) -> TrialResult:
    """One deterministic trial, a pure function of (config, trial index): bit
    for bit the mmse_sinr of draw_network and draw_channels on the trial's
    stream, and the trial a campaign runs (a chunk of one)."""
    sinr, counts = _run_chunk(sim, trial_index, trial_index + 1)
    return TrialResult(sinr=float(sinr[0]), n_interferers=int(counts[0]))


def _draw_trial(sim: SimConfig, trial_index: int, mean: float, rng):
    """Radii and normals g, S (see _draw_normals) of one trial, drawn as
    draw_network and _draw_normals draw them on trial_rng(sim.seed,
    trial_index), by rng (a Philox generator) re-keyed to that stream, with
    the disk's Poisson mean given. Re-keying through the state setter is
    several times cheaper than building a generator for each trial."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([sim.seed & _MASK64, trial_index & _MASK64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    radii = _draw_radii(sim.model, mean, sim.truncation_radius, rng)
    return (radii, *_draw_normals(radii.size, sim.link.L, rng))


def _batch_size(L: int) -> int:
    """Trials per stacked factor pass at L antennas: as many as fit in
    BATCH_MATRIX_BYTES at TRIAL_MATRIX_BYTES per L^2, and at least one (93 at
    L = 10, one from L = 69 on)."""
    return max(1, BATCH_MATRIX_BYTES // (TRIAL_MATRIX_BYTES * L * L))


def _run_chunk(sim: SimConfig, start: int, stop: int):
    """SINRs (float64) and interferer counts (int) of trials start..stop-1.

    The disk's Poisson mean is taken once and one generator is re-keyed to
    each trial's stream (_draw_trial). Each batch of _batch_size(L) trials
    writes its covariances and target channels into stacks that one Cholesky
    pass factors (_sinrs); a trial the pass rejects is drawn again from its
    own stream for the QR route.
    """
    link, L = sim.link, sim.link.L
    mean = mean_count(sim.model, DiskRegion(sim.truncation_radius))
    rng = np.random.Generator(np.random.Philox(0))
    sinr = np.empty(stop - start)
    counts = np.empty(stop - start, dtype=int)
    batch = _batch_size(L)
    for first in range(start, stop, batch):
        trials = range(first, min(first + batch, stop))
        cov = np.empty((len(trials), L, L), dtype=complex)
        g = np.empty((len(trials), L), dtype=complex)
        for k, t in enumerate(trials):
            radii, g_k, S = _draw_trial(sim, t, mean, rng)
            counts[t - start] = radii.size
            _complex(g_k, out=g[k])
            _interference_covariance(radii ** (-link.alpha), S, link.sigma2, out=cov[k])

        def redraw(k):
            radii, g_k, S = _draw_trial(sim, trials[k], mean, rng)
            return radii ** (-link.alpha), _complex(g_k), S

        sinr[first - start : trials.stop - start] = _sinrs(cov, g, link, redraw)
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
    returns less than r0. The CLI sizes its campaigns with it, at the
    gamma campaign_truncation_radius picks.
    """
    if not alpha > 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    if not gamma_max > 0:
        raise ValueError(f"gamma_max must be > 0, got {gamma_max}")
    if not 0 < tail_fraction < 1:
        raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction}")

    if not isinstance(model, IntensityModel):
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    if model.fixed_truncation_radius is not None:
        return model.fixed_truncation_radius
    rho, eps, r0 = model.algebraic_tail
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


def campaign_truncation_radius(model: IntensityModel, link: LinkConfig) -> float:
    """The disk a campaign samples, sized from the model and the link alone.

    A model's fixed_truncation_radius wins (piecewise: its support; Gaussian
    cluster: 8v). An algebraic tail takes default_truncation_radius at the
    gamma* where psi reaches x* = L + l + sqrt(l^2 + 2 L l), l =
    -log(CAMPAIGN_COUNT_TAIL) (by _psi_inverse), so the disk holds 99% of
    psi(gamma*) = x*. A Poisson count N of mean x >= L has P(N <= L - 1) <=
    exp(-(x - L)^2 / 2x), which is CAMPAIGN_COUNT_TAIL at x*: few trials draw
    fewer interferers than antennas, a singular covariance at sigma2 = 0.
    """
    if model.fixed_truncation_radius is not None:
        return model.fixed_truncation_radius
    ell = -math.log(CAMPAIGN_COUNT_TAIL)
    x = link.L + ell + math.sqrt(ell * ell + 2.0 * link.L * ell)
    gamma = _psi_inverse(PsiEvaluator(model, link.alpha), x, "the disk count x*")
    return default_truncation_radius(model, link.alpha, gamma, CAMPAIGN_TAIL_FRACTION)
