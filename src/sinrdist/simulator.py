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
The pass and the QR route a trial takes when the pass rejects it both end in
a squared norm of a triangular solve, ||F^-1 g_T||^2 or ||R^-H g_T||^2.

Every campaign splits its trials into `workers` contiguous shares
(_run_pool) of one TRIAL_RECORD in shared memory: the calling process fills
the first share's rows, and workers - 1 forked children fill the rest in
place, each sending an exception through its pipe only if its share raises;
each first moves itself to its own allowed CPU and releases the pin at once.
A campaign runs on at most min(workers, allowed CPUs, trials) processes, the
caller included, and on the caller alone where the platform cannot fork.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import numpy.random  # loaded with the simulator, not by its first trial

from .distribution import BracketingError, LinkConfig, _psi_inverse
from .intensity import TWO_PI, ConfigError, DiskRegion, IntensityModel, _psi_sum, mean_count
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
# What a campaign knows of each trial, in one array every process fills in
# place: its SINR, its interferer count and whether it took the QR route.
TRIAL_RECORD = np.dtype([("sinr", float), ("count", int), ("qr", bool)])
# Sorted samples per call of ks_distance's reference CDF.
KS_BLOCK = 2**16


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
        if not (math.isfinite(self.truncation_radius) and self.truncation_radius > 0):
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

        analytic_cdf is called on blocks of at most KS_BLOCK sorted samples,
        so it must be elementwise: the CDF at each sample of the block.
        Checks both i/n and (i-1)/n against F at each order statistic, which
        is where the sup of |ECDF - F| is attained.
        """
        n = self.samples.size
        gap = 0.0
        for start in range(0, n, KS_BLOCK):
            block = self.samples[start : start + KS_BLOCK]
            ref = np.asarray(analytic_cdf(block), dtype=float)
            steps = np.arange(start + 1, start + block.size + 1) / n
            gap = np.maximum(gap, np.max(np.maximum(steps - ref, ref - (steps - 1.0 / n))))
        return float(gap)


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
    """g_k^H cov_k^{-1} g_k = ||F_k^-1 g_k||^2 (float64, >= 0), F_k the
    Cholesky factor of cov_k, for a stack of covariances cov (B x L x L) and
    vectors g (B x L), by one stacked Cholesky pass, and a mask of the trials
    the pass accepts: those whose factorization succeeds and whose exact
    1-norm condition number is at most CONDITION_LIMIT. A stacked
    factorization fails as a whole when one matrix fails, and the stack is
    then factored a matrix at a time. Forms the pass rejects are 0."""
    try:
        inverse = np.linalg.inv(np.linalg.cholesky(cov))
    except np.linalg.LinAlgError:
        if len(cov) == 1:
            return np.zeros(1), np.zeros(1, dtype=bool)
        parts = [_cholesky_quadratic_forms(cov[k : k + 1], g[k : k + 1]) for k in range(len(cov))]
        return tuple(np.concatenate(column) for column in zip(*parts))
    # cov^{-1} = F^-H F^-1 gives the exact 1-norm condition number
    adjoint = inverse.conj().swapaxes(-1, -2)
    condition = np.linalg.norm(cov, 1, axis=(-2, -1)) * np.linalg.norm(
        adjoint @ inverse, 1, axis=(-2, -1)
    )
    accepted = condition <= CONDITION_LIMIT
    z = (inverse @ g[..., None])[..., 0]
    quad = np.sum(z.real**2 + z.imag**2, axis=-1)
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


def _sinrs(cov, g, link: LinkConfig, redraw):
    """SINRs of a stack of trials from their covariances and target channels:
    ||F^-1 g_T||^2 of the stacked Cholesky pass, then, in trial order, the QR
    route's ||R^-H g_T||^2 for each trial the pass rejects, on the powers, g_T
    and S that redraw(k) gives for trial k, both times r_T^-alpha; and the
    mask of the trials that took the QR route."""
    quad, accepted = _cholesky_quadratic_forms(cov, g)
    for k in np.flatnonzero(~accepted):
        quad[k] = _qr_quadratic_form(*redraw(k), link.sigma2)
    return quad * link.r_T ** (-link.alpha), ~accepted


def mmse_sinr(radii, g_t, G, link: LinkConfig) -> float:
    """Output SINR of the MMSE combiner for one network and channel draw.

    Computes r_T^-alpha * g_T^H (G P G^H + sigma2 I)^{-1} g_T with
    P = diag(r_i^-alpha). The L x L covariance comes from the real Gram
    S P S^T of S = [Re G; Im G] (2L x n), accumulated over column blocks of
    _gram_block(L): thousands of interferers cost O(n L^2), and no dgemm is
    large enough to start BLAS threads inside a campaign's worker processes.

    The quadratic form is the squared norm ||F^-1 g_T||^2, F the Cholesky
    factor of the covariance, real and >= 0 by construction, from the stacked
    pass a campaign factors its batches in, on a stack of one
    (_cholesky_quadratic_forms), so the SINR is bit for bit the one a
    campaign gets for the same draws. A close interferer can make the
    covariance so ill-conditioned that forming it squares away the digits
    that matter: when the factorization fails or the exact 1-norm condition
    number (from F^-1) exceeds CONDITION_LIMIT, the trial factors the
    (n+L) x L matrix [(G P^(1/2))^H; sigma I] = QR instead, so cov = R^H R
    and SINR = ||R^-H g_T||^2 r_T^-alpha without squaring the condition
    number. An exactly singular covariance (sigma2 = 0 with fewer
    interferers than antennas) raises ArithmeticError.
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
    return float(_sinrs(cov[None], g_t[None], link, lambda k: (powers, g_t, S))[0][0])


def run_trial(sim: SimConfig, trial_index: int) -> TrialResult:
    """One deterministic trial, a pure function of (config, trial index): bit
    for bit the mmse_sinr of draw_network and draw_channels on the trial's
    stream, and the trial a campaign runs (a chunk of one)."""
    record = np.empty(1, TRIAL_RECORD)
    _run_chunk(sim, trial_index, trial_index + 1, record)
    return TrialResult(sinr=float(record["sinr"][0]), n_interferers=int(record["count"][0]))


def _draw_trial(sim: SimConfig, trial_index: int, mean: float, rng):
    """Powers r_i^-alpha and normals g, S (see _draw_normals) of one trial:
    the radii and normals as draw_network and _draw_normals draw them on
    trial_rng(sim.seed, trial_index), by rng (a Philox generator) re-keyed to
    that stream, with the disk's Poisson mean given. Re-keying through the
    state setter is several times cheaper than building a generator for each
    trial."""
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
    return (radii ** (-sim.link.alpha), *_draw_normals(radii.size, sim.link.L, rng))


def _batch_size(L: int) -> int:
    """Trials per stacked factor pass at L antennas: as many as fit in
    BATCH_MATRIX_BYTES at TRIAL_MATRIX_BYTES per L^2, and at least one (93 at
    L = 10, one from L = 69 on)."""
    return max(1, BATCH_MATRIX_BYTES // (TRIAL_MATRIX_BYTES * L * L))


def _run_chunk(sim: SimConfig, start: int, stop: int, record: np.ndarray) -> None:
    """Fill record, stop - start rows of TRIAL_RECORD, with the SINR,
    interferer count and QR route of trials start..stop-1.

    The disk's Poisson mean is taken once and one generator is re-keyed to
    each trial's stream (_draw_trial). Each batch of _batch_size(L) trials
    writes its covariances and target channels into stacks that one Cholesky
    pass factors (_sinrs); a trial the pass rejects is drawn again from its
    own stream for the QR route.
    """
    link, L = sim.link, sim.link.L
    mean = mean_count(sim.model, DiskRegion(sim.truncation_radius))
    rng = np.random.Generator(np.random.Philox(0))
    batch = _batch_size(L)
    for first in range(start, stop, batch):
        trials = range(first, min(first + batch, stop))
        cov = np.empty((len(trials), L, L), dtype=complex)
        g = np.empty((len(trials), L), dtype=complex)
        for k, t in enumerate(trials):
            powers, g_k, S = _draw_trial(sim, t, mean, rng)
            record["count"][t - start] = powers.size
            _complex(g_k, out=g[k])
            _interference_covariance(powers, S, link.sigma2, out=cov[k])

        def redraw(k):
            powers, g_k, S = _draw_trial(sim, trials[k], mean, rng)
            return powers, _complex(g_k), S

        rows = record[first - start : trials.stop - start]
        rows["sinr"], rows["qr"] = _sinrs(cov, g, link, redraw)


def _move_apart(k: int) -> None:
    """Pin this process, the campaign's k-th, to the k-th of its allowed CPUs
    (cyclically), then allow them all again: the kernel moves a task off a CPU
    its mask excludes, and not back when it widens. Skipped where unsupported."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def _run_child(sim: SimConfig, start: int, stop: int, record, out, k: int) -> None:
    """In the k-th process, a forked child: move apart and fill record, the
    shared rows of trials start..stop-1, or pickle what raised, with the
    child's traceback as a note, to the pipe out. Ends the process from a
    finally, so it never returns into the caller's stack nor flushes its stdio."""
    try:
        try:
            _move_apart(k)
            _run_chunk(sim, start, stop, record)
        except BaseException as exc:
            import traceback

            if hasattr(exc, "add_note"):  # Python 3.11+
                trace = "".join(traceback.format_exception(exc))
                exc.add_note(f"raised in campaign worker process {os.getpid()}:\n{trace}")
            try:
                payload = pickle.dumps(exc)
                pickle.loads(payload)
            except Exception as failure:
                unpicklable = ChildProcessError(
                    f"a campaign worker process raised {type(exc).__name__}: {exc}, "
                    f"which cannot be pickled ({type(failure).__name__}: {failure})"
                )
                payload = pickle.dumps(unpicklable)
            out.write(payload)
        out.close()
    finally:
        os._exit(0)


def _run_pool(sim: SimConfig, workers: int) -> np.ndarray:
    """The campaign's TRIAL_RECORD, in trial order, in one anonymous shared
    mapping: the calling process fills the rows of the first of `workers`
    contiguous shares of the trials, and workers - 1 forked children fill
    the rest in place (_run_child), so one worker forks nothing and fills
    every row here; having forked, each process moves apart first.

    Forked children inherit the imported package, any cached sampler table
    and the mapping, so they import nothing again and send back only an
    exception, raised here with its own type; a child that dies is a
    ChildProcessError. Whatever raises (the caller's share, a child,
    KeyboardInterrupt) first kills and reaps every child still running, so
    no process outlives the call. Like any fork, this is unsafe in a process
    that runs other threads at the time.
    """
    bounds = [sim.trials * k // workers for k in range(workers + 1)]
    # zero-filled, so a row no process wrote reads SINR 0 (see _run_record)
    record = np.frombuffer(mmap.mmap(-1, sim.trials * TRIAL_RECORD.itemsize), TRIAL_RECORD)
    children = []  # (pid, read end of its pipe, its share) of each child not yet reaped
    try:
        for k, (start, stop) in enumerate(zip(bounds[1:-1], bounds[2:]), 1):
            read, write = os.pipe()
            pipe = os.fdopen(read, "rb")
            with os.fdopen(write, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    pipe.close()  # so a write fails, not blocks, once the caller is gone
                    _run_child(sim, start, stop, record[start:stop], out, k)
            children.append((pid, pipe, start, stop))
        if children:
            _move_apart(0)
        _run_chunk(sim, 0, bounds[1], record[: bounds[1]])
        while children:
            pid, pipe, start, stop = children[0]
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
            if code != 0:
                how = f"exit status {code}" if code >= 0 else f"killed by signal {-code}"
                raise ChildProcessError(
                    f"a campaign worker process died ({how}, {len(payload)} B sent) "
                    f"running trials {start}..{stop - 1}"
                )
            if payload:
                raise pickle.loads(payload)
    except BaseException:
        for pid, pipe, *_ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        raise
    return record


def _require_bytes(nbytes: float, what: str) -> None:
    """Raise ConfigError naming what unless its nbytes fit in MAX_DRAW_BYTES."""
    if not nbytes <= MAX_DRAW_BYTES:
        raise ConfigError(f"{what} would take {nbytes:.3g} B, over the {MAX_DRAW_BYTES} B limit")


def require_draw_fits(mean: float, bytes_per_point: int) -> None:
    """Raise ConfigError unless a Poisson draw of this mean, at
    bytes_per_point, is expected to fit in MAX_DRAW_BYTES."""
    _require_bytes(mean * bytes_per_point, f"a draw at a Poisson mean of {mean:.6g} points")


def _run_record(sim: SimConfig, workers: int) -> np.ndarray:
    """The TRIAL_RECORD of every trial, in trial order."""
    L = sim.link.L
    _require_bytes(TRIAL_MATRIX_BYTES * L * L, f"the matrices of a trial at L = {L} antennas")
    # run_campaign peaks at about 28 B per trial: the record (17 B) and the
    # sorted samples, and a KS adds about 18 MB of psi and CDF arrays on one
    # block of KS_BLOCK samples; run_trials peaks at about 135 B, its list
    _require_bytes(int(sim.trials) * 320, f"the arrays of trials = {sim.trials}")
    # 2L doubles of normals per interferer, and complex copies on the QR route
    require_draw_fits(mean_count(sim.model, DiskRegion(sim.truncation_radius)), 32 * L)
    # where the platform cannot fork, every trial runs in this process
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1, sim.trials) if hasattr(os, "fork") else 1
    record = _run_pool(sim, max(workers, 1))
    bad = np.flatnonzero(~(record["sinr"] > 0))
    if bad.size:
        raise ValueError(f"sinr must be > 0, got {record['sinr'][bad[0]]} in trial {bad[0]}")
    return record


def run_trials(sim: SimConfig, workers: int = 1) -> list:
    """All trials of a campaign, in trial order.

    The calling process runs the first of `workers` contiguous shares of the
    trials, and workers - 1 forked children run the rest (_run_pool): at
    most min(workers, CPUs this process may run on, trials) processes, the
    caller included, and one where the platform cannot fork. Results do not
    depend on the worker count: each trial owns its stream and its row of
    the one shared TRIAL_RECORD.
    """
    record = _run_record(sim, workers)
    return [TrialResult(s, n) for s, n in zip(record["sinr"].tolist(), record["count"].tolist())]


def run_campaign(sim: SimConfig, workers: int = 1) -> EmpiricalDistribution:
    """Run the campaign and collect the empirical SINR distribution."""
    return EmpiricalDistribution(_run_record(sim, workers)["sinr"])


def default_truncation_radius(
    model: IntensityModel,
    alpha: float,
    gamma_max: float,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> float:
    """Simulation disk radius making the ignored interference negligible.

    Chooses R so the part of the interference functional beyond R, at the
    largest normalized SINR of interest, stays below tail_fraction of the
    total. A finite support is the radius (piecewise: its outer edge;
    Gaussian cluster: 12v, where its psi stops), so nothing is ignored; an
    algebraic tail (power law from the origin, polynomial tail from r0 > 0)
    solves a bound on the tail in closed form, and never returns less than
    r0. The CLI sizes its campaigns with it, at the gamma
    campaign_truncation_radius picks.
    """
    if not alpha > 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    if not gamma_max > 0:
        raise ValueError(f"gamma_max must be > 0, got {gamma_max}")
    if not 0 < tail_fraction < 1:
        raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction}")

    if not isinstance(model, IntensityModel):
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    if math.isfinite(model.support_radius):
        return model.support_radius
    rho, eps, r0 = model.algebraic_tail
    # the psi tail beyond R is at most 2 pi rho gamma R^(2+eps-alpha)/(alpha-2-eps),
    # since the kernel is below gamma r^-alpha; R holds that to tail_fraction of
    # the total psi, closed form from the origin, the model's own beyond r0
    k = alpha - 2.0 - eps
    if r0 == 0.0:
        c = (2.0 + eps) / alpha
        factor = alpha * math.sin(math.pi * c) / (math.pi * tail_fraction * k)
        return gamma_max ** (1.0 / alpha) * factor ** (1.0 / k)
    total = _psi_sum(model.pieces, alpha, gamma_max)
    return max(r0, (TWO_PI * rho * gamma_max / (k * tail_fraction * total)) ** (1.0 / k))


def campaign_truncation_radius(model: IntensityModel, link: LinkConfig) -> float:
    """The disk a campaign samples, sized from the model and the link alone.

    A finite support is the disk (piecewise: its outer edge; Gaussian
    cluster: 12v), so the disk law is the analytic law. An algebraic tail
    takes default_truncation_radius at the gamma* where psi reaches x* =
    L + l + sqrt(l^2 + 2 L l), l = -log(CAMPAIGN_COUNT_TAIL) (by
    _psi_inverse), so the disk holds 99% of psi(gamma*) = x*. A Poisson
    count N of mean x >= L has P(N <= L - 1) <= exp(-(x - L)^2 / 2x), which
    is CAMPAIGN_COUNT_TAIL at x*: few trials draw fewer interferers than
    antennas, a singular covariance at sigma2 = 0.
    """
    if math.isfinite(model.support_radius):
        return model.support_radius
    ell = -math.log(CAMPAIGN_COUNT_TAIL)
    x = link.L + ell + math.sqrt(ell * ell + 2.0 * link.L * ell)
    try:
        gamma = _psi_inverse(PsiEvaluator(model, link.alpha), x, "the disk count x*")
    except BracketingError as exc:
        where = f"the {model.family} model {model} at alpha = {link.alpha:g}, L = {link.L}"
        raise BracketingError(f"{exc}: set sim.truncation_radius for {where}") from exc
    return default_truncation_radius(model, link.alpha, gamma, CAMPAIGN_TAIL_FRACTION)
