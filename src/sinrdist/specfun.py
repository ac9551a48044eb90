"""Special functions and the two quadrature rules used by the closed forms.

Everything here is pure and reentrant, and runs on numpy alone: only the
special-function shapes the SINR closed forms need are exposed, and each is
computed in the package instead of by scipy.special, whose import pulls in
scipy's array-API layer and costs about 0.3 s of start-up, more than many
runs take.

- The regularized incomplete gamma at integer L up to ANTENNAS_MAX is a
  Poisson sum, taken from the smaller tail outward: P(L, x) directly where
  it is small, so the lower tail keeps its relative accuracy (P(10, 1e-3)
  is about 2.8e-37). Its terms and the Gamma(L, 1) density are one array
  function, poisson_pmf; a scalar call is a batch of one.
- P(3/2, y) and Q(3/2, y), for the Gaussian cluster's count, are a series
  below y = 1 and the erfc form above it; a scalar call is a batch of one
  here too.
- The Gauss hypergeometric function is restricted to the first-parameter-1
  shape 2F1(1, b; b+1; -x), the only one the interference integrals
  produce: a fixed Gauss-Jacobi rule on its Euler integral up to x = 2, and
  the 1/x connection formula beyond, written so that it stays exact at and
  near integer b.

The fixed-panel Gauss-Legendre rule in log r (integrate_log_panels) is numpy
alone too. Adaptive quadrature, for integrate_radial and for the psi
reference in log r, is one checked QUADPACK call (_quad), which takes
infinite limits as they are and imports scipy.integrate only when it runs,
since that module costs about 0.2 s of start-up that a run without
quadrature should not pay.

Every array function here computes each element from its own inputs alone,
so a value does not depend on which other points share its batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ANTENNAS_MAX",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "AccuracyError",
    "ln_gamma",
    "regularized_upper_gamma",
    "regularized_lower_gamma",
    "poisson_pmf",
    "three_halves_gamma",
    "hyp2f1_first_unit",
    "integrate_radial",
    "integrate_log_panels",
]

# Fixed-panel rule in log r: Gauss-Legendre nodes per panel, the widest
# panel allowed (in units of log r), and the bound on the number of
# points x nodes held in one working buffer.
PANEL_NODES = 16
PANEL_WIDTH = 0.25
PANEL_BUFFER = 1 << 14

# A term at most this fraction of a partial sum is below half its ulp and
# adds nothing to it, so a sum of falling terms is final once one is.
NO_OP_FRACTION = 2.0**-54
# Terms of a falling sum taken per block (a power of 2, for the pairwise
# sum).
SERIES_BLOCK = 16
# Largest k whose k! is a finite double; Poisson terms beyond it, or whose
# factors leave the float range, take Loader's saddle-point form.
FACTORIAL_MAX = 170
# Largest antenna count the incomplete gamma takes. Its Poisson sums take
# O(sqrt L) terms where x is near L; up to here they are checked against
# mpmath and are as accurate as scipy's asymptotic expansion.
ANTENNAS_MAX = 100_000
# 2F1(1, b; b+1; -x): the Gauss-Jacobi rule on the Euler integral serves
# x <= HYP2F1_SPLIT, with the pole of its integrand at least 1/2 from
# [0, 1]; beyond it the connection formula's rule (pole at least 2 away)
# needs fewer nodes.
HYP2F1_SPLIT = 2.0
HYP2F1_NODES = 16
HYP2F1_CONNECTION_NODES = 10
# P(3/2, y) by its series below this y, by erfc above.
THREE_HALVES_SERIES_MAX = 1.0


class AccuracyError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to proceed anyway.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for adaptive quadrature.

    The defaults are tight enough that quadrature results can serve as the
    reference for validating the closed forms. A result must be within
    max(abs_tol, rel_tol * |result|), so the default abs_tol makes the psi
    reference an absolute one below |psi| = 1e-3; abs_tol = 0 keeps it
    relative at any size.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not self.abs_tol >= 0:
            raise ValueError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


DEFAULT_QUADRATURE = QuadratureSpec()


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _falling_sum(first, ratio, *args, block=SERIES_BLOCK):
    """first * (1 + r_1 + r_1 r_2 + ...) per element of the 1-D array first.

    ratio(j, *args) gives the ratios r_j, elementwise in args (1-D arrays
    like first), for a column j of term indices, one row per index; the
    terms must fall. They come block (a power of 2, SERIES_BLOCK or less) at
    a time; each block is summed pairwise and added to the total. An element
    is done once its block's last term is so small that no later block can
    change its sum (block terms, each at most NO_OP_FRACTION / block of the
    total), so it gets exactly its own sum whatever else shares the batch.
    A series whose terms are 0 from some index on may take a block just
    long enough to hold the rest: a pairwise sum is unchanged by trailing
    zeros, so the sums are those of SERIES_BLOCK-term blocks.
    """
    j = 1
    total = np.array(first, dtype=float)
    rows = np.arange(total.size)
    term = total
    while rows.size:
        r = ratio(np.arange(j, j + block, dtype=float)[:, None], *(a[rows] for a in args))
        r[0] *= term
        for i in range(1, block):
            r[i] *= r[i - 1]
        term = r[-1]
        while len(r) > 1:
            r = r[0::2] + r[1::2]
        total[rows] += r[0]
        j += block
        active = term * block > total[rows] * NO_OP_FRACTION
        rows, term = rows[active], term[active]
    return total


# Loader's Stirling-series remainder log(k!) - (k + 1/2) log k + k - log(2 pi)/2
# at k = 0..15 (0 stands in at k = 0, which never reaches the saddle form);
# from k = 16 on its five-term series is exact to double precision.
_STIRLING_ERRORS = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(FACTORIAL_MAX + 1)])


def _saddle_pmf(k, lam):
    """The Poisson pmf in Loader's saddle-point form, for k >= 1:
    exp(-stirling_error(k) - bd0(k, lam)) / sqrt(2 pi k), with
    bd0 = k log(k/lam) + lam - k taken by its atanh series near k = lam."""
    table = k < _STIRLING_ERRORS.size
    big = np.where(table, _STIRLING_ERRORS.size, k)
    k2 = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * k2)) / k2) / k2) / k2) / big
    tabled = _STIRLING_ERRORS[np.minimum(k, _STIRLING_ERRORS.size - 1).astype(int)]
    stirling = np.where(table, tabled, series)
    d = k - lam
    v = d / (k + lam)
    v2 = v * v
    odd = 0.0  # sum of v^(2j) / (2j + 1) over j >= 1, to 1e-17 for |v| < 1/2
    for j in range(28, 0, -1):
        odd = (odd + 1.0 / (2 * j + 1)) * v2
    bd0 = np.where(np.abs(v) < 0.5, d * v + 2.0 * k * v * odd, k * np.log(k / lam) + lam - k)
    return np.exp(-(stirling + bd0)) / np.sqrt(2.0 * math.pi * k)


def _poisson_pmf(k, lam):
    """poisson_pmf for 1-D arrays k and lam of one length, unchecked.

    Each factor is good to an ulp where all three stay normal doubles; where
    one leaves the float range (or k > FACTORIAL_MAX) the saddle-point form
    takes over, unless the pmf is below the float range anyway."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        p = np.power(lam, k) * np.exp(-lam) / _FACTORIALS[np.minimum(k, FACTORIAL_MAX).astype(int)]
        normal = (p >= np.finfo(float).tiny) & (p < np.inf)
        far = ((k > FACTORIAL_MAX) | ~normal) & (k > 0) & (lam < np.inf)
        if far.any():
            kf, lf = k[far], lam[far]
            # Stirling's log pmf, within 1/(12k) of the true one
            log_pmf = kf * np.log(lf / kf) - lf + kf - 0.5 * np.log(2.0 * math.pi * kf)
            p[far] = np.where(log_pmf > -760.0, _saddle_pmf(kf, lf), 0.0)
        p[lam == np.inf] = 0.0
    return p


def poisson_pmf(k, x):
    """x^k e^-x / k! for whole k >= 0 and x >= 0: the Poisson pmf at k, and
    the Gamma(k + 1, 1) density at x; pmf(0; 0) = 1 and pmf(k; 0) = 0 for
    k > 0. k and x broadcast together, and a scalar pair returns a float. k
    is not capped at ANTENNAS_MAX (the outage reduction at L antennas takes
    k = L)."""
    k, x = np.asarray(k, dtype=float), np.asarray(x, dtype=float)
    if np.any(k < 0) or np.any(k != np.floor(k)) or np.any(x < 0):
        raise ValueError(f"poisson_pmf requires whole k >= 0 and x >= 0, got k={k!r}, x={x!r}")
    k_b, x_b = np.broadcast_arrays(k, x)
    p = _poisson_pmf(k_b.ravel(), x_b.ravel()).reshape(x_b.shape)
    return float(p) if p.ndim == 0 else p


def _check_antennas(L):
    L_arr = np.asarray(L)
    if L_arr.dtype.kind not in "iuf" or not (L_arr == np.floor(L_arr)).all():
        raise ValueError(f"antenna count L must be a positive integer, got {L!r}")
    if not ((L_arr >= 1) & (L_arr <= ANTENNAS_MAX)).all():
        raise ValueError(f"antenna count L must lie in [1, {ANTENNAS_MAX}], got {L!r}")
    return L_arr


def _regularized_gamma(L, x, upper: bool):
    """P(L, x), or Q(L, x) with upper, for integer L >= 1 and x >= 0.

    Both are Poisson sums: Q(L, x) = sum_{k<L} pmf(k; x) and P the rest.
    Where x < L the tail from k = L up (P) is the smaller one, else the sum
    from k = L - 1 down (Q); that tail is summed from its largest term
    outward by the terms' ratios, and the other is one minus it. A scalar
    pair is a batch of one, so it gets the value it would get in an array."""
    L_arr = _check_antennas(L)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError(f"the incomplete gamma function requires x >= 0, got {x!r}")
    L_b, x_b = np.broadcast_arrays(L_arr.astype(float), x_arr)
    L_f, x_f = L_b.ravel(), x_b.ravel()
    below = x_f < L_f
    first = _poisson_pmf(np.where(below, L_f, L_f - 1.0), x_f)
    tail = np.empty_like(first)
    down_block = _down_block(L_f.max(initial=1))
    sides = (below, _upward_ratio, SERIES_BLOCK), (~below, _downward_ratio, down_block)
    with np.errstate(divide="ignore", over="ignore"):
        for side, ratio, block in sides:
            if side.any():
                tail[side] = _falling_sum(first[side], ratio, x_f[side], L_f[side], block=block)
    out = np.where(below != upper, tail, 1.0 - tail).reshape(x_b.shape)
    return float(out) if out.ndim == 0 else out


def _down_block(L_max: float) -> int:
    """Block for the sum down from k = L - 1: its L - 1 terms after the
    first fit one block of a power of 2 up to SERIES_BLOCK."""
    return min(SERIES_BLOCK, 1 << max(int(L_max) - 2, 0).bit_length())


def _upward_ratio(j, x, L):
    """pmf(L + j) / pmf(L + j - 1): the tail from k = L up."""
    return x / (L + j)


def _downward_ratio(j, x, L):
    """pmf(L - 1 - j) / pmf(L - j): the sum from k = L - 1 down, 0 past k = 0."""
    return (L - j) / x


def regularized_upper_gamma(L, x):
    """Upper regularized gamma Q(L, x) = Gamma(L, x) / Gamma(L) for integer L.

    For integer first argument this is the Poisson CDF identity
    sum_{k<L} exp(-x) x^k / k!, which is how it is computed (see
    _regularized_gamma); L and x may be scalars or arrays (broadcast
    together), and a scalar pair returns a float.
    """
    return _regularized_gamma(L, x, upper=True)


def regularized_lower_gamma(L, x):
    """Lower regularized gamma P(L, x) = 1 - Q(L, x) for integer L.

    Computed directly where it is the smaller tail, so it keeps full relative
    accuracy where P is tiny and 1 - Q would cancel to 0 (P(10, 1e-3) is
    about 2.8e-37). Same arguments and broadcasting as
    regularized_upper_gamma.
    """
    return _regularized_gamma(L, x, upper=False)


_THREE_HALVES_SERIES_SCALE = 4.0 / (3.0 * math.sqrt(math.pi))


def _three_halves_ratio(j, y):
    """Term ratio of M(1, 5/2, y) = sum_n y^n / (5/2)_n."""
    return y / (1.5 + j)


def three_halves_gamma(y, upper: bool = False):
    """P(3/2, y), or Q(3/2, y) with upper, for y >= 0 (array or scalar).

    Below y = THREE_HALVES_SERIES_MAX, P = (4 / (3 sqrt(pi))) y^(3/2) e^-y
    M(1, 5/2, y), summed term by term; above it Q = erfc(sqrt(y)) +
    2 sqrt(y/pi) e^-y. Each is taken directly where it is the small one, so
    P keeps its relative accuracy near 0 (like y^(3/2)) and Q far out. A
    scalar y returns a float."""
    y, scalar = _as_array(y)
    flat = y.ravel()
    series = flat < THREE_HALVES_SERIES_MAX
    out = np.empty_like(flat)
    ys = flat[series]
    first = _THREE_HALVES_SERIES_SCALE * ys * np.sqrt(ys) * np.exp(-ys)
    p = _falling_sum(first, _three_halves_ratio, ys)
    out[series] = 1.0 - p if upper else p
    yt = flat[~series]
    with np.errstate(invalid="ignore", under="ignore"):
        erfc = np.frompyfunc(math.erfc, 1, 1)(np.sqrt(yt)).astype(float)
        q = np.where(yt == np.inf, 0.0, erfc + 2.0 * np.sqrt(yt / math.pi) * np.exp(-yt))
    out[~series] = q if upper else 1.0 - q
    return float(out[0]) if scalar else out.reshape(y.shape)


@functools.lru_cache(maxsize=1024)
def _gauss_jacobi(beta: float, nodes: int):
    """Nodes and weights of the Gauss rule for the weight t^beta on [0, 1],
    beta > -1, as two columns: eigenvalues of the Jacobi matrix (Golub-Welsch),
    weights renormalised to the exact mass 1 / (beta + 1)."""
    n = np.arange(nodes, dtype=float)
    s = 2.0 * n + beta
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = np.where(n == 0, beta / (beta + 2.0), beta * beta / (s * (s + 2.0)))
    k = n[1:]
    s = 2.0 * k + beta
    off2 = 4.0 * k * k * (k + beta) ** 2 / (s * s * (s + 1.0) * (s - 1.0))
    off2[0] = 4.0 * (1.0 + beta) / ((2.0 + beta) ** 2 * (3.0 + beta))
    off = np.sqrt(off2) / 2.0
    t, vectors = np.linalg.eigh(np.diag((diag + 1.0) / 2.0) + np.diag(off, 1) + np.diag(off, -1))
    w = vectors[0] ** 2
    return t[:, None], (w / (w.sum() * (beta + 1.0)))[:, None]


def _node_sum(rule, z):
    """sum_i w_i / (1 + z t_i) for each z of a 1-D array, summed in node order."""
    t, w = rule
    terms = t * z
    terms += 1.0
    np.divide(w, terms, out=terms)
    total = terms[0]
    for row in terms[1:]:
        total += row
    return total


def _sinc_parts(delta: float):
    """g = pi delta / sin(pi delta) and (g - 1) / delta, |delta| <= 1/2, the
    latter from the series of z - sin z (z = pi delta) so it does not cancel."""
    if delta == 0.0:
        return 1.0, 0.0
    z = math.pi * delta
    head = 0.0  # (z - sin z) / z
    for k in range(12, 0, -1):
        head = (head + (-1) ** (k + 1) / math.factorial(2 * k + 1)) * (z * z)
    g = z / math.sin(z)
    return g, head * g / delta


@functools.lru_cache(maxsize=1024)
def _connection(b: float):
    """What the connection formula needs at b: the step count m and the base
    b0 = b - m in (0, 3/2] that the upward recurrence starts from, delta =
    1 - b0, _sinc_parts(delta) when |delta| <= 1/2 (else None), and the
    Gauss-Jacobi rule for the weight s^delta."""
    m = max(round(b) - 1, 0)
    b0 = b - m
    delta = 1.0 - b0
    parts = _sinc_parts(delta) if abs(delta) <= 0.5 else None
    return m, b0, delta, parts, _gauss_jacobi(delta, HYP2F1_CONNECTION_NODES)


def _hyp2f1_far(b: float, x):
    """2F1(1, b; b+1; -x) = b J_b(x) for x > HYP2F1_SPLIT, J_b = integral of
    t^(b-1) / (1 + x t) over [0, 1].

    For b0 = 1 - delta in (0, 3/2] (DLMF 15.8.2, written for this shape),
    J_b0 = pi x^-b0 / sin(pi b0) - 1 / (delta x) + x^-2 I(x), where I(x) is
    the integral of s^delta / (1 + s/x) over [0, 1] (a Gauss-Jacobi rule).
    The first two terms have opposite poles at b0 = 1; near it they are
    (g E + h) / x with E = (x^delta - 1) / delta, taken by expm1, so integer
    b is exact. J_(b+1) = (1/b - J_b) / x then climbs to b; the recurrence
    divides its errors by x > 2 at each step."""
    m, b0, delta, parts, rule = _connection(b)
    inv = 1.0 / x
    tail = _node_sum(rule, inv) * (inv * inv)
    with np.errstate(over="ignore", invalid="ignore"):
        if parts is None:  # b0 = b < 1/2: no pole near, no recurrence
            return math.pi * b / math.sin(math.pi * b) * np.power(x, -b) - b * (inv / delta - tail)
        g, h = parts
        if delta == 0.0:
            E = np.log(x)
        else:
            a = delta * np.log(x)
            E = np.where(np.abs(a) < 1.0, np.expm1(a), np.power(x, delta) - 1.0) / delta
        J = (g * E + h) * inv + tail
    for i in range(m):
        J = (1.0 / (b0 + i) - J) * inv
    return b * J


def hyp2f1_first_unit(b: float, x):
    """Gauss hypergeometric 2F1(1, b; b+1; -x) for b > 0, x >= 0.

    This is the only hypergeometric shape the interference closed forms
    need, b times the integral of t^(b-1) / (1 + x t) over [0, 1] (DLMF
    15.6.1). Up to x = HYP2F1_SPLIT it is 1 - b x times the integral of
    t^b / (1 + x t), by a HYP2F1_NODES-point Gauss-Jacobi rule; beyond it, the
    connection formula (see _hyp2f1_far). x may be a scalar (float result)
    or an array; x = inf gives the limit 0.
    """
    if not b > 0:
        raise ValueError(f"hyp2f1_first_unit requires b > 0, got {b}")
    x_arr, scalar = _as_array(x)
    if np.any(x_arr < 0):
        raise ValueError(f"hyp2f1_first_unit requires x >= 0, got {x!r}")
    b = float(b)
    flat = x_arr.ravel()
    near = flat <= HYP2F1_SPLIT
    out = np.empty_like(flat)
    xs = flat[near]
    out[near] = 1.0 - b * xs * _node_sum(_gauss_jacobi(b, HYP2F1_NODES), xs)
    far = ~near
    if far.any():
        xf = flat[far]
        out[far] = np.where(xf == np.inf, 0.0, _hyp2f1_far(b, xf))
    out = out.reshape(x_arr.shape)
    return float(out) if scalar else out


def integrate_radial(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive quadrature of f over [lower, upper], upper may be math.inf.

    Raises AccuracyError when the reported error bound exceeds max(abs_tol,
    rel_tol * |result|) within max_subdivisions, or when the result is not a
    number.
    """
    if lower < 0:
        raise ValueError(f"integrate_radial requires lower >= 0, got {lower}")
    if upper < lower:
        raise ValueError(f"upper ({upper}) must be >= lower ({lower})")
    if upper == lower:
        return 0.0
    return _quad(f, lower, upper, spec)


def _quad(f: Callable[[float], float], lower: float, upper: float, spec: QuadratureSpec) -> float:
    """QUADPACK's integral of f over (lower, upper), either end infinite, checked
    against spec as integrate_radial describes."""
    import scipy.integrate  # on use only: see the module docstring

    result, abserr, *_ = scipy.integrate.quad(
        f,
        lower,
        upper,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    tol = max(spec.abs_tol, spec.rel_tol * abs(result))
    if not abserr <= tol:
        raise AccuracyError(
            f"quadrature did not converge on [{lower}, {upper}]: "
            f"estimate {result!r} with error bound {abserr!r} exceeds {tol!r}",
            estimate=result,
            error_bound=abserr,
        )
    return result


# Gauss-Legendre nodes and weights on [-1, 1], and the embedded lower-order
# rule: interpolatory weights on every other node, mirrored about 0 (exact for
# polynomials up to degree 7), so the error estimate costs no extra
# integrand evaluations.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(PANEL_NODES)
_EMBED = np.r_[1 : PANEL_NODES // 2 : 2, PANEL_NODES // 2 : PANEL_NODES : 2]
_EMBED_W = np.linalg.solve(
    np.vander(_GL_X[_EMBED], increasing=True).T,
    [(1.0 + (-1.0) ** k) / (k + 1) for k in range(_EMBED.size)],
)


def integrate_log_panels(g, lower, upper, breakpoints=()):
    """Fixed-panel Gauss-Legendre integrals over s = log r, for many points.

    Point i integrates g(s) ds over [log lower[i], log upper[i]]; g carries the
    Jacobian, g(s) = f(e^s) e^s for an integrand f(r) dr. Each point's range is
    cut at every breakpoint inside it and each piece is split into equal
    panels no wider than PANEL_WIDTH, so a point's panels depend on its own
    limits only. g(s, rows) receives abscissae shaped (points, panels,
    PANEL_NODES) for the points in the slice rows and returns the integrand
    there. Points are processed in chunks of at most PANEL_BUFFER nodes.

    The embedded error estimate of a point is the sum over its panels of
    |PANEL_NODES-node result - lower-order result|. Panel results are summed
    in panel order, padding panels adding exact zeros, so a value does not
    depend on which other points share its chunk.

    Returns (values, errors), two 1-D arrays over the points.
    """
    lower, upper = np.broadcast_arrays(
        np.atleast_1d(np.asarray(lower, dtype=float)),
        np.atleast_1d(np.asarray(upper, dtype=float)),
    )
    s_lo, s_hi = np.log(lower), np.log(upper)
    edges = [s_lo, *(np.clip(math.log(b), s_lo, s_hi) for b in sorted(breakpoints)), s_hi]
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    counts = [np.ceil(length / PANEL_WIDTH).astype(int) for length in lengths]
    widths = [length / np.maximum(count, 1) for length, count in zip(lengths, counts)]
    n = s_lo.size
    panels = max(1, sum(int(c.max(initial=0)) for c in counts))
    chunk = max(1, PANEL_BUFFER // (panels * PANEL_NODES))
    values = np.zeros(n)
    errors = np.zeros(n)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        mids, halves = [], []
        for a, width, count in zip(edges, widths, counts):
            j = np.arange(count[rows].max(initial=0))
            valid = j < count[rows, None]
            mids.append(np.where(valid, a[rows, None] + (j + 0.5) * width[rows, None], a[rows, None]))
            halves.append(np.where(valid, 0.5 * width[rows, None], 0.0))
        mid = np.concatenate(mids, axis=1)
        if mid.shape[1] == 0:
            continue
        half = np.concatenate(halves, axis=1)
        with np.errstate(over="ignore", under="ignore"):
            f = g(mid[..., None] + half[..., None] * _GL_X, rows)
        high = half * (f * _GL_W).sum(axis=-1)
        low = half * (f[..., _EMBED] * _EMBED_W).sum(axis=-1)
        values[rows] = np.cumsum(high, axis=1)[:, -1]
        errors[rows] = np.cumsum(np.abs(high - low), axis=1)[:, -1]
    return values, errors
