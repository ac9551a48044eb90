"""Special functions and the two quadrature rules used by the closed forms.

Everything here is pure and reentrant. Only the special-function shapes
actually needed by the SINR closed forms are exposed; in particular the
Gauss hypergeometric function is restricted to the first-parameter-1 shape
2F1(1, b; b+1; -x), which is the only one the interference integrals
produce. The special functions are scipy.special ufuncs. The fixed-panel
Gauss-Legendre rule in log r (integrate_log_panels) is numpy alone. Adaptive
quadrature, for integrate_radial and for the psi reference in log r, is one
checked QUADPACK call (_quad), which takes infinite limits as they are and
imports scipy.integrate only when it runs, since that module costs about
0.2 s of start-up that a run without quadrature should not pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "AccuracyError",
    "ln_gamma",
    "regularized_upper_gamma",
    "regularized_lower_gamma",
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


def _regularized_gamma(ufunc, L, x):
    L_arr = np.asarray(L)
    if L_arr.dtype == bool or not np.all(np.mod(L_arr, 1) == 0):
        raise ValueError(f"antenna count L must be a positive integer, got {L!r}")
    if np.any(L_arr < 1):
        raise ValueError(f"antenna count L must be >= 1, got {L!r}")
    x_arr, scalar = _as_array(x)
    if np.any(x_arr < 0):
        raise ValueError(f"the incomplete gamma function requires x >= 0, got {x!r}")
    out = ufunc(L_arr.astype(float), x_arr)
    return float(out) if scalar and L_arr.ndim == 0 else out


def regularized_upper_gamma(L, x):
    """Upper regularized gamma Q(L, x) = Gamma(L, x) / Gamma(L) for integer L.

    For integer first argument this is the Poisson CDF identity
    sum_{k<L} exp(-x) x^k / k!. Evaluated by the scipy.special.gammaincc
    ufunc; L and x may be scalars or arrays (broadcast together), and a
    scalar pair returns a float.
    """
    return _regularized_gamma(scipy.special.gammaincc, L, x)


def regularized_lower_gamma(L, x):
    """Lower regularized gamma P(L, x) = 1 - Q(L, x) for integer L.

    Evaluated directly by the scipy.special.gammainc ufunc, so it keeps full
    relative accuracy where P is tiny and 1 - Q would cancel to 0 (P(10,
    1e-3) is about 2.8e-37). Same arguments and broadcasting as
    regularized_upper_gamma.
    """
    return _regularized_gamma(scipy.special.gammainc, L, x)


def hyp2f1_first_unit(b: float, x):
    """Gauss hypergeometric 2F1(1, b; b+1; -x) for b > 0, x >= 0.

    This is the only hypergeometric shape the interference closed forms need.
    Backed by the scipy.special.hyp2f1 ufunc, which converges for all x >= 0
    here; the degenerate b = 1 case (where scipy loses precision for very
    large x) is the elementary identity 2F1(1, 1; 2; -x) = log(1+x)/x. x may
    be a scalar (float result) or an array.
    """
    if not b > 0:
        raise ValueError(f"hyp2f1_first_unit requires b > 0, got {b}")
    x_arr, scalar = _as_array(x)
    if np.any(x_arr < 0):
        raise ValueError(f"hyp2f1_first_unit requires x >= 0, got {x!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        if b == 1.0:
            out = np.log1p(x_arr) / x_arr
        else:
            out = scipy.special.hyp2f1(1.0, b, b + 1.0, -x_arr)
    out = np.where(x_arr == 0.0, 1.0, out)
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
