"""Radially symmetric intensity models for the planar Poisson interferer field.

Four families cover the workloads of interest: an unbounded power law, piecewise
power laws on concentric annuli, a polynomial profile glued to a decaying
power-law tail, and a Gaussian-shaped cluster centred on the receiver. All are
independent of the angle, so every derived quantity reduces to a radial
integral with the angle uniform on [0, 2*pi).

Each model carries a universal scale factor beta (the effective intensity is
beta times the nominal profile), which is how interferer density is swept
without touching the shape parameters.

Models are frozen, hashable dataclasses. The table-driven samplers cache their
precomputed inverse-CDF tables per (model, radius) pair, so model objects stay
immutable and safely shareable across threads.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.special
from scipy.interpolate import PchipInterpolator

from .specfun import _as_array

__all__ = [
    "DivergenceError",
    "DiskRegion",
    "FULL_PLANE",
    "PowerLaw",
    "PiecewisePowerLaw",
    "PolynomialWithTail",
    "GaussianCluster",
    "IntensityModel",
    "mean_count",
    "location_pdf",
    "sample_location",
    "fit_polynomial",
]

TWO_PI = 2.0 * math.pi

# Construction-time sign check for polynomial profiles.
NONNEGATIVITY_GRID = 1024
# Knot count of the tabulated inverse radial CDF used by table-driven samplers.
INVERSE_CDF_KNOTS = 4096
# Beyond this degree the monomial representation is too ill-conditioned.
FIT_DEGREE_CAP = 30
# Sampling truncation, in units of v, when a Gaussian cluster is drawn over the
# whole plane; the mass beyond 12v is ~1e-32 of the total.
GAUSSIAN_SUPPORT_FACTOR = 12.0


class DivergenceError(ValueError):
    """The requested integral of the intensity function diverges."""


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be a finite nonnegative scale, got {beta}")


@dataclass(frozen=True)
class DiskRegion:
    """Disk of the given radius centred on the receiver; math.inf is the plane."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.radius)


FULL_PLANE = DiskRegion(math.inf)


@dataclass(frozen=True)
class PowerLaw:
    """Intensity beta * rho * r**eps over the whole plane.

    eps > -2 keeps the mean count near the origin finite. The mean count over
    the whole plane always diverges for this family, so mean counts and
    samplers require a finite region.
    """

    rho: float
    eps: float
    beta: float = 1.0

    def __post_init__(self):
        if not self.rho >= 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if not self.eps > -2:
            raise ValueError(
                f"eps must exceed -2 for integrability at the origin, got {self.eps}"
            )
        _check_beta(self.beta)

    @property
    def support_radius(self) -> float:
        return math.inf

    def radial_intensity(self, r):
        r, scalar = _as_array(r)
        with np.errstate(divide="ignore"):
            out = self.beta * self.rho * np.power(r, self.eps)
        return float(out) if scalar else out

    def cumulative_count(self, r):
        """Mean number of points within radius r."""
        r, scalar = _as_array(r)
        p = 2.0 + self.eps
        out = TWO_PI * self.beta * self.rho * np.power(r, p) / p
        return float(out) if scalar else out


@dataclass(frozen=True)
class PiecewisePowerLaw:
    """Concentric power-law annuli, zero intensity beyond the outermost radius.

    segments is an ordered sequence of (rho_k, eps_k, R_k) triples with
    0 < R_1 < ... < R_m; segment k applies on the annulus (R_{k-1}, R_k].
    Only the innermost segment must satisfy eps > -2 (outer segments exclude
    the origin, so any exponent is integrable there).
    """

    segments: tuple
    beta: float = 1.0

    def __post_init__(self):
        segs = tuple(
            (float(rho), float(eps), float(radius))
            for rho, eps, radius in self.segments
        )
        if not segs:
            raise ValueError("segments must be nonempty")
        prev = 0.0
        for k, (rho, eps, radius) in enumerate(segs):
            if not rho > 0:
                raise ValueError(f"segment {k}: rho must be > 0, got {rho}")
            if not (math.isfinite(radius) and radius > prev):
                raise ValueError(
                    "segment radii must be finite and strictly increasing from 0, "
                    f"got R={radius} after {prev}"
                )
            prev = radius
        if not segs[0][1] > -2:
            raise ValueError(
                f"innermost segment must have eps > -2, got {segs[0][1]}"
            )
        _check_beta(self.beta)
        object.__setattr__(self, "segments", segs)

    @property
    def support_radius(self) -> float:
        return self.segments[-1][2]

    def radial_intensity(self, r):
        r, scalar = _as_array(r)
        out = np.zeros_like(r, dtype=float)
        inner = 0.0
        for k, (rho, eps, outer) in enumerate(self.segments):
            if k == 0:
                mask = (r >= 0) & (r <= outer)
            else:
                mask = (r > inner) & (r <= outer)
            with np.errstate(divide="ignore"):
                out = np.where(mask, self.beta * rho * np.power(np.where(mask, r, 1.0), eps), out)
            inner = outer
        return float(out) if scalar else out

    def cumulative_count(self, r):
        """Mean number of points within radius r (saturates beyond the support)."""
        r, scalar = _as_array(r)
        out = np.zeros_like(r, dtype=float)
        inner = 0.0
        for rho, eps, outer in self.segments:
            hi = np.clip(r, inner, outer)
            if eps == -2.0:
                seg = TWO_PI * rho * np.log(hi / inner)
            else:
                p = 2.0 + eps
                seg = TWO_PI * rho * (np.power(hi, p) - inner**p) / p
            out += np.where(hi > inner, seg, 0.0)
            inner = outer
        out *= self.beta
        return float(out) if scalar else out


@dataclass(frozen=True)
class PolynomialWithTail:
    """Polynomial radial profile on [0, R0] with a decaying power-law tail.

    Intensity is beta * sum_k a_k r^k for r <= R0 and beta * rho0 * r**eps_tail
    beyond, with eps_tail strictly between -2 and -1. Nonnegativity of the
    polynomial part is checked on a 1024-point grid at construction (a full
    certificate is out of scope); continuity at R0 is not required, but a
    mismatch above 10% of the tail's boundary value triggers a warning.
    """

    coeffs: tuple
    R0: float
    rho0: float
    eps_tail: float
    beta: float = 1.0

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coeffs)
        if not coeffs:
            raise ValueError("coeffs must be nonempty")
        if not (math.isfinite(self.R0) and self.R0 > 0):
            raise ValueError(f"R0 must be positive and finite, got {self.R0}")
        if not self.rho0 > 0:
            raise ValueError(f"rho0 must be > 0, got {self.rho0}")
        if not -2.0 < self.eps_tail < -1.0:
            raise ValueError(
                f"eps_tail must lie strictly inside (-2, -1), got {self.eps_tail}"
            )
        _check_beta(self.beta)
        object.__setattr__(self, "coeffs", coeffs)

        grid = np.linspace(0.0, self.R0, NONNEGATIVITY_GRID)
        values = np.polynomial.polynomial.polyval(grid, coeffs)
        slack = 1e-12 * max(1.0, float(np.max(np.abs(values))))
        if np.min(values) < -slack:
            raise ValueError(
                "polynomial part dips negative on [0, R0] "
                f"(min {np.min(values):.3e} on a {NONNEGATIVITY_GRID}-point grid)"
            )

        boundary_poly = float(np.polynomial.polynomial.polyval(self.R0, coeffs))
        boundary_tail = self.rho0 * self.R0**self.eps_tail
        if abs(boundary_poly - boundary_tail) > 0.1 * boundary_tail:
            warnings.warn(
                f"intensity jump at R0={self.R0}: polynomial side {boundary_poly:.4g} "
                f"vs tail side {boundary_tail:.4g} (continuity is not required)",
                stacklevel=2,
            )

    @property
    def support_radius(self) -> float:
        return math.inf

    def radial_intensity(self, r):
        r, scalar = _as_array(r)
        inside = np.polynomial.polynomial.polyval(r, self.coeffs)
        tail = self.rho0 * np.power(np.maximum(r, self.R0), self.eps_tail)
        out = self.beta * np.where(r <= self.R0, inside, tail)
        return float(out) if scalar else out

    def cumulative_count(self, r):
        """Mean number of points within radius r."""
        r, scalar = _as_array(r)
        rc = np.minimum(r, self.R0)
        inner = np.zeros_like(r, dtype=float)
        for k, a in enumerate(self.coeffs):
            inner += a * np.power(rc, k + 2) / (k + 2)
        inner *= TWO_PI
        p = 2.0 + self.eps_tail
        tail = TWO_PI * self.rho0 * (np.power(np.maximum(r, self.R0), p) - self.R0**p) / p
        out = self.beta * (inner + np.where(r > self.R0, tail, 0.0))
        return float(out) if scalar else out


@dataclass(frozen=True)
class GaussianCluster:
    """Cluster profile beta * rho * (r / v**2) * exp(-r**2 / (2 v**2)).

    The radial point density is then r**2 * exp(-r**2 / (2 v**2)) up to
    normalization, and the mean count over the whole plane is finite:
    2 * pi * rho * v * sqrt(pi / 2).
    """

    rho: float
    v: float
    beta: float = 1.0

    def __post_init__(self):
        if not self.rho >= 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if not self.v > 0:
            raise ValueError(f"width v must be > 0, got {self.v}")
        _check_beta(self.beta)

    @classmethod
    def with_total_count(cls, total: float, v: float, beta: float = 1.0):
        """Cluster whose whole-plane mean count equals `total` (at beta = 1)."""
        rho = total / (TWO_PI * v * math.sqrt(math.pi / 2.0))
        return cls(rho=rho, v=v, beta=beta)

    @property
    def support_radius(self) -> float:
        return math.inf

    @property
    def total_count(self) -> float:
        """Mean number of points over the whole plane."""
        return TWO_PI * self.beta * self.rho * self.v * math.sqrt(math.pi / 2.0)

    def radial_intensity(self, r):
        r, scalar = _as_array(r)
        out = self.beta * self.rho * (r / self.v**2) * np.exp(-0.5 * (r / self.v) ** 2)
        return float(out) if scalar else out

    def cumulative_count(self, r):
        """Mean number of points within radius r."""
        r, scalar = _as_array(r)
        z = r / (math.sqrt(2.0) * self.v)
        out = (
            TWO_PI
            * self.beta
            * self.rho
            * (
                self.v * math.sqrt(math.pi / 2.0) * scipy.special.erf(z)
                - r * np.exp(-0.5 * (r / self.v) ** 2)
            )
        )
        return float(out) if scalar else out


IntensityModel = Union[PowerLaw, PiecewisePowerLaw, PolynomialWithTail, GaussianCluster]


def mean_count(model: IntensityModel, region: DiskRegion) -> float:
    """Mean number of process points inside the region (the Poisson mean).

    Closed form for every family. An infinite region is only meaningful when
    the total mass converges (Gaussian cluster, or a piecewise model whose
    support is bounded); otherwise a DivergenceError is raised.
    """
    if not region.is_finite:
        if isinstance(model, PowerLaw):
            raise DivergenceError(
                "power-law intensity has infinite mean count over the plane; "
                "use a finite region"
            )
        if isinstance(model, PolynomialWithTail):
            raise DivergenceError(
                "tail exponent above -2 gives an infinite mean count over the "
                "plane; use a finite region"
            )
        if isinstance(model, GaussianCluster):
            return model.total_count
        return float(model.cumulative_count(model.support_radius))
    return float(model.cumulative_count(min(region.radius, model.support_radius)))


def location_pdf(model: IntensityModel, region: DiskRegion, r, theta=0.0):
    """Joint density of a point location in polar coordinates (r, theta).

    Equals r * Lambda(r) / mu inside the region and 0 outside, where mu is the
    region's mean count; integrates to 1 over the region. theta is accepted
    for interface uniformity but never enters (all models are symmetric).
    """
    mu = mean_count(model, region)
    if not mu > 0:
        raise ValueError("intensity has zero mass over the region; density undefined")
    r_arr, scalar = _as_array(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = r_arr * np.asarray(model.radial_intensity(r_arr), dtype=float) / mu
    # r * Lambda(r) can hit 0 * inf at the origin for steep profiles; the
    # radial density genuinely diverges there (still integrable).
    val = np.where(np.isnan(val), np.inf, val)
    val = np.where((r_arr >= 0) & (r_arr < region.radius), val, 0.0)
    return float(val) if scalar else val


def _piecewise_radii(model: PiecewisePowerLaw, r_max: float, u: np.ndarray) -> np.ndarray:
    """Invert the piecewise radial CDF analytically, segment by segment."""
    edges = [0.0]
    masses = []
    for rho, eps, outer in model.segments:
        lo = edges[-1]
        hi = min(outer, r_max)
        if hi <= lo:
            masses.append(0.0)
            edges.append(outer)
            continue
        if eps == -2.0:
            masses.append(TWO_PI * rho * math.log(hi / lo))
        else:
            p = 2.0 + eps
            masses.append(TWO_PI * rho * (hi**p - lo**p) / p)
        edges.append(outer)
    cum = np.cumsum(masses)
    total = cum[-1]
    target = u * total
    # segment k owns targets in (cum[k-1], cum[k]]
    idx = np.searchsorted(cum, target, side="left")
    idx = np.minimum(idx, len(masses) - 1)
    out = np.empty_like(u)
    for k, (rho, eps, outer) in enumerate(model.segments):
        mask = idx == k
        if not np.any(mask):
            continue
        lo = edges[k]
        residual = target[mask] - (cum[k - 1] if k > 0 else 0.0)
        if eps == -2.0:
            out[mask] = lo * np.exp(residual / (TWO_PI * rho))
        else:
            p = 2.0 + eps
            out[mask] = np.power(lo**p + residual * p / (TWO_PI * rho), 1.0 / p)
    return np.minimum(out, r_max)


@functools.lru_cache(maxsize=64)
def _inverse_cdf_table(model: IntensityModel, r_max: float) -> PchipInterpolator:
    """Monotone-cubic interpolant of the inverse radial CDF on [0, r_max]."""
    grid = np.linspace(0.0, r_max, INVERSE_CDF_KNOTS)
    mass = np.asarray(model.cumulative_count(grid), dtype=float)
    total = mass[-1]
    if not total > 0:
        raise ValueError("intensity has zero mass over the sampling region")
    cdf = np.maximum.accumulate(mass / total)
    cdf, keep = np.unique(cdf, return_index=True)
    if cdf.size < 2:
        raise ValueError("degenerate radial CDF; cannot build sampling table")
    return PchipInterpolator(cdf, grid[keep])


def sample_location(model: IntensityModel, region: DiskRegion, rng, size=None):
    """Draw point locations (r, theta) from the normalized intensity.

    theta is uniform on [0, 2*pi); r follows the radial marginal, inverted
    analytically for the power-law families and through a precomputed
    4096-knot inverse-CDF table for the polynomial and Gaussian ones. Pass
    size=None for one (float, float) pair, or an integer for arrays.

    rng must be an exclusive numpy Generator (one per thread).
    """
    mu = mean_count(model, region)  # raises on divergence
    if not mu > 0:
        raise ValueError("intensity has zero mass over the region; nothing to sample")
    n = 1 if size is None else int(size)
    theta = rng.uniform(0.0, TWO_PI, size=n)
    # open at 0 so inverted radii stay strictly positive
    u = 1.0 - rng.random(n)

    if isinstance(model, PowerLaw):
        radius = region.radius  # guaranteed finite by the mean_count guard
        r = radius * np.power(u, 1.0 / (2.0 + model.eps))
    elif isinstance(model, PiecewisePowerLaw):
        r = _piecewise_radii(model, min(region.radius, model.support_radius), u)
    else:
        if region.is_finite:
            r_max = region.radius
        else:
            # only reachable for the Gaussian cluster (others diverge above)
            r_max = GAUSSIAN_SUPPORT_FACTOR * model.v
        table = _inverse_cdf_table(model, float(r_max))
        x = table.x
        r = np.asarray(table(np.clip(u, x[0], x[-1])), dtype=float)

    if size is None:
        return float(r[0]), float(theta[0])
    return r, theta


def fit_polynomial(h: Callable[[float], float], degree: int, R0: float):
    """Least-squares polynomial fit of h on [0, R0] at Chebyshev-spaced nodes.

    Fits on 4*(degree+1) first-kind Chebyshev points mapped to [0, R0] and
    returns (coeffs, sup_residual): coefficients ordered a_0..a_degree and the
    sup-norm residual measured on a dense uniform grid. Degrees above 30 are
    rejected; the monomial representation is too ill-conditioned beyond that.
    """
    degree = int(degree)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > FIT_DEGREE_CAP:
        raise ValueError(
            f"degree {degree} exceeds the conditioning cap of {FIT_DEGREE_CAP}"
        )
    if not R0 > 0:
        raise ValueError(f"R0 must be > 0, got {R0}")

    npts = 4 * (degree + 1)
    j = np.arange(npts)
    nodes = 0.5 * R0 * (1.0 + np.cos(np.pi * (j + 0.5) / npts))
    values = np.array([float(h(x)) for x in nodes])

    # Least squares in the scaled monomial basis (r / R0)^k; well behaved for
    # the permitted degrees, and the coefficients come out directly.
    design = np.polynomial.polynomial.polyvander(nodes / R0, degree)
    scaled, *_ = np.linalg.lstsq(design, values, rcond=None)
    coeffs = scaled / np.power(R0, np.arange(degree + 1))

    dense = np.linspace(0.0, R0, 1025)
    fitted = np.polynomial.polynomial.polyval(dense, coeffs)
    exact = np.array([float(h(x)) for x in dense])
    sup_residual = float(np.max(np.abs(fitted - exact)))
    return coeffs, sup_residual
