"""Radially symmetric intensity models for the planar Poisson interferer field.

Four families cover the workloads of interest: an unbounded power law, piecewise
power laws on concentric annuli, a polynomial profile glued to a decaying
power-law tail, and a Gaussian-shaped cluster centred on the receiver. All are
independent of the angle, so every derived quantity reduces to a radial
integral with the angle uniform on [0, 2*pi).

Each model carries a universal scale factor beta (the effective intensity is
beta times the nominal profile), which is how interferer density is swept
without touching the shape parameters.

Everything that depends on the family lives on its class (see
IntensityModel). The three algebraic families are sums of power-law pieces
and derive it from them (see PowerLawSum). This module is the point process
only: the closed forms of psi over the pieces live in interference, on
nominal parameters, so a coefficient set needs no model object.

Models are frozen, hashable dataclasses. The table-driven samplers cache their
precomputed inverse-CDF tables per (model, radius) pair, so model objects stay
immutable and safely shareable across threads.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import _as_array, three_halves_gamma

__all__ = [
    "ConfigError",
    "DivergenceError",
    "DiskRegion",
    "FULL_PLANE",
    "FAMILIES",
    "IntensityModel",
    "PowerLawSum",
    "PowerLaw",
    "PiecewisePowerLaw",
    "PolynomialWithTail",
    "GaussianCluster",
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
# Step cap of the exact inverse that polishes table draws, and the relative
# step (or a quarter of the relative bracket) it stops at.
NEWTON_STEPS = 60
NEWTON_RTOL = 4.0 * np.finfo(float).eps
# Beyond this degree the monomial representation is too ill-conditioned.
FIT_DEGREE_CAP = 30
# The Gaussian cluster's two scales, in units of v: both psi quadratures
# split the bulk from the exponential tail at 6v; its support_radius is 12v,
# where psi, its count, sampling and a campaign's disk all stop: the mass
# beyond is Q(3/2, 72), about 5e-31 of the total.
GAUSSIAN_SPLIT_FACTOR = 6.0
GAUSSIAN_SUPPORT_FACTOR = 12.0
# The median of the Maxwell law in units of v, where P(3/2, m^2 / 2) = 1/2:
# on a Gaussian-cluster disk at least this wide at least half of the radii
# v sqrt(Z^2 + 2E) fall inside, so a radius takes at most two draws on average.
MAXWELL_MEDIAN = 1.5381722544550522


class DivergenceError(ValueError):
    """The requested integral of the intensity function diverges."""


class ConfigError(ValueError):
    """A configuration document failed validation."""


# ---------------------------------------------------------------------------
# config-form checks, shared with the CLI's parser


def _require_object(raw, where):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(raw).__name__}")


def _check_keys(raw, where, required, optional=()):
    _require_object(raw, where)
    allowed = set(required) | set(optional)
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing key '{key}' in {where}")


def _as_number(value, key, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' in {where} must be a number, got {value!r}")
    return float(value)


def _as_integer(value, key, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' in {where} must be an integer, got {value!r}")
    return value


def _numbers(value, key, where):
    """A nonempty list of numbers, or of such lists, as nested float tuples."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"'{key}' in {where} must be a nonempty list, got {value!r}")
    return tuple(
        _numbers(v, key, where) if isinstance(v, (list, tuple)) else _as_number(v, key, where)
        for v in value
    )


# parsers of a config value by its field's annotation: (value, key, where) -> value
_FIELD_PARSERS = {"float": _as_number, "int": _as_integer, "tuple": _numbers}


def _parse_fields(cls, raw, where, parsers=_FIELD_PARSERS):
    """The dataclass cls from the config object raw, whose keys are its fields
    (those without a default required), each parsed by parsers[annotation]
    (`X | None` reads as X). A ValueError from cls becomes a ConfigError."""
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    _check_keys(raw, where, required, [f.name for f in fields])
    kwargs = {
        f.name: parsers[f.type.removesuffix(" | None")](raw[f.name], f.name, where)
        for f in fields
        if f.name in raw
    }
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


# ---------------------------------------------------------------------------
# power-law pieces of the algebraic families


def _power_mass(c, k, lo, r):
    """Mean count of c * t**k on the annulus (lo, r], 2 pi int_lo^r c t^(k+1)
    dt = 2 pi c (r^p - lo^p) / p with p = k + 2. Where lo > 0 and
    |p log(r/lo)| < 1 the difference would cancel (near k = -2), so there it
    is lo^p expm1(p log(r/lo)) / p, and 2 pi c log(r/lo) at p = 0."""
    p = 2.0 + k
    if lo == 0.0:
        return TWO_PI * c * np.power(r, p) / p
    log_ratio = np.log(r / lo)
    if p == 0.0:
        return TWO_PI * c * log_ratio
    x, lo_p = p * log_ratio, np.power(lo, p)
    near = lo_p * np.expm1(np.clip(x, -1.0, 1.0))
    return TWO_PI * c * np.where(np.abs(x) < 1.0, near, np.power(r, p) - lo_p) / p


def _polynomial_pieces(coeffs, R0, rho0, eps_tail):
    """a_k r^k on (0, R0] for each nonzero a_k, and rho0 r^eps_tail beyond
    R0 unless rho0 is 0."""
    disk = tuple((a, k, 0.0, R0) for k, a in enumerate(coeffs) if a != 0.0)
    return disk + (((rho0, eps_tail, R0, math.inf),) if rho0 > 0 else ())


# ---------------------------------------------------------------------------
# the families


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


FULL_PLANE = DiskRegion(math.inf)


class IntensityModel:
    """The protocol every intensity family implements, with its defaults.

    A family is a frozen dataclass subclass with float or tuple fields (beta
    last) and a `family` config name, a key of FAMILIES. It must provide
    radial_intensity(r) and cumulative_count(r) (beta included), and a
    finite support_radius or an algebraic_tail. It overrides the defaults
    below where they do not hold. A family whose profile is a sum of power
    laws derives all of these from its pieces (see PowerLawSum).
    """

    # where Lambda ends (a finite support is also a campaign's disk), and
    # the radii adaptive quadrature splits at
    support_radius = math.inf
    quadrature_breakpoints = ()
    # the nominal (beta = 1) profile as power-law pieces (see PowerLawSum),
    # psi's closed form, and dpsi_closed_form(alpha, gamma, psi), d psi /
    # d gamma from psi (beta included); None sends either to the panel rule
    pieces = None
    dpsi_closed_form = None
    # (rho, eps, r0) when Lambda is beta * rho * r**eps beyond r0
    algebraic_tail = None

    def check_alpha(self, alpha: float) -> None:
        """Raise DivergenceError where psi diverges at this alpha."""

    def draw_radii(self, rng, n: int, r_max: float):
        """n radii drawn from rng by the radial law on [0, r_max] (cut to
        the support; r_max is math.inf for the whole plane): by default
        sample_radii at n uniforms open at 0, so the radii stay positive."""
        return self.sample_radii(1.0 - rng.random(n), r_max)

    def sample_radii(self, u, r_max: float):
        """The radial inverse CDF on [0, r_max] (cut to the support; r_max is
        math.inf for the whole plane) at uniforms u in (0, 1].

        Newton steps from the inverse-CDF table's guess in (log r, log
        cumulative_count), exact for a pure power of r, bisecting the bracket
        round the root where one leaves it. Every draw is polished, since the
        table is off both near the origin, where r goes like u^(1/2) for a
        profile finite there, and across kinks of the CDF."""
        r_max = min(r_max, self.support_radius)
        r, _ = _table_radii(self, r_max, u)
        target = u * self.cumulative_count(r_max)
        lo, hi = np.zeros_like(u), np.full_like(u, r_max)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(NEWTON_STEPS):
                mass = self.cumulative_count(r)
                lo = np.where(mass < target, r, lo)
                hi = np.where(mass > target, r, hi)
                slope = TWO_PI * r * r * self.radial_intensity(r) / mass
                step = r * np.exp(np.log(target / mass) / slope)
                # cumulative_count rounds by a few ulps, so a bracket closed
                # to adjacent doubles also ends a draw
                done = (np.abs(step - r) <= NEWTON_RTOL * r) | (hi - lo <= 4.0 * NEWTON_RTOL * r)
                if done.all():
                    return step
                r = np.where(done | ((lo < step) & (step < hi)), step, 0.5 * (lo + hi))
        return r

    def to_dict(self) -> dict:
        """The config form: the family name and every field."""
        return {"family": self.family, **dataclasses.asdict(self)}

    @classmethod
    def from_dict(cls, raw, where="model"):
        """The model a config's model object describes; the inverse of to_dict.

        Dispatches on raw["family"] through FAMILIES. Every number, in scalar
        fields and list entries alike, must be a JSON number (not a boolean
        or a string). Raises ConfigError.
        """
        _require_object(raw, where)
        if "family" not in raw:
            raise ConfigError(f"missing key 'family' in {where}")
        family = raw["family"]
        family_cls = FAMILIES.get(family) if isinstance(family, str) else None
        if family_cls is None or not issubclass(family_cls, cls):
            raise ConfigError(f"unknown model family {family!r} in {where}")
        fields = {key: value for key, value in raw.items() if key != "family"}
        try:
            return family_cls._from_fields(fields, where)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {where}: {exc}") from exc

    @classmethod
    def _from_fields(cls, raw, where):
        """The model from its config object's keys other than family."""
        return _parse_fields(cls, raw, where)


def _table_radii(model, r_max: float, u: np.ndarray):
    """Radii from the model's cached inverse-CDF table, and the table's knots.

    Each u is evaluated on the interval with x[i] <= u < x[i + 1] (the last
    knot closes the last interval), so a knot gives its grid radius exactly;
    the last interval's rounding is clipped to r_max.
    """
    x, coeffs = _inverse_cdf_table(model, float(r_max))
    u = np.clip(u, x[0], x[-1])
    i = np.searchsorted(x[1:-1], u, "right")
    s = u - x[i]
    s2 = s * s
    c0, c1, c2, c3 = coeffs[:, i]
    return np.minimum(((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s), r_max), x


class PowerLawSum(IntensityModel):
    """A family whose nominal profile is a sum of power-law pieces.

    The family declares pieces, a tuple of (c, k, lo, hi) meaning c * r**k
    on (lo, hi]: lo = 0 takes in the origin (and needs k > -2), and hi = inf
    marks the tail, the one piece that reaches infinity. Everything below
    follows from them; pieces and the members read per trial are computed
    once per model.
    """

    def radial_intensity(self, r):
        r, scalar = _as_array(r)
        out = np.zeros_like(r)
        with np.errstate(divide="ignore"):
            for c, k, lo, hi in self.pieces:
                inside = ((r > lo) if lo > 0 else (r >= 0)) & (r <= hi)
                out += c * np.power(r, k, out=np.zeros_like(r), where=inside)
        out = self.beta * out
        return float(out) if scalar else out

    def cumulative_count(self, r):
        """Mean number of points within radius r."""
        r, scalar = _as_array(r)
        out = sum(_power_mass(c, k, lo, np.clip(r, lo, hi)) for c, k, lo, hi in self.pieces)
        out = self.beta * out
        return float(out) if scalar else out

    @functools.cached_property
    def support_radius(self) -> float:
        return max(hi for *_, hi in self.pieces)

    @functools.cached_property
    def quadrature_breakpoints(self):
        edges = {e for *_, lo, hi in self.pieces for e in (lo, hi)}
        return tuple(sorted(e for e in edges if 0 < e < self.support_radius))

    @functools.cached_property
    def algebraic_tail(self):
        return next(((c, k, lo) for c, k, lo, hi in self.pieces if hi == math.inf), None)

    def check_alpha(self, alpha: float) -> None:
        tail = self.algebraic_tail
        if tail is not None and not tail[1] < alpha - 2:
            raise DivergenceError(
                "power-law interference is finite only for eps < alpha - 2; got "
                f"eps={tail[1]} with alpha={alpha}"
            )


@dataclass(frozen=True)
class PowerLaw(PowerLawSum):
    """Intensity beta * rho * r**eps over the whole plane.

    eps > -2 keeps the mean count near the origin finite. The mean count over
    the whole plane always diverges for this family, so mean counts and
    samplers require a finite region.
    """

    family = "power_law"

    rho: float
    eps: float
    beta: float = 1.0

    def __post_init__(self):
        if not self.rho >= 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if not self.eps > -2:
            raise ValueError(f"eps must exceed -2 for integrability at the origin, got {self.eps}")
        _check_beta(self.beta)

    @functools.cached_property
    def pieces(self):
        return ((self.rho, self.eps, 0.0, math.inf),)

    def dpsi_closed_form(self, alpha: float, gamma, psi):
        # psi is a power of gamma, (2 + eps) / alpha
        return psi * (self.eps + 2.0) / (alpha * gamma)

    def sample_radii(self, u, r_max: float):
        # the exact inverse of the mass r_max^(2 + eps) u
        return r_max * np.power(u, 1.0 / (2.0 + self.eps))


@dataclass(frozen=True)
class PiecewisePowerLaw(PowerLawSum):
    """Concentric power-law annuli, zero intensity beyond the outermost radius.

    segments is an ordered sequence of (rho_k, eps_k, R_k) triples with
    0 < R_1 < ... < R_m; segment k applies on the annulus (R_{k-1}, R_k].
    Only the innermost segment must satisfy eps > -2 (outer segments exclude
    the origin, so any exponent is integrable there).
    """

    family = "piecewise_power_law"

    segments: tuple
    beta: float = 1.0

    def __post_init__(self):
        try:
            segs = tuple(
                (float(rho), float(eps), float(radius))
                for rho, eps, radius in self.segments
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"segments must be (rho, eps, R) triples: {exc}") from exc
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
            raise ValueError(f"innermost segment must have eps > -2, got {segs[0][1]}")
        _check_beta(self.beta)
        object.__setattr__(self, "segments", segs)
        with np.errstate(over="ignore", invalid="ignore"):
            total = self.cumulative_count(self.support_radius)
        if not math.isfinite(total):
            raise ValueError(
                f"segments {segs} with beta = {self.beta} make the total count overflow"
            )

    @functools.cached_property
    def pieces(self):
        edges = (0.0, *(radius for *_, radius in self.segments))
        return tuple((rho, eps, lo, hi) for (rho, eps, hi), lo in zip(self.segments, edges))


@dataclass(frozen=True)
class PolynomialWithTail(PowerLawSum):
    """Polynomial radial profile on [0, R0] with a decaying power-law tail.

    Intensity is beta * sum_k a_k r^k for r <= R0 and beta * rho0 * r**eps_tail
    beyond, with eps_tail strictly between -2 and -1. Nonnegativity of the
    polynomial part is checked on a 1024-point grid at construction (a full
    certificate is out of scope); continuity at R0 is not required, but a
    mismatch above 10% of the tail's boundary value triggers a warning.
    """

    family = "polynomial_with_tail"

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
            raise ValueError(f"eps_tail must lie strictly inside (-2, -1), got {self.eps_tail}")
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

    @functools.cached_property
    def pieces(self):
        return _polynomial_pieces(self.coeffs, self.R0, self.rho0, self.eps_tail)

    def radial_intensity(self, r):
        # Horner's rule: 4.0 ms on a 1.28e5-point array of the pdf's panel
        # rule, against 15.6 ms for the sum over pieces (2-core Xeon)
        r, scalar = _as_array(r)
        inside = np.polynomial.polynomial.polyval(r, self.coeffs)
        tail = self.rho0 * np.power(np.maximum(r, self.R0), self.eps_tail)
        out = self.beta * np.where(r <= self.R0, inside, tail)
        return float(out) if scalar else out


@dataclass(frozen=True)
class GaussianCluster(IntensityModel):
    """Cluster profile beta * rho * (r / v**2) * exp(-r**2 / (2 v**2)).

    The radial point density is then r**2 * exp(-r**2 / (2 v**2)) up to
    normalization, and the mean count over the whole plane is finite:
    2 * pi * rho * v * sqrt(pi / 2). It has no closed-form psi: the panel
    rule evaluates it.
    """

    family = "gaussian_cluster"

    rho: float
    v: float
    beta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if not (self.v > 0 and math.isfinite(self.v * self.v)):
            raise ValueError(f"width v must be > 0 with a finite v**2, got {self.v}")
        _check_beta(self.beta)
        if not math.isfinite(self.total_count):
            raise ValueError(
                f"rho = {self.rho} with v = {self.v} and beta = {self.beta} "
                "makes the total count overflow"
            )

    @classmethod
    def with_total_count(cls, total: float, v: float, beta: float = 1.0):
        """Cluster whose whole-plane mean count equals `total` (at beta = 1).

        A width too small for the count (rho overflows) is a ValueError."""
        if not v > 0:
            raise ValueError(f"width v must be > 0, got {v}")
        rho = total / (TWO_PI * v * math.sqrt(math.pi / 2.0))
        return cls(rho=rho, v=v, beta=beta)

    @classmethod
    def _from_fields(cls, raw, where):
        """rho, or instead a whole-plane total_count, besides v and beta."""
        if ("rho" in raw) == ("total_count" in raw):
            raise ConfigError(f"{where} needs exactly one of 'rho' or 'total_count'")
        if "rho" in raw:
            return super()._from_fields(raw, where)
        _check_keys(raw, where, ("v", "total_count"), ("beta",))
        kwargs = {key: _as_number(value, key, where) for key, value in raw.items()}
        return cls.with_total_count(kwargs.pop("total_count"), **kwargs)

    @property
    def total_count(self) -> float:
        """Mean number of points over the whole plane."""
        return TWO_PI * self.beta * self.rho * self.v * math.sqrt(math.pi / 2.0)

    @property
    def support_radius(self) -> float:
        return GAUSSIAN_SUPPORT_FACTOR * self.v

    @property
    def quadrature_breakpoints(self):
        return (GAUSSIAN_SPLIT_FACTOR * self.v,)

    def radial_intensity(self, r):
        r, scalar = _as_array(r)
        out = self.beta * self.rho * (r / self.v**2) * np.exp(-0.5 * (r / self.v) ** 2)
        return float(out) if scalar else out

    def cumulative_count(self, r):
        """Mean number of points within radius r: the total times
        P(3/2, r^2 / 2v^2), which keeps its relative accuracy near the origin,
        where the count goes like r^3."""
        r, scalar = _as_array(r)
        out = self.total_count * three_halves_gamma(0.5 * (r / self.v) ** 2)
        return float(out) if scalar else out

    def draw_radii(self, rng, n: int, r_max: float):
        """v sqrt(Z^2 + 2E): each round draws k normals Z, then k exponentials
        E. The radial density is proportional to r^2 exp(-r^2 / 2v^2), the
        Maxwell law of v |Z_3|, Z_3 ~ N(0, I_3), and |Z_3|^2 = Z^2 + 2E in
        law, chi-squared with 3 degrees of freedom (Devroye 1986, ch. IX).
        Radii beyond the disk are drawn again until none is left. A disk
        narrower than MAXWELL_MEDIAN v would redraw more than half of them,
        so there the inherited inverse CDF draws instead."""
        r_max = min(r_max, self.support_radius)
        if r_max < MAXWELL_MEDIAN * self.v:
            return super().draw_radii(rng, n, r_max)
        r = np.empty(n)
        todo = np.arange(n)
        while todo.size:
            z = rng.standard_normal(todo.size)
            r[todo] = self.v * np.sqrt(z * z + 2.0 * rng.standard_exponential(todo.size))
            todo = todo[r[todo] > r_max]
        return r


FAMILIES = {
    cls.family: cls for cls in (PowerLaw, PiecewisePowerLaw, PolynomialWithTail, GaussianCluster)
}


@functools.lru_cache(maxsize=64)
def mean_count(model: IntensityModel, region: DiskRegion) -> float:
    """Mean number of process points inside the region (the Poisson mean):
    the cumulative count at the region's radius, cut to the support.

    Closed form for every family. An infinite region is only meaningful when
    the support is finite (Gaussian cluster, piecewise model); otherwise a
    DivergenceError is raised. Models and regions are immutable, so the
    value is cached: a campaign asks for it once per chunk. A count past the
    float range is inf, for the caller to judge.
    """
    radius = min(region.radius, model.support_radius)
    if math.isinf(radius):
        raise DivergenceError(
            f"{type(model).__name__} intensity has infinite mean count over the "
            "plane; use a finite region"
        )
    with np.errstate(over="ignore"):
        return float(model.cumulative_count(radius))


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


@functools.lru_cache(maxsize=64)
def _inverse_cdf_table(model: IntensityModel, r_max: float):
    """Monotone cubic Hermite interpolant of the inverse radial CDF on
    [0, r_max]: the CDF knots, and a (4, knots - 1) array whose row k holds
    the coefficient of (u - knot)^(3 - k) on each interval.

    The knot slopes are the exact dr/du = N(r_max) / (2 pi r Lambda(r)),
    capped at 3x the smaller neighbouring secant, which keeps every cubic
    monotone (Fritsch and Carlson 1980) and stands in where the exact slope
    is not finite, as at r = 0."""
    grid = np.linspace(0.0, r_max, INVERSE_CDF_KNOTS)
    mass = np.asarray(model.cumulative_count(grid), dtype=float)
    total = mass[-1]
    if not total > 0:
        raise ValueError("intensity has zero mass over the sampling region")
    cdf = np.maximum.accumulate(mass / total)
    cdf, keep = np.unique(cdf, return_index=True)
    if cdf.size < 2:
        raise ValueError("degenerate radial CDF; cannot build sampling table")
    r = grid[keep]
    h = np.diff(cdf)
    secant = np.diff(r) / h
    with np.errstate(divide="ignore", invalid="ignore"):
        d = total / (TWO_PI * r * model.radial_intensity(r))
    padded = np.concatenate([secant[:1], secant, secant[-1:]])
    d = np.fmin(d, 3.0 * np.fmin(padded[:-1], padded[1:]))
    t = (d[:-1] + d[1:] - 2.0 * secant) / h
    return cdf, np.stack([t / h, (secant - d[:-1]) / h - t, d[:-1], r[:-1]])


def sample_location(model: IntensityModel, region: DiskRegion, rng, size=None):
    """Draw point locations (r, theta) from the normalized intensity.

    theta is uniform on [0, 2*pi); r follows the radial marginal, drawn by
    the family's draw_radii after the angles: analytic inversion for the
    power law, a 4096-knot cubic Hermite inverse-CDF table with slopes from
    the density and Newton polish for the piecewise and polynomial families,
    and for the Gaussian cluster v sqrt(Z^2 + 2E), Z a standard normal and E
    a standard exponential (the Maxwell law). Pass size=None for one
    (float, float) pair, or an integer for arrays.

    rng must be an exclusive numpy Generator (one per thread).
    """
    mu = mean_count(model, region)  # raises on divergence
    if not mu > 0:
        raise ValueError("intensity has zero mass over the region; nothing to sample")
    n = 1 if size is None else int(size)
    theta = rng.uniform(0.0, TWO_PI, size=n)
    r = model.draw_radii(rng, n, region.radius)
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
