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
IntensityModel). The raw closed forms of psi sit beside the families; they
take nominal parameters, so a coefficient set needs no model object.

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
from typing import Callable, Sequence

import numpy as np
import scipy.special

from .specfun import _as_array, hyp2f1_first_unit

__all__ = [
    "ConfigError",
    "DivergenceError",
    "DiskRegion",
    "FULL_PLANE",
    "FAMILIES",
    "IntensityModel",
    "PowerLaw",
    "PiecewisePowerLaw",
    "PolynomialWithTail",
    "GaussianCluster",
    "mean_count",
    "location_pdf",
    "sample_location",
    "fit_polynomial",
    "psi_power_law",
    "psi_piecewise",
    "psi_polynomial",
]

TWO_PI = 2.0 * math.pi

# Construction-time sign check for polynomial profiles.
NONNEGATIVITY_GRID = 1024
# Knot count of the tabulated inverse radial CDF used by table-driven samplers.
INVERSE_CDF_KNOTS = 4096
# Below the CDF value at this knot of its table a Gaussian-cluster radius is
# drawn by the exact (Maxwell) inverse. Near the origin the radius goes like
# u^(1/3), which the cubic table follows badly: 24% off at u = 1e-9 on the 8v
# disk, while above knot 64 (u = 5.2e-4 there) at most 1.3e-8.
EXACT_INVERSE_KNOTS = 64
# Step cap of the exact polynomial inverse, and the relative step it stops at.
POLYNOMIAL_NEWTON_STEPS = 60
NEWTON_RTOL = 4.0 * np.finfo(float).eps
# Beyond this degree the monomial representation is too ill-conditioned.
FIT_DEGREE_CAP = 30
# The Gaussian cluster's three scales, in units of v: adaptive quadrature
# splits the bulk from the exponential tail at 6v; simulations truncate at 8v
# (nearly all the mass lies within 5v); the panel rule and whole-plane
# sampling stop at 12v, beyond which the mass is ~1e-32 of the total.
GAUSSIAN_SPLIT_FACTOR = 6.0
GAUSSIAN_TRUNCATION_FACTOR = 8.0
GAUSSIAN_SUPPORT_FACTOR = 12.0
# Where the log-r integrand decays exponentially past the knee and the
# model's scales, the panel rule stops after this many e-folds (e^-40 ~ 4e-18).
PANEL_TAIL_EFOLDS = 40.0
# Piecewise segments closer than this to the outer-form pole at eps = alpha-2
# are evaluated with the disk form instead.
_POLE_MARGIN = 0.01


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
# closed forms of psi, on nominal parameters


def _check_alpha(alpha: float) -> None:
    if not alpha > 2:
        raise ValueError(f"path-loss exponent alpha must exceed 2, got {alpha}")


def _gamma_array(gamma):
    """gamma as a float array, whether it was a scalar, and a positive stand-in.

    The stand-in replaces gamma = 0 by 1 so closed forms stay finite there;
    callers zero those entries afterwards (psi(0) = 0).
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0):
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    return g, g.ndim == 0, np.where(g > 0, g, 1.0)


def _finish(g, scalar, values):
    out = np.where(g > 0, values, 0.0)
    return float(out) if scalar else out


def psi_power_law(rho, eps, alpha: float, gamma):
    """Closed form for the unbounded power law rho * r**eps.

    psi(gamma) = (2 pi^2 rho / alpha) * gamma^((eps+2)/alpha) / sin(pi (eps+2)/alpha),
    valid for -2 < eps < alpha - 2 (the open constraint keeps the cosecant
    away from its poles). rho and eps may be arrays too, broadcast against
    gamma; the result is a float only when all three are scalars.
    """
    _check_alpha(alpha)
    g, _, gp = _gamma_array(gamma)
    rho, eps = np.asarray(rho, dtype=float), np.asarray(eps, dtype=float)
    if not np.all(rho >= 0):
        raise ValueError(f"rho must be >= 0, got {rho}")
    if not np.all((-2.0 < eps) & (eps < alpha - 2.0)):
        raise DivergenceError(
            f"power-law interference requires -2 < eps < alpha - 2, got eps={eps}"
        )
    c = (eps + 2.0) / alpha
    # numpy takes x ** 0.5 as sqrt(x) for a scalar exponent only; c = 1/2
    # entries use sqrt too, so a point's value does not depend on its batch
    power = np.where(c == 0.5, np.sqrt(gp), gp**c)
    out = _finish(g, False, (2.0 * math.pi**2 * rho / alpha) * power / np.sin(math.pi * c))
    return float(out) if out.ndim == 0 else out


def _disk_term(rho: float, eps: float, alpha: float, gamma, radius: float):
    """Contribution of rho*r**eps over the disk (0, radius]; needs eps > -2."""
    b = (2.0 + eps) / alpha
    return (
        TWO_PI
        * rho
        * radius ** (2.0 + eps)
        / (2.0 + eps)
        * hyp2f1_first_unit(b, radius**alpha / gamma)
    )


def _outer_term(rho: float, eps: float, alpha: float, gamma, radius: float):
    """Contribution of rho*r**eps over (radius, inf); needs eps < alpha - 2."""
    c = (alpha - 2.0 - eps) / alpha
    return (
        TWO_PI
        * rho
        * gamma
        * radius ** (2.0 + eps - alpha)
        / (alpha - 2.0 - eps)
        * hyp2f1_first_unit(c, gamma * radius ** (-alpha))
    )


def psi_polynomial(
    coeffs: Sequence[float],
    R0: float,
    rho0: float,
    eps_tail: float,
    alpha: float,
    gamma,
):
    """Closed form for a polynomial profile on [0, R0] plus a power-law tail.

    The disk part contributes one hypergeometric term per coefficient,
    2*pi*a_k*R0^(2+k)/(2+k) * 2F1(1,(2+k)/alpha;(2+k)/alpha+1;-R0^alpha/gamma),
    and the tail rho0*r**eps_tail over (R0, inf) contributes the outer-region
    term. rho0 = 0 is allowed and drops the tail (a purely disk-supported
    profile).
    """
    _check_alpha(alpha)
    g, scalar, gp = _gamma_array(gamma)
    if not R0 > 0:
        raise ValueError(f"R0 must be > 0, got {R0}")
    if not rho0 >= 0:
        raise ValueError(f"rho0 must be >= 0, got {rho0}")
    if rho0 > 0 and not -2.0 < eps_tail < -1.0:
        raise ValueError(
            f"eps_tail must lie strictly inside (-2, -1), got {eps_tail}"
        )
    x = R0**alpha / gp
    disk = 0.0
    for k, a in enumerate(coeffs):
        if a == 0.0:
            continue
        b = (2.0 + k) / alpha
        disk += a * R0 ** (2.0 + k) / (2.0 + k) * hyp2f1_first_unit(b, x)
    disk *= TWO_PI
    tail = 0.0
    if rho0 > 0:
        tail = _outer_term(rho0, eps_tail, alpha, gp, R0)
    return _finish(g, scalar, disk + tail)


def psi_piecewise(segments, alpha: float, gamma):
    """Closed form for concentric power-law annuli (zero beyond the support).

    segments is a sequence of (rho, eps, R) triples. Each annulus (a, b] is
    expressed as a difference of two hypergeometric terms, using the disk
    form when the exponent sits near or above the outer form's pole at
    eps = alpha - 2 and the outer form elsewhere; the two assemblies are
    algebraically identical where both converge.
    """
    _check_alpha(alpha)
    g, scalar, gp = _gamma_array(gamma)
    segs = PiecewisePowerLaw(tuple(segments)).segments
    total = 0.0
    inner = 0.0
    for k, (rho, eps, outer) in enumerate(segs):
        if k == 0 or eps >= alpha - 2.0 - _POLE_MARGIN:
            term = _disk_term(rho, eps, alpha, gp, outer)
            if inner > 0.0:
                term -= _disk_term(rho, eps, alpha, gp, inner)
        else:
            term = _outer_term(rho, eps, alpha, gp, inner) - _outer_term(
                rho, eps, alpha, gp, outer
            )
        total += term
        inner = outer
    return _finish(g, scalar, total)


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

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.radius)


FULL_PLANE = DiskRegion(math.inf)


class IntensityModel:
    """The protocol every intensity family implements, with its defaults.

    A family is a frozen dataclass subclass with float or tuple fields (beta
    last) and a `family` config name, a key of FAMILIES. It must provide
    radial_intensity(r) and cumulative_count(r) (beta included),
    sample_radii(u, r_max), the radial inverse CDF on [0, r_max] at uniforms
    u in (0, 1] (r_max is math.inf for the whole plane), and
    panel_layout(alpha, knee), the (small-r exponent of Lambda, inner scale,
    upper radius, breakpoints) of the log-r panel rule. It overrides the
    defaults below where they do not hold.
    """

    # where Lambda ends, and the radii adaptive quadrature splits at
    support_radius = math.inf
    quadrature_breakpoints = ()
    # psi_closed_form(alpha, gamma), psi of the nominal (beta = 1) profile,
    # and dpsi_closed_form(alpha, gamma, psi), d psi / d gamma from psi (beta
    # included); None sends either to the panel rule
    psi_closed_form = None
    dpsi_closed_form = None
    # (rho, eps, r0) when Lambda is beta * rho * r**eps beyond r0
    algebraic_tail = None

    def check_alpha(self, alpha: float) -> None:
        """Raise DivergenceError where psi diverges at this alpha."""

    @property
    def fixed_truncation_radius(self):
        """A simulation radius that needs no link or trial count, for a family
        without an algebraic tail: by default its finite support."""
        return self.support_radius if math.isfinite(self.support_radius) else None

    def plane_count(self) -> float:
        """Mean count over the whole plane, finite only for a finite support."""
        if math.isfinite(self.support_radius):
            return float(self.cumulative_count(self.support_radius))
        raise DivergenceError(
            f"{type(self).__name__} intensity has infinite mean count over the "
            "plane; use a finite region"
        )

    def _tail_panel_end(self, alpha: float, knee):
        """Where, past the knee and r0, the log-r integrand of an algebraic
        tail (like r^(2 + eps - alpha)) has lost PANEL_TAIL_EFOLDS e-folds;
        infinite where the tail does not decay (eps >= alpha - 2)."""
        _, eps, r0 = self.algebraic_tail
        if not alpha - 2.0 - eps > 0:
            return math.inf
        return np.maximum(knee, r0) * math.exp(PANEL_TAIL_EFOLDS / (alpha - 2.0 - eps))

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
    knot closes the last interval), in the order of scipy's PPoly, so the
    radii match a PchipInterpolator on the same knots bit for bit.
    """
    x, coeffs = _inverse_cdf_table(model, float(r_max))
    u = np.clip(u, x[0], x[-1])
    i = np.searchsorted(x[1:-1], u, "right")
    s = u - x[i]
    s2 = s * s
    c0, c1, c2, c3 = coeffs[:, i]
    return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s), x


@dataclass(frozen=True)
class PowerLaw(IntensityModel):
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
            raise ValueError(
                f"eps must exceed -2 for integrability at the origin, got {self.eps}"
            )
        _check_beta(self.beta)

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

    def check_alpha(self, alpha: float) -> None:
        if not self.eps < alpha - 2:
            raise DivergenceError(
                "power-law interference is finite only for eps < alpha - 2; got "
                f"eps={self.eps} with alpha={alpha}"
            )

    def psi_closed_form(self, alpha: float, gamma):
        return psi_power_law(self.rho, self.eps, alpha, gamma)

    def dpsi_closed_form(self, alpha: float, gamma, psi):
        # psi is a power of gamma, (2 + eps) / alpha
        return psi * (self.eps + 2.0) / (alpha * gamma)

    @property
    def algebraic_tail(self):
        return self.rho, self.eps, 0.0

    def panel_layout(self, alpha: float, knee):
        return self.eps, math.inf, self._tail_panel_end(alpha, knee), ()

    def sample_radii(self, u, r_max: float):
        return r_max * np.power(u, 1.0 / (2.0 + self.eps))


@dataclass(frozen=True)
class PiecewisePowerLaw(IntensityModel):
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
            raise ValueError(
                f"innermost segment must have eps > -2, got {segs[0][1]}"
            )
        _check_beta(self.beta)
        object.__setattr__(self, "segments", segs)

    @property
    def support_radius(self) -> float:
        return self.segments[-1][2]

    @property
    def quadrature_breakpoints(self):
        return tuple(s[2] for s in self.segments[:-1])

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

    def psi_closed_form(self, alpha: float, gamma):
        return psi_piecewise(self.segments, alpha, gamma)

    def panel_layout(self, alpha: float, knee):
        _, eps, inner = self.segments[0]
        return eps, inner, self.support_radius, self.quadrature_breakpoints

    def sample_radii(self, u, r_max: float):
        """Invert the piecewise radial CDF analytically, segment by segment."""
        r_max = min(r_max, self.support_radius)
        edges = [0.0, *(outer for _, _, outer in self.segments)]
        masses = []
        for (rho, eps, outer), lo in zip(self.segments, edges):
            hi = min(outer, r_max)
            if hi <= lo:
                masses.append(0.0)
            elif eps == -2.0:
                masses.append(TWO_PI * rho * math.log(hi / lo))
            else:
                p = 2.0 + eps
                masses.append(TWO_PI * rho * (hi**p - lo**p) / p)
        cum = np.cumsum(masses)
        target = u * cum[-1]
        # segment k owns targets in (cum[k-1], cum[k]]
        idx = np.searchsorted(cum, target, side="left")
        idx = np.minimum(idx, len(masses) - 1)
        out = np.empty_like(u)
        for k, (rho, eps, outer) in enumerate(self.segments):
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


@dataclass(frozen=True)
class PolynomialWithTail(IntensityModel):
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
    def quadrature_breakpoints(self):
        return (self.R0,)

    @property
    def algebraic_tail(self):
        return self.rho0, self.eps_tail, self.R0

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

    def psi_closed_form(self, alpha: float, gamma):
        return psi_polynomial(self.coeffs, self.R0, self.rho0, self.eps_tail, alpha, gamma)

    def panel_layout(self, alpha: float, knee):
        small = next((k for k, a in enumerate(self.coeffs) if a != 0.0), 0)
        return small, self.R0, self._tail_panel_end(alpha, knee), (self.R0,)

    def sample_radii(self, u, r_max: float):
        """Exact inverse radial CDF on [0, r_max]: Newton steps from the
        table's guess in (log r, log cumulative_count), exact for a pure power
        of r, bisecting the bracket round the root where one leaves it. Every
        draw is polished, since the table is off both near the origin, where
        r goes like u^(1/2), and across the kink of the CDF at R0."""
        r, _ = _table_radii(self, r_max, u)
        target = u * self.cumulative_count(r_max)
        lo, hi = np.zeros_like(u), np.full_like(u, r_max)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(POLYNOMIAL_NEWTON_STEPS):
                mass = self.cumulative_count(r)
                lo = np.where(mass < target, r, lo)
                hi = np.where(mass > target, r, hi)
                slope = TWO_PI * r * r * self.radial_intensity(r) / mass
                step = r * np.exp(np.log(target / mass) / slope)
                done = np.abs(step - r) <= NEWTON_RTOL * r
                if done.all():
                    return step
                r = np.where(done | ((lo < step) & (step < hi)), step, 0.5 * (lo + hi))
        return r


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
        if not self.v > 0:
            raise ValueError(f"width v must be > 0, got {self.v}")
        _check_beta(self.beta)

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
    def quadrature_breakpoints(self):
        return (GAUSSIAN_SPLIT_FACTOR * self.v,)

    @property
    def fixed_truncation_radius(self) -> float:
        return GAUSSIAN_TRUNCATION_FACTOR * self.v

    def plane_count(self) -> float:
        return self.total_count

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

    def panel_layout(self, alpha: float, knee):
        return 1.0, self.v, GAUSSIAN_SUPPORT_FACTOR * self.v, ()

    def sample_radii(self, u, r_max: float):
        """The table, with draws below its EXACT_INVERSE_KNOTS-th knot taken
        by the exact inverse: the radial density is proportional to
        r^2 exp(-r^2 / 2v^2), so the CDF is P(3/2, r^2/2v^2) /
        P(3/2, r_max^2/2v^2), P the regularized lower incomplete gamma."""
        if math.isinf(r_max):
            r_max = GAUSSIAN_SUPPORT_FACTOR * self.v
        r, knots = _table_radii(self, r_max, u)
        near = u < knots[EXACT_INVERSE_KNOTS]
        if near.any():
            mass = scipy.special.gammainc(1.5, 0.5 * (r_max / self.v) ** 2)
            r[near] = self.v * np.sqrt(2.0 * scipy.special.gammaincinv(1.5, u[near] * mass))
        return r


FAMILIES = {
    cls.family: cls for cls in (PowerLaw, PiecewisePowerLaw, PolynomialWithTail, GaussianCluster)
}


def mean_count(model: IntensityModel, region: DiskRegion) -> float:
    """Mean number of process points inside the region (the Poisson mean).

    Closed form for every family. An infinite region is only meaningful when
    the total mass converges (Gaussian cluster, or a piecewise model whose
    support is bounded); otherwise a DivergenceError is raised.
    """
    if not region.is_finite:
        return model.plane_count()
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


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept from overshooting the data."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic coefficients of the PCHIP interpolant through (x, y), x strictly
    increasing: row k holds the coefficient of (t - x[i])^(3 - k) on each
    interval i.

    The knot slopes are the Fritsch-Butland weighted harmonic mean of the
    neighbouring secants inside (0 where they differ in sign or vanish) and
    one-sided three-point estimates at the ends; every step is the arithmetic
    of scipy's PchipInterpolator, so the two agree bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d = np.concatenate([
            [_pchip_end_slope(h[0], h[1], m[0], m[1])],
            inner,
            [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])],
        ])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


@functools.lru_cache(maxsize=64)
def _inverse_cdf_table(model: IntensityModel, r_max: float):
    """Monotone-cubic (PCHIP) interpolant of the inverse radial CDF on
    [0, r_max]: the CDF knots and _pchip_coefficients of the radii there."""
    grid = np.linspace(0.0, r_max, INVERSE_CDF_KNOTS)
    mass = np.asarray(model.cumulative_count(grid), dtype=float)
    total = mass[-1]
    if not total > 0:
        raise ValueError("intensity has zero mass over the sampling region")
    cdf = np.maximum.accumulate(mass / total)
    cdf, keep = np.unique(cdf, return_index=True)
    if cdf.size < 2:
        raise ValueError("degenerate radial CDF; cannot build sampling table")
    return cdf, _pchip_coefficients(cdf, grid[keep])


def sample_location(model: IntensityModel, region: DiskRegion, rng, size=None):
    """Draw point locations (r, theta) from the normalized intensity.

    theta is uniform on [0, 2*pi); r follows the radial marginal, drawn by
    the family's sample_radii: analytic inversion for the power-law
    families, a 4096-knot inverse-CDF table polished by an exact inverse for
    the polynomial and Gaussian ones. Pass size=None for one (float, float)
    pair, or an integer for arrays.

    rng must be an exclusive numpy Generator (one per thread).
    """
    mu = mean_count(model, region)  # raises on divergence
    if not mu > 0:
        raise ValueError("intensity has zero mass over the region; nothing to sample")
    n = 1 if size is None else int(size)
    theta = rng.uniform(0.0, TWO_PI, size=n)
    # open at 0 so inverted radii stay strictly positive
    u = 1.0 - rng.random(n)
    r = model.sample_radii(u, region.radius)
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
