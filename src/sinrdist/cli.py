"""Command-line interface: JSON experiment configs in, CSV + metadata out.

Each experiment kind (cdf, pdf, outage-sweep, scaling, simulate, fit-poly,
sample-points) is an ExperimentConfig dataclass registered in KINDS, which
owns its config keys, their checks, its sidecar form and its run.

Every run writes one CSV (17-significant-digit fields, so files round-trip
bit-exactly) and a JSON sidecar holding the fully resolved config, the seed,
the simulation radius, tolerances and library versions. Re-running from the
sidecar's config reproduces the CSV byte for byte.

Exit codes: 0 success, 1 config/validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.util
import itertools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .distribution import (
    BracketingError,
    LinkConfig,
    SinrDistribution,
    cdf_gamma,
    gamma_argument,
    pdf_gamma,
    scaling_limit,
)
from .intensity import (
    TWO_PI,
    ConfigError,
    DiskRegion,
    IntensityModel,
    _as_integer,
    _as_number,
    _check_keys,
    _FIELD_PARSERS,
    _parse_fields,
    _require_object,
    fit_polynomial,
    mean_count,
    sample_location,
)
from .interference import PsiEvaluator, _psi_panels, psi_polynomial, psi_power_law
from .simulator import (
    SimConfig,
    _require_bytes,
    campaign_truncation_radius,
    require_draw_fits,
    run_campaign,
    trial_rng,
)
from .specfun import (
    ANTENNAS_MAX,
    DEFAULT_QUADRATURE,
    AccuracyError,
    QuadratureSpec,
    regularized_lower_gamma,
)

__all__ = ["ConfigError", "ExperimentConfig", "KINDS", "parse_config", "run_experiment", "main"]


# ---------------------------------------------------------------------------
# config values


def _require(ok, message):
    if not ok:
        raise ConfigError(message)


def _as_text(value, key, where):
    if not isinstance(value, str):
        raise ConfigError(f"'{key}' in {where} must be a string, got {value!r}")
    return value


def _integers(value, key, where):
    """A nonempty list of integers, as a tuple."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{key}' in {where} must be a nonempty list of integers")
    return tuple(_as_integer(v, key, where) for v in value)


# The annotations of the two grid forms; SINR thresholds must be positive.
Grid = PositiveGrid = np.ndarray


def _parse_grid(raw, where, positive) -> np.ndarray:
    _require_object(raw, where)
    if "values" in raw:
        _check_keys(raw, where, ("values",))
        values = raw["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"'values' in {where} must be a nonempty list")
        grid = np.asarray([_as_number(x, "values", where) for x in values], dtype=float)
    else:
        _check_keys(raw, where, ("min", "max", "points"), ("spacing",))
        lo = _as_number(raw["min"], "min", where)
        hi = _as_number(raw["max"], "max", where)
        points = _as_integer(raw["points"], "points", where)
        spacing = raw.get("spacing", "log")
        if spacing not in ("log", "linear"):
            raise ConfigError(f"'spacing' in {where} must be 'log' or 'linear'")
        if points < 2:
            raise ConfigError(f"'points' in {where} must be >= 2")
        # a run holds up to 400 B per grid point at once: its CSV columns,
        # the psi and CDF arrays on them and the sidecar's copy of the grid
        # (about 390 B at the peak of a pdf run with a campaign)
        _require_bytes(points * 400, f"the columns of 'points' = {points} in {where}")
        if not lo < hi:
            raise ConfigError(f"{where} needs min < max, got [{lo}, {hi}]")
        if spacing == "log":
            if not lo > 0:
                raise ConfigError(f"log spacing in {where} requires min > 0")
            grid = np.geomspace(lo, hi, points)
        else:
            grid = np.linspace(lo, hi, points)
    if positive and not np.all(grid > 0):
        raise ConfigError(f"{where} values must all be > 0")
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(f"{where} values must be strictly increasing")
    return grid


def _fields_form(obj) -> dict:
    """A parsed dataclass's config form: every field that is set."""
    return {
        f.name: _config_form(value)
        for f in dataclasses.fields(obj)
        if (value := getattr(obj, f.name)) is not None
    }


def _config_form(value):
    """The config form of a parsed value; parsing it gives the value back."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return {"values": value.tolist()}
    if dataclasses.is_dataclass(value):
        return _fields_form(value)
    return value


# ---------------------------------------------------------------------------
# the nested blocks of a config


@dataclass(frozen=True)
class Seed:
    """The sim block of a kind that draws one seeded sample."""

    seed: int = 0


@dataclass(frozen=True)
class Campaign(Seed):
    """The sim block of a Monte-Carlo campaign. Without a truncation_radius
    the run sizes the disk from model and link (see _disk_law)."""

    trials: int | None = None
    truncation_radius: float | None = None
    workers: int = 1

    def __post_init__(self):
        _require(
            self.trials is not None and self.trials >= 1,
            "simulation requires 'trials' >= 1 (config sim block or --trials)",
        )
        _require(self.workers >= 1, f"'workers' must be >= 1, got {self.workers}")
        _require(
            self.truncation_radius is None or self.truncation_radius > 0,
            f"'truncation_radius' must be > 0, got {self.truncation_radius}",
        )

    def to_dict(self) -> dict:
        """The config form, without workers: the worker count changes no
        result byte, so the sidecar does not record it."""
        form = _fields_form(self)
        del form["workers"]
        return form


@dataclass(frozen=True)
class Tail:
    """fit-poly's reference profile beyond R0, rho0 * r**eps_tail."""

    rho0: float
    eps_tail: float

    def __post_init__(self):
        _require(self.rho0 >= 0, f"tail rho0 must be >= 0, got {self.rho0}")
        _require(
            self.rho0 == 0 or -2.0 < self.eps_tail < -1.0,
            f"tail eps_tail must lie in (-2, -1), got {self.eps_tail}",
        )


def _block(cls):
    """The parser of a config object that fills the dataclass cls."""
    return lambda raw, key, where: _parse_fields(cls, raw, key, _PARSERS)


# The dataclass of each config block, by the annotation that names it
_BLOCKS = {cls.__name__: cls for cls in (LinkConfig, QuadratureSpec, Seed, Campaign, Tail)}

# The parser of each annotation a config field carries: (value, key, where) -> value
_PARSERS = {
    **_FIELD_PARSERS,
    "str": _as_text,
    "tuple[int, ...]": _integers,
    "Grid": lambda raw, key, where: _parse_grid(raw, key, positive=False),
    "PositiveGrid": lambda raw, key, where: _parse_grid(raw, key, positive=True),
    "IntensityModel": lambda raw, key, where: IntensityModel.from_dict(raw, key),
    **{name: _block(cls) for name, cls in _BLOCKS.items()},
}


# ---------------------------------------------------------------------------
# experiment kinds


@dataclass(kw_only=True)
class ExperimentConfig:
    """The protocol every experiment kind implements, and the keys all share.

    A kind is a dataclass subclass with a `kind` name, a key of KINDS, and a
    docstring whose first line is its CLI help. Its fields are its config
    keys: those without a default are required (so no attribute here may
    share a field's name, which would become its default), and each
    annotation names the key's parser in _PARSERS. It checks its values in
    __post_init__, raising ConfigError, and provides run(), which returns
    the CSV columns and the sidecar's extra entries.
    """

    kind = None

    output_path: str
    tolerances: QuadratureSpec = DEFAULT_QUADRATURE

    @property
    def quad(self) -> QuadratureSpec:
        return self.tolerances

    @property
    def seed(self) -> int:
        """The sim block's seed, 0 without one."""
        return getattr(getattr(self, "sim", None), "seed", 0)

    @property
    def truncation_radius(self):
        """The campaign's disk radius: None without a campaign, and until
        run() sizes a disk the config leaves open."""
        return getattr(getattr(self, "sim", None), "truncation_radius", None)

    def to_dict(self) -> dict:
        """The config form, for the sidecar: reparsing it repeats this run."""
        return {"experiment": self.kind, **_fields_form(self)}


def _sinr_scale(link: LinkConfig) -> float:
    return link.r_T ** (-link.alpha)


def _float_pow(x: float, p: float) -> float:
    """x ** p by Python's pow, inf where that overflows. numpy's SIMD pow
    differs from libm's in the last bit for a few percent of inputs."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _db(values: np.ndarray) -> np.ndarray:
    # math.log10, not np.log10: numpy's SIMD log10 differs from libm's in
    # the last bit for a few percent of inputs, which would move the CSV
    return np.array([10.0 * math.log10(x) for x in values.tolist()])


def _disk_law(config: ExperimentConfig, dist: SinrDistribution):
    """F_R(gamma) = P(L, psi_R(gamma) + sigma2*gamma), psi_R psi over the
    campaign's disk: the exact SINR law of the intensity cut off there, which
    the campaign samples. Without an explicit sim.truncation_radius the disk
    is campaign_truncation_radius, and the resolved radius is written back
    into the sim block so the sidecar's config block replays the campaign.
    """
    if config.sim.truncation_radius is None:
        radius = float(campaign_truncation_radius(config.model, config.link))
        config.sim = dataclasses.replace(config.sim, truncation_radius=radius)
    radius, link = config.sim.truncation_radius, config.link
    # a CDF below this quantile leaves SINR mass at infinity, which no campaign samples
    p_hi = 1.0 - min(1e-4, 1.0 / (10.0 * config.sim.trials))
    x_sup = mean_count(config.model, DiskRegion(radius)) + link.sigma2 * float(np.finfo(float).max)
    if regularized_lower_gamma(link.L, x_sup) < p_hi:
        raise BracketingError("analytic CDF never reaches the requested quantile")

    def disk_cdf(gamma):
        x = gamma_argument(lambda g: dist.psi.value(g, radius), link.sigma2, gamma)
        return regularized_lower_gamma(link.L, x)

    return disk_cdf


def _run_sim(config: ExperimentConfig, disk_cdf):
    """The campaign's empirical distribution and its sidecar entries, its
    ks_distance taken against the disk law disk_cdf (see _disk_law)."""
    sim = config.sim
    scale = _sinr_scale(config.link)
    campaign = SimConfig(
        trials=sim.trials,
        truncation_radius=sim.truncation_radius,
        seed=sim.seed,
        link=config.link,
        model=config.model,
    )
    empirical = run_campaign(campaign, sim.workers)
    extra = {
        "trials": sim.trials,
        "truncation_radius": sim.truncation_radius,
        "ks_distance": empirical.ks_distance(lambda s: disk_cdf(s / scale)),
    }
    return empirical, extra


@dataclass
class Cdf(ExperimentConfig):
    """analytic SINR CDF on a grid (optional empirical column)"""

    kind = "cdf"
    include_pdf = False

    model: IntensityModel
    link: LinkConfig
    gamma_grid: PositiveGrid
    sim: Campaign | None = None

    def __post_init__(self):
        self.model.check_alpha(self.link.alpha)

    def run(self):
        evaluator = PsiEvaluator(self.model, self.link.alpha, self.quad)
        dist = SinrDistribution(evaluator, self.link)
        gammas = self.gamma_grid
        sinr = gammas * _sinr_scale(self.link)
        columns = {
            "gamma": gammas,
            "sinr_db": _db(sinr),
            "analytic_cdf": cdf_gamma(dist, gammas),
        }
        if self.include_pdf:
            columns["analytic_pdf"] = pdf_gamma(dist, gammas)
        if self.sim is None:
            return columns, {}
        # the analytic columns come before any trial, so a numerical failure
        # there costs none
        disk_cdf = _disk_law(self, dist)
        disk = columns["disk_cdf"] = disk_cdf(gammas)
        empirical, extra = _run_sim(self, disk_cdf)
        columns["empirical_cdf"] = empirical.cdf(sinr)
        extra["disk_cdf_gap"] = float(np.max(np.abs(columns["analytic_cdf"] - disk)))
        return columns, extra


@dataclass
class Pdf(Cdf):
    """analytic SINR CDF and PDF on a grid"""

    kind = "pdf"
    include_pdf = True


@dataclass
class OutageSweep(ExperimentConfig):
    """outage vs. power-law exponent at fixed mean count"""

    kind = "outage-sweep"

    link: LinkConfig
    tau: float
    R_c: float
    mu: float
    eps_grid: Grid
    L_values: tuple[int, ...]

    def __post_init__(self):
        _require(self.tau >= 0, f"'tau' must be >= 0, got {self.tau}")
        _require(self.mu > 0, f"'mu' must be > 0, got {self.mu}")
        _require(self.R_c > 0, f"'R_c' must be > 0, got {self.R_c}")
        _require(
            1 <= min(self.L_values) and max(self.L_values) <= ANTENNAS_MAX,
            f"'L_values' entries must all lie in [1, {ANTENNAS_MAX}]",
        )
        lo = float(self.eps_grid[0])
        hi = float(self.eps_grid[-1])
        _require(
            -2.0 < lo and hi < self.link.alpha - 2.0,
            "eps_grid must stay strictly inside (-2, alpha-2) so the "
            f"interference stays finite; got [{lo}, {hi}] with "
            f"alpha={self.link.alpha}",
        )

    def run(self):
        # rho re-solved at each exponent so the mean count over the radius-R_c
        # disk stays at mu: rho(eps) = mu * (2 + eps) / (2 pi R_c^(2+eps)),
        # which is 0 where R_c^(2+eps) overflows (the outage is then the
        # noise-only P(L, sigma2*gamma))
        link = self.link
        gamma = self.tau * link.r_T**link.alpha
        eps = self.eps_grid
        disk = np.array([_float_pow(self.R_c, p) for p in (2.0 + eps).tolist()])
        with np.errstate(divide="ignore", over="ignore"):
            rho = self.mu * (2.0 + eps) / (TWO_PI * disk)
        _require(
            np.all(np.isfinite(rho)),
            f"'R_c' = {self.R_c} and 'mu' = {self.mu} give a non-finite rho_adjusted",
        )
        # the outage is the CDF at gamma, P(L, psi + sigma2*gamma), over the
        # (eps, L) grid: one psi call for every eps, one P call for the grid
        x = gamma_argument(lambda g: psi_power_law(rho, eps, link.alpha, g), link.sigma2, gamma)
        L = np.asarray(self.L_values)
        outage = regularized_lower_gamma(L[None, :], x[:, None])
        return {
            "epsilon": np.repeat(eps, L.size),
            "L": np.tile(L, eps.size),
            "rho_adjusted": np.repeat(rho, L.size),
            "outage": outage.ravel(),
        }, {}


@dataclass
class Scaling(ExperimentConfig):
    """CDF family with density tied to the antenna count"""

    kind = "scaling"

    model: IntensityModel
    link: LinkConfig
    q: float
    L_values: tuple[int, ...]
    gamma_grid: PositiveGrid

    def __post_init__(self):
        _require(self.q > 0, f"'q' must be > 0, got {self.q}")
        _require(
            1 <= min(self.L_values) and max(self.L_values) <= ANTENNAS_MAX,
            f"'L_values' entries must all lie in [1, {ANTENNAS_MAX}]",
        )
        self.model.check_alpha(self.link.alpha)

    def run(self):
        link = self.link
        nominal = self.model
        limit = scaling_limit(nominal, self.q, link.alpha, link.r_T, self.quad)
        L = np.asarray(self.L_values)
        n = self.gamma_grid.size
        # psi is linear in beta: psi of the beta = 1 profile, scaled to each
        # beta_L = beta * (q L), and one P(L, x) call for the (L, gamma) grid
        unit = PsiEvaluator(dataclasses.replace(nominal, beta=1.0), link.alpha, self.quad)
        beta = nominal.beta * (self.q * L)
        x = gamma_argument(lambda g: beta[:, None] * unit.value(g), link.sigma2, self.gamma_grid)
        extra = {"sinr_limit": limit, "sinr_limit_db": 10.0 * math.log10(limit), "q": self.q}
        return {
            "L": np.repeat(L, n),
            "beta": np.repeat(self.q * L, n),
            "gamma": np.tile(self.gamma_grid, L.size),
            "cdf": regularized_lower_gamma(L[:, None], x).ravel(),
        }, extra


@dataclass
class Simulate(ExperimentConfig):
    """Monte-Carlo sample dump with a KS summary"""

    kind = "simulate"

    model: IntensityModel
    link: LinkConfig
    sim: Campaign

    def __post_init__(self):
        self.model.check_alpha(self.link.alpha)

    def run(self):
        evaluator = PsiEvaluator(self.model, self.link.alpha, self.quad)
        dist = SinrDistribution(evaluator, self.link)
        empirical, extra = _run_sim(self, _disk_law(self, dist))
        extra["mean_interferers"] = mean_count(self.model, DiskRegion(self.truncation_radius))
        return {"sinr": empirical.samples, "sinr_db": _db(empirical.samples)}, extra


@dataclass
class FitPoly(ExperimentConfig):
    """polynomial-approximation convergence table"""

    kind = "fit-poly"

    model: IntensityModel
    link: LinkConfig
    R0: float
    degrees: tuple[int, ...]
    tail: Tail
    gamma_grid: PositiveGrid

    def __post_init__(self):
        _require(self.R0 > 0, f"'R0' must be > 0, got {self.R0}")
        _require(min(self.degrees) >= 0, "'degrees' entries must all be >= 0")

    def reference_psi(self):
        """psi at gamma_grid of the model's profile on (0, R0] plus the tail
        beyond: the profile by the panel rule over the disk, the tail in the
        closed form psi_polynomial gives the fits."""
        alpha, g, R0, tail = self.link.alpha, self.gamma_grid, self.R0, self.tail
        psi = _psi_panels(self.model, alpha, g, self.quad, radius=R0)
        return psi + psi_polynomial((), R0, tail.rho0, tail.eps_tail, alpha, g)

    def run(self):
        link = self.link
        profile = self.model.radial_intensity
        R0 = self.R0
        rho0, eps_tail = self.tail.rho0, self.tail.eps_tail
        ref_x = gamma_argument(lambda g: self.reference_psi(), link.sigma2, self.gamma_grid)
        ref = regularized_lower_gamma(link.L, ref_x)
        residuals, sup_errors, fits = [], [], {}
        for m in self.degrees:
            coeffs, residual = fit_polynomial(profile, m, R0)
            psi = psi_polynomial(coeffs, R0, rho0, eps_tail, link.alpha, self.gamma_grid)
            # low-degree fits can dip a hair negative at tiny gamma
            x = np.maximum(0.0, gamma_argument(lambda g: psi, link.sigma2, self.gamma_grid))
            approx = regularized_lower_gamma(link.L, x)
            residuals.append(residual)
            sup_errors.append(np.max(np.abs(approx - ref)))
            fits[str(m)] = coeffs
        return {
            "degree": np.asarray(self.degrees),
            "fit_sup_residual": np.asarray(residuals, dtype=float),
            "cdf_sup_error": np.asarray(sup_errors, dtype=float),
        }, {"fitted_coefficients": fits}


@dataclass
class SamplePoints(ExperimentConfig):
    """one network realization as (x, y) points"""

    kind = "sample-points"

    model: IntensityModel
    region_radius: float
    sim: Seed = Seed()

    def __post_init__(self):
        _require(
            math.isfinite(self.region_radius) and self.region_radius > 0,
            f"'region_radius' must be positive and finite, got {self.region_radius}",
        )

    def run(self):
        region = DiskRegion(self.region_radius)
        rng = trial_rng(self.seed, 0)
        mu = mean_count(self.model, region)
        require_draw_fits(mu, 16)  # x and y
        n = int(rng.poisson(mu)) if mu > 0 else 0
        r = theta = np.empty(0)
        if n > 0:
            r, theta = sample_location(self.model, region, rng, size=n)
        return {"x": r * np.cos(theta), "y": r * np.sin(theta)}, {"mean_count": mu, "count": n}


KINDS = {cls.kind: cls for cls in (Cdf, Pdf, OutageSweep, Scaling, Simulate, FitPoly, SamplePoints)}


# ---------------------------------------------------------------------------
# config parsing


def _set_flags(raw: dict, cls, overrides: dict) -> None:
    """Write the CLI flags into the config keys they set: --out into
    output_path, --tol into tolerances.rel_tol, and --seed, --trials and
    --workers into the sim block, so only a kind whose block has that key
    takes them. Only --trials opens an optional sim block the config leaves
    out: without a campaign to set, --seed and --workers are ignored."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for flag, value in overrides.items():
        if value is None:
            continue
        if flag == "out":
            raw["output_path"] = str(value)
            continue
        block, key = ("tolerances", "rel_tol") if flag == "tol" else ("sim", flag)
        keys = ()
        if block in fields:
            block_cls = _BLOCKS[fields[block].type.removesuffix(" | None")]
            keys = [f.name for f in dataclasses.fields(block_cls)]
        if key not in keys:
            raise ConfigError(f"{cls.kind} takes no --{flag}")
        if block not in raw and fields[block].default is None and overrides.get("trials") is None:
            continue
        current = raw.get(block, {})
        _require_object(current, block)
        raw[block] = {**current, key: float(value) if flag == "tol" else int(value)}


def parse_config(source, kind=None, overrides=None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    source may be a file path or an inline JSON string (anything whose first
    non-blank character is '{'). kind, when given (the CLI subcommand), must
    agree with the config's own 'experiment' key if both are present.
    overrides maps flag names (seed, trials, out, tol, workers) onto values
    that take precedence over the config file.
    """
    text = str(source)
    if text.lstrip().startswith("{"):
        label = "<inline>"
    else:
        label = text
        try:
            text = Path(text).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {label}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{label} is not valid JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from exc
    _require_object(raw, "config")

    name = raw.pop("experiment", kind)
    if kind is not None and name != kind:
        raise ConfigError(f"config declares experiment '{name}' but '{kind}' was requested")
    cls = KINDS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigError(
            f"config must declare an 'experiment' kind, one of {', '.join(KINDS)}; got {name!r}"
        )
    _set_flags(raw, cls, overrides or {})
    return _parse_fields(cls, raw, "config", _PARSERS)


# ---------------------------------------------------------------------------
# output


# Rows rendered per %-format call, which bounds the text held at once.
CSV_CHUNK_ROWS = 4096


def _write_csv(path: Path, columns: dict) -> None:
    """Write named, equal-length columns as CSV.

    Integer columns print with %d and float columns with %.17g, which
    round-trips every double; the header and the \r\n line ends are what
    csv.writer writes.
    """
    arrays = [np.asarray(col) for col in columns.values()]
    line = ",".join("%d" if a.dtype.kind in "iu" else "%.17g" for a in arrays) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, len(arrays[0]), CSV_CHUNK_ROWS):
            chunk = [a[start : start + CSV_CHUNK_ROWS].tolist() for a in arrays]
            fh.write(line * len(chunk[0]) % tuple(itertools.chain.from_iterable(zip(*chunk))))


def _json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), taking numpy scalars and
    arrays as the Python values they hold; a list of floats is one join."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        items = (
            f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}" for k in sorted(value)
        )
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    if all(type(v) is float for v in value):
        body = sep.join(map(float.__repr__, value))
        # json's spellings of nan and +-inf; no finite repr contains an "n"
        if "n" in body:
            body = body.replace("nan", "NaN").replace("inf", "Infinity")
    else:
        body = sep.join(_json_text(v, inner) for v in value)
    return "[\n" + inner + body + "\n" + pad + "]"


def sidecar_path(output_path) -> Path:
    return Path(output_path).with_suffix(".meta.json")


@functools.cache
def _scipy_version() -> str:
    """scipy.__version__ from scipy/version.py, without scipy's 10-17 ms package init."""
    (package,) = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.util.spec_from_file_location("scipy.version", Path(package, "version.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute one experiment: write the CSV and its metadata sidecar."""
    columns, extra = config.run()
    out = Path(config.output_path)
    _write_csv(out, columns)
    meta = {
        "config": config.to_dict(),
        "seed": config.seed,
        "versions": {
            "sinrdist": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
        },
    }
    meta.update(extra)
    sidecar_path(out).write_text(_json_text(meta) + "\n")
    return out


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinrdist",
        description=(
            "SINR distributions for multi-antenna MMSE receivers in "
            "non-homogeneous Poisson interference fields"
        ),
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind, cls in KINDS.items():
        p = sub.add_parser(kind, help=cls.__doc__.splitlines()[0])
        p.add_argument("--config", required=True, help="JSON config path or inline JSON")
        p.add_argument("--seed", type=int, help="override the simulation seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--out", help="override the output CSV path")
        p.add_argument("--tol", type=float, help="override the quadrature rel_tol")
        p.add_argument("--workers", type=int, help="worker processes, capped at the allowed CPUs")
    return parser


def _fail(exc: BaseException, code: int) -> int:
    message = " ".join(str(exc).split())
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    # every argument but the kind and the config is a flag that overrides a key
    overrides = vars(_build_parser().parse_args(argv))
    kind, source = overrides.pop("kind"), overrides.pop("config")
    try:
        config = parse_config(source, kind=kind, overrides=overrides)
        out = run_experiment(config)
    except (ConfigError, OSError) as exc:
        return _fail(exc, 1)
    except (AccuracyError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return _fail(exc, 2)
    except ValueError as exc:
        # constraint violations from model/link/distribution construction
        return _fail(exc, 1)
    print(f"wrote {out} and {sidecar_path(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
