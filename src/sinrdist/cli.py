"""Command-line interface: JSON experiment configs in, CSV + metadata out.

Seven experiment kinds cover the library's workflows:

    cdf / pdf      analytic distribution on a grid, optionally with an
                   empirical column from the simulator
    outage-sweep   outage vs. power-law exponent at fixed mean count, for a
                   list of antenna counts
    scaling        CDF family with density growing linearly in the antenna
                   count (beta = q * L)
    simulate       raw Monte-Carlo sample dump plus a KS summary
    fit-poly       polynomial-approximation convergence table against the
                   quadrature reference
    sample-points  one network realization as (x, y) points

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
import itertools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .distribution import (
    BracketingError,
    LinkConfig,
    SinrDistribution,
    cdf_gamma,
    pdf_gamma,
    scaling_limit,
)
from .intensity import (
    TWO_PI,
    ConfigError,
    DiskRegion,
    DivergenceError,
    IntensityModel,
    _check_keys,
    _number,
    _require_object,
    fit_polynomial,
    mean_count,
    sample_location,
)
from .interference import PsiEvaluator, psi_polynomial, psi_power_law, psi_quadrature_radial
from .simulator import (
    SimConfig,
    budget_truncation_radius,
    run_campaign,
    trial_rng,
    truncation_cdf_bound,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    AccuracyError,
    QuadratureSpec,
    regularized_lower_gamma,
)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "run_experiment", "main"]

KINDS = (
    "cdf",
    "pdf",
    "outage-sweep",
    "scaling",
    "simulate",
    "fit-poly",
    "sample-points",
)


# ---------------------------------------------------------------------------
# config parsing


def _integer(raw, key, where):
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' in {where} must be an integer, got {value!r}")
    return int(value)


def _int_list(raw, key, where):
    value = raw[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{key}' in {where} must be a nonempty list of integers")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ConfigError(f"'{key}' in {where} must contain only integers")
        out.append(int(item))
    return tuple(out)


def _parse_link(raw, where="link") -> LinkConfig:
    _check_keys(raw, where, ("alpha", "sigma2", "r_T", "L"))
    try:
        return LinkConfig(
            alpha=_number(raw, "alpha", where),
            sigma2=_number(raw, "sigma2", where),
            r_T=_number(raw, "r_T", where),
            L=_integer(raw, "L", where),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _parse_grid(raw, where, positive=True) -> np.ndarray:
    _require_object(raw, where)
    if "values" in raw:
        _check_keys(raw, where, ("values",))
        values = raw["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"'values' in {where} must be a nonempty list")
        grid = np.asarray([float(x) for x in values], dtype=float)
    else:
        _check_keys(raw, where, ("min", "max", "points"), ("spacing",))
        lo = _number(raw, "min", where)
        hi = _number(raw, "max", where)
        points = _integer(raw, "points", where)
        spacing = raw.get("spacing", "log")
        if spacing not in ("log", "linear"):
            raise ConfigError(f"'spacing' in {where} must be 'log' or 'linear'")
        if points < 2:
            raise ConfigError(f"'points' in {where} must be >= 2")
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


def _parse_tolerances(raw, where="tolerances") -> QuadratureSpec:
    _check_keys(raw, where, (), ("rel_tol", "abs_tol", "max_subdivisions"))
    try:
        return QuadratureSpec(
            rel_tol=_number(raw, "rel_tol", where)
            if "rel_tol" in raw
            else DEFAULT_QUADRATURE.rel_tol,
            abs_tol=_number(raw, "abs_tol", where)
            if "abs_tol" in raw
            else DEFAULT_QUADRATURE.abs_tol,
            max_subdivisions=_integer(raw, "max_subdivisions", where)
            if "max_subdivisions" in raw
            else DEFAULT_QUADRATURE.max_subdivisions,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """Fully validated experiment description, all defaults resolved."""

    kind: str
    output_path: str | None
    quad: QuadratureSpec = DEFAULT_QUADRATURE
    model: IntensityModel | None = None
    link: LinkConfig | None = None
    gamma_grid: np.ndarray | None = None
    eps_grid: np.ndarray | None = None
    L_values: tuple | None = None
    tau: float | None = None
    q: float | None = None
    R_c: float | None = None
    mu: float | None = None
    degrees: tuple | None = None
    R0: float | None = None
    tail_rho0: float | None = None
    tail_eps: float | None = None
    region_radius: float | None = None
    sim_requested: bool = False
    trials: int | None = None
    seed: int = 0
    truncation_radius: float | None = None
    workers: int = 1

    def resolved(self) -> dict:
        """Canonical JSON-ready form; reparsing it reproduces this experiment."""
        out = {"experiment": self.kind, "output_path": str(self.output_path)}
        if self.model is not None:
            out["model"] = self.model.to_dict()
        if self.link is not None:
            out["link"] = dataclasses.asdict(self.link)
        if self.gamma_grid is not None:
            out["gamma_grid"] = {"values": self.gamma_grid.tolist()}
        if self.eps_grid is not None:
            out["eps_grid"] = {"values": self.eps_grid.tolist()}
        if self.L_values is not None:
            out["L_values"] = list(self.L_values)
        for key in ("tau", "q", "R_c", "mu", "R0", "region_radius"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.degrees is not None:
            out["degrees"] = list(self.degrees)
        if self.tail_rho0 is not None:
            out["tail"] = {"rho0": self.tail_rho0, "eps_tail": self.tail_eps}
        if self.sim_requested or self.kind in ("simulate", "sample-points"):
            sim = {"seed": self.seed}
            if self.trials is not None:
                sim["trials"] = self.trials
            if self.truncation_radius is not None:
                sim["truncation_radius"] = self.truncation_radius
            if self.workers != 1:
                sim["workers"] = self.workers
            out["sim"] = sim
        out["tolerances"] = dataclasses.asdict(self.quad)
        return out


_TOP_LEVEL_KEYS = {
    "cdf": (
        ("model", "link", "gamma_grid"),
        ("experiment", "output_path", "sim", "tolerances"),
    ),
    "pdf": (
        ("model", "link", "gamma_grid"),
        ("experiment", "output_path", "sim", "tolerances"),
    ),
    "outage-sweep": (
        ("link", "tau", "R_c", "mu", "eps_grid", "L_values"),
        ("experiment", "output_path", "tolerances"),
    ),
    "scaling": (
        ("model", "link", "q", "L_values", "gamma_grid"),
        ("experiment", "output_path", "tolerances"),
    ),
    "simulate": (
        ("model", "link", "sim"),
        ("experiment", "output_path", "tolerances"),
    ),
    "fit-poly": (
        ("model", "link", "R0", "degrees", "tail", "gamma_grid"),
        ("experiment", "output_path", "tolerances"),
    ),
    "sample-points": (
        ("model", "region_radius"),
        ("experiment", "output_path", "sim", "tolerances"),
    ),
}


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

    declared = raw.get("experiment")
    if declared is not None and declared not in KINDS:
        raise ConfigError(
            f"unknown experiment kind {declared!r}; expected one of {', '.join(KINDS)}"
        )
    if kind is not None and declared is not None and kind != declared:
        raise ConfigError(
            f"config declares experiment '{declared}' but '{kind}' was requested"
        )
    resolved_kind = kind or declared
    if resolved_kind is None:
        raise ConfigError("config must declare an 'experiment' kind")

    required, optional = _TOP_LEVEL_KEYS[resolved_kind]
    _check_keys(raw, "config", required, optional)

    config = ExperimentConfig(
        kind=resolved_kind, output_path=raw.get("output_path")
    )
    if "tolerances" in raw:
        config.quad = _parse_tolerances(raw["tolerances"])
    if "model" in raw:
        config.model = IntensityModel.from_dict(raw["model"])
    if "link" in raw:
        config.link = _parse_link(raw["link"])
    if "gamma_grid" in raw:
        config.gamma_grid = _parse_grid(raw["gamma_grid"], "gamma_grid", positive=True)
    if "eps_grid" in raw:
        config.eps_grid = _parse_grid(raw["eps_grid"], "eps_grid", positive=False)
    if "L_values" in raw:
        config.L_values = _int_list(raw, "L_values", "config")
        if any(L < 1 for L in config.L_values):
            raise ConfigError("'L_values' entries must all be >= 1")
    if "degrees" in raw:
        config.degrees = _int_list(raw, "degrees", "config")
        if any(m < 0 for m in config.degrees):
            raise ConfigError("'degrees' entries must all be >= 0")
    for key in ("tau", "q", "R_c", "mu", "R0", "region_radius"):
        if key in raw:
            setattr(config, key, _number(raw, key, "config"))
    if "tail" in raw:
        _check_keys(raw["tail"], "tail", ("rho0", "eps_tail"))
        config.tail_rho0 = _number(raw["tail"], "rho0", "tail")
        config.tail_eps = _number(raw["tail"], "eps_tail", "tail")
    if "sim" in raw:
        _check_keys(
            raw["sim"], "sim", (), ("trials", "seed", "truncation_radius", "workers")
        )
        sim = raw["sim"]
        config.sim_requested = resolved_kind in ("cdf", "pdf", "simulate")
        if "trials" in sim:
            config.trials = _integer(sim, "trials", "sim")
        if "seed" in sim:
            config.seed = _integer(sim, "seed", "sim")
        if "truncation_radius" in sim:
            config.truncation_radius = _number(sim, "truncation_radius", "sim")
        if "workers" in sim:
            config.workers = _integer(sim, "workers", "sim")

    overrides = overrides or {}
    if overrides.get("seed") is not None:
        config.seed = int(overrides["seed"])
    if overrides.get("trials") is not None:
        config.trials = int(overrides["trials"])
        if resolved_kind in ("cdf", "pdf"):
            config.sim_requested = True
    if overrides.get("out") is not None:
        config.output_path = str(overrides["out"])
    if overrides.get("tol") is not None:
        config.quad = dataclasses.replace(
            config.quad, rel_tol=float(overrides["tol"])
        )
    if overrides.get("workers") is not None:
        config.workers = int(overrides["workers"])

    _validate_semantics(config)
    return config


def _validate_semantics(config: ExperimentConfig) -> None:
    if config.output_path is None:
        raise ConfigError("no output path: set 'output_path' or pass --out")
    if config.kind == "simulate" or config.sim_requested:
        if config.trials is None or config.trials < 1:
            raise ConfigError("simulation requires 'trials' >= 1 (config sim block or --trials)")
    if config.workers < 1:
        raise ConfigError(f"'workers' must be >= 1, got {config.workers}")
    if config.truncation_radius is not None and not config.truncation_radius > 0:
        raise ConfigError(
            f"'truncation_radius' must be > 0, got {config.truncation_radius}"
        )
    if config.tau is not None and not config.tau >= 0:
        raise ConfigError(f"'tau' must be >= 0, got {config.tau}")
    if config.q is not None and not config.q > 0:
        raise ConfigError(f"'q' must be > 0, got {config.q}")
    if config.mu is not None and not config.mu > 0:
        raise ConfigError(f"'mu' must be > 0, got {config.mu}")
    if config.R_c is not None and not config.R_c > 0:
        raise ConfigError(f"'R_c' must be > 0, got {config.R_c}")
    if config.R0 is not None and not config.R0 > 0:
        raise ConfigError(f"'R0' must be > 0, got {config.R0}")
    if config.region_radius is not None and not (
        math.isfinite(config.region_radius) and config.region_radius > 0
    ):
        raise ConfigError(
            f"'region_radius' must be positive and finite, got {config.region_radius}"
        )
    if config.kind in ("cdf", "pdf", "scaling", "simulate"):
        try:
            config.model.check_alpha(config.link.alpha)
        except DivergenceError as exc:
            raise ConfigError(str(exc)) from exc
    if config.kind == "outage-sweep" and config.link is not None:
        lo = float(config.eps_grid[0])
        hi = float(config.eps_grid[-1])
        if not (-2.0 < lo and hi < config.link.alpha - 2.0):
            raise ConfigError(
                "eps_grid must stay strictly inside (-2, alpha-2) so the "
                f"interference stays finite; got [{lo}, {hi}] with "
                f"alpha={config.link.alpha}"
            )
    if config.kind == "fit-poly":
        if not config.tail_rho0 >= 0:
            raise ConfigError(f"tail rho0 must be >= 0, got {config.tail_rho0}")
        if config.tail_rho0 > 0 and not -2.0 < config.tail_eps < -1.0:
            raise ConfigError(
                f"tail eps_tail must lie in (-2, -1), got {config.tail_eps}"
            )


# ---------------------------------------------------------------------------
# experiment runners


def _sinr_scale(link: LinkConfig) -> float:
    return link.r_T ** (-link.alpha)


def _db(values: np.ndarray) -> np.ndarray:
    # math.log10, not np.log10: numpy's SIMD log10 differs from libm's in
    # the last bit for a few percent of inputs, which would move the CSV
    return np.array([10.0 * math.log10(x) for x in values.tolist()])


def _analytic_sinr_cdf(dist: SinrDistribution):
    scale = _sinr_scale(dist.link)
    return lambda s: cdf_gamma(dist, s / scale)


def _run_sim(config: ExperimentConfig, dist: SinrDistribution):
    """The campaign's empirical distribution and its sidecar entries.

    Without an explicit sim.truncation_radius the disk is sized by
    budget_truncation_radius, and the resolved radius is written back into
    the config so the sidecar's config block replays the same campaign.
    """
    if config.truncation_radius is None:
        config.truncation_radius = float(
            budget_truncation_radius(config.model, config.link, config.trials)
        )
    radius = config.truncation_radius
    sim = SimConfig(
        trials=config.trials,
        truncation_radius=radius,
        seed=config.seed,
        link=config.link,
        model=config.model,
    )
    empirical = run_campaign(sim, config.workers)
    extra = {
        "trials": config.trials,
        "seed": config.seed,
        "truncation_radius": radius,
        "truncation_cdf_bound": truncation_cdf_bound(config.model, config.link, radius),
        "ks_distance": empirical.ks_distance(_analytic_sinr_cdf(dist)),
    }
    return empirical, extra


def _run_distribution(config: ExperimentConfig, include_pdf: bool):
    evaluator = PsiEvaluator(config.model, config.link.alpha, config.quad)
    dist = SinrDistribution(evaluator, config.link)
    scale = _sinr_scale(config.link)
    extra = {}
    empirical = None
    if config.sim_requested:
        empirical, extra = _run_sim(config, dist)

    gammas = config.gamma_grid
    sinr = gammas * scale
    columns = {
        "gamma": gammas,
        "sinr_db": _db(sinr),
        "analytic_cdf": cdf_gamma(dist, gammas),
    }
    if include_pdf:
        columns["analytic_pdf"] = pdf_gamma(dist, gammas)
    if empirical is not None:
        columns["empirical_cdf"] = empirical.cdf(sinr)
    return columns, extra


def _run_outage_sweep(config: ExperimentConfig):
    # rho re-solved at each exponent so the mean count over the radius-R_c
    # disk stays at mu: rho(eps) = mu * (2 + eps) / (2 pi R_c^(2+eps)).
    # R_c ** p by Python's pow: numpy's SIMD pow differs from libm's in the
    # last bit for a few percent of inputs.
    link = config.link
    gamma = config.tau * link.r_T**link.alpha
    eps = config.eps_grid
    disk = np.array([config.R_c**p for p in (2.0 + eps).tolist()])
    rho = config.mu * (2.0 + eps) / (TWO_PI * disk)
    # the outage is the CDF at gamma, P(L, psi + sigma2*gamma), over the
    # (eps, L) grid: one psi call for every eps, one P call for the grid
    x = psi_power_law(rho, eps, link.alpha, gamma) + link.sigma2 * gamma
    L = np.asarray(config.L_values)
    outage = regularized_lower_gamma(L[None, :], x[:, None])
    return {
        "epsilon": np.repeat(eps, L.size),
        "L": np.tile(L, eps.size),
        "rho_adjusted": np.repeat(rho, L.size),
        "outage": outage.ravel(),
    }, {}


def _run_scaling(config: ExperimentConfig):
    link = config.link
    nominal = config.model
    limit = scaling_limit(nominal, config.q, link.alpha, link.r_T, config.quad)
    cdfs = []
    for L in config.L_values:
        model = dataclasses.replace(nominal, beta=nominal.beta * (config.q * L))
        evaluator = PsiEvaluator(model, link.alpha, config.quad)
        dist = SinrDistribution(evaluator, dataclasses.replace(link, L=L))
        cdfs.append(cdf_gamma(dist, config.gamma_grid))
    L = np.asarray(config.L_values)
    n = config.gamma_grid.size
    extra = {
        "sinr_limit": limit,
        "sinr_limit_db": 10.0 * math.log10(limit),
        "q": config.q,
    }
    return {
        "L": np.repeat(L, n),
        "beta": np.repeat(config.q * L, n),
        "gamma": np.tile(config.gamma_grid, L.size),
        "cdf": np.concatenate(cdfs),
    }, extra


def _require_quantile(dist: SinrDistribution, p_hi: float) -> None:
    """Raise BracketingError unless the analytic CDF reaches p_hi.

    A CDF that stays below p_hi leaves that much SINR mass at infinity, which
    no finite campaign samples.
    """
    g = 1.0
    while math.isfinite(g):
        if cdf_gamma(dist, g) >= p_hi:
            return
        g *= 10.0
    raise BracketingError("analytic CDF never reaches the requested quantile")


def _run_simulate(config: ExperimentConfig):
    evaluator = PsiEvaluator(config.model, config.link.alpha, config.quad)
    dist = SinrDistribution(evaluator, config.link)
    if config.truncation_radius is None:
        _require_quantile(dist, 1.0 - min(1e-4, 1.0 / (10.0 * config.trials)))
    empirical, extra = _run_sim(config, dist)
    extra["mean_interferers"] = mean_count(
        config.model, DiskRegion(config.truncation_radius)
    )
    return {"sinr": empirical.samples, "sinr_db": _db(empirical.samples)}, extra


def _run_fit_poly(config: ExperimentConfig):
    link = config.link
    profile = config.model.radial_intensity
    R0 = config.R0
    rho0, eps_tail = config.tail_rho0, config.tail_eps

    def reference_radial(r):
        return profile(r) if r <= R0 else rho0 * r**eps_tail

    def reference_cdf(g):
        psi = psi_quadrature_radial(
            reference_radial, link.alpha, g, config.quad, breakpoints=(R0,)
        )
        return regularized_lower_gamma(link.L, psi + link.sigma2 * g)

    ref = np.asarray([reference_cdf(float(g)) for g in config.gamma_grid])
    residuals, sup_errors, fits = [], [], {}
    for m in config.degrees:
        coeffs, residual = fit_polynomial(profile, m, R0)
        psi = psi_polynomial(coeffs, R0, rho0, eps_tail, link.alpha, config.gamma_grid)
        # low-degree fits can dip a hair negative at tiny gamma
        x = np.maximum(0.0, psi + link.sigma2 * config.gamma_grid)
        approx = regularized_lower_gamma(link.L, x)
        residuals.append(residual)
        sup_errors.append(np.max(np.abs(approx - ref)))
        fits[str(m)] = coeffs
    return {
        "degree": np.asarray(config.degrees),
        "fit_sup_residual": np.asarray(residuals, dtype=float),
        "cdf_sup_error": np.asarray(sup_errors, dtype=float),
    }, {"fitted_coefficients": fits}


def _run_sample_points(config: ExperimentConfig):
    region = DiskRegion(config.region_radius)
    rng = trial_rng(config.seed, 0)
    mu = mean_count(config.model, region)
    n = int(rng.poisson(mu)) if mu > 0 else 0
    r = theta = np.empty(0)
    if n > 0:
        r, theta = sample_location(config.model, region, rng, size=n)
    extra = {"mean_count": mu, "count": n, "seed": config.seed}
    return {"x": r * np.cos(theta), "y": r * np.sin(theta)}, extra


_RUNNERS = {
    "cdf": functools.partial(_run_distribution, include_pdf=False),
    "pdf": functools.partial(_run_distribution, include_pdf=True),
    "outage-sweep": _run_outage_sweep,
    "scaling": _run_scaling,
    "simulate": _run_simulate,
    "fit-poly": _run_fit_poly,
    "sample-points": _run_sample_points,
}


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


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute one experiment: write the CSV and its metadata sidecar."""
    columns, extra = _RUNNERS[config.kind](config)
    out = Path(config.output_path)
    _write_csv(out, columns)
    meta = {
        "config": config.resolved(),
        "seed": config.seed,
        "versions": {
            "sinrdist": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
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
    helps = {
        "cdf": "analytic SINR CDF on a grid (optional empirical column)",
        "pdf": "analytic SINR CDF and PDF on a grid",
        "outage-sweep": "outage vs. power-law exponent at fixed mean count",
        "scaling": "CDF family with density tied to the antenna count",
        "simulate": "Monte-Carlo sample dump with a KS summary",
        "fit-poly": "polynomial-approximation convergence table",
        "sample-points": "one network realization as (x, y) points",
    }
    for kind in KINDS:
        p = sub.add_parser(kind, help=helps[kind])
        p.add_argument("--config", required=True, help="JSON config path or inline JSON")
        p.add_argument("--seed", type=int, help="override the simulation seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--out", help="override the output CSV path")
        p.add_argument("--tol", type=float, help="override the quadrature rel_tol")
        p.add_argument("--workers", type=int, help="worker processes, capped at the CPU count")
    return parser


def _fail(exc: BaseException, code: int) -> int:
    message = " ".join(str(exc).split())
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "out": args.out,
        "tol": args.tol,
        "workers": args.workers,
    }
    try:
        config = parse_config(args.config, kind=args.kind, overrides=overrides)
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
