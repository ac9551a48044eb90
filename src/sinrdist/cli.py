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
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
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
    DiskRegion,
    GaussianCluster,
    IntensityModel,
    PiecewisePowerLaw,
    PolynomialWithTail,
    PowerLaw,
    fit_polynomial,
    mean_count,
    sample_location,
)
from .interference import PsiEvaluator, psi_polynomial, psi_quadrature_radial
from .simulator import (
    SimConfig,
    default_truncation_radius,
    run_campaign,
    trial_rng,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    AccuracyError,
    QuadratureSpec,
    regularized_upper_gamma,
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


class ConfigError(ValueError):
    """A configuration document failed validation."""


# ---------------------------------------------------------------------------
# config parsing


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


def _number(raw, key, where):
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' in {where} must be a number, got {value!r}")
    return float(value)


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


def _parse_model(raw, where="model") -> IntensityModel:
    _require_object(raw, where)
    family = raw.get("family")
    if family is None:
        raise ConfigError(f"missing key 'family' in {where}")
    try:
        if family == "power_law":
            _check_keys(raw, where, ("family", "rho", "eps"), ("beta",))
            return PowerLaw(
                rho=_number(raw, "rho", where),
                eps=_number(raw, "eps", where),
                beta=_number(raw, "beta", where) if "beta" in raw else 1.0,
            )
        if family == "piecewise_power_law":
            _check_keys(raw, where, ("family", "segments"), ("beta",))
            segs = raw["segments"]
            if not isinstance(segs, list) or not segs:
                raise ConfigError(
                    f"'segments' in {where} must be a nonempty list of "
                    "[rho, eps, R] triples"
                )
            triples = []
            for i, seg in enumerate(segs):
                if not isinstance(seg, list) or len(seg) != 3:
                    raise ConfigError(
                        f"segment {i} in {where} must be a [rho, eps, R] triple"
                    )
                triples.append(tuple(float(x) for x in seg))
            return PiecewisePowerLaw(
                segments=tuple(triples),
                beta=_number(raw, "beta", where) if "beta" in raw else 1.0,
            )
        if family == "polynomial_with_tail":
            _check_keys(
                raw, where, ("family", "coeffs", "R0", "rho0", "eps_tail"), ("beta",)
            )
            coeffs = raw["coeffs"]
            if not isinstance(coeffs, list) or not coeffs:
                raise ConfigError(f"'coeffs' in {where} must be a nonempty list")
            return PolynomialWithTail(
                coeffs=tuple(float(a) for a in coeffs),
                R0=_number(raw, "R0", where),
                rho0=_number(raw, "rho0", where),
                eps_tail=_number(raw, "eps_tail", where),
                beta=_number(raw, "beta", where) if "beta" in raw else 1.0,
            )
        if family == "gaussian_cluster":
            _check_keys(raw, where, ("family", "v"), ("rho", "total_count", "beta"))
            has_rho, has_total = "rho" in raw, "total_count" in raw
            if has_rho == has_total:
                raise ConfigError(
                    f"{where} needs exactly one of 'rho' or 'total_count'"
                )
            beta = _number(raw, "beta", where) if "beta" in raw else 1.0
            if has_total:
                return GaussianCluster.with_total_count(
                    _number(raw, "total_count", where),
                    _number(raw, "v", where),
                    beta=beta,
                )
            return GaussianCluster(
                rho=_number(raw, "rho", where),
                v=_number(raw, "v", where),
                beta=beta,
            )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    raise ConfigError(f"unknown model family {family!r} in {where}")


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
            out["model"] = _model_to_dict(self.model)
        if self.link is not None:
            out["link"] = {
                "alpha": self.link.alpha,
                "sigma2": self.link.sigma2,
                "r_T": self.link.r_T,
                "L": self.link.L,
            }
        if self.gamma_grid is not None:
            out["gamma_grid"] = {"values": [float(g) for g in self.gamma_grid]}
        if self.eps_grid is not None:
            out["eps_grid"] = {"values": [float(e) for e in self.eps_grid]}
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
        out["tolerances"] = {
            "rel_tol": self.quad.rel_tol,
            "abs_tol": self.quad.abs_tol,
            "max_subdivisions": self.quad.max_subdivisions,
        }
        return out


def _model_to_dict(model: IntensityModel) -> dict:
    if isinstance(model, PowerLaw):
        return {
            "family": "power_law",
            "rho": model.rho,
            "eps": model.eps,
            "beta": model.beta,
        }
    if isinstance(model, PiecewisePowerLaw):
        return {
            "family": "piecewise_power_law",
            "segments": [list(s) for s in model.segments],
            "beta": model.beta,
        }
    if isinstance(model, PolynomialWithTail):
        return {
            "family": "polynomial_with_tail",
            "coeffs": list(model.coeffs),
            "R0": model.R0,
            "rho0": model.rho0,
            "eps_tail": model.eps_tail,
            "beta": model.beta,
        }
    return {
        "family": "gaussian_cluster",
        "rho": model.rho,
        "v": model.v,
        "beta": model.beta,
    }


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
        config.model = _parse_model(raw["model"])
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
    if (
        config.kind in ("cdf", "pdf", "scaling", "simulate")
        and isinstance(config.model, PowerLaw)
        and config.link is not None
        and not config.model.eps < config.link.alpha - 2.0
    ):
        raise ConfigError(
            "power-law interference is finite only for eps < alpha - 2; got "
            f"eps={config.model.eps} with alpha={config.link.alpha}"
        )
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


def _analytic_sinr_cdf(dist: SinrDistribution):
    scale = _sinr_scale(dist.link)
    return lambda s: cdf_gamma(dist, s / scale)


def _resolve_truncation(config: ExperimentConfig, gamma_max: float) -> float:
    if config.truncation_radius is None:
        config.truncation_radius = float(
            default_truncation_radius(config.model, config.link.alpha, gamma_max)
        )
    return config.truncation_radius


def _run_distribution(config: ExperimentConfig, include_pdf: bool):
    evaluator = PsiEvaluator(config.model, config.link.alpha, config.quad)
    dist = SinrDistribution(evaluator, config.link)
    scale = _sinr_scale(config.link)
    extra = {}
    empirical = None
    if config.sim_requested:
        radius = _resolve_truncation(config, float(config.gamma_grid[-1]))
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
            "ks_distance": empirical.ks_distance(_analytic_sinr_cdf(dist)),
        }

    gammas = config.gamma_grid
    sinr = gammas * scale
    header = ["gamma", "sinr_db", "analytic_cdf"]
    sinr_db = [10.0 * math.log10(x) for x in sinr.tolist()]
    columns = [gammas, sinr_db, cdf_gamma(dist, gammas)]
    if include_pdf:
        header.append("analytic_pdf")
        columns.append(pdf_gamma(dist, gammas))
    if empirical is not None:
        header.append("empirical_cdf")
        columns.append(empirical.cdf(sinr))
    return header, list(zip(*columns)), extra


def _run_cdf(config):
    return _run_distribution(config, include_pdf=False)


def _run_pdf(config):
    return _run_distribution(config, include_pdf=True)


def _run_outage_sweep(config: ExperimentConfig):
    # rho re-solved at each exponent so the mean count over the radius-R_c
    # disk stays at mu: rho(eps) = mu * (2 + eps) / (2 pi R_c^(2+eps))
    link = config.link
    gamma = config.tau * link.r_T**link.alpha
    rows = []
    for eps in config.eps_grid:
        eps = float(eps)
        rho = config.mu * (2.0 + eps) / (TWO_PI * config.R_c ** (2.0 + eps))
        model = PowerLaw(rho=rho, eps=eps)
        evaluator = PsiEvaluator(model, link.alpha, config.quad)
        # the outage is the CDF at gamma, 1 - Q(L, psi + sigma2*gamma): psi is
        # shared by every antenna count, so one Q call covers them all
        x = evaluator.value(gamma) + link.sigma2 * gamma
        outage = 1.0 - regularized_upper_gamma(np.asarray(config.L_values), x)
        rows += [[eps, L, rho, p] for L, p in zip(config.L_values, outage)]
    return ["epsilon", "L", "rho_adjusted", "outage"], rows, {}


def _run_scaling(config: ExperimentConfig):
    link = config.link
    nominal = config.model
    limit = scaling_limit(nominal, config.q, link.alpha, link.r_T, config.quad)
    rows = []
    for L in config.L_values:
        beta = config.q * L
        model = dataclasses.replace(nominal, beta=nominal.beta * beta)
        evaluator = PsiEvaluator(model, link.alpha, config.quad)
        dist = SinrDistribution(evaluator, dataclasses.replace(link, L=L))
        cdf = cdf_gamma(dist, config.gamma_grid)
        rows += [[L, beta, g, c] for g, c in zip(config.gamma_grid, cdf)]
    extra = {
        "sinr_limit": limit,
        "sinr_limit_db": 10.0 * math.log10(limit),
        "q": config.q,
    }
    return ["L", "beta", "gamma", "cdf"], rows, extra


def _auto_gamma_max(dist: SinrDistribution, p_hi: float) -> float:
    """Smallest bracketing gamma whose CDF reaches p_hi (for truncation sizing)."""
    g = 1.0
    while math.isfinite(g):
        if cdf_gamma(dist, g) >= p_hi:
            return g
        g *= 10.0
    raise BracketingError("analytic CDF never reaches the requested quantile")


def _run_simulate(config: ExperimentConfig):
    evaluator = PsiEvaluator(config.model, config.link.alpha, config.quad)
    dist = SinrDistribution(evaluator, config.link)
    if config.truncation_radius is None:
        p_hi = 1.0 - min(1e-4, 1.0 / (10.0 * config.trials))
        _resolve_truncation(config, _auto_gamma_max(dist, p_hi))
    sim = SimConfig(
        trials=config.trials,
        truncation_radius=config.truncation_radius,
        seed=config.seed,
        link=config.link,
        model=config.model,
    )
    empirical = run_campaign(sim, config.workers)
    rows = [[s, 10.0 * math.log10(s)] for s in empirical.samples]
    extra = {
        "trials": config.trials,
        "seed": config.seed,
        "truncation_radius": config.truncation_radius,
        "ks_distance": empirical.ks_distance(_analytic_sinr_cdf(dist)),
        "mean_interferers": mean_count(
            config.model, DiskRegion(config.truncation_radius)
        ),
    }
    return ["sinr", "sinr_db"], rows, extra


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
        return 1.0 - regularized_upper_gamma(link.L, psi + link.sigma2 * g)

    ref = np.asarray([reference_cdf(float(g)) for g in config.gamma_grid])
    rows = []
    fits = {}
    for m in config.degrees:
        coeffs, residual = fit_polynomial(profile, m, R0)
        psi = psi_polynomial(coeffs, R0, rho0, eps_tail, link.alpha, config.gamma_grid)
        # low-degree fits can dip a hair negative at tiny gamma
        x = np.maximum(0.0, psi + link.sigma2 * config.gamma_grid)
        approx = 1.0 - regularized_upper_gamma(link.L, x)
        sup_error = float(np.max(np.abs(approx - ref)))
        rows.append([m, residual, sup_error])
        fits[str(m)] = [float(a) for a in coeffs]
    return (
        ["degree", "fit_sup_residual", "cdf_sup_error"],
        rows,
        {"fitted_coefficients": fits},
    )


def _run_sample_points(config: ExperimentConfig):
    region = DiskRegion(config.region_radius)
    rng = trial_rng(config.seed, 0)
    mu = mean_count(config.model, region)
    n = int(rng.poisson(mu)) if mu > 0 else 0
    rows = []
    if n > 0:
        r, theta = sample_location(config.model, region, rng, size=n)
        rows = [[ri * math.cos(ti), ri * math.sin(ti)] for ri, ti in zip(r, theta)]
    extra = {"mean_count": mu, "count": n, "seed": config.seed}
    return ["x", "y"], rows, extra


_RUNNERS = {
    "cdf": _run_cdf,
    "pdf": _run_pdf,
    "outage-sweep": _run_outage_sweep,
    "scaling": _run_scaling,
    "simulate": _run_simulate,
    "fit-poly": _run_fit_poly,
    "sample-points": _run_sample_points,
}


# ---------------------------------------------------------------------------
# output


def _format_field(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_field(v) for v in row])


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def sidecar_path(output_path) -> Path:
    return Path(output_path).with_suffix(".meta.json")


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute one experiment: write the CSV and its metadata sidecar."""
    header, rows, extra = _RUNNERS[config.kind](config)
    out = Path(config.output_path)
    _write_csv(out, header, rows)
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
    with open(sidecar_path(out), "w") as fh:
        json.dump(_jsonable(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
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
        p.add_argument("--workers", type=int, help="thread count for simulation")
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
