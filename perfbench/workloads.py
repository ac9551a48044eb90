"""Workload generation from a seed, and the checks on each experiment's output.

Each workload is a list of jobs; a job is one CLI experiment config. The seed
draws the parameters (model constants, grid ends, Monte-Carlo seeds) inside
ranges that keep the work per round the same, so different seeds give
different inputs at equal cost. Sizes come from ``FULL`` or, for the
benchmark's own tests, ``TINY``.

Checks run outside the timed region, in the parent process, and return a list
of failure messages per experiment (empty when the output is correct).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("mc-cluster", "mc-field", "analytic-sweep")

# Kolmogorov critical value at the 99.9% level; 1.36 is the 95% value.
KS_GATE = 1.95
KS_95 = 1.36
# Relative agreement of closed-form psi with quadrature (acceptance test_01).
PSI_REL_TOL = 1e-7
# Absolute agreement of a written CDF with the independent quadrature route.
CDF_ABS_TOL = 1e-6
# The CDF is written as 1 - Q(L, x), whose absolute rounding error is a few
# ulps of 1.0; a smaller step down along gamma is rounding, not a defect.
MONOTONE_SLACK = 1e-15


@dataclass(frozen=True)
class Sizes:
    mc_cluster_trials: int
    mc_field_trials: int
    mc_grid_points: int
    cdf_points: int
    cdf_repeats: int
    outage_eps_points: int
    outage_repeats: int
    pdf_points: int
    pdf_repeats: int
    scaling_points: int
    fit_points: int
    sample_count: float
    check_points: int


FULL = Sizes(
    mc_cluster_trials=600,
    mc_field_trials=1000,
    mc_grid_points=61,
    cdf_points=3600,
    cdf_repeats=3,
    outage_eps_points=400,
    outage_repeats=3,
    pdf_points=40,
    pdf_repeats=2,
    scaling_points=11,
    fit_points=21,
    sample_count=8000.0,
    check_points=2,
)
TINY = Sizes(
    mc_cluster_trials=40,
    mc_field_trials=60,
    mc_grid_points=9,
    cdf_points=20,
    cdf_repeats=1,
    outage_eps_points=5,
    outage_repeats=1,
    pdf_points=4,
    pdf_repeats=1,
    scaling_points=5,
    fit_points=5,
    sample_count=200.0,
    check_points=1,
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _log_grid(lo, hi, points):
    return {"min": lo, "max": hi, "points": points, "spacing": "log"}


def _mc_cluster(rng: random.Random, sizes: Sizes):
    # fig2 shape: table-driven radius sampler, KS through the psi quadrature
    return [
        (
            "pdf-gaussian-mc",
            {
                "experiment": "pdf",
                "model": {"family": "gaussian_cluster", "total_count": 1000.0, "v": 500.0},
                "link": {"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 10},
                "gamma_grid": _log_grid(8e2 * rng.uniform(0.8, 1.25), 8e8, sizes.mc_grid_points),
                "sim": {
                    "trials": sizes.mc_cluster_trials,
                    "seed": rng.randrange(2**31),
                    "workers": 1,
                },
            },
        )
    ]


def _mc_field(rng: random.Random, sizes: Sizes):
    # fig3 shape: closed-form psi, large n per trial, one worker per core.
    # gamma_max sets the truncation radius, so it stays fixed.
    return [
        (
            "cdf-powerlaw-mc",
            {
                "experiment": "cdf",
                "model": {"family": "power_law", "rho": 0.023, "eps": -0.5},
                "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 10.0, "L": 10},
                "gamma_grid": _log_grid(1e2 * rng.uniform(0.8, 1.25), 1e8, sizes.mc_grid_points),
                "sim": {
                    "trials": sizes.mc_field_trials,
                    "seed": rng.randrange(2**31),
                    "workers": nproc(),
                },
            },
        )
    ]


def _near(rng, centre, rel):
    """centre scaled by a factor drawn uniformly from [1 - rel, 1 + rel]."""
    return centre * rng.uniform(1.0 - rel, 1.0 + rel)


# The analytic study draws each parameter close to a fixed centre. Quadrature
# cost depends on where the model's length scales sit against the gamma grid,
# so wide ranges would make the cost of a round depend on the seed.


def _power_law(rng):
    return {"family": "power_law", "rho": _near(rng, 0.023, 0.2), "eps": _near(rng, -0.6, 0.3)}


def _piecewise(rng):
    level = _near(rng, 0.01, 0.2)
    segments = []
    for radius, eps in ((20.0, -0.5), (90.0, -0.8), (380.0, 0.6), (1200.0, -2.2)):
        r, e = _near(rng, radius, 0.1), eps + rng.uniform(-0.1, 0.1)
        segments.append([level / r**e, e, r])  # intensity ~level at each outer edge
    return {"family": "piecewise_power_law", "segments": segments}


def _polynomial(rng):
    R0 = _near(rng, 110.0, 0.1)
    scaled = [_near(rng, 0.005, 0.2) for _ in range(6)]
    eps_tail = _near(rng, -1.5, 0.1)
    return {
        "family": "polynomial_with_tail",
        "coeffs": [c / R0**k for k, c in enumerate(scaled)],
        "R0": R0,
        "rho0": sum(scaled) / R0**eps_tail,  # continuous at R0
        "eps_tail": eps_tail,
    }


def _gaussian(rng):
    return {"family": "gaussian_cluster", "total_count": _near(rng, 1000.0, 0.1),
            "v": _near(rng, 500.0, 0.1)}


def _link(rng, alpha, L):
    return {"alpha": alpha, "sigma2": 1e-12, "r_T": _near(rng, 10.0, 0.5), "L": L}


def _analytic_sweep(rng: random.Random, sizes: Sizes):
    jobs = []
    closed = (("powerlaw", _power_law), ("piecewise", _piecewise), ("polynomial", _polynomial))
    # alpha and L fix the number of hypergeometric and Poisson terms per cell
    for rep, (alpha, L) in zip(range(sizes.cdf_repeats), ((3.0, 2), (4.0, 8), (3.5, 4))):
        for label, make in closed:
            jobs.append((f"cdf-{label}-{rep}", {
                "experiment": "cdf",
                "model": make(rng),
                "link": _link(rng, alpha, L),
                "gamma_grid": _log_grid(1e1, 1e9, sizes.cdf_points),
            }))
    for rep in range(sizes.outage_repeats):
        jobs.append((f"outage-sweep-{rep}", {  # fig4 shape
            "experiment": "outage-sweep",
            "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": _near(rng, 5.0, 0.2), "L": 1},
            "tau": _near(rng, 10.0, 0.2),
            "R_c": 1000.0,
            "mu": _near(rng, 3142.0, 0.2),
            "eps_grid": {"min": -1.0, "max": 0.0, "points": sizes.outage_eps_points,
                         "spacing": "linear"},
            "L_values": [1, 2, 4, 8, 12, 16],
        }))
    for rep, L in zip(range(sizes.pdf_repeats), (4, 8)):
        for label, make in (("piecewise", _piecewise), ("polynomial", _polynomial),
                            ("gaussian", _gaussian)):
            jobs.append((f"pdf-{label}-{rep}", {
                "experiment": "pdf",
                "model": make(rng),
                "link": _link(rng, 3.0, L),
                "gamma_grid": _log_grid(1e2, 1e8, sizes.pdf_points),
            }))
    jobs.append(("scaling-gaussian", {  # fig5 shape
        "experiment": "scaling",
        "model": {"family": "gaussian_cluster", "rho": 1.0, "v": _near(rng, 500.0, 0.05)},
        "link": {"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 1},
        "q": 1.0,
        "L_values": [1, 5, 10, 20],
        "gamma_grid": _log_grid(8e2, 2.6e5, sizes.scaling_points),
    }))
    v = _near(rng, 500.0, 0.1)
    jobs.append(("fit-poly-gaussian", {
        "experiment": "fit-poly",
        "model": {"family": "gaussian_cluster", "rho": 1.0, "v": v},
        "link": {"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 4},
        "R0": 3.0 * v,
        "degrees": [2, 4, 6, 8],
        "tail": {"rho0": 1e-3, "eps_tail": -1.5},
        "gamma_grid": _log_grid(1e3, 1e7, sizes.fit_points),
    }))
    # region sized so the Poisson mean is sample_count points
    rho, eps = 0.1, _near(rng, -1.0, 0.1)
    radius = (sizes.sample_count * (2.0 + eps) / (2.0 * math.pi * rho)) ** (1.0 / (2.0 + eps))
    jobs.append(("sample-points-powerlaw", {  # fig1 shape, larger region
        "experiment": "sample-points",
        "model": {"family": "power_law", "rho": rho, "eps": eps},
        "region_radius": radius,
        "sim": {"seed": rng.randrange(2**31)},
    }))
    return jobs


_BUILDERS = {"mc-cluster": _mc_cluster, "mc-field": _mc_field, "analytic-sweep": _analytic_sweep}


def build(workload: str, seed: int, sizes: Sizes = FULL):
    """The workload's jobs as (name, config) pairs, a pure function of seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, sizes)


# ---------------------------------------------------------------------------
# checks


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {name: [float(r[i]) for r in body] for i, name in enumerate(header)}
    return columns, len(body)


def _check_probabilities(values, label, increasing=False):
    problems = []
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    if bad:
        problems.append(f"{label}: {len(bad)} values outside [0, 1], e.g. {bad[0]!r}")
    if increasing and any(b < a - MONOTONE_SLACK for a, b in zip(values, values[1:])):
        problems.append(f"{label}: decreases along gamma")
    return problems


def _check_reference(config, columns, sizes: Sizes, rng: random.Random):
    """Closed-form psi against quadrature, and the written CDF against 1-Q."""
    import scipy.special

    from sinrdist.cli import parse_config
    from sinrdist.interference import PsiEvaluator

    parsed = parse_config(json.dumps(config), overrides={"out": "unused.csv"})
    if parsed.model.__class__.__name__ == "GaussianCluster":
        return []  # no closed form: the quadrature is the designated route
    link = parsed.link
    auto = PsiEvaluator(parsed.model, link.alpha, parsed.quad)
    reference = PsiEvaluator(parsed.model, link.alpha, parsed.quad, method="quadrature")
    problems = []
    gammas = columns["gamma"]
    for i in rng.sample(range(len(gammas)), min(sizes.check_points, len(gammas))):
        g = gammas[i]
        fast, ref = auto.value(g), reference.value(g)
        if abs(fast - ref) > PSI_REL_TOL * abs(ref):
            problems.append(f"psi({g:.6g}): closed form {fast!r} vs quadrature {ref!r}")
        expected = 1.0 - float(scipy.special.gammaincc(link.L, ref + link.sigma2 * g))
        if abs(columns["analytic_cdf"][i] - expected) > CDF_ABS_TOL:
            problems.append(
                f"cdf({g:.6g}) = {columns['analytic_cdf'][i]!r}, reference {expected!r}"
            )
    return problems


def check(name, config, csv_path: Path, meta_path: Path, sizes: Sizes, seed: int):
    """Failure messages for one experiment's output, plus its accuracy figures."""
    columns, nrows = _read_csv(csv_path)
    meta = json.loads(meta_path.read_text())
    kind = config["experiment"]
    rng = random.Random(f"check:{name}:{seed}")
    problems, figures = [], {}
    if kind in ("cdf", "pdf"):
        if nrows != config["gamma_grid"]["points"]:
            problems.append(f"{nrows} rows for {config['gamma_grid']['points']} grid points")
        problems += _check_probabilities(columns["analytic_cdf"], "analytic_cdf", increasing=True)
        if kind == "pdf" and any(not p >= 0.0 for p in columns["analytic_pdf"]):
            problems.append("analytic_pdf: negative or NaN values")
        if "sim" in config:
            problems += _check_probabilities(columns["empirical_cdf"], "empirical_cdf", True)
            n = meta["trials"]
            ks = meta["ks_distance"]
            figures["ks_ratio"] = ks / (KS_95 / math.sqrt(n))
            if not ks <= KS_GATE / math.sqrt(n):
                problems.append(f"KS {ks:.4g} exceeds {KS_GATE}/sqrt({n}) = "
                                f"{KS_GATE / math.sqrt(n):.4g}")
        else:
            problems += _check_reference(config, columns, sizes, rng)
    elif kind == "outage-sweep":
        problems += _check_probabilities(columns["outage"], "outage")
        by_eps = {}
        for eps, L, p in zip(columns["epsilon"], columns["L"], columns["outage"]):
            by_eps.setdefault(eps, []).append((L, p))
        for eps, pairs in by_eps.items():
            pairs.sort()
            if any(b[1] > a[1] for a, b in zip(pairs, pairs[1:])):
                problems.append(f"outage grows with L at eps={eps}")
    elif kind == "scaling":
        problems += _check_probabilities(columns["cdf"], "cdf")
        for L in set(columns["L"]):
            values = [c for l, c in zip(columns["L"], columns["cdf"]) if l == L]
            problems += _check_probabilities(values, f"cdf at L={L:g}", increasing=True)
        if not meta["sinr_limit"] > 0:
            problems.append(f"sinr_limit {meta['sinr_limit']!r} is not positive")
    elif kind == "fit-poly":
        if nrows != len(config["degrees"]):
            problems.append(f"{nrows} rows for {len(config['degrees'])} degrees")
        for column in ("fit_sup_residual", "cdf_sup_error"):
            if any(not (math.isfinite(v) and v >= 0.0) for v in columns[column]):
                problems.append(f"{column}: negative or non-finite values")
    elif kind == "sample-points":
        if nrows != meta["count"]:
            problems.append(f"{nrows} rows but the sidecar reports {meta['count']}")
        radius = config["region_radius"] * (1.0 + 1e-12)
        outside = sum(
            1 for x, y in zip(columns["x"], columns["y"]) if math.hypot(x, y) > radius
        )
        if outside:
            problems.append(f"{outside} points outside the region")
    return problems, figures
