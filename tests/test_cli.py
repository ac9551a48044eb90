"""End-to-end tests of the command-line tool: config parsing, each experiment
kind against a temp directory, determinism of the outputs, and exit codes."""

import csv
import dataclasses
import importlib.util
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sinrdist.cli
import sinrdist.distribution
import sinrdist.simulator
from sinrdist import (
    DiskRegion,
    EmpiricalDistribution,
    GaussianCluster,
    LinkConfig,
    PiecewisePowerLaw,
    PowerLaw,
    PsiEvaluator,
    SinrDistribution,
    campaign_truncation_radius,
    cdf_gamma,
    mean_count,
    psi_piecewise,
    regularized_lower_gamma,
    regularized_upper_gamma,
)
from sinrdist.cli import (
    CSV_CHUNK_ROWS,
    KINDS,
    ConfigError,
    _json_text,
    _write_csv,
    main,
    parse_config,
    run_experiment,
    sidecar_path,
)


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    return header, rows


def _cdf_config(tmp_path, **extra):
    cfg = {
        "experiment": "cdf",
        "model": {"family": "power_law", "rho": 0.023, "eps": -0.5},
        "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 10.0, "L": 10},
        "gamma_grid": {"min": 1e2, "max": 1e6, "points": 9, "spacing": "log"},
        "output_path": str(tmp_path / "cdf.csv"),
    }
    cfg.update(extra)
    return cfg


def _outage_config(tmp_path):
    return {
        "experiment": "outage-sweep",
        "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 5.0, "L": 1},
        "tau": 10.0,
        "R_c": 1000.0,
        "mu": 3142.0,
        "eps_grid": {"values": [-0.5, 0.0]},
        "L_values": [4, 12],
        "output_path": str(tmp_path / "outage.csv"),
    }


def _fit_poly_config(tmp_path):
    return {
        "experiment": "fit-poly",
        "model": {"family": "gaussian_cluster", "v": 500.0, "rho": 1.0},
        "link": {"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 4},
        "R0": 1500.0,
        "degrees": [2],
        "tail": {"rho0": 1e-3, "eps_tail": -1.5},
        "gamma_grid": {"min": 1e3, "max": 1e7, "points": 3},
        "output_path": str(tmp_path / "fit.csv"),
    }


def _points_config(tmp_path):
    return {
        "experiment": "sample-points",
        "model": {"family": "power_law", "rho": 0.1, "eps": -1.0},
        "region_radius": 200.0,
        "output_path": str(tmp_path / "points.csv"),
    }


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_cdf(tmp_path):
    config = parse_config(json.dumps(_cdf_config(tmp_path)))
    assert config.kind == "cdf"
    assert isinstance(config.model, PowerLaw)
    assert config.link.L == 10
    assert config.gamma_grid.shape == (9,)
    assert config.seed == 0 and config.sim is None


def test_parse_from_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_cdf_config(tmp_path)))
    config = parse_config(str(path))
    assert config.kind == "cdf"


def test_parse_kind_mismatch(tmp_path):
    with pytest.raises(ConfigError, match="declares"):
        parse_config(json.dumps(_cdf_config(tmp_path)), kind="pdf")
    with pytest.raises(ConfigError, match="kind"):
        parse_config(json.dumps({"model": {"family": "power_law", "rho": 1.0, "eps": 0.0}}))


def test_parse_unknown_key_named(tmp_path):
    cfg = _cdf_config(tmp_path, bogus_knob=3)
    with pytest.raises(ConfigError, match="bogus_knob"):
        parse_config(json.dumps(cfg))
    cfg = _cdf_config(tmp_path)
    cfg["model"]["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        parse_config(json.dumps(cfg))


def test_parse_missing_key_named(tmp_path):
    cfg = _cdf_config(tmp_path)
    del cfg["gamma_grid"]
    with pytest.raises(ConfigError, match="gamma_grid"):
        parse_config(json.dumps(cfg))


def test_parse_json_error_has_position():
    with pytest.raises(ConfigError, match="line"):
        parse_config('{"experiment": "cdf",,}')


def test_parse_rejects_divergent_power_law(tmp_path):
    cfg = _cdf_config(tmp_path)
    cfg["model"]["eps"] = 2.0  # equals alpha - 2
    with pytest.raises(ConfigError, match="alpha - 2"):
        parse_config(json.dumps(cfg))


def test_parse_rejects_misordered_piecewise(tmp_path):
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {
        "family": "piecewise_power_law",
        "segments": [[1.0, 0.0, 200.0], [0.5, -1.0, 100.0]],
    }
    with pytest.raises(ConfigError, match="increasing"):
        parse_config(json.dumps(cfg))


@pytest.mark.parametrize(
    "model",
    [
        {"family": "polynomial_with_tail", "coeffs": ["0.005", True], "R0": 110.0,
         "rho0": 0.005 * 110**1.5, "eps_tail": -1.5},
        {"family": "piecewise_power_law", "segments": [[True, "0", 100]]},
        {"family": "power_law", "rho": 0.023, "eps": "-0.5"},
    ],
)
def test_parse_model_numbers_are_strict(tmp_path, model):
    """Booleans and strings are refused inside lists as in scalar fields."""
    cfg = _cdf_config(tmp_path)
    cfg["model"] = model
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(json.dumps(cfg))


def test_parse_model_names_an_unknown_or_missing_family(tmp_path):
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {"family": "spiral", "rho": 1.0}
    with pytest.raises(ConfigError, match="unknown model family 'spiral'"):
        parse_config(json.dumps(cfg))
    cfg["model"] = {"rho": 1.0, "eps": 0.0}
    with pytest.raises(ConfigError, match="missing key 'family' in model"):
        parse_config(json.dumps(cfg))


def test_parse_gaussian_needs_one_density(tmp_path):
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {"family": "gaussian_cluster", "v": 500.0}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(cfg))
    cfg["model"] = {
        "family": "gaussian_cluster",
        "v": 500.0,
        "rho": 1.0,
        "total_count": 10.0,
    }
    with pytest.raises(ConfigError):
        parse_config(json.dumps(cfg))
    cfg["model"] = {"family": "gaussian_cluster", "v": 500.0, "total_count": 10.0}
    config = parse_config(json.dumps(cfg))
    assert isinstance(config.model, GaussianCluster)
    assert config.model.total_count == pytest.approx(10.0, rel=1e-12)


def test_parse_grid_validation(tmp_path):
    cfg = _cdf_config(tmp_path, gamma_grid={"min": 10.0, "max": 1.0, "points": 4})
    with pytest.raises(ConfigError, match="min < max"):
        parse_config(json.dumps(cfg))
    cfg = _cdf_config(tmp_path, gamma_grid={"values": [1.0, 3.0, 2.0]})
    with pytest.raises(ConfigError, match="increasing"):
        parse_config(json.dumps(cfg))
    cfg = _cdf_config(tmp_path, gamma_grid={"values": [-1.0, 2.0]})
    with pytest.raises(ConfigError, match="> 0"):
        parse_config(json.dumps(cfg))
    # grid values are numbers, as in the model: no booleans, strings or lists
    for values in ([True, "1e3", 5000], [[1.0, 2.0]]):
        cfg = _cdf_config(tmp_path, gamma_grid={"values": values})
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(json.dumps(cfg))


def test_parse_overrides(tmp_path):
    cfg = _cdf_config(tmp_path)
    config = parse_config(
        json.dumps(cfg),
        overrides={"seed": 9, "trials": 32, "out": str(tmp_path / "other.csv"), "workers": 2},
    )
    assert config.seed == 9
    # the flags fill a sim block, which switches the cdf run to hybrid mode
    assert config.sim.trials == 32
    assert config.output_path.endswith("other.csv")
    assert config.sim.workers == 2



def test_parse_overrides_take_the_flag_types(tmp_path):
    """overrides are coerced as the CLI flags are typed: int for --seed,
    --trials and --workers, float for --tol."""
    config = parse_config(
        json.dumps(_cdf_config(tmp_path)), overrides={"seed": 9.0, "trials": "32", "tol": "1e-9"}
    )
    assert (config.seed, config.sim.trials, config.quad.rel_tol) == (9, 32, 1e-9)
    assert type(config.seed) is int and type(config.sim.trials) is int


@pytest.mark.parametrize("flags", [["--seed", "5"], ["--workers", "2"]])
def test_campaign_flags_without_a_campaign_are_ignored(tmp_path, flags):
    """Only --trials opens a cdf campaign; --seed or --workers alone leaves
    the run analytic, as a config without a sim block asks."""
    cfg = _cdf_config(tmp_path)
    assert main(["cdf", "--config", json.dumps(cfg), *flags]) == 0
    meta = json.loads(sidecar_path(cfg["output_path"]).read_text())
    assert "sim" not in meta["config"]
    header, _ = _read_csv(cfg["output_path"])
    assert "empirical_cdf" not in header


def _simulate_config(tmp_path):
    return {
        "experiment": "simulate",
        "model": {"family": "power_law", "rho": 0.023, "eps": -0.5},
        "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 10.0, "L": 4},
        "output_path": str(tmp_path / "sim.csv"),
    }


def test_simulate_requires_a_sim_block(tmp_path, capsys):
    cfg = _simulate_config(tmp_path)
    with pytest.raises(ConfigError, match="missing key 'sim'"):
        parse_config(json.dumps(cfg))
    assert main(["simulate", "--config", json.dumps(cfg)]) == 1
    assert "'sim'" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


def test_each_kind_requires_exactly_its_keys():
    """The required keys are the fields without a default; an attribute of
    ExperimentConfig that shares a field's name would make it optional."""
    required = {
        "cdf": {"model", "link", "gamma_grid", "output_path"},
        "pdf": {"model", "link", "gamma_grid", "output_path"},
        "outage-sweep": {"link", "tau", "R_c", "mu", "eps_grid", "L_values", "output_path"},
        "scaling": {"model", "link", "q", "L_values", "gamma_grid", "output_path"},
        "simulate": {"model", "link", "sim", "output_path"},
        "fit-poly": {"model", "link", "R0", "degrees", "tail", "gamma_grid", "output_path"},
        "sample-points": {"model", "region_radius", "output_path"},
    }
    assert set(KINDS) == set(required)
    for kind, cls in KINDS.items():
        fields = dataclasses.fields(cls)
        assert {f.name for f in fields if f.default is dataclasses.MISSING} == required[kind]

@pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
def test_parse_nan_tolerance_is_a_config_error(tmp_path, key):
    cfg = _cdf_config(tmp_path, tolerances={key: math.nan})  # json writes NaN
    with pytest.raises(ConfigError, match=f"{key} must be"):
        parse_config(json.dumps(cfg))


def _cluster_pdf_config(tmp_path):
    return _cdf_config(
        tmp_path,
        experiment="pdf",
        model={"family": "gaussian_cluster", "v": 500.0, "total_count": 1000.0},
        link={"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 10},
    )


@pytest.mark.parametrize("make_config", [_cluster_pdf_config, _fit_poly_config])
def test_main_nan_tol_flag_exits_1(tmp_path, capsys, make_config):
    """A NaN rel_tol is refused before any quadrature runs with it."""
    cfg = make_config(tmp_path)
    assert main([cfg["experiment"], "--config", json.dumps(cfg), "--tol", "nan"]) == 1
    assert "rel_tol must be > 0, got nan" in capsys.readouterr().err


def _power_law_scaling_config(tmp_path):
    return _scaling_config(tmp_path, {"family": "power_law", "rho": 1.0, "eps": 0.0}, 1.0)


@pytest.mark.parametrize(
    "make_config, sim, flags, named",
    [
        (_points_config, {"seed": 3, "trials": 10}, [], "'trials'"),
        (_points_config, {"workers": 2}, [], "'workers'"),
        (_points_config, {"truncation_radius": 50.0}, [], "'truncation_radius'"),
        (_points_config, None, ["--trials", "10"], "--trials"),
        (_points_config, None, ["--workers", "2"], "--workers"),
        (_outage_config, None, ["--trials", "10"], "--trials"),
        (_outage_config, None, ["--seed", "4"], "--seed"),
        (_fit_poly_config, None, ["--workers", "2"], "--workers"),
        (_power_law_scaling_config, None, ["--seed", "2"], "--seed"),
    ],
)
def test_kind_refuses_keys_and_flags_it_does_not_use(
    tmp_path, capsys, make_config, sim, flags, named
):
    """sample-points' sim block holds only a seed; outage-sweep, scaling and
    fit-poly run no campaign, so take no campaign flag."""
    cfg = make_config(tmp_path)
    if sim is not None:
        cfg["sim"] = sim
    assert main([cfg["experiment"], "--config", json.dumps(cfg), *flags]) == 1
    assert named in capsys.readouterr().err


def test_parse_requires_output(tmp_path):
    cfg = _cdf_config(tmp_path)
    del cfg["output_path"]
    with pytest.raises(ConfigError, match="output"):
        parse_config(json.dumps(cfg))


# ---------------------------------------------------------------------------
# cdf / pdf experiments


def test_run_cdf_experiment(tmp_path):
    config = parse_config(json.dumps(_cdf_config(tmp_path)))
    out = run_experiment(config)
    header, rows = _read_csv(out)
    assert header == ["gamma", "sinr_db", "analytic_cdf"]
    assert len(rows) == 9
    cdf_col = [row[2] for row in rows]
    assert all(a <= b for a, b in zip(cdf_col, cdf_col[1:]))
    assert all(0.0 <= c <= 1.0 for c in cdf_col)
    # sinr_db = 10 log10(gamma * r_T^-alpha)
    assert rows[0][1] == pytest.approx(10.0 * math.log10(rows[0][0] * 10.0**-4))
    meta = json.loads(sidecar_path(out).read_text())
    assert meta["config"]["experiment"] == "cdf"
    assert "numpy" in meta["versions"] and "sinrdist" in meta["versions"]


def test_run_pdf_includes_density(tmp_path):
    cfg = _cdf_config(tmp_path, experiment="pdf")
    cfg["output_path"] = str(tmp_path / "pdf.csv")
    out = run_experiment(parse_config(json.dumps(cfg)))
    header, rows = _read_csv(out)
    assert header == ["gamma", "sinr_db", "analytic_cdf", "analytic_pdf"]
    assert all(row[3] >= 0.0 for row in rows)


def test_csv_values_round_trip(tmp_path):
    """Printed with %.17g, every float must parse back to the same bits."""
    from sinrdist import LinkConfig, PsiEvaluator, SinrDistribution, cdf_gamma

    config = parse_config(json.dumps(_cdf_config(tmp_path)))
    out = run_experiment(config)
    _, rows = _read_csv(out)
    dist = SinrDistribution(PsiEvaluator(config.model, 4.0), config.link)
    for gamma, _, cdf_val in rows:
        assert cdf_gamma(dist, gamma) == cdf_val


def test_run_cdf_with_empirical_column(tmp_path):
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {"family": "gaussian_cluster", "v": 50.0, "total_count": 30.0}
    cfg["link"] = {"alpha": 3.0, "sigma2": 1e-10, "r_T": 20.0, "L": 4}
    cfg["sim"] = {"trials": 50, "seed": 4}
    config = parse_config(json.dumps(cfg))
    out = run_experiment(config)
    header, rows = _read_csv(out)
    assert header[-1] == "empirical_cdf"
    assert all(0.0 <= row[-1] <= 1.0 for row in rows)
    meta = json.loads(sidecar_path(out).read_text())
    assert meta["trials"] == 50
    assert 0.0 < meta["ks_distance"] <= 1.0
    assert meta["truncation_radius"] == pytest.approx(8.0 * 50.0)


def test_rerun_is_byte_identical(tmp_path):
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {"family": "gaussian_cluster", "v": 50.0, "total_count": 30.0}
    cfg["link"] = {"alpha": 3.0, "sigma2": 1e-10, "r_T": 20.0, "L": 4}
    cfg["sim"] = {"trials": 40, "seed": 11}
    out = run_experiment(parse_config(json.dumps(cfg)))
    first_csv = out.read_bytes()
    first_meta = sidecar_path(out).read_text()
    out2 = run_experiment(parse_config(json.dumps(cfg)))
    assert out2.read_bytes() == first_csv
    assert sidecar_path(out2).read_text() == first_meta


def test_workers_do_not_change_bytes(tmp_path):
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {"family": "gaussian_cluster", "v": 50.0, "total_count": 30.0}
    cfg["link"] = {"alpha": 3.0, "sigma2": 1e-10, "r_T": 20.0, "L": 4}
    cfg["sim"] = {"trials": 40, "seed": 11}
    out = run_experiment(parse_config(json.dumps(cfg)))
    serial = out.read_bytes()
    cfg["sim"]["workers"] = 4
    cfg["output_path"] = str(tmp_path / "threaded.csv")
    out2 = run_experiment(parse_config(json.dumps(cfg)))
    # the sim block differs (workers), the numbers must not
    assert out2.read_bytes() == serial


def test_explicit_truncation_radius_is_honoured(tmp_path):
    def sidecar(cfg):
        return json.loads(sidecar_path(run_experiment(parse_config(json.dumps(cfg)))).read_text())

    cfg = _cdf_config(tmp_path)
    cfg["sim"] = {"trials": 20, "seed": 2}
    assert sidecar(cfg)["truncation_radius"] != 250.0
    cfg["sim"]["truncation_radius"] = 250.0
    meta = sidecar(cfg)
    assert meta["truncation_radius"] == meta["config"]["sim"]["truncation_radius"] == 250.0
    # the disk law: the power law cut at 250 is one piecewise segment
    header, rows = _read_csv(tmp_path / "cdf.csv")
    columns = {name: np.array(column) for name, column in zip(header, zip(*rows))}
    g = columns["gamma"]
    disk = regularized_lower_gamma(10, psi_piecewise(((0.023, -0.5, 250.0),), 4.0, g) + 1e-12 * g)
    np.testing.assert_array_equal(columns["disk_cdf"], disk)
    assert meta["disk_cdf_gap"] == np.max(np.abs(columns["analytic_cdf"] - disk)) > 0.0


# the link of _cdf_config
FIELD_LINK = LinkConfig(alpha=4.0, sigma2=1e-12, r_T=10.0, L=10)


def _run(tmp_path, kind, cfg, *flags):
    """main on an inline config, and the CSV columns and sidecar it wrote."""
    cfg = {**cfg, "experiment": kind, "output_path": str(tmp_path / f"{kind}.csv")}
    assert main([kind, "--config", json.dumps(cfg), *flags]) == 0
    header, rows = _read_csv(cfg["output_path"])
    columns = {name: np.array(column) for name, column in zip(header, zip(*rows))}
    return columns, json.loads(sidecar_path(cfg["output_path"]).read_text())


@pytest.mark.parametrize("eps", [-1.9, -1.5])
def test_campaign_disk_rarely_holds_fewer_interferers_than_antennas(tmp_path, eps):
    """Without noise a trial with fewer interferers than antennas is
    singular. The disk the CLI sizes holds a mean count mu with
    Q(L, mu) = P(N <= L - 1) <= 1e-4 (6e-8 at eps = -1.9); 99% of psi at the
    grid's median gamma would give mu = 10.2 and Q = 0.43 there."""
    cfg = _cdf_config(tmp_path, model={"family": "power_law", "rho": 0.023, "eps": eps})
    cfg["link"]["sigma2"] = 0.0
    cfg["gamma_grid"] = {"min": 1e2, "max": 1e8, "points": 61}
    _, meta = _run(tmp_path, "cdf", cfg, "--trials", "20")
    model = PowerLaw(rho=0.023, eps=eps)
    mu = mean_count(model, DiskRegion(meta["truncation_radius"]))
    assert regularized_upper_gamma(10, mu) <= 1e-4


def test_campaign_disk_does_not_depend_on_the_trial_count(tmp_path):
    cfg = _cdf_config(tmp_path)
    for kind in ("cdf", "simulate"):
        if kind == "simulate":
            del cfg["gamma_grid"]
        radii = [_run(tmp_path, kind, cfg, "--trials", n)[1]["truncation_radius"] for n in ("10", "1000")]
        assert radii[0] == radii[1] == campaign_truncation_radius(PowerLaw(0.023, -0.5), FIELD_LINK)


def test_disk_cdf_of_a_model_cut_at_its_support_is_the_analytic_cdf(tmp_path):
    segments = [[0.5, -0.5, 100.0], [0.2, -2.5, 1000.0]]
    cfg = _cdf_config(tmp_path, model={"family": "piecewise_power_law", "segments": segments})
    columns, meta = _run(tmp_path, "cdf", cfg, "--trials", "10")
    assert meta["truncation_radius"] == 1000.0
    np.testing.assert_array_equal(columns["disk_cdf"], columns["analytic_cdf"])
    assert meta["disk_cdf_gap"] == 0.0


def test_small_disk_campaign_passes_against_its_disk_law_only(tmp_path):
    """fig3's field on a disk of radius 20 (about 9 interferers, a third of
    psi at mid-grid): the campaign follows the disk law F_R, and the plane's
    F, which counts the interference from beyond the disk, rejects it."""
    cfg = _cdf_config(tmp_path, sim={"trials": 2000, "seed": 1, "truncation_radius": 20.0})
    del cfg["gamma_grid"]
    columns, meta = _run(tmp_path, "simulate", cfg)
    critical = 1.36 / math.sqrt(2000)
    assert meta["mean_interferers"] == pytest.approx(2 * math.pi * 0.023 * 20.0**1.5 / 1.5)
    assert meta["ks_distance"] < critical
    dist = SinrDistribution(PsiEvaluator(PowerLaw(0.023, -0.5), 4.0), FIELD_LINK)
    plane = EmpiricalDistribution(columns["sinr"]).ks_distance(lambda s: cdf_gamma(dist, s * 1e4))
    assert plane > critical


def test_sidecar_round_trips(tmp_path):
    config = parse_config(json.dumps(_cdf_config(tmp_path)))
    out = run_experiment(config)
    meta = json.loads(sidecar_path(out).read_text())
    replay = meta["config"]
    replay["output_path"] = str(tmp_path / "replay.csv")
    out2 = run_experiment(parse_config(json.dumps(replay)))
    assert out2.read_bytes() == out.read_bytes()


# ---------------------------------------------------------------------------
# other experiment kinds


def test_run_outage_sweep(tmp_path):
    cfg = {
        "experiment": "outage-sweep",
        "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 5.0, "L": 1},
        "tau": 10.0,
        "R_c": 1000.0,
        "mu": 3142.0,
        "eps_grid": {"values": [-0.5, 0.0]},
        "L_values": [4, 12],
        "output_path": str(tmp_path / "outage.csv"),
    }
    out = run_experiment(parse_config(json.dumps(cfg)))
    header, rows = _read_csv(out)
    assert header == ["epsilon", "L", "rho_adjusted", "outage"]
    assert len(rows) == 4
    by_key = {(row[0], row[1]): row for row in rows}
    # rho re-solved so the disk mean count stays at mu
    rho_flat = by_key[(0.0, 4.0)][2]
    assert rho_flat == pytest.approx(3142.0 * 2.0 / (2.0 * math.pi * 1000.0**2), rel=1e-12)
    assert by_key[(-0.5, 4.0)][2] == pytest.approx(
        3142.0 * 1.5 / (2.0 * math.pi * 1000.0**1.5), rel=1e-12
    )
    # clustering the same population near the receiver destroys the link
    assert by_key[(-0.5, 4.0)][3] > 10.0 * by_key[(0.0, 4.0)][3]


def test_outage_sweep_batch_matches_scalar_route(tmp_path):
    """The (eps x L) batch writes, bit for bit, what one PsiEvaluator and one
    P(L, x) call per eps give; eps = 0 at alpha = 4 is numpy's sqrt path."""
    eps_values = [-1.9, -1.5, -1.0, -0.5, -0.25, 0.0, 0.3, 1.0, 1.5, 1.95]
    L_values = [1, 2, 3, 4, 8, 12, 16]
    link = {"alpha": 4.0, "sigma2": 1e-12, "r_T": 5.0, "L": 1}
    tau, R_c, mu = 10.0, 1000.0, 3142.0
    cfg = {
        "experiment": "outage-sweep",
        "link": link,
        "tau": tau,
        "R_c": R_c,
        "mu": mu,
        "eps_grid": {"values": eps_values},
        "L_values": L_values,
        "output_path": str(tmp_path / "outage.csv"),
    }
    _, rows = _read_csv(run_experiment(parse_config(json.dumps(cfg))))
    gamma = tau * link["r_T"] ** link["alpha"]
    expected = []
    for eps in eps_values:
        rho = mu * (2.0 + eps) / (2.0 * math.pi * R_c ** (2.0 + eps))
        psi = PsiEvaluator(PowerLaw(rho=rho, eps=eps), link["alpha"]).value(gamma)
        outage = regularized_lower_gamma(np.asarray(L_values), psi + link["sigma2"] * gamma)
        expected += [[eps, L, rho, p] for L, p in zip(L_values, outage.tolist())]
    assert rows == expected


def test_outage_sweep_eps_grid_bounds(tmp_path):
    cfg = {
        "experiment": "outage-sweep",
        "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 5.0, "L": 1},
        "tau": 10.0,
        "R_c": 1000.0,
        "mu": 3142.0,
        "eps_grid": {"values": [-0.5, 2.0]},  # hits alpha - 2
        "L_values": [4],
        "output_path": str(tmp_path / "outage.csv"),
    }
    with pytest.raises(ConfigError, match="eps_grid"):
        parse_config(json.dumps(cfg))


def test_run_scaling(tmp_path):
    cfg = {
        "experiment": "scaling",
        "model": {"family": "gaussian_cluster", "v": 500.0, "rho": 1.0},
        "link": {"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 1},
        "q": 1.0,
        "L_values": [1, 5],
        "gamma_grid": {"min": 1e2, "max": 1e6, "points": 5, "spacing": "log"},
        "output_path": str(tmp_path / "scaling.csv"),
    }
    out = run_experiment(parse_config(json.dumps(cfg)))
    header, rows = _read_csv(out)
    assert header == ["L", "beta", "gamma", "cdf"]
    assert len(rows) == 10
    for L in (1.0, 5.0):
        block = [row[3] for row in rows if row[0] == L]
        assert all(a <= b + 1e-12 for a, b in zip(block, block[1:]))
    meta = json.loads(sidecar_path(out).read_text())
    assert meta["sinr_limit"] == pytest.approx(1.592567035856024, rel=1e-6)
    assert meta["sinr_limit_db"] == pytest.approx(2.021, abs=1e-3)


def test_run_simulate(tmp_path):
    cfg = {
        "experiment": "simulate",
        "model": {"family": "gaussian_cluster", "v": 50.0, "total_count": 30.0},
        "link": {"alpha": 3.0, "sigma2": 1e-10, "r_T": 20.0, "L": 4},
        "sim": {"trials": 64, "seed": 3},
        "output_path": str(tmp_path / "sim.csv"),
    }
    out = run_experiment(parse_config(json.dumps(cfg)))
    header, rows = _read_csv(out)
    assert header == ["sinr", "sinr_db"]
    assert len(rows) == 64
    sinrs = [row[0] for row in rows]
    assert sinrs == sorted(sinrs)
    meta = json.loads(sidecar_path(out).read_text())
    assert meta["mean_interferers"] == pytest.approx(30.0, rel=1e-6)
    assert meta["truncation_radius"] > 0
    assert meta["ks_distance"] < 0.25  # loose at 64 trials; tight bound is acceptance work


def test_run_fit_poly(tmp_path):
    rho0 = 1000.0 / (2.0 * math.pi * 500.0 * math.sqrt(math.pi / 2.0))
    h_R0 = rho0 * math.exp(-(1500.0**2) / (2.0 * 500.0**2)) * 1500.0 / 500.0**2
    cfg = {
        "experiment": "fit-poly",
        "model": {"family": "gaussian_cluster", "v": 500.0, "total_count": 1000.0},
        "link": {"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 10},
        "R0": 1500.0,
        "degrees": [2, 6],
        "tail": {"rho0": h_R0 * 1500.0**1.5, "eps_tail": -1.5},
        "gamma_grid": {"min": 1e2, "max": 1e8, "points": 7, "spacing": "log"},
        "output_path": str(tmp_path / "fit.csv"),
    }
    out = run_experiment(parse_config(json.dumps(cfg)))
    header, rows = _read_csv(out)
    assert header == ["degree", "fit_sup_residual", "cdf_sup_error"]
    assert rows[0][0] == 2.0 and rows[1][0] == 6.0
    assert rows[1][2] < rows[0][2]  # higher degree, smaller CDF error
    meta = json.loads(sidecar_path(out).read_text())
    assert len(meta["fitted_coefficients"]["2"]) == 3
    assert len(meta["fitted_coefficients"]["6"]) == 7


def test_run_sample_points(tmp_path):
    cfg = {
        "experiment": "sample-points",
        "model": {"family": "power_law", "rho": 0.1, "eps": -1.0},
        "region_radius": 1000.0,
        "sim": {"seed": 3},
        "output_path": str(tmp_path / "points.csv"),
    }
    out = run_experiment(parse_config(json.dumps(cfg)))
    header, rows = _read_csv(out)
    assert header == ["x", "y"]
    mu = 2.0 * math.pi * 0.1 * 1000.0  # 2 pi rho R^(2+eps)/(2+eps) at eps=-1
    assert abs(len(rows) - mu) < 3.0 * math.sqrt(mu)
    assert all(math.hypot(x, y) <= 1000.0 for x, y in rows)
    meta = json.loads(sidecar_path(out).read_text())
    assert meta["count"] == len(rows)
    assert meta["mean_count"] == pytest.approx(mu, rel=1e-12)


# ---------------------------------------------------------------------------
# output writers against the standard library paths they replace


def _plain(value):
    """numpy scalars and arrays as the Python values json.dumps accepts."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    st.text(),  # non-ASCII too: json escapes it as \uXXXX
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.lists(_FLOATS).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(_FLOATS),  # the all-float fast path
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=30,
)


@settings(deadline=None)
@given(_JSON_VALUES)
def test_sidecar_encoder_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(_plain(value), indent=2, sort_keys=True)


def test_sidecar_encoder_fixed_cases():
    meta = {
        "b": [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324],
        "a": {},
        "c": [],
        "d": "\u00e9\U0001f600",
    }
    assert _json_text(meta) == json.dumps(meta, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text({"x": object()})


def _csv_reference(path, header, rows):
    """The csv.writer path, one format(.17g) or str(int) per field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    str(int(v)) if isinstance(v, (int, np.integer)) else format(float(v), ".17g")
                    for v in row
                ]
            )


def test_csv_writer_matches_csv_module(tmp_path):
    n = 2 * CSV_CHUNK_ROWS + 7
    rng = np.random.default_rng(5)
    # every bit pattern: subnormals, nans and infinities included
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 0.1]
    bits[: len(special)] = special
    columns = {
        "L": rng.integers(-(2**62), 2**62, size=n),
        "value": bits,
        "gamma": np.geomspace(1e-300, 1e300, n),
        "count": np.arange(n, dtype=np.int32),
    }
    _write_csv(tmp_path / "new.csv", columns)
    _csv_reference(tmp_path / "old.csv", list(columns), zip(*columns.values()))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # no rows: the header alone
    empty = {"x": np.empty(0), "y": np.empty(0)}
    _write_csv(tmp_path / "empty.csv", empty)
    _csv_reference(tmp_path / "old_empty.csv", list(empty), [])
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "old_empty.csv").read_bytes()


# ---------------------------------------------------------------------------
# entry point and exit codes


def test_main_success(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_cdf_config(tmp_path)))
    code = main(["cdf", "--config", str(path)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out


def test_main_validation_failure(tmp_path, capsys):
    cfg = _cdf_config(tmp_path)
    cfg["model"]["eps"] = 2.0
    code = main(["cdf", "--config", json.dumps(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "\n" == err[-1]


@pytest.mark.parametrize("v", [0.0, 1e-320])
def test_main_gaussian_total_count_needs_a_usable_width(tmp_path, capsys, v):
    # v = 0 divided by zero, and the subnormal v gave rho = inf and a CDF of
    # about 5e-25 with exit 0; both are config errors
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {"family": "gaussian_cluster", "v": v, "total_count": 10.0}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(cfg))
    assert main(["cdf", "--config", json.dumps(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "cdf.csv").exists()


@pytest.mark.filterwarnings("error")
def test_main_gaussian_width_whose_square_overflows_is_a_config_error(tmp_path, capsys):
    # v**2 overflowed inside psi: exit 2 with a bare "Numerical result out of range"
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {"family": "gaussian_cluster", "rho": 1.0, "v": 1e300}
    assert main(["cdf", "--config", json.dumps(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid model: width v") and "1e+300" in err
    assert not (tmp_path / "cdf.csv").exists()


def test_main_gaussian_total_count_that_overflows_is_a_config_error(tmp_path, capsys):
    # fig5 at rho = 1.7e308 printed an invalid-value RuntimeWarning from the
    # cluster's count (inf * 0), then exited 2 with "psi is NaN"
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "fig5.json").read_text())
    cfg["model"]["rho"] = 1.7e308
    cfg["output_path"] = str(tmp_path / "fig5.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scaling", "--config", json.dumps(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid model: rho = 1.7e+308") and "total count" in err
    assert not (tmp_path / "fig5.csv").exists()


@pytest.mark.parametrize("kind", ["outage-sweep", "link"])
def test_main_antenna_count_above_the_cap_is_a_config_error(tmp_path, capsys, kind):
    # the incomplete gamma's Poisson sums are checked up to ANTENNAS_MAX only
    cfg = _outage_config(tmp_path)
    if kind == "link":
        cfg["link"]["L"] = sinrdist.cli.ANTENNAS_MAX + 1
    else:
        cfg["L_values"] = [4, sinrdist.cli.ANTENNAS_MAX + 1]
    assert main(["outage-sweep", "--config", json.dumps(cfg)]) == 1
    assert str(sinrdist.cli.ANTENNAS_MAX) in capsys.readouterr().err
    assert not (tmp_path / "outage.csv").exists()


def test_main_missing_file(tmp_path, capsys):
    assert main(["cdf", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_numerical_failure(tmp_path, capsys):
    # starve the quadrature so the Gaussian-cluster integral cannot converge
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {"family": "gaussian_cluster", "v": 500.0, "total_count": 1000.0}
    cfg["link"] = {"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 10}
    cfg["tolerances"] = {"rel_tol": 1e-14, "abs_tol": 1e-300, "max_subdivisions": 1}
    code = main(["cdf", "--config", json.dumps(cfg)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _scaling_config(tmp_path, model, q):
    return {
        "experiment": "scaling",
        "model": model,
        "link": {"alpha": 4.0, "sigma2": 0.0, "r_T": 1.0, "L": 1},
        "q": q,
        "L_values": [1],
        "gamma_grid": {"min": 1.0, "max": 10.0, "points": 2},
        "output_path": str(tmp_path / "scaling.csv"),
    }


@pytest.mark.parametrize("q, side", [(0.1, "above"), (1.0, "below")])
def test_main_bracketing_failure_is_numerical(tmp_path, capsys, monkeypatch, q, side):
    # psi_c(1) = pi^2/2 sits below 1/q = 10 and above 1/q = 1; with the
    # bracket narrowed to gamma in [1/e, e], neither root lies inside it
    monkeypatch.setattr(sinrdist.distribution, "_LOG_GAMMA_RANGE", 1.0)
    cfg = _scaling_config(tmp_path, {"family": "power_law", "rho": 1.0, "eps": 0.0}, q)
    assert main(["scaling", "--config", json.dumps(cfg)]) == 2
    assert f"psi reaches 1/q = {1 / q:g} only {side} gamma = " in capsys.readouterr().err


@pytest.mark.parametrize("failure", ["nan", "step cap"])
def test_main_psi_inverse_failure_is_numerical(tmp_path, capsys, monkeypatch, failure):
    # a NaN psi, or a Newton search cut off after one step, leaves no limit
    if failure == "nan":
        monkeypatch.setattr(PsiEvaluator, "value", lambda self, gamma: math.nan)
        message = "psi is NaN"
    else:
        monkeypatch.setattr(sinrdist.distribution, "NEWTON_MAX_STEPS", 1)
        message = "did not converge in 1 steps"
    cfg = _scaling_config(tmp_path, {"family": "power_law", "rho": 1.0, "eps": 0.0}, 0.1)
    assert main(["scaling", "--config", json.dumps(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_main_saturated_scaling_limit_is_a_config_error(tmp_path, capsys):
    model = {"family": "gaussian_cluster", "v": 100.0, "total_count": 5.0}
    cfg = _scaling_config(tmp_path, model, 0.1)
    assert main(["scaling", "--config", json.dumps(cfg)]) == 1
    assert "limit does not exist" in capsys.readouterr().err


OVERFLOWING_MODELS = [
    {"family": "power_law", "rho": 1e307, "eps": -0.5},
    {"family": "power_law", "rho": 1.7e308, "eps": -0.5},
    {"family": "piecewise_power_law", "segments": [[1.7e308, -0.5, 10.0], [1.0, 0.0, 50.0]]},
    {"family": "polynomial_with_tail", "coeffs": [1.7e308], "R0": 1.0, "rho0": 1.7e308, "eps_tail": -1.5},
]
OVERFLOWING_IDS = ["power-law-1e307", "power-law-1.7e308", "piecewise-1.7e308", "polynomial-1.7e308"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", OVERFLOWING_MODELS, ids=OVERFLOWING_IDS)
def test_main_scaling_with_an_overflowing_scale_exits_cleanly(tmp_path, capsys, model):
    # the psi, psi' and count evaluations of scaling_limit raised overflow and
    # invalid-value RuntimeWarnings before the run exited 2; a piecewise
    # model whose total count overflows is refused as a config error
    cfg = _scaling_config(tmp_path, model, 1.0)
    piecewise = "segments" in model  # its whole-plane count was inf * 0 = NaN
    assert main(["scaling", "--config", json.dumps(cfg)]) == (1 if piecewise else 2)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("segments" in err) == piecewise
    assert not (tmp_path / "scaling.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", OVERFLOWING_MODELS, ids=OVERFLOWING_IDS)
@pytest.mark.parametrize("kind", ["cdf", "simulate"])
@pytest.mark.parametrize("radius", [None, 10.0])
def test_main_campaign_with_an_overflowing_scale_exits_cleanly(tmp_path, capsys, model, kind, radius):
    # the disk sizing, the disk law and the campaign's Poisson mean on the
    # disk (which overflowed with a RuntimeWarning for rho = 1e307 at
    # radius 10) end in a one-line error
    cfg = _cdf_config(tmp_path, model=model, experiment=kind, sim={"trials": 4, "seed": 1})
    if kind == "simulate":
        del cfg["gamma_grid"]
    if radius is not None:
        cfg["sim"]["truncation_radius"] = radius
    assert main([kind, "--config", json.dumps(cfg)]) in (1, 2)
    assert capsys.readouterr().err.startswith("error: ")


def test_main_unreachable_quantile_is_numerical(tmp_path, capsys):
    # without noise a 5-interferer cluster caps the CDF at 1 - Q(10, 5) ~ 0.03
    cfg = {
        "experiment": "simulate",
        "model": {"family": "gaussian_cluster", "v": 100.0, "total_count": 5.0},
        "link": {"alpha": 3.0, "sigma2": 0.0, "r_T": 1.0, "L": 10},
        "sim": {"trials": 10, "seed": 1},
        "output_path": str(tmp_path / "sim.csv"),
    }
    assert main(["simulate", "--config", json.dumps(cfg)]) == 2
    assert "never reaches the requested quantile" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_main_non_finite_rho_adjusted_is_a_config_error(tmp_path, capsys):
    # R_c**(2 + eps) underflows to 0, so the density that keeps mu would be inf
    cfg = _outage_config(tmp_path)
    cfg["R_c"] = 1e-320
    assert main(["outage-sweep", "--config", json.dumps(cfg)]) == 1
    assert "non-finite rho_adjusted" in capsys.readouterr().err
    assert not (tmp_path / "outage.csv").exists()


@pytest.mark.filterwarnings("error")
def test_main_overflowing_noise_is_numerical(tmp_path, capsys):
    # sigma2*gamma overflows: the CDF would read 1 and the pdf NaN
    cfg = {
        "experiment": "pdf",
        "model": {"family": "gaussian_cluster", "total_count": 1000.0, "v": 500.0},
        "link": {"alpha": 3.0, "sigma2": 1.7e308, "r_T": 20.0, "L": 10},
        "gamma_grid": {"min": 8e2, "max": 8e8, "points": 5, "spacing": "log"},
        "output_path": str(tmp_path / "pdf.csv"),
    }
    assert main(["pdf", "--config", json.dumps(cfg)]) == 2
    assert "psi + sigma2*gamma is not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_main_fit_poly_overflowing_noise_is_numerical(tmp_path, capsys):
    # sigma2*gamma overflows: both CDFs would read 1 and the error 0
    cfg = _fit_poly_config(tmp_path)
    cfg["link"]["sigma2"] = 1.7e308
    assert main(["fit-poly", "--config", json.dumps(cfg)]) == 2
    assert "psi + sigma2*gamma is not finite" in capsys.readouterr().err
    assert not (tmp_path / "fit.csv").exists()


@pytest.mark.filterwarnings("error")
def test_main_simulate_huge_noise_sizes_its_disk_without_warnings(tmp_path):
    # the truncation bound's decade scan overflows x above its top quantile
    cfg = {
        "experiment": "simulate",
        "model": {"family": "polynomial_with_tail", "coeffs": [0.005, 0.0, 1e-6],
                  "R0": 110.0, "rho0": (0.005 + 1e-6 * 110**2) * 110**1.5, "eps_tail": -1.5},
        "link": {"alpha": 3.0, "sigma2": 1e300, "r_T": 20.0, "L": 4},
        "sim": {"trials": 20, "seed": 3},
        "output_path": str(tmp_path / "sim.csv"),
    }
    assert main(["simulate", "--config", json.dumps(cfg)]) == 0


@pytest.mark.filterwarnings("error")
def test_main_non_finite_bound_grid_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    # psi overflows above gamma = 1e5, which the CDF grid reaches
    closed_form = PowerLaw.psi_closed_form

    def overflowing(self, alpha, gamma):
        return np.where(np.asarray(gamma) < 1e5, closed_form(self, alpha, gamma), np.inf)

    def no_campaign(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(PowerLaw, "psi_closed_form", overflowing)
    monkeypatch.setattr(sinrdist.cli, "run_campaign", no_campaign)
    cfg = _cdf_config(tmp_path, sim={"trials": 20, "seed": 3, "truncation_radius": 300.0})
    assert main(["cdf", "--config", json.dumps(cfg)]) == 2
    assert "psi + sigma2*gamma is not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_main_outage_overflowing_disk_gives_the_noise_only_outage(tmp_path):
    # R_c^(2+eps) overflows for eps > -1: rho_adjusted is then 0
    cfg = _outage_config(tmp_path)
    cfg["R_c"] = 1e300
    cfg["eps_grid"] = {"values": [-1.0, -0.5, 0.0]}
    assert main(["outage-sweep", "--config", json.dumps(cfg)]) == 0
    header, rows = _read_csv(tmp_path / "outage.csv")
    columns = dict(zip(header, zip(*rows)))
    assert columns["rho_adjusted"][0] > 0
    assert columns["rho_adjusted"][2:] == (0.0,) * 4
    gamma = cfg["tau"] * cfg["link"]["r_T"] ** cfg["link"]["alpha"]
    noise = regularized_lower_gamma(np.array([4, 12]), cfg["link"]["sigma2"] * gamma)
    np.testing.assert_array_equal(columns["outage"][2:], np.tile(noise, 2))


def test_main_campaign_matrices_over_the_draw_limit_are_a_config_error(tmp_path):
    # ten interferers pass the per-interferer count, but one trial's real
    # 2L x 2L Gram alone would take 298 GiB at L = 1e5; the run is made in a
    # child that caps its own address space at 2 GiB, so a failure to refuse
    # it cannot take the host's memory
    cfg = {
        "experiment": "simulate",
        "model": {"family": "gaussian_cluster", "v": 1.0, "total_count": 10.0},
        "link": {"alpha": 4.0, "sigma2": 1e-3, "r_T": 1.0, "L": 100_000},
        "sim": {"trials": 2, "seed": 0, "workers": 1},
        "output_path": str(tmp_path / "sim.csv"),
    }
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from sinrdist.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(sinrdist.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", child, "simulate", "--config", json.dumps(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert "L = 100000" in done.stderr


def test_main_oversized_point_draw_is_a_config_error(tmp_path, capsys):
    # a mean of 1.05e17 points would need 744 PiB for the radii alone
    cfg = {
        "experiment": "sample-points",
        "model": {"family": "power_law", "rho": 0.1, "eps": 4.0},
        "region_radius": 1000.0,
        "output_path": str(tmp_path / "points.csv"),
    }
    assert main(["sample-points", "--config", json.dumps(cfg)]) == 1
    assert "Poisson mean of 1.0472e+17 points" in capsys.readouterr().err


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the campaign pool forks its workers",
)


def _pool_cdf_config(tmp_path):
    cfg = _cdf_config(tmp_path)
    cfg["model"] = {"family": "gaussian_cluster", "v": 50.0, "total_count": 2.0}
    cfg["link"] = {"alpha": 3.0, "sigma2": 1e-10, "r_T": 20.0, "L": 8}
    cfg["sim"] = {"trials": 8, "seed": 3, "workers": 2}
    return cfg


@needs_fork
def test_power_law_campaign_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = _cdf_config(tmp_path)
    cfg["sim"] = {"trials": 24, "seed": 5}
    serial = run_experiment(parse_config(json.dumps(cfg)))
    cfg["sim"]["workers"] = 2
    cfg["output_path"] = str(tmp_path / "pooled.csv")
    pooled = run_experiment(parse_config(json.dumps(cfg)))
    assert pooled.read_bytes() == serial.read_bytes()
    first, second = (json.loads(sidecar_path(p).read_text()) for p in (serial, pooled))
    for key in ("truncation_radius", "disk_cdf_gap", "ks_distance"):
        assert first[key] == second[key]


@needs_fork
def test_main_worker_numerical_error_exits_2(tmp_path, capsys, monkeypatch):
    # no noise and fewer interferers than antennas: singular in every worker
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = _pool_cdf_config(tmp_path)
    cfg["link"]["sigma2"] = 0.0
    assert main(["cdf", "--config", json.dumps(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "singular" in err and err.count("\n") == 1


@needs_fork
def test_main_dead_worker_exits_1(tmp_path, capsys, monkeypatch):
    draw_trial = sinrdist.simulator._draw_trial

    def dies_at_trial_5(sim, trial_index, *args):
        if trial_index == 5:
            os._exit(3)
        return draw_trial(sim, trial_index, *args)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sinrdist.simulator, "_draw_trial", dies_at_trial_5)
    assert main(["cdf", "--config", json.dumps(_pool_cdf_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a campaign worker process died") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
def test_bundled_figures_reproduce_golden_bytes(tmp_path, name):
    root = Path(__file__).resolve().parents[1]
    config_path = root / "configs" / f"{name}.json"
    config = json.loads(config_path.read_text())
    golden = root / config["output_path"]
    out = tmp_path / golden.name
    argv = [config["experiment"], "--config", str(config_path), "--out", str(out)]
    if "trials" in config.get("sim", {}):
        # the committed Monte-Carlo outputs were made with 800 trials
        argv += ["--trials", "800"]
    assert main(argv) == 0
    assert out.read_bytes() == golden.read_bytes()
    # the whole sidecar text too, but for the host's library versions and the
    # output path, which points into tmp_path here
    masks = (
        (r'"versions": \{[^}]*\}', '"versions": {}'),
        (r'"output_path": "[^"]*"', '"output_path": ""'),
    )
    texts = []
    for path in (out, golden):
        text = sidecar_path(path).read_text()
        for pattern, blank in masks:
            text, count = re.subn(pattern, blank, text)
            assert count == 1, pattern
        texts.append(text)
    assert texts[0] == texts[1]


def _reproduce_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
    spec = importlib.util.spec_from_file_location("reproduce_figures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_check_with_workers_matches_outputs(capsys):
    """--workers goes only to the Monte-Carlo configs, and changes no byte of
    any output: the sidecar does not record the worker count."""
    module = _reproduce_script()
    assert module.check(list(module.FIGURES), workers=2) == 0
    assert "5 of 5 runs identical to outputs/" in capsys.readouterr().out


def test_reproduce_check_sizes_each_move():
    """Per CSV column and numeric sidecar key: the moved cells and the largest
    move relative to the larger magnitude; a cell that is no number moves by inf."""
    module = _reproduce_script()
    golden = "gamma,cdf,pdf,note\r\n1,0.5,2,a\r\n10,0.25,4,b\r\n100,0,8,c\r\n"
    new = "gamma,cdf,pdf,note\r\n1,0.5,2,a\r\n10,0.25000000000000006,5,b\r\n100,-0,6,d\r\n"
    assert module.csv_moves(new, golden) == {
        "cdf": (2, pytest.approx(2.2e-16, rel=0.01)),
        "pdf": (2, 0.25),
        "note": (1, math.inf),
    }
    golden = '{"ks_distance": 0.1, "sim": {"seed": 1, "grid": [1, 2.5]}, "versions": {"numpy": "2"}}'
    new = '{"ks_distance": 0.1, "sim": {"seed": 1, "grid": [1, 2.0]}, "versions": {"numpy": "3"}}'
    assert module.sidecar_moves(new, golden) == {"sim.grid.1": (1, 0.2)}


def test_main_seed_override_changes_samples(tmp_path):
    cfg = {
        "experiment": "sample-points",
        "model": {"family": "power_law", "rho": 0.1, "eps": -1.0},
        "region_radius": 200.0,
        "output_path": str(tmp_path / "p.csv"),
    }
    assert main(["sample-points", "--config", json.dumps(cfg), "--seed", "1"]) == 0
    first = (tmp_path / "p.csv").read_bytes()
    assert main(["sample-points", "--config", json.dumps(cfg), "--seed", "1"]) == 0
    assert (tmp_path / "p.csv").read_bytes() == first
    assert main(["sample-points", "--config", json.dumps(cfg), "--seed", "2"]) == 0
    assert (tmp_path / "p.csv").read_bytes() != first
