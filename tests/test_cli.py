"""End-to-end tests of the command-line tool: config parsing, each experiment
kind against a temp directory, determinism of the outputs, and exit codes."""

import csv
import json
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

import sinrdist.distribution
import sinrdist.simulator
from sinrdist import GaussianCluster, PiecewisePowerLaw, PowerLaw
from sinrdist.cli import (
    ConfigError,
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


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_cdf(tmp_path):
    config = parse_config(json.dumps(_cdf_config(tmp_path)))
    assert config.kind == "cdf"
    assert isinstance(config.model, PowerLaw)
    assert config.link.L == 10
    assert config.gamma_grid.shape == (9,)
    assert config.seed == 0 and config.workers == 1


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


def test_parse_overrides(tmp_path):
    cfg = _cdf_config(tmp_path)
    config = parse_config(
        json.dumps(cfg),
        overrides={"seed": 9, "trials": 32, "out": str(tmp_path / "other.csv"), "workers": 2},
    )
    assert config.seed == 9
    assert config.trials == 32
    assert config.sim_requested  # --trials switches the cdf run to hybrid mode
    assert config.output_path.endswith("other.csv")
    assert config.workers == 2


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
    # psi_c(1) = pi^2/2 sits below 1/q = 10 and above 1/q = 1; with no
    # expansion steps allowed, neither bracket can be found
    monkeypatch.setattr(sinrdist.distribution, "_MAX_BRACKET_STEPS", 0)
    cfg = _scaling_config(tmp_path, {"family": "power_law", "rho": 1.0, "eps": 0.0}, q)
    assert main(["scaling", "--config", json.dumps(cfg)]) == 2
    assert f"failed to bracket the interference level from {side}" in capsys.readouterr().err


def test_main_saturated_scaling_limit_is_a_config_error(tmp_path, capsys):
    model = {"family": "gaussian_cluster", "v": 100.0, "total_count": 5.0}
    cfg = _scaling_config(tmp_path, model, 0.1)
    assert main(["scaling", "--config", json.dumps(cfg)]) == 1
    assert "limit does not exist" in capsys.readouterr().err


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
    run_trial = sinrdist.simulator.run_trial

    def dies_at_trial_5(sim, trial_index):
        if trial_index == 5:
            os._exit(3)
        return run_trial(sim, trial_index)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sinrdist.simulator, "run_trial", dies_at_trial_5)
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
