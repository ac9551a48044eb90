"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""

import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(capsys, trace, section):
    code = run.main(
        ["--workload", "all", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        sizes=workloads.TINY,
    )
    assert code == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for name in workloads.WORKLOADS:
        for metric in SPEC[section]:
            key = f"{name}.{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"]
            assert isinstance(result["metrics"][key]["value"], (int, float))
            assert f"{name} {metric['name']} = " in out
        assert f"{name} error_rate = 0 ratio" in out
    assert "mc-cluster trials_per_s = " in out
    assert "mc-field trials_per_s = " in out
    assert "analytic-sweep cells_per_s = " in out
    assert out.startswith("provenance ")


def test_single_workload_reports_exactly_the_end_to_end_metrics(capsys):
    code = run.main(
        ["--workload", "mc-field", "--seed", "5", "--seconds", "0", "--trace", "0"],
        sizes=workloads.TINY,
    )
    assert code == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["attempted"] >= run.MIN_ROUNDS


def test_failing_config_raises_error_rate():
    bad = {
        "experiment": "cdf",
        # eps >= alpha - 2: the interference diverges, so the CLI rejects it
        "model": {"family": "power_law", "rho": 0.02, "eps": 2.5},
        "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 10.0, "L": 2},
        "gamma_grid": {"min": 1e2, "max": 1e6, "points": 5},
    }
    lines = []
    result = run.run_workload(
        "mc-cluster", 1, 0, False, workloads.TINY, extra_jobs=[("diverging", bad)],
        log=lines.append,
    )
    assert not result["correct"]
    assert result["failed"] == run.MIN_ROUNDS
    rate = next(line for line in lines if "error_rate" in line)
    assert float(rate.split("=")[1].split()[0]) > 0
    assert any(line.startswith("FAILED mc-cluster/diverging: ConfigError") for line in lines)


def test_times_are_scaled_to_the_nominal_host_speed(monkeypatch):
    # a host running the reference computation at half its nominal speed
    monkeypatch.setattr(run.reference, "run", lambda: 2.0 * run.reference.NOMINAL_S)
    lines = []
    run.run_workload("mc-field", 4, 0, False, workloads.TINY, log=lines.append)
    printed = {line.split()[1]: float(line.split()[3]) for line in lines if " = " in line}
    assert printed["host_speed"] == 0.5
    assert printed["wall_s"] == pytest.approx(printed["raw_wall_s"] / 2, rel=1e-5)
    assert printed["setup_s"] == pytest.approx(printed["raw_setup_s"] / 2, rel=1e-5)


def test_check_rejects_a_decreasing_cdf(tmp_path):
    config = {
        "experiment": "cdf",
        "model": {"family": "power_law", "rho": 0.02, "eps": -0.5},
        "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 10.0, "L": 2},
        "gamma_grid": {"min": 1e2, "max": 1e4, "points": 3},
    }
    csv_path = tmp_path / "bad.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "sinr_db", "analytic_cdf"])
        writer.writerows([[1e2, 0, 0.5], [1e3, 0, 0.4], [1e4, 0, 0.9]])
    (tmp_path / "bad.meta.json").write_text("{}")
    problems, _ = workloads.check(
        "bad", config, csv_path, tmp_path / "bad.meta.json", workloads.TINY, 1
    )
    assert any("decreases along gamma" in p for p in problems)
    assert any(p.startswith("cdf(") for p in problems)


def _installed_wrappers():
    """Names in the sinrdist modules that currently hold a tracer wrapper."""
    import sinrdist

    found = []
    modules = [sinrdist] + [getattr(sinrdist, m) for m in tracer.LAYERS]
    for module in modules:
        for attr, obj in vars(module).items():
            if hasattr(obj, "__traced__"):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(obj, type):
                found += [f"{attr}.{m}" for m, fn in vars(obj).items() if hasattr(fn, "__traced__")]
    return found


def _round_spec(tmp_path, name, trace):
    jobs = []
    for job_name, config in workloads.build(name, 2, workloads.TINY):
        path = tmp_path / f"{job_name}.json"
        path.write_text(json.dumps(config))
        jobs.append({"name": job_name, "config_path": str(path),
                     "out": str(tmp_path / f"{job_name}.csv")})
    spec = {"jobs": jobs, "trace": trace, "result_path": str(tmp_path / "result.json")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return spec_path


def test_untraced_round_installs_no_wrapper(tmp_path, monkeypatch):
    import sinrdist.simulator as simulator

    seen = []
    monkeypatch.setattr(tracer.Tracer, "install", lambda self: seen.append(self))
    run_trial = simulator.run_trial
    assert child.main(_round_spec(tmp_path, "mc-field", False)) == 0
    assert seen == []
    assert _installed_wrappers() == []
    assert simulator.run_trial is run_trial
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["trace"] is None
    assert all(job["error"] is None for job in result["jobs"])


def test_traced_round_attributes_pool_trials_and_uninstalls(tmp_path):
    import sinrdist.interference as interference

    value = interference.PsiEvaluator.value
    assert child.main(_round_spec(tmp_path, "mc-field", True)) == 0
    assert _installed_wrappers() == []
    assert interference.PsiEvaluator.value is value
    assert interference.PsiEvaluator.__call__ is value

    dump = json.loads((tmp_path / "result.json").read_text())["trace"]
    names = dump["names"]
    by_id = {row[0]: names[row[1]] for row in dump["spans"]}
    trials = [row for row in dump["spans"] if names[row[1]] == "simulator.trial"]
    assert len(trials) == workloads.TINY.mc_field_trials
    assert all(by_id[row[5]] == "simulator.campaign" for row in trials)
    metrics = tracer.layer_metrics(dump)
    assert metrics["simulator.trials"] == workloads.TINY.mc_field_trials
    assert 0 < metrics["simulator.campaign.concurrency"] <= workloads.nproc() + 0.1
    assert metrics["cli.parse.s"] > 0


def test_workloads_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
