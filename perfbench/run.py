#!/usr/bin/env python3
"""sinrdist benchmark: time validated Monte-Carlo curves, analytic parameter
studies and start-up, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-cluster --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 -m pytest -q perfbench        # the benchmark's own tests

Workloads (see BENCHMARK.json and perfbench/records.json for why each exists):

    mc-cluster      fig2-shaped pdf run with a Monte-Carlo column, Gaussian
                    cluster, one worker: KS check through the psi quadrature
                    and the table-driven radius sampler
    mc-field        fig3-shaped cdf run with a Monte-Carlo column, power law,
                    one worker per core: channel draw and MMSE at large n
    analytic-sweep  seeded parameter study without the simulator: closed-form
                    cdf grids and outage sweeps, pdf grids (psi' quadrature),
                    a scaling run, a polynomial fit and a large point sample

The seed generates JSON configs; the package sees only those. Each round runs
all of a workload's experiments through ``sinrdist.cli`` in a fresh
interpreter, so every round pays for the import and the lazily built sampler
tables, as a CLI user does. Rounds repeat until ``--seconds`` have passed and
each metric is the median over rounds. The host's speed drifts by up to 1.7x
over seconds to minutes, so a fixed reference computation
(perfbench/reference.py) is timed between rounds, and ``wall_s`` and
``setup_s`` are given in seconds at the host's nominal speed; the raw
medians and the measured speed are printed as ``raw_wall_s``,
``raw_setup_s`` and ``host_speed``. Outputs go to a work directory under
the checkout, are checked after each round (outside the timed region) and are
deleted at the end.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` the run
alternates untraced and traced rounds; the traced ones patch the package from
the outside (perfbench/tracer.py) and give the per-layer metrics, and the
ratio of traced to untraced wall time gives the tracing overhead. Lines before
the last one give every metric by name and unit, the error rate, and the
provenance of the run.

Exit code 0 on a completed run (failed experiments are counted, not fatal);
2 when the package cannot be found or imported.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))  # the output checks use the package

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Rounds below this count make a median meaningless; a run takes at least
# this many even when --seconds is short.
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """The program under test could not be run at all."""


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def provenance():
    def lscpu_cache(label):
        try:
            out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        for line in out.splitlines():
            if line.startswith(label):
                return line.split(":", 1)[1].strip()
        return "unknown"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "l2_cache": lscpu_cache("L2 cache"),
        "l3_cache": lscpu_cache("L3 cache"),
        "git_commit": commit,
    }


class Workload:
    """A generated workload, written out as configs in its own work directory."""

    def __init__(self, name, seed, sizes, work, extra_jobs=()):
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.jobs = []
        for job_name, config in [*workloads.build(name, seed, sizes), *extra_jobs]:
            path = work / f"{job_name}.json"
            path.write_text(json.dumps(config, indent=1))
            self.jobs.append(
                {"name": job_name, "config": config, "config_path": str(path),
                 "out": str(work / "out" / f"{job_name}.csv")}
            )
        self.trials = sum(j["config"].get("sim", {}).get("trials", 0) for j in self.jobs
                          if j["config"]["experiment"] in ("cdf", "pdf"))
        self.cells = sum(_cells(j["config"]) for j in self.jobs)


def _cells(config):
    """Analytic CDF, PDF and outage values an experiment writes."""
    kind = config["experiment"]
    if kind in ("cdf", "pdf"):
        return config["gamma_grid"]["points"] * (2 if kind == "pdf" else 1)
    if kind == "outage-sweep":
        return config["eps_grid"]["points"] * len(config["L_values"])
    if kind == "scaling":
        return config["gamma_grid"]["points"] * len(config["L_values"])
    return 0


def run_round(load: Workload, trace: bool):
    """One fresh-interpreter round; returns its measurements and failures."""
    out_dir = load.work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = load.work / "round.json"
    result_path.unlink(missing_ok=True)
    spec = {
        "jobs": [{k: j[k] for k in ("name", "config_path", "out")} for j in load.jobs],
        "trace": trace,
        "result_path": str(result_path),
    }
    spec_path = load.work / "round-spec.json"
    spec_path.write_text(json.dumps(spec))

    launched = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchmarkError(
            f"round of {load.name} exited with code {proc.returncode}: {proc.stderr.strip()}"
        )
    child = json.loads(result_path.read_text())

    failures, figures = {}, {"ks_ratio": [], "csv_bytes": 0}
    for job, report in zip(load.jobs, child["jobs"]):
        if report["error"] is not None:
            failures[job["name"]] = [report["error"]]
            continue
        csv_path = Path(job["out"])
        meta_path = csv_path.with_suffix(".meta.json")
        try:
            problems, found = workloads.check(
                job["name"], job["config"], csv_path, meta_path, load.sizes, load.seed
            )
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, found = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
        if problems:
            failures[job["name"]] = problems
        if "ks_ratio" in found:
            figures["ks_ratio"].append(found["ks_ratio"])
        if csv_path.is_file():
            figures["csv_bytes"] += csv_path.stat().st_size
        if "mean_count" in report:
            figures["mean_count"] = report["mean_count"]

    return {
        "traced": trace,
        "setup_s": child["parsed"] - launched,
        "wall_s": child["done"] - child["parsed"],
        "import_s": child["imported"] - child["started"],
        "cpu_s": child["cpu_s"],
        "peak_rss_mb": child["maxrss_kb"] / 1024.0,
        "attempted": len(load.jobs),
        "failures": failures,
        "figures": figures,
        "trace": child["trace"],
    }


def _warm_up():
    """Compile the package's bytecode and fill the file cache, untimed."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sinrdist.cli"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import sinrdist: {proc.stderr.strip()}")


def _layer_round(r):
    """Per-layer metrics of one traced round, with its accuracy figures."""
    m = tracer.layer_metrics(r["trace"])
    fig = r["figures"]
    m["simulator.ks_ratio"] = statistics.fmean(fig["ks_ratio"]) if fig["ks_ratio"] else 0.0
    shapes = r["trace"]["counters"].get("simulator.channels", [])
    if shapes and fig.get("mean_count"):
        m["simulator.interferers.ratio"] = (
            statistics.fmean(n for _L, n in shapes) / fig["mean_count"]
        )
    else:
        m["simulator.interferers.ratio"] = 0.0
    m["cli.csv.bytes"] = fig["csv_bytes"]
    return m


def measure(load: Workload, seconds: float, trace: bool, log=print):
    """Run rounds for `seconds`; return (metrics, attempted, failed).

    Times are scaled to the host's nominal speed by the reference computation
    timed on both sides of each round (perfbench/reference.py); the raw
    medians are printed as ``raw_wall_s`` and ``raw_setup_s``.
    """
    _warm_up()
    reference.run()
    rounds = []
    before = reference.run()
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        r = run_round(load, traced)
        after = reference.run()
        r["speed"] = reference.NOMINAL_S / ((before + after) / 2.0)
        before = after
        for key in ("setup_s", "wall_s"):
            r["raw_" + key] = r[key]
            r[key] *= r["speed"]
        rounds.append(r)
        log(f"{load.name} round {len(rounds)}{' traced' if traced else ''}: "
            f"setup_s {r['setup_s']:.4f} wall_s {r['wall_s']:.4f} "
            f"(raw {r['raw_setup_s']:.4f} {r['raw_wall_s']:.4f}, speed {r['speed']:.3f})")
        for job, problems in r["failures"].items():
            for problem in problems:
                log(f"FAILED {load.name}/{job}: {problem}")
        untraced = [x for x in rounds if not x["traced"]]
        traced_rounds = [x for x in rounds if x["traced"]]
        enough = len(untraced) >= MIN_ROUNDS and (not trace or len(traced_rounds) >= 2)
        if enough and time.perf_counter() - start >= seconds:
            break

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)

    def med(key, subset):
        return statistics.median(r[key] for r in subset)

    wall = med("wall_s", untraced)
    summary = {
        "wall_s": wall,
        "setup_s": med("setup_s", untraced),
        "raw_wall_s": med("raw_wall_s", untraced),
        "raw_setup_s": med("raw_setup_s", untraced),
        "host_speed": med("speed", rounds),
        "peak_rss_mb": med("peak_rss_mb", untraced),
        "error_rate": failed / attempted,
        "rounds": len(untraced),
    }
    if load.trials:
        summary["trials_per_s"] = load.trials / wall
    else:
        summary["cells_per_s"] = load.cells / wall
    metrics = dict(summary)
    if trace:
        metrics.update(tracer.median_metrics([_layer_round(r) for r in traced_rounds]))
        metrics["process.import_s"] = med("import_s", untraced)
        metrics["process.cpu_s"] = med("cpu_s", untraced)
        metrics["trace.overhead_ratio"] = med("wall_s", traced_rounds) / wall
        metrics["trace.rounds"] = len(traced_rounds)
    return metrics, attempted, failed


SUMMARY_UNITS = {
    "wall_s": "s", "setup_s": "s", "raw_wall_s": "s", "raw_setup_s": "s", "host_speed": "ratio",
    "peak_rss_mb": "MB", "trials_per_s": "1/s",
    "cells_per_s": "1/s", "error_rate": "ratio", "rounds": "count", "trace.rounds": "count",
}


def run_workload(name, seed, seconds, trace, sizes=workloads.FULL, extra_jobs=(), log=print):
    """Measure one workload and return its result object (the last output line)."""
    spec = _benchmark_spec()
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {**SUMMARY_UNITS, **{m["name"]: m["unit"] for m in listed}}
    work = ROOT / ".perfbench_work" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        load = Workload(name, seed, sizes, work, extra_jobs)
        metrics, attempted, failed = measure(load, seconds, trace, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key in sorted(metrics):
        log(f"{name} {key} = {metrics[key]:.6g} {units.get(key, '')}".rstrip())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None, sizes=workloads.FULL):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sinrdist" / "__init__.py").is_file():
        print(f"error: no sinrdist package under {SRC}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), sizes)
                   for n in names}
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
