"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/child.py ROUND.json

ROUND.json lists the experiments of the round (config path and output path),
whether to trace, and where to write the result. The round imports sinrdist,
parses every config through ``sinrdist.cli.parse_config`` (with ``--out``
pointed at the benchmark's own work directory), then runs each experiment
through ``sinrdist.cli.run_experiment``. Timestamps come from
``time.perf_counter``, the system-wide monotonic clock, so the parent can
measure from before it started this interpreter.

An exception from parsing or running an experiment is reported against that
experiment (where the CLI would exit non-zero); the round itself fails
(exit 3) only when the package cannot be imported.
"""

import json
import resource
import sys
import time


def main(path):
    with open(path) as fh:
        spec = json.load(fh)
    started = time.perf_counter()
    try:
        import sinrdist.cli as cli
        import sinrdist.intensity as intensity
    except ImportError as exc:
        print(f"cannot import sinrdist: {exc}", file=sys.stderr)
        return 3
    imported = time.perf_counter()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    jobs = []
    for job in spec["jobs"]:
        entry = {"name": job["name"], "error": None, "config": None}
        try:
            entry["config"] = cli.parse_config(job["config_path"], overrides={"out": job["out"]})
        except Exception as exc:  # every failure counts against the experiment
            entry["error"] = f"{type(exc).__name__}: {exc}"
        jobs.append(entry)
    parsed = time.perf_counter()

    for entry in jobs:
        if entry["config"] is None:
            continue
        try:
            cli.run_experiment(entry["config"])
        except Exception as exc:  # every failure counts against the experiment
            entry["error"] = f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.dump()

    # Poisson mean of each campaign's disk, for the realised-count ratio.
    for entry in jobs:
        config = entry.pop("config")
        if config is not None and config.truncation_radius is not None:
            region = intensity.DiskRegion(config.truncation_radius)
            entry["mean_count"] = intensity.mean_count(config.model, region)

    result = {
        "started": started,
        "imported": imported,
        "parsed": parsed,
        "done": done,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "jobs": jobs,
        "trace": trace,
    }
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
