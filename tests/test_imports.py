"""Import guard: a CLI run loads only the scipy it uses, and no process pool.

scipy.interpolate, scipy.optimize and scipy.integrate (with the scipy.sparse
stack they share) cost about 0.2 s to import, and scipy.special, through
scipy's array-API layer (which also loads numpy.f2py), about 0.3 s: more than
many runs take. The package has in-package replacements for the sampler
table, the scaling-limit root, the fit-poly reference and the special
functions, and imports QUADPACK only inside integrate_radial; the simulator
factors on numpy.linalg, not scipy.linalg. One fresh interpreter runs a tiny
config of every CLI kind, and of each route that used the heavy modules, and
reports what it loaded. A campaign forks its children directly, so neither
concurrent.futures.process nor multiprocessing (about 20 ms of import) loads
either, whatever the worker count; the cdf config asks for two workers.
The sidecar reads scipy's version from its version.py without importing
scipy, so a cdf run with a campaign, which needs no QUADPACK, loads no scipy
module at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy

import sinrdist

HEAVY = (
    "scipy.interpolate",
    "scipy.optimize",
    "scipy.integrate",
    "scipy.sparse",
    "scipy.linalg",
    "scipy.special",
    "numpy.f2py",
)
POOL = ("concurrent.futures.process", "multiprocessing")

RUN = """
import json, sys
import sinrdist.cli as cli
for config in json.loads(sys.argv[1]):
    cli.run_experiment(cli.parse_config(json.dumps(config)))
print(json.dumps(sorted(sys.modules)))
"""


def _configs(out: Path):
    cluster = {"family": "gaussian_cluster", "v": 500.0, "total_count": 1000.0}
    link = {"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 4}
    return [
        {
            "experiment": "pdf",
            "model": cluster,
            "link": link,
            "gamma_grid": {"min": 1e3, "max": 1e6, "points": 4},
            "sim": {"trials": 16, "seed": 1, "workers": 1},
            "output_path": str(out / "pdf.csv"),
        },
        {
            "experiment": "cdf",
            "model": {"family": "power_law", "rho": 0.023, "eps": -0.5},
            "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 10.0, "L": 2},
            "gamma_grid": {"min": 1e2, "max": 1e6, "points": 4},
            "sim": {"trials": 16, "seed": 2, "workers": 2},
            "output_path": str(out / "cdf.csv"),
        },
        {
            "experiment": "scaling",
            "model": {"family": "gaussian_cluster", "rho": 1.0, "v": 500.0},
            "link": {"alpha": 3.0, "sigma2": 1e-14, "r_T": 20.0, "L": 1},
            "q": 1.0,
            "L_values": [1, 5],
            "gamma_grid": {"min": 8e2, "max": 2.6e5, "points": 3},
            "output_path": str(out / "scaling.csv"),
        },
        {
            "experiment": "fit-poly",
            "model": {"family": "gaussian_cluster", "rho": 1.0, "v": 500.0},
            "link": link,
            "R0": 1500.0,
            "degrees": [2],
            "tail": {"rho0": 1e-3, "eps_tail": -1.5},
            "gamma_grid": {"min": 1e3, "max": 1e7, "points": 3},
            "output_path": str(out / "fit.csv"),
        },
        {
            "experiment": "outage-sweep",
            "link": {"alpha": 4.0, "sigma2": 1e-12, "r_T": 5.0, "L": 1},
            "tau": 10.0,
            "R_c": 1000.0,
            "mu": 3142.0,
            "eps_grid": {"min": -1.0, "max": 0.0, "points": 3, "spacing": "linear"},
            "L_values": [1, 4],
            "output_path": str(out / "outage.csv"),
        },
        {
            "experiment": "sample-points",
            "model": {"family": "power_law", "rho": 0.1, "eps": -1.0},
            "region_radius": 100.0,
            "sim": {"seed": 3},
            "output_path": str(out / "points.csv"),
        },
    ]


def _modules_loaded_by(configs):
    """The sorted names in sys.modules after one fresh interpreter ran configs."""
    src = str(Path(sinrdist.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(configs)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_runs_load_no_heavy_scipy(tmp_path):
    loaded = _modules_loaded_by(_configs(tmp_path))
    assert len(list(tmp_path.glob("*.csv"))) == 6
    heavy = [m for m in loaded if ".".join(m.split(".")[:2]) in HEAVY]
    assert heavy == []
    pool = [m for m in loaded if m in POOL or m.startswith("multiprocessing.")]
    assert pool == []


def test_cdf_campaign_run_loads_no_scipy(tmp_path):
    (cdf,) = [config for config in _configs(tmp_path) if config["experiment"] == "cdf"]
    loaded = _modules_loaded_by([cdf])
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    meta = json.loads((tmp_path / "cdf.meta.json").read_text())
    assert meta["versions"]["scipy"] == scipy.__version__
