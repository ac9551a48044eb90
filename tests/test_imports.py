"""Import guard: a CLI run loads only the scipy it uses.

scipy.interpolate, scipy.optimize and scipy.integrate (with the scipy.sparse
stack they share) cost about 0.2 s to import, more than many runs take. The
package has in-package replacements for the sampler table, the scaling-limit
root and the fit-poly reference, and imports QUADPACK only inside
integrate_radial; the simulator factors on numpy.linalg, not scipy.linalg.
One fresh interpreter runs a tiny config of each route that used the heavy
modules and reports what it loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sinrdist

HEAVY = ("scipy.interpolate", "scipy.optimize", "scipy.integrate", "scipy.sparse", "scipy.linalg")

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
            "sim": {"trials": 16, "seed": 2, "workers": 1},
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
    ]


def test_cli_runs_load_no_heavy_scipy(tmp_path):
    src = str(Path(sinrdist.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(_configs(tmp_path))],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert len(list(tmp_path.glob("*.csv"))) == 4
    heavy = [m for m in loaded if ".".join(m.split(".")[:2]) in HEAVY]
    assert heavy == []
