#!/usr/bin/env python3
"""Run the five bundled experiment configs and summarize the outputs.

Each config in configs/ drives one CLI experiment; results land in outputs/
as a CSV plus a .meta.json sidecar. The two Monte-Carlo runs (fig2, fig3)
default to 2e4 trials and dominate the runtime; pass --trials to shrink them
for a smoke run. The committed outputs/ were made with --trials 800.

--check regenerates the figures into a temporary directory instead, with the
Monte-Carlo runs at 800 trials, compares each CSV byte for byte with the one
in outputs/, and exits with status 1 if any differs.

Usage:
    python3 scripts/reproduce_figures.py [--only fig2 fig3] [--trials N] [--check]
"""

import argparse
import filecmp
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sinrdist.cli import main as cli_main, sidecar_path  # noqa: E402

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")
# sidecar keys worth echoing per experiment kind
SUMMARY_KEYS = ("count", "ks_distance", "sinr_limit_db", "mean_interferers")
# Monte-Carlo trial count the committed outputs/ were generated with
GOLDEN_TRIALS = 800


def run_one(name: str, trials, workers, root: Path = ROOT) -> int:
    config_path = ROOT / "configs" / f"{name}.json"
    config = json.loads(config_path.read_text())
    out = root / config["output_path"]
    out.parent.mkdir(parents=True, exist_ok=True)
    argv = [config["experiment"], "--config", str(config_path)]
    if trials is not None and "sim" in config and "trials" in config["sim"]:
        argv += ["--trials", str(trials)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    # run from root so the sidecar records the config's relative output path
    cwd = os.getcwd()
    os.chdir(root)
    try:
        code = cli_main(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        print(f"{name}: FAILED with exit code {code}", file=sys.stderr)
        return code
    meta = json.loads(sidecar_path(out).read_text())
    notes = ", ".join(
        f"{key}={meta[key]:.4g}" if isinstance(meta.get(key), float) else f"{key}={meta[key]}"
        for key in SUMMARY_KEYS
        if key in meta
    )
    print(f"{name}: {out.relative_to(root)}" + (f" ({notes})" if notes else ""))
    return 0


def check(names, workers) -> int:
    """Regenerate into a temporary directory and cmp each CSV with outputs/."""
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            code = run_one(name, GOLDEN_TRIALS, workers, root=Path(tmp))
            if code != 0:
                return code
            rel = json.loads((ROOT / "configs" / f"{name}.json").read_text())["output_path"]
            if not filecmp.cmp(Path(tmp) / rel, ROOT / rel, shallow=False):
                differ.append(rel)
    for rel in differ:
        print(f"DIFFERS: {rel}", file=sys.stderr)
    print(f"{len(names) - len(differ)} of {len(names)} CSVs identical to outputs/")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=FIGURES, help="subset of figures")
    parser.add_argument("--trials", type=int, help="override Monte-Carlo trial counts")
    parser.add_argument("--workers", type=int, help="thread count for simulations")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"regenerate into a temp dir ({GOLDEN_TRIALS} trials) and compare with outputs/",
    )
    args = parser.parse_args()
    names = args.only or FIGURES
    if args.check:
        return check(names, args.workers)
    for name in names:
        code = run_one(name, args.trials, args.workers)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
