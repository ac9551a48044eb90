#!/usr/bin/env python3
"""Run the five bundled experiment configs and summarize the outputs.

Each config in configs/ drives one CLI experiment; results land in outputs/
as a CSV plus a .meta.json sidecar. The two Monte-Carlo runs (fig2, fig3)
default to 2e4 trials and dominate the runtime; pass --trials to shrink them
for a smoke run. The committed outputs/ were made with --trials 800.

--check regenerates the figures into a temporary directory instead, with the
Monte-Carlo runs at 800 trials, compares each CSV byte for byte with the one
in outputs/ and each sidecar's text with the committed one (all but its
"versions" block, which depends on the host), prints the first line that
differs, and exits with status 1 if any run differs. For each file that
differs it also sizes the move: per CSV column and per numeric sidecar key,
the number of moved cells and the largest relative move.

Usage:
    python3 scripts/reproduce_figures.py [--only fig2 fig3] [--trials N] [--check]
"""

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sinrdist.cli import main as cli_main, sidecar_path  # noqa: E402

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")
# sidecar keys worth echoing per experiment kind
SUMMARY_KEYS = ("count", "ks_distance", "disk_cdf_gap", "sinr_limit_db", "mean_interferers")
# Monte-Carlo trial count the committed outputs/ were generated with
GOLDEN_TRIALS = 800
# the sidecar's library versions, the one block --check does not compare
VERSIONS_BLOCK = re.compile(r'"versions": \{[^}]*\}')


def first_difference(new: str, golden: str, label: str):
    """The first line where two texts differ, as a printable report, or None."""
    pairs = itertools.zip_longest(golden.splitlines(True), new.splitlines(True))
    for number, (old, now) in enumerate(pairs, 1):
        if old != now:
            return f"{label} line {number}:\n  golden: {old!r}\n  new:    {now!r}"
    return None


def run_texts(new_csv: Path, golden_csv: Path):
    """The two CSV texts and the two sidecar texts (versions blanked) of a run."""
    csv_texts = [p.read_bytes().decode() for p in (new_csv, golden_csv)]
    meta_texts = [
        VERSIONS_BLOCK.sub('"versions": {}', sidecar_path(p).read_text())
        for p in (new_csv, golden_csv)
    ]
    return csv_texts, meta_texts


def run_difference(csv_texts, meta_texts):
    """The first differing CSV line, else the first differing sidecar line, or None."""
    return first_difference(*csv_texts, "csv") or first_difference(*meta_texts, "sidecar")


def relative_move(new: str, golden: str) -> float:
    """|new - golden| relative to the larger magnitude of two numeric texts;
    inf where either is not a finite number."""
    try:
        a, b = float(new), float(golden)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a - b) else math.inf


def _tally(pairs):
    """{name: (moved cells, largest relative move)} over (name, new, golden)
    text triples, counting those whose texts differ."""
    moves = {}
    for name, new, golden in pairs:
        if new != golden:
            count, largest = moves.get(name, (0, 0.0))
            moves[name] = (count + 1, max(largest, relative_move(new, golden)))
    return moves


def csv_moves(new: str, golden: str):
    """The moved cells of two CSV texts, per column of the golden header."""
    rows = zip(*(csv.reader(io.StringIO(text)) for text in (new, golden)))
    _, header = next(rows)
    return _tally((name, a, b) for now, was in rows for name, a, b in zip(header, now, was))


def _numeric_leaves(tree, key=""):
    """(dotted key, number text) for every number in a JSON tree."""
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for k, value in items:
            yield from _numeric_leaves(value, f"{key}.{k}" if key else str(k))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield key, repr(tree)


def sidecar_moves(new: str, golden: str):
    """The moved numbers of two sidecar texts, per key present in both."""
    now = dict(_numeric_leaves(json.loads(new)))
    return _tally((k, now[k], v) for k, v in _numeric_leaves(json.loads(golden)) if k in now)


def run_moves(csv_texts, meta_texts):
    """One printable line per moved CSV column and sidecar key of a run."""
    return [
        f"  {label} {name}: {count} moved, largest relative move {largest:.2g}"
        for label, moves in (("csv", csv_moves(*csv_texts)), ("sidecar", sidecar_moves(*meta_texts)))
        for name, (count, largest) in moves.items()
    ]


def run_one(name: str, trials, workers, root: Path = ROOT) -> int:
    config_path = ROOT / "configs" / f"{name}.json"
    config = json.loads(config_path.read_text())
    out = root / config["output_path"]
    out.parent.mkdir(parents=True, exist_ok=True)
    argv = [config["experiment"], "--config", str(config_path)]
    # only a Monte-Carlo campaign takes a trial or worker count
    campaign = "trials" in config.get("sim", {})
    if campaign and trials is not None:
        argv += ["--trials", str(trials)]
    if campaign and workers is not None:
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
    """Regenerate into a temporary directory and compare each run with outputs/."""
    differ, moves = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            code = run_one(name, GOLDEN_TRIALS, workers, root=Path(tmp))
            if code != 0:
                return code
            rel = json.loads((ROOT / "configs" / f"{name}.json").read_text())["output_path"]
            texts = run_texts(Path(tmp) / rel, ROOT / rel)
            difference = run_difference(*texts)
            if difference:
                differ.append(f"{rel}: {difference}")
                moves += [f"{rel}:", *run_moves(*texts)]
    for entry in differ:
        print(f"DIFFERS: {entry}", file=sys.stderr)
    for line in moves:
        print(line)
    print(f"{len(names) - len(differ)} of {len(names)} runs identical to outputs/")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=FIGURES, help="subset of figures")
    parser.add_argument("--trials", type=int, help="override Monte-Carlo trial counts")
    parser.add_argument("--workers", type=int, help="worker processes, capped at the CPU count")
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
