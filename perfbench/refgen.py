#!/usr/bin/env python3
"""Regenerate the benchmark's reference outputs.

    python3 perfbench/refgen.py [--commit REV] [--tiny] [--out DIR]

Runs every workload once, untraced, on the sources of REV (extracted with
`git archive`; default: the checkout itself) and writes
perfbench/reference/<workload>.json (or DIR/<workload>.json):

  report_default, sweep_jobs2: per config the output file names, the
      predicted eigenvalues and, for configs naming an oracle, the oracle
      eigenvalues (from `curvspec exact`) for oracle_max_rel_err;
  mesh_roundtrip: per config the finest vertex and triangle counts;
  oracle_analyze: per config the output file names, the oracle
      eigenvalues (from `curvspec exact`) and, for D(t), the running mean
      and the gap CDF, the row count and SAMPLE_ROWS evenly spaced rows.

Values are stored to 13 significant digits, well inside the 1e-10 check.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import yaml

import run


def _digits(values) -> list[float]:
    return [float(f"{v:.13g}") for v in values]


def oracle_values(root: Path, case: str, count: int, work: Path) -> list[float]:
    out = work / f"exact-{case}-{count}.csv"
    argv = [sys.executable, "-m", "curvspec.cli", "exact", "--case", case,
            "--count", str(count), "--out", str(out)]
    subprocess.run(argv, cwd=root, env=run.child_env(root), check=True)
    return run.read_spectrum(out)[0]


def reference_for(w: run.Workload, root: Path, tiny: bool, work: Path) -> dict:
    order = run.config_order(w, 0, tiny)
    work.mkdir(parents=True, exist_ok=True)
    it = run.run_once(w, root, order, work, w.name, tiny, None, run.RUN_BUDGET_S)
    if it.child.code != 0:
        raise SystemExit(f"{w.name}: the program exited {it.child.code}; see {work}")
    out = work / w.name
    configs = {}
    for stem in order:
        raw = yaml.safe_load((root / "configs" / f"{stem}.yaml").read_text())
        if w.kind == "mesh":
            got = json.loads((out / f"{stem}.json").read_text())
            if not got["identical"]:
                raise SystemExit(f"{w.name}/{stem}: mesh round trip not bit-identical")
            configs[stem] = {"vertices": got["vertices"], "triangles": got["triangles"]}
            continue
        entry = {"files": run.output_files(out / stem)}
        if w.kind == "oracle":
            _, rows = run.read_csv(out / stem / "graph1_N.csv")
            count = int(float(rows[-1][1]))
            entry["oracle"] = _digits(oracle_values(root, raw["oracle"], count, work))
            entry["graphs"] = {}
            for name in run.analysis_csvs(entry["files"]):
                graph = run.sample_rows(out / stem / name)
                entry["graphs"][name] = {"rows": graph["rows"],
                                         "sample": [_digits(r) for r in graph["sample"]]}
        else:
            predicted, _ = run.read_spectrum(out / stem / "spectrum.csv")
            entry["predicted"] = _digits(predicted)
            if raw.get("oracle"):
                entry["oracle"] = _digits(
                    oracle_values(root, raw["oracle"], len(predicted), work))
        configs[stem] = entry
    return configs


def _layout(name: str, source: str, configs: dict) -> str:
    """JSON with one line per config."""
    rows = ",\n".join(f"  {json.dumps(stem)}: {json.dumps(entry)}" for stem, entry in configs.items())
    return (f'{{"workload": {json.dumps(name)}, "source": {json.dumps(source)},\n'
            f' "configs": {{\n{rows}\n}}}}\n')


def extract(commit: str, dest: Path) -> Path:
    """src/ and configs/ of a commit, via git archive."""
    tar = subprocess.run(["git", "-C", str(run.ROOT), "archive", commit, "src", "configs"],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commit", help="git revision to take src/ and configs/ from")
    parser.add_argument("--tiny", action="store_true", help="the smoke test's sizes")
    parser.add_argument("--out", type=Path, default=run.REFERENCE_DIR)
    args = parser.parse_args(argv)

    work = run.RUNS_DIR / f"refgen-{os.getpid()}"
    try:
        root = extract(args.commit, work / "tree") if args.commit else run.ROOT
        run.check_checkout(root, None)
        args.out.mkdir(parents=True, exist_ok=True)
        for name, w in run.WORKLOADS.items():
            configs = reference_for(w, root, args.tiny, work / name)
            path = args.out / f"{name}.json"
            path.write_text(_layout(name, args.commit or "checkout", configs))
            print(f"wrote {path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.RUNS_DIR.is_dir() and not any(run.RUNS_DIR.iterdir()):
            run.RUNS_DIR.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
