"""Smoke test of the benchmark harness at tiny sizes (2 refinements, a few
eigenvalues, 2 configs per workload). Takes about a minute:

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("report_default", "sweep_jobs2", "mesh_roundtrip", "oracle_analyze")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "fail_frac": "frac",
    "trusted_eigs": "count", "oracle_max_rel_err": "rel",
}
PER_LAYER = {
    "configio.load_s": "s",
    "meshing.triangulate_s": "s", "meshing.refine_s": "s", "meshing.save_mesh_s": "s",
    "meshing.load_mesh_s": "s", "meshing.finest_triangles": "count",
    "fem.assemble_s": "s", "fem.dirichlet_vertices_s": "s",
    "fem.dirichlet_vertices.calls": "count", "fem.finest_dim": "count",
    "fem.finest_nnz": "count",
    "eigensolve.solve_lowest_s": "s", "eigensolve.solve_lowest.finest_s": "s",
    "eigensolve.solve_lowest.calls": "count", "eigensolve.eigs_computed": "count",
    "eigensolve.worst_residual": "rel", "eigensolve.extrapolate_s": "s",
    "eigensolve.write_spectrum_file_s": "s",
    "exact.oracle_spectrum_s": "s", "exact.bessel_zero.calls": "count",
    "analysis.graph_series_s": "s", "analysis.write_graph_csv_s": "s",
    "analysis.gap_stats_s": "s", "svgplot.render_line_plot_s": "s",
    "cli.pool_busy_frac": "frac", "cli.cpu_per_wall": "s/s",
    "trace.overhead_s": "s",
}


def bench(*args) -> tuple[str, dict]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--tiny", "--seconds", "1", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def printed(stdout: str, workload: str) -> str:
    return stdout.split(f"== {workload} ")[1].split("\n== ")[0]


def test_harness_prints_every_metric_and_counts_corrupt_references(tmp_path):
    ref = tmp_path / "ref"
    subprocess.run([sys.executable, "perfbench/refgen.py", "--tiny", "--out", str(ref)],
                   cwd=ROOT, check=True, capture_output=True, timeout=600)

    stdout, result = bench("--workload", "all", "--trace", "1", "--reference", str(ref))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 16
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in WORKLOADS:
        block = printed(stdout, w)
        for name, unit in {**END_TO_END, **PER_LAYER}.items():
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}$", block, re.M), \
                f"{w}: {name} [{unit}] not printed"
        for m in spec["per_layer"]:
            assert result["metrics"][f"{w}.{m['name']}"]["unit"] == m["unit"]

    _, result = bench("--workload", "oracle_analyze", "--trace", "0", "--reference", str(ref))
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())

    for workload, corrupt in (
        ("report_default", lambda entry: entry["predicted"]),
        ("oracle_analyze", lambda entry: entry["graphs"]["graph2_D.csv"]["sample"][-1]),
    ):
        path = ref / f"{workload}.json"
        data = json.loads(path.read_text())
        values = corrupt(next(iter(data["configs"].values())))
        values[-1] += 1e-6 * max(abs(values[-1]), 1.0)
        path.write_text(json.dumps(data))
        stdout, result = bench("--workload", workload, "--reference", str(ref))
        assert not result["correct"]
        assert (result["attempted"], result["failed"]) == (2, 1)
        assert re.search(r"^\s+fail_frac\s+0\.5\s+frac$", printed(stdout, workload), re.M)
