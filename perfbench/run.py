#!/usr/bin/env python3
"""Benchmark for curvspec: four workloads, timed from outside in child processes.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

BENCHMARK.json gates report_default, mesh_roundtrip and oracle_analyze;
sweep_jobs2 runs with --workload sweep_jobs2 or all (see WORKLOADS for why).

Run it from the root of a checkout (it needs src/ and configs/ there). Each
workload is run as a child process (`python -m curvspec.cli ...`, or the
mesh script in child.py) until S seconds have passed, at least once; every
run's outputs are checked per config against perfbench/reference/.

--trace 0 prints the end-to-end metrics: wall_s (spawn to exit), setup_s
(median of SETUP_REPS children that import curvspec.cli and load the
workload's configs), cpu_s (user + sys of the process tree, from os.wait4),
peak_rss_mb (largest process), plus fail_frac, trusted_eigs and
oracle_max_rel_err in the table. --trace 1 runs the workload once untraced
and once under tracer.py and prints the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object: correct, attempted,
failed (configs, counted per run) and metrics.

run.py leaves the BLAS thread variables (OPENBLAS_NUM_THREADS, ...) as
inherited and records them, so oversubscription stays visible. Outputs go to
.perfbench_runs/ in the checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
RUNS_DIR = ROOT / ".perfbench_runs"

SETUP_REPS = 3
RUN_BUDGET_S = 165.0  # one invocation must end within 180 s
REL_TOL = 1e-10  # the ROADMAP's eigenvalue bound; absolute below 1 (zero modes)

# configs/ as shipped: 22 domains over the three geometries.
ALL_CONFIGS = (
    "arrowhead_dirichlet", "equilateral_dirichlet", "general_triangle_dirichlet",
    "general_triangle_mixed", "general_triangle_neumann", "hemisphere_dirichlet",
    "hexagon_dirichlet", "hyperbolic_disc_r1", "hyperbolic_disc_rhalf",
    "hyperbolic_triangle_a", "hyperbolic_triangle_b", "hyperbolic_triangle_k4",
    "hyperbolic_triangle_k6", "pentagon_dirichlet", "region_between_triangles",
    "right_isosceles_dirichlet", "six_star_dirichlet", "spherical_disc_quarter",
    "spherical_right_triangle", "spherical_triangle_general", "unit_disc_dirichlet",
    "unit_disc_neumann",
)
# Half of them, spanning all three geometries and the discs' arc snapping in
# each, so that two runs of the mesh round trip fit in one invocation.
MESH_CONFIGS = (
    "arrowhead_dirichlet", "general_triangle_dirichlet", "hexagon_dirichlet",
    "hyperbolic_disc_rhalf", "hyperbolic_triangle_a", "hyperbolic_triangle_k4",
    "pentagon_dirichlet", "right_isosceles_dirichlet", "spherical_disc_quarter",
    "spherical_right_triangle", "unit_disc_dirichlet",
)
# Analysis outputs of oracle_analyze compared with the reference, at
# SAMPLE_ROWS evenly spaced rows: D(t), the running mean and the gap CDF.
# Only there, because its input spectrum is exact; a solve's eigenvalues may
# move by the 1e-10 the ROADMAP allows, which moves D(t) by up to ~1e-8 and
# the gaps of the disc's near-double eigenvalues by more than their size.
ANALYSIS_CSVS = ("_D.csv", "_runmean.csv", "gaps_cdf.csv")  # file name endings
SAMPLE_ROWS = 64
TINY_SOLVE = ("--refinements", "2", "--num-eigs", "6", "--all")  # --all: 2 levels trust few


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" (curvspec report), "mesh" (child.py mesh), "oracle" (analyze)
    configs: tuple[str, ...]
    shuffled: bool  # the seed sets the config order
    jobs: int
    args: tuple[str, ...]
    tiny_args: tuple[str, ...]  # the harness smoke test's sizes


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP unit of work (defaults, one config per geometry): ~90% eigensolve, loads every layer.
        Workload("report_default", "solve",
                 ("unit_disc_dirichlet", "hyperbolic_triangle_a", "spherical_right_triangle"),
                 False, 1, (), TINY_SOLVE),
        # cli process pool: 2 workers x OpenBLAS threads oversubscribe 2 cores (ungated: +-25% per run).
        Workload("sweep_jobs2", "solve", ALL_CONFIGS, True, 2,
                 ("--refinements", "4", "--num-eigs", "40"), TINY_SOLVE),
        # meshing (refine, save/load) and fem assembly, writes beside reads; bypasses cli and eigensolve.
        Workload("mesh_roundtrip", "mesh", MESH_CONFIGS, True, 1,
                 ("--refinements", "5"), ("--refinements", "2")),
        # exact (Bessel zeros), analysis and svgplot at 4000 eigenvalues; bypasses meshing and eigensolve.
        Workload("oracle_analyze", "oracle",
                 ("equilateral_dirichlet", "hemisphere_dirichlet", "right_isosceles_dirichlet",
                  "spherical_right_triangle", "unit_disc_dirichlet", "unit_disc_neumann"),
                 False, 1, ("--use-oracle", "--num-eigs", "4000"),
                 ("--use-oracle", "--num-eigs", "50")),
    )
}

END_TO_END = (  # name, unit; BENCHMARK.json lists the ones never 0 as gated
    ("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("fail_frac", "frac"), ("trusted_eigs", "count"), ("oracle_max_rel_err", "rel"),
)

# Per-layer metrics of the traced run, all printed and all listed in
# BENCHMARK.json. LAYER_TIMES: (metric, function whose inclusive time it
# sums over processes); a layer the workload skips reads 0. layer_metrics
# adds the finest-level solve time, worst residual, pool and CPU use, the
# share of the traced wall per module (self time, summed over processes;
# cli's includes waiting on the pool) and the tracing overhead.
LAYER_TIMES = (
    ("configio.load_s", "configio.load_domain_config"),
    ("meshing.triangulate_s", "meshing.triangulate"),
    ("meshing.refine_s", "meshing.refine"),
    ("meshing.save_mesh_s", "meshing.save_mesh"),
    ("meshing.load_mesh_s", "meshing.load_mesh"),
    ("fem.assemble_s", "fem.assemble"),
    ("fem.dirichlet_vertices_s", "fem.dirichlet_vertices"),
    ("eigensolve.solve_lowest_s", "eigensolve.solve_lowest"),
    ("eigensolve.extrapolate_s", "eigensolve.extrapolate_spectrum"),
    ("eigensolve.write_spectrum_file_s", "eigensolve.write_spectrum_file"),
    ("exact.oracle_spectrum_s", "exact.oracle_spectrum"),
    ("analysis.graph_series_s", "analysis.graph_series"),
    ("analysis.write_graph_csv_s", "analysis.write_graph_csv"),
    ("analysis.gap_stats_s", "analysis.gap_stats"),
    ("svgplot.render_line_plot_s", "svgplot.render_line_plot"),
)
LAYER_COUNTS = (  # name, function, attribute ("calls" or an observed size), sum|max
    ("meshing.finest_triangles", "meshing.refine", "triangles", "max"),
    ("fem.dirichlet_vertices.calls", "fem.dirichlet_vertices", "calls", "sum"),
    ("fem.finest_dim", "fem.assemble", "dim", "max"),
    ("fem.finest_nnz", "fem.assemble", "nnz", "max"),
    ("eigensolve.solve_lowest.calls", "eigensolve.solve_lowest", "calls", "sum"),
    ("eigensolve.eigs_computed", "eigensolve.solve_lowest", "eigs", "sum"),
    ("exact.bessel_zero.calls", "exact.bessel_zero", "calls", "sum"),
)
CLI_OPERATIONS = ("cli.run_report", "cli.run_solve", "cli.run_analyze")
# The loads the workloads were chosen for, on the seed code: module group,
# minimum share of the traced wall, and whether setup_s is left out of it.
LOAD_CHECKS = {
    "report_default": (("eigensolve",), 0.80, False),
    "mesh_roundtrip": (("meshing",), 0.60, False),
    "oracle_analyze": (("exact", "analysis", "svgplot"), 0.50, True),
}


class HarnessError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources or references)."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, root: Path, log_path: Path, timeout_s: float) -> ChildResult:
    """Run argv to exit; wall from spawn to exit, rusage of the whole tree."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, start_new_session=True)
        killer = threading.Timer(timeout_s, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4 reports the child plus every descendant it waited for (pool workers)
    return ChildResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                       proc.returncode)


def config_paths(root: Path, names) -> list[str]:
    return [str(root / "configs" / f"{n}.yaml") for n in names]


def program_argv(w: Workload, root: Path, configs, out: Path, tiny: bool, trace_dir=None):
    args = list(w.tiny_args if tiny else w.args)
    paths = config_paths(root, configs)
    child = [sys.executable, str(HERE / "child.py")]
    if trace_dir is not None:
        child += ["--trace", str(trace_dir)]
    if w.kind == "mesh":
        return child + ["mesh", "--out", str(out)] + args + paths
    cmd = ["report", "--jobs", str(w.jobs)] if w.kind == "solve" else ["analyze"]
    cmd += ["--quiet"] + args + ["--out", str(out)]
    for p in paths:
        cmd += ["--config", p]
    if trace_dir is not None:
        return child + ["cli"] + cmd
    return [sys.executable, "-m", "curvspec.cli"] + cmd


# ---------------------------------------------------------------------------
# output checks


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def close(values, ref) -> bool:
    return len(values) == len(ref) and all(
        abs(v - r) <= REL_TOL * max(abs(r), 1.0) for v, r in zip(values, ref)
    )


def read_spectrum(path: Path) -> tuple[list[float], int]:
    """Predicted eigenvalues and trust_count (the leading trusted run)."""
    header, rows = read_csv(path)
    ip, it = header.index("predicted"), header.index("trusted")
    predicted = [float(r[ip]) for r in rows]
    trusted = [r[it] == "1" for r in rows]
    return predicted, (trusted + [False]).index(False)


def spectrum_from_counting_graph(path: Path, zero_modes: int) -> list[float]:
    """Eigenvalues from graph1_N.csv: N(t) jumps by the multiplicity at each
    eigenvalue, which the graph grid contains. Eigenvalues <= 0 lie below the
    grid and are taken from the reference, counted in the first row."""
    _, rows = read_csv(path)
    values = [0.0] * zero_modes
    prev = zero_modes
    for t, n in rows:
        count = int(float(n))
        values += [float(t)] * (count - prev)
        prev = max(prev, count)
    return values


def sample_rows(path: Path) -> dict:
    """Row count and SAMPLE_ROWS evenly spaced (x, y) rows of a graph CSV."""
    _, rows = read_csv(path)
    n = len(rows)
    picks = sorted({round(i * (n - 1) / (SAMPLE_ROWS - 1)) for i in range(SAMPLE_ROWS)})
    return {"rows": n, "sample": [[float(v) for v in rows[i]] for i in picks if n]}


def analysis_csvs(files) -> list[str]:
    return [f for f in files if f.endswith(ANALYSIS_CSVS)]


def output_files(d: Path) -> list[str]:
    return sorted(p.name for p in d.iterdir()) if d.is_dir() else []


@dataclass
class ConfigCheck:
    ok: bool
    why: str = ""
    trusted: int = 0
    oracle_err: float | None = None


def check_config(w: Workload, out: Path, stem: str, ref: dict) -> ConfigCheck:
    if w.kind == "mesh":
        summary_path = out / f"{stem}.json"
        if not summary_path.is_file():
            return ConfigCheck(False, "no output")
        got = json.loads(summary_path.read_text())
        if not got["identical"]:
            return ConfigCheck(False, "mesh round trip not bit-identical")
        if (got["vertices"], got["triangles"]) != (ref["vertices"], ref["triangles"]):
            return ConfigCheck(False, f"finest mesh {got['vertices']}/{got['triangles']}, "
                                      f"reference {ref['vertices']}/{ref['triangles']}")
        return ConfigCheck(True)
    d = out / stem
    files = output_files(d)
    if files != ref["files"]:
        return ConfigCheck(False, f"output files {files} differ from the reference")
    if w.kind == "oracle":
        zero_modes = sum(1 for v in ref["oracle"] if v <= 0.0)
        got = spectrum_from_counting_graph(d / "graph1_N.csv", zero_modes)
        if not close(got, ref["oracle"]):
            return ConfigCheck(False, "oracle spectrum differs from the reference")
        for name, want in ref["graphs"].items():
            got = sample_rows(d / name)
            if got["rows"] != want["rows"] or not close(
                    sum(got["sample"], []), sum(want["sample"], [])):
                return ConfigCheck(False, f"{name} differs from the reference by > 1e-10")
        return ConfigCheck(True)
    predicted, trust_count = read_spectrum(d / "spectrum.csv")
    if not close(predicted, ref["predicted"]):
        return ConfigCheck(False, "predicted eigenvalues differ from the reference by > 1e-10")
    err = None
    if "oracle" in ref:
        pairs = [(p, o) for p, o in zip(predicted[:trust_count], ref["oracle"]) if o != 0.0]
        err = max((abs(p - o) / abs(o) for p, o in pairs), default=0.0)
    return ConfigCheck(True, trusted=trust_count, oracle_err=err)


def load_reference(ref_dir: Path, w: Workload) -> dict:
    path = ref_dir / f"{w.name}.json"
    if not path.is_file():
        raise HarnessError(f"missing reference {path}; regenerate with perfbench/refgen.py")
    return json.loads(path.read_text())["configs"]


# ---------------------------------------------------------------------------
# one run of a workload


@dataclass
class Iteration:
    child: ChildResult
    checks: dict[str, ConfigCheck]
    trace_dir: Path | None


def run_once(w: Workload, root: Path, order, work: Path, tag: str, tiny: bool,
             refs: dict | None, timeout_s: float, traced: bool = False) -> Iteration:
    out = work / tag
    trace_dir = work / f"{tag}-trace" if traced else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    argv = program_argv(w, root, order, out, tiny, trace_dir)
    log = work / f"{tag}.log"
    child = spawn(argv, root, log, timeout_s)
    if child.code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        print(f"# {w.name}/{tag}: exit {child.code}: {' | '.join(tail)}", file=sys.stderr)
    checks = {}
    if refs is not None:
        for stem in order:
            try:
                checks[stem] = check_config(w, out, stem, refs[stem])
            except (OSError, ValueError, KeyError, IndexError) as exc:  # malformed output
                checks[stem] = ConfigCheck(False, f"unreadable output: {exc!r}")
            if not checks[stem].ok:
                print(f"# {w.name}/{tag}: {stem} FAILED: {checks[stem].why}", file=sys.stderr)
    return Iteration(child, checks, trace_dir)


def measure_setup(root: Path, order, work: Path) -> list[float]:
    argv = [sys.executable, str(HERE / "child.py"), "setup"] + config_paths(root, order)
    walls = []
    for _ in range(SETUP_REPS):
        res = spawn(argv, root, work / "setup.log", 60.0)
        if res.code != 0:
            raise HarnessError(f"set-up child exited {res.code}; see {work / 'setup.log'}")
        walls.append(res.wall_s)
    return walls


# ---------------------------------------------------------------------------
# traced run: merge per-process span files into per-layer metrics


def merge_traces(trace_dir: Path) -> tuple[dict, list[dict]]:
    stats: dict[str, dict] = {}
    spans: list[dict] = []
    for path in sorted(trace_dir.glob("trace-*.json")):
        rec = json.loads(path.read_text())
        for s in rec["spans"]:
            s["pid"] = rec["pid"]
            spans.append(s)
        for name, st in rec["stats"].items():
            agg = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}})
            agg["calls"] += st["calls"]
            agg["total_s"] += st["total_s"]
            agg["self_s"] += st["self_s"]
            for key, (total, peak) in st["attrs"].items():
                a = agg["attrs"].setdefault(key, [0, peak])
                a[0] += total
                a[1] = max(a[1], peak)
    return stats, spans


def layer_metrics(w: Workload, traced: Iteration, untraced: Iteration) -> dict:
    stats, spans = merge_traces(traced.trace_dir)
    wall = traced.child.wall_s
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}
    m: dict[str, tuple[float, str]] = {}
    for name, fn in LAYER_TIMES:
        m[name] = (stats.get(fn, zero)["total_s"], "s")
    for name, fn, attr, how in LAYER_COUNTS:
        st = stats.get(fn, zero)
        if attr == "calls":
            m[name] = (st["calls"], "count")
        else:
            m[name] = (st["attrs"].get(attr, [0, 0])[0 if how == "sum" else 1], "count")
    m["eigensolve.worst_residual"] = (
        stats.get("eigensolve.solve_lowest", zero)["attrs"].get("residual", [0, 0.0])[1], "rel")

    # finest-level solve: the largest problem solved inside each cli.run_solve
    by_id = {(s["pid"], s["id"]): s for s in spans}
    finest: dict[tuple, dict] = {}
    for s in spans:
        if s["name"] != "eigensolve.solve_lowest" or not s["attrs"]:
            continue
        run = _ancestor(s, by_id, ("cli.run_solve",))
        key = (s["pid"], run["id"] if run else None)
        if key not in finest or s["attrs"]["dim"] > finest[key]["attrs"]["dim"]:
            finest[key] = s
    m["eigensolve.solve_lowest.finest_s"] = (
        sum((s["t1"] - s["t0"] for s in finest.values()), 0.0), "s")

    # pool: time inside outermost cli operations over jobs x wall
    busy = sum(s["t1"] - s["t0"] for s in spans
               if s["name"] in CLI_OPERATIONS and _ancestor(s, by_id, CLI_OPERATIONS) is None)
    m["cli.pool_busy_frac"] = (busy / (w.jobs * wall), "frac")
    m["cli.cpu_per_wall"] = (traced.child.cpu_s / wall, "s/s")

    for mod in MODULES:
        self_s = sum(st["self_s"] for fn, st in stats.items() if fn.split(".")[0] == mod)
        m[f"{mod}.share"] = (self_s / wall, "frac")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - untraced.child.wall_s, "s")
    return m


def _ancestor(span, by_id, names):
    parent = span["parent"]
    while parent is not None:
        p = by_id.get((span["pid"], parent))
        if p is None:
            return None
        if p["name"] in names:
            return p
        parent = p["parent"]
    return None


# ---------------------------------------------------------------------------
# run environment


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        **{v: os.environ.get(v) for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# command line


def config_order(w: Workload, seed: int, tiny: bool) -> list[str]:
    configs = list(w.configs[:2] if tiny else w.configs)
    if w.shuffled:
        random.Random(seed).shuffle(configs)
    return configs


def check_checkout(root: Path, ref_dir: Path | None) -> None:
    if not (root / "src" / "curvspec" / "cli.py").is_file() or not (root / "configs").is_dir():
        raise HarnessError(f"{root} holds no curvspec checkout (src/curvspec, configs/)")
    if ref_dir is not None and not ref_dir.is_dir():
        raise HarnessError(f"no reference directory {ref_dir}")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, tiny: bool,
                 ref_dir: Path, work: Path) -> dict:
    started = time.perf_counter()
    refs = load_reference(ref_dir, w)
    order = config_order(w, seed, tiny)
    work.mkdir(parents=True)

    setup_walls = measure_setup(ROOT, order, work)
    setup_s = statistics.median(setup_walls)

    def budget() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - started)

    iters: list[Iteration] = []
    t0 = time.perf_counter()
    while not iters or time.perf_counter() - t0 < seconds:
        if iters and iters[-1].child.wall_s > budget():
            break
        iters.append(run_once(w, ROOT, order, work, f"run{len(iters)}", tiny, refs, budget()))
        if trace:
            break
    traced = None
    if trace:
        traced = run_once(w, ROOT, order, work, "traced", tiny, refs, budget(), traced=True)

    checks = [c for it in iters + ([traced] if traced else []) for c in it.checks.values()]
    attempted, failed = len(checks), sum(not c.ok for c in checks)
    first = iters[0].checks.values()
    oracle_errs = [c.oracle_err for c in first if c.oracle_err is not None]
    table = {
        "wall_s": (statistics.median(i.child.wall_s for i in iters), "s"),
        "setup_s": (setup_s, "s"),
        "cpu_s": (statistics.median(i.child.cpu_s for i in iters), "s"),
        "peak_rss_mb": (statistics.median(i.child.peak_rss_mb for i in iters), "MB"),
        "fail_frac": (failed / attempted, "frac"),
        "trusted_eigs": (sum(c.trusted for c in first), "count") if w.kind == "solve" else None,
        "oracle_max_rel_err": (max(oracle_errs), "rel") if oracle_errs else None,
    }
    result = {
        "workload": w.name,
        "env": environment(),
        "seed": seed,
        "config_order": order,
        "runs": len(iters),
        "run_walls_s": [i.child.wall_s for i in iters],
        "exit_codes": [i.child.code for i in iters + ([traced] if traced else [])],
        "setup_walls_s": setup_walls,
        "end_to_end": table,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        layers = layer_metrics(w, traced, iters[0])
        result["per_layer"] = layers
        if w.name in LOAD_CHECKS:
            group, minimum, without_setup = LOAD_CHECKS[w.name]
            wall = layers["trace.wall_s"][0]
            base = wall - setup_s if without_setup else wall
            share = sum(layers[f"{m}.share"][0] for m in group) * wall / base
            result["load_check"] = {
                "modules": "+".join(group), "share": share, "expected_at_least": minimum,
                "of": "traced wall - setup_s" if without_setup else "traced wall"}
    return result


def print_result(res: dict, trace: bool) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  runs {res['runs']}  "
          f"exit codes {res['exit_codes']}")
    print(f"   env {json.dumps(res['env'])}")
    print(f"   config order {' '.join(res['config_order'])}")
    print(f"   samples: wall_s {[round(v, 4) for v in res['run_walls_s']]}, "
          f"setup_s {[round(v, 4) for v in res['setup_walls_s']]}")
    for name, unit in END_TO_END:
        entry = res["end_to_end"][name]
        value = "n/a" if entry is None else f"{entry[0]:.6g}"
        print(f"   {name:<36} {value:>14} {unit}")
    if trace:
        for name, (value, unit) in res["per_layer"].items():
            print(f"   {name:<36} {value:>14.6g} {unit}")
        if "load_check" in res:
            lc = res["load_check"]
            verdict = "ok" if lc["share"] >= lc["expected_at_least"] else "BELOW"
            print(f"   load: {lc['modules']} = {lc['share']:.3f} of {lc['of']} "
                  f"(expected >= {lc['expected_at_least']}) {verdict}")


def summary(results: list[dict], trace: bool, names: list[str]) -> dict:
    """The last stdout line: the metrics BENCHMARK.json lists for this mode."""
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        source = res["per_layer"] if trace else res["end_to_end"]
        for name in names:
            value, unit = source[name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def declared_metrics(trace: bool) -> list[str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"missing {path}")
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: 2 refinements, few eigenvalues, 2 configs")
    parser.add_argument("--reference", type=Path, default=REFERENCE_DIR,
                        help="reference directory (default perfbench/reference)")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = RUNS_DIR / f"run-{os.getpid()}"
    try:
        check_checkout(ROOT, args.reference)
        declared = declared_metrics(bool(args.trace))
        results = []
        for name in names:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               args.tiny, args.reference, work_root / name)
            print_result(res, bool(args.trace))
            results.append(res)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if RUNS_DIR.is_dir() and not any(RUNS_DIR.iterdir()):
            RUNS_DIR.rmdir()
    print(json.dumps(summary(results, bool(args.trace), declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
