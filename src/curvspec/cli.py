"""Command-line front end: solve, analyze, exact, gaps, report.

Exit codes: 0 success, 2 configuration error, 3 meshing/solver failure,
4 analysis failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis, exact, svgplot, textio
from .configio import ConfigError, load_domain_config
from .geometry import GeometryError

_EXIT_CONFIG = 2
_EXIT_SOLVER = 3
_EXIT_ANALYSIS = 4
_STOP = threading.Event()  # set while _run_many stops its batch; see run_solve

@dataclass
class RunConfig:
    """Pipeline options for one domain run."""

    config_path: str
    out_dir: str
    refinements: int = 5
    num_eigs: int = 150
    tol: float = 1e-9
    samples: int = 4096
    target_h: float | None = None
    emit_svg: bool = True
    emit_gaps: bool = True
    use_oracle: bool = False
    all_eigenvalues: bool = False
    bin_width: float | None = None
    quiet: bool = False

    def __post_init__(self):
        if self.refinements < 2:
            raise ConfigError("need >= 2 refinements for extrapolation")
        if self.num_eigs < 1:
            raise ConfigError("num_eigs must be >= 1")
        if self.samples < 64:
            raise ConfigError(f"samples must be >= 64, got {self.samples}")
        if not 0.0 < self.tol <= 1e-6:
            raise ConfigError(f"tol must lie in (0, 1e-6], got {self.tol}")
        for name in ("bin_width", "target_h"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")


def _make_out_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # a regular file on the path, no permission, ...
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _log(cfg: RunConfig, msg: str) -> None:
    if not cfg.quiet:  # one write, so lines of concurrent --jobs threads stay whole
        sys.stderr.write(msg + "\n")


# ---------------------------------------------------------------------------
# solve


def run_solve(cfg: RunConfig) -> dict:
    """Mesh, refine, solve and extrapolate one domain; write spectrum + table."""
    import concurrent.futures  # these on use: the analysis commands need none of them
    from . import eigensolve, fem, meshing
    domain_cfg = load_domain_config(cfg.config_path)
    domain = domain_cfg.domain
    _make_out_dir(cfg.out_dir)
    eigensolve.start_pool(cfg.num_eigs)  # workers import their solver modules while this meshes

    target_h = cfg.target_h if cfg.target_h is not None else domain_cfg.target_h
    t0 = time.time()
    meshes = [meshing.triangulate(domain, target_h)]
    for _ in range(cfg.refinements):
        meshes.append(meshing.refine(meshes[-1]))
    _log(
        cfg,
        f"meshed {domain_cfg.name}: levels 0..{cfg.refinements}, "
        f"finest {meshes[-1].num_triangles} triangles ({time.time() - t0:.1f}s)",
    )

    # refinement keeps every vertex and its boundary condition, so free counts
    # never fall; the third-finest level's count caps the last three levels
    third = meshes[-3]
    m = min(cfg.num_eigs, third.num_vertices - len(fem.dirichlet_vertices(third)))
    if m < 1:
        raise eigensolve.SolveError(
            f"refinement level {cfg.refinements - 2}, the third-finest, has 0 free nodes, "
            "and the last three levels need at least one: lower --target-h or raise --refinements"
        )
    weight = fem.ConformalWeight(domain.space)
    slices: list[eigensolve.SpectrumSlice] = []
    for lev, msh in enumerate(meshes):
        if _STOP.is_set():  # the --jobs batch is stopping: see _run_many
            raise concurrent.futures.CancelledError
        t0 = time.time()
        problem = fem.assemble(msh, weight)
        k = min(m, problem.dimension)
        if k < 1:
            slices.append(eigensolve.SpectrumSlice(np.array([]), lev, np.array([])))
            continue
        try:
            guide = slices[-1].eigenvalues if slices else None
            sl = eigensolve.solve_lowest(problem, k, cfg.tol, guide=guide)
        except eigensolve.SolveError as exc:
            raise eigensolve.SolveError(
                f"refinement level {lev}: {exc}", partial=exc.partial
            ) from exc
        slices.append(replace(sl, level=lev))
        _log(
            cfg,
            f"level {lev}: {problem.dimension} free nodes, {k} eigenvalues "
            f"({time.time() - t0:.1f}s)",
        )

    extr = eigensolve.extrapolate_spectrum(slices)
    spectrum_path = os.path.join(cfg.out_dir, "spectrum.csv")
    eigensolve.write_spectrum_file(spectrum_path, extr)
    table_path = os.path.join(cfg.out_dir, "table.txt")
    _write_table(table_path, extr, domain_cfg.oracle)
    _log(cfg, f"trust_count = {extr.trust_count} of {len(extr)}")
    return {
        "config": domain_cfg,
        "slices": slices,
        "extrapolated": extr,
        "spectrum_path": spectrum_path,
        "table_path": table_path,
    }


def _write_table(path, spectrum, oracle) -> None:
    m = len(spectrum)
    headers = ["", "Initial"] + [str(i) for i in spectrum.level_ids[1:]] + ["Predicted"]
    cols = [[str(i) for i in range(1, m + 1)]]
    cols += [[f"{v:.7g}" for v in np.pad(lev, (0, m - len(lev)))] for lev in spectrum.levels]
    cols.append([f"{v:.8g}" for v in spectrum.predicted])
    if oracle is not None:
        headers.append("True")
        cols.append([f"{v:.8g}" for v in exact.oracle_spectrum(oracle, m)])
    widths = [max(len(h), *map(len, c)) for h, c in zip(headers, cols)]
    textio.write_table(path, "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
                       "  ".join(f"%{w}s" for w in widths), *cols)


# ---------------------------------------------------------------------------
# analyze / gaps


def _read_spectrum(cfg: RunConfig, spectrum_path) -> np.ndarray:
    # the trusted prefix (or every eigenvalue with --all), ascending
    from . import eigensolve
    spec = eigensolve.read_spectrum_file(spectrum_path)
    eigs = spec.predicted if cfg.all_eigenvalues else spec.trusted_prefix()
    if len(eigs) == 0:
        raise analysis.AnalysisError(
            f"spectrum file {spectrum_path} holds no eigenvalues" if cfg.all_eigenvalues
            else "no trusted eigenvalues to analyze (try --all)")
    return np.sort(eigs)


def run_analyze(cfg: RunConfig, spectrum_path=None) -> dict:
    """Emit the graph CSV/SVG set and gap statistics for a spectrum file
    (default <out_dir>/spectrum.csv) or, with use_oracle, the oracle spectrum."""
    domain_cfg = load_domain_config(cfg.config_path)
    _make_out_dir(cfg.out_dir)
    if cfg.use_oracle and domain_cfg.oracle is None:
        raise ConfigError("key 'oracle': required for --use-oracle analysis")
    elif cfg.use_oracle:
        eigs = exact.oracle_spectrum(domain_cfg.oracle, cfg.num_eigs)
    else:
        eigs = _read_spectrum(cfg, spectrum_path or os.path.join(cfg.out_dir, "spectrum.csv"))
    params = analysis.RefinedCountParams.from_constants(domain_cfg.constants)
    series = analysis.graph_series(eigs, params, domain_cfg.domain.space, samples=cfg.samples)
    stats = analysis.gap_stats(eigs, cfg.bin_width) if cfg.emit_gaps else None  # before any file

    written = []
    for idx, g in enumerate(series.values(), start=1):
        base = os.path.join(cfg.out_dir, f"graph{idx}_{g.key}")
        analysis.write_graph_csv(base + ".csv", g.x, g.y)
        written.append(base + ".csv")
        if cfg.emit_svg:
            svgplot.render_line_plot(base + ".svg", g.title, g.x, g.y, g.xlabel)
            written.append(base + ".svg")
    if stats is not None:
        written.extend(run_gaps(cfg, stats=stats))
    return {"series": series, "files": written}


def run_gaps(cfg: RunConfig, spectrum_path=None, stats=None) -> list[str]:
    """Consecutive-difference CDF and histogram (CSV, optionally SVG) of a
    spectrum file's eigenvalues, or of stats already computed."""
    _make_out_dir(cfg.out_dir)
    if stats is None:
        stats = analysis.gap_stats(_read_spectrum(cfg, spectrum_path), cfg.bin_width)
    base = os.path.join(cfg.out_dir, "gaps")
    files = list(analysis.write_gap_csvs(base, stats))
    if cfg.emit_svg:
        svgplot.render_line_plot(base + "_cdf.svg", "count of differences <= x", stats.cdf_x,
                                 stats.cdf_y * len(stats.differences), xlabel="x")
        centers = stats.bin_edges[:-1] + 0.5 * stats.bin_width
        svgplot.render_line_plot(base + "_hist.svg", "histogram of successive differences",
                                 centers, stats.bin_counts.astype(float), xlabel="difference")
        files += [base + "_cdf.svg", base + "_hist.svg"]
    return files


def run_exact_case(case: str, count: int, out_path) -> str:
    """Oracle spectrum in the standard spectrum file format. The request, then
    the output path, is checked before the oracle runs."""
    if case not in exact.ORACLE_CASES or count < 1:
        exact.oracle_spectrum(case, count)  # raises the OracleError naming the fault
    from . import eigensolve
    try:
        open(out_path, "w").close()
        vals = exact.oracle_spectrum(case, count)
        eigensolve.write_spectrum_file(
            out_path, eigensolve.Spectrum(vals, np.zeros(len(vals)), np.ones(len(vals), bool))
        )
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    return out_path


def run_report(cfg: RunConfig) -> dict:
    """solve + analyze + gaps in one output directory."""
    solved = run_solve(cfg)
    analyzed = run_analyze(cfg, solved["spectrum_path"])
    return {**solved, **analyzed}


# ---------------------------------------------------------------------------
# argument parsing: each option's dest is its RunConfig field, and an option
# left out stays out of the namespace, so RunConfig states every default


def _add_common(p: argparse.ArgumentParser, solver: bool, graphs: bool) -> None:
    p.add_argument("--config", required=True, action="append", dest="configs",
                   help="domain configuration file (repeatable)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--jobs", type=int, default=1,
                   help="run up to N configs at once, on threads")
    if solver:
        p.add_argument("--refinements", type=int)
        p.add_argument("--num-eigs", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--target-h", type=float,
                       help="initial mesh size (default 0.2 x model diameter)")
    if graphs:
        p.add_argument("--samples", type=int)
        p.add_argument("--no-svg", action="store_false", dest="emit_svg")
        p.add_argument("--no-gaps", action="store_false", dest="emit_gaps")
        p.add_argument("--use-oracle", action="store_true",
                       help="analyze the config's oracle spectrum")
        p.add_argument("--all", action="store_true", dest="all_eigenvalues",
                       help="use all eigenvalues, not just the trusted prefix")
        p.add_argument("--bin-width", type=float)


def _make_run_config(args, config_path: str, out_dir: str) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    opts = {k: v for k, v in vars(args).items() if k in names}
    return RunConfig(config_path=config_path, out_dir=out_dir, **opts)


def _per_config_out(args) -> list[tuple[str, str]]:
    if len(args.configs) == 1:
        return [(args.configs[0], args.out)]
    # several configs: one subdirectory per config stem, which they may not share
    config_of = {}
    for c in args.configs:
        out = os.path.join(args.out, os.path.splitext(os.path.basename(c))[0])
        if out in config_of:
            raise ConfigError(f"configs {config_of[out]} and {c} would both write {out}")
        config_of[out] = c
    return [(c, out) for out, c in config_of.items()]


def _run_many(args, runner) -> None:
    """runner on each config, on up to args.jobs threads; after a failure or an
    interrupt, no config starts and solves stop before their next level."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfgs = [_make_run_config(args, c, o) for c, o in _per_config_out(args)]
    if args.jobs == 1 or len(cfgs) == 1:
        for cfg in cfgs:
            runner(cfg)
        return
    import concurrent.futures
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs)
    futures = [pool.submit(runner, cfg) for cfg in cfgs]
    try:
        concurrent.futures.wait(futures, return_when=concurrent.futures.FIRST_EXCEPTION)
    finally:
        _STOP.set()
        pool.shutdown(cancel_futures=True)
        _STOP.clear()
    for f in futures:
        exc = None if f.cancelled() else f.exception()
        if exc is not None and not isinstance(exc, concurrent.futures.CancelledError):
            raise exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvspec",
        description="Laplacian spectra and counting-function asymptotics "
        "on constant-curvature domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = add("solve", help="mesh, refine, solve and extrapolate")
    _add_common(p, solver=True, graphs=False)

    p = add("analyze", help="graphs and gap stats from a spectrum file")
    _add_common(p, solver=False, graphs=True)
    p.add_argument("--spectrum", default=None,
                   help="spectrum file (default <out>/spectrum.csv)")
    p.add_argument("--num-eigs", type=int, default=600,
                   help="oracle length for --use-oracle")

    p = add("exact", help="emit an oracle spectrum file")
    p.add_argument("--case", required=True,
                   help=", ".join(sorted(exact.ORACLE_CASES)))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="output spectrum file")

    p = add("gaps", help="gap statistics from a spectrum file")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bin-width", type=float)
    p.add_argument("--all", action="store_true", dest="all_eigenvalues")
    p.add_argument("--no-svg", action="store_false", dest="emit_svg")
    p.add_argument("--quiet", action="store_true")

    p = add("report", help="solve + analyze + gaps")
    _add_common(p, solver=True, graphs=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            _run_many(args, run_solve)
        elif args.command == "analyze":
            _run_many(args, functools.partial(run_analyze, spectrum_path=args.spectrum))
        elif args.command == "exact":
            run_exact_case(args.case, args.count, args.out)
        elif args.command == "gaps":
            run_gaps(_make_run_config(args, "", args.out), spectrum_path=args.spectrum)
        elif args.command == "report":
            _run_many(args, run_report)
    except (ConfigError, exact.OracleError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (GeometryError,  # MeshError too; a SolveError comes only from a loaded eigensolve
            getattr(sys.modules.get(f"{__package__}.eigensolve"), "SolveError", ())) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except analysis.AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return _EXIT_ANALYSIS
    return 0


if __name__ == "__main__":
    sys.exit(main())
