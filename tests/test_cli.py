import concurrent.futures
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from curvspec import analysis, eigensolve, fem, meshing
from curvspec.cli import RunConfig, main, run_analyze, run_report, run_solve
from curvspec.configio import load_domain_config

from conftest import CONFIG_DIR


def _cfg(name):
    return os.path.join(CONFIG_DIR, name)


@pytest.fixture(scope="module")
def solved_triangle(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ri"))
    cfg = RunConfig(
        config_path=_cfg("right_isosceles_dirichlet.yaml"),
        out_dir=out,
        refinements=3,
        num_eigs=6,
        target_h=0.35,
        quiet=True,
    )
    return cfg, run_solve(cfg)


def test_solve_outputs(solved_triangle):
    cfg, res = solved_triangle
    assert os.path.exists(res["spectrum_path"])
    with open(res["table_path"]) as fh:
        table = fh.read().splitlines()
    assert table[0].split() == ["Initial", "1", "2", "3", "Predicted", "True"]
    assert len(table) == 7
    spec = eigensolve.read_spectrum_file(res["spectrum_path"])
    assert spec.level_ids == [0, 1, 2, 3]
    assert len(spec.predicted) == 6


def test_third_finest_level_caps_the_eigenvalue_count(tmp_path):
    # with 2 refinements level 0 is the third-finest level; its free nodes,
    # fewer than the 600 asked for, are the count of every level
    path = _cfg("right_isosceles_dirichlet.yaml")
    domain_cfg = load_domain_config(path)
    mesh = meshing.triangulate(domain_cfg.domain, domain_cfg.target_h)
    free = fem.assemble(mesh, fem.ConformalWeight(domain_cfg.domain.space)).dimension
    assert 1 <= free < 600
    out = tmp_path / "capped"
    argv = ["solve", "--config", path, "--out", str(out), "--refinements", "2", "--num-eigs", "600"]
    assert main(argv + ["--quiet"]) == 0
    spec = eigensolve.read_spectrum_file(out / "spectrum.csv")
    assert [len(v) for v in spec.levels] == [free] * 3
    assert len((out / "spectrum.csv").read_text().splitlines()) == 1 + free
    assert len((out / "table.txt").read_text().splitlines()) == 1 + free


def test_third_finest_level_without_free_nodes_is_named(tmp_path, capsys, monkeypatch):
    # at its target_h, region_between_triangles has 0 free nodes at level 0
    # (the third-finest with 2 refinements) but 27 and 162 at levels 1 and 2;
    # the run fails before its first solve
    solves = []
    monkeypatch.setattr(eigensolve, "solve_lowest", lambda *args, **kwargs: solves.append(args))
    argv = ["solve", "--config", _cfg("region_between_triangles.yaml"),
            "--out", str(tmp_path / "o"), "--refinements", "2", "--quiet"]
    assert main(argv) == 3
    assert solves == []
    err = capsys.readouterr().err
    assert "refinement level 0, the third-finest, has 0 free nodes" in err
    assert "lower --target-h or raise --refinements" in err


def test_level_without_free_nodes_below_the_third_finest_is_all_zero(tmp_path):
    # with 3 refinements the empty level 0 lies below the third-finest level
    # (27 free nodes), which caps the count at 6; level 0 reports zeros
    out = tmp_path / "o"
    argv = ["solve", "--config", _cfg("region_between_triangles.yaml"), "--out", str(out),
            "--refinements", "3", "--num-eigs", "6", "--quiet"]
    assert main(argv) == 0
    spec = eigensolve.read_spectrum_file(out / "spectrum.csv")
    assert spec.level_ids == [0, 1, 2, 3]
    assert len(spec.predicted) == 6
    assert not np.any(spec.levels[0]) and np.all(spec.levels[1] > 0)
    table = (out / "table.txt").read_text().splitlines()
    assert table[0].split()[0] == "Initial"
    assert [row.split()[1] for row in table[1:]] == ["0"] * 6


def test_each_level_is_guided_by_the_previous_levels_eigenvalues(tmp_path, monkeypatch):
    real = eigensolve.solve_lowest
    guides = []

    def recording(problem, m, tol, guide=None):
        guides.append(guide)
        return real(problem, m, tol, guide=guide)

    monkeypatch.setattr(eigensolve, "solve_lowest", recording)
    cfg = RunConfig(config_path=_cfg("right_isosceles_dirichlet.yaml"), out_dir=str(tmp_path),
                    refinements=3, num_eigs=6, target_h=0.35, quiet=True)
    slices = run_solve(cfg)["slices"]
    assert len(guides) == len(slices) == 4
    assert guides[0] is None
    for guide, previous in zip(guides[1:], slices):
        np.testing.assert_array_equal(guide, previous.eigenvalues)


def test_arpack_error_exits_3_naming_the_level(tmp_path, monkeypatch, capsys):
    def no_shifts(*args, **kwargs):
        raise spla.ArpackError(3, {3: "No shifts could be applied"})

    monkeypatch.setattr(spla, "eigsh", no_shifts)
    # pool tasks run in this process, where eigsh is patched
    monkeypatch.setattr(eigensolve, "_map", lambda fn, tasks: [fn(*t) for t in tasks])
    # level 3 has 1377 free nodes, the first above the dense limit
    argv = ["solve", "--config", _cfg("right_isosceles_dirichlet.yaml"), "--out",
            str(tmp_path / "o"), "--refinements", "3", "--num-eigs", "6", "--quiet"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "refinement level 3" in err and "ARPACK error 3" in err


def test_failing_config_stops_a_jobs_batch(tmp_path, capsys):
    # the bad config fails at load, long before the disc's last level: the
    # disc stops before its next level and writes no spectrum, and the exit
    # code and message are the bad config's
    bad = tmp_path / "bad.yaml"
    bad.write_text("space: euclidean\nshape: blob\n")
    argv = ["solve", "--config", _cfg("unit_disc_dirichlet.yaml"), "--config", str(bad),
            "--out", str(tmp_path / "o"), "--jobs", "2", "--refinements", "3",
            "--num-eigs", "40", "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error") == 1 and "configuration error: key 'shape'" in err
    assert not (tmp_path / "o" / "unit_disc_dirichlet" / "spectrum.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_configuration_error(tmp_path, capsys, jobs):
    out = tmp_path / "o"
    argv = ["solve", "--config", _cfg("unit_disc_dirichlet.yaml"), "--out", str(out),
            "--jobs", jobs, "--quiet"]
    assert main(argv) == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_jobs_gives_identical_outputs(tmp_path, monkeypatch):
    # every level, dense or windowed (the spherical triangle's level 3: 1961
    # free nodes, 80 eigenvalues), is solved on the window pool, which the
    # --jobs threads share; nothing forks (the pool spawns its workers without
    # os.fork)
    args = ["solve", "--refinements", "3", "--num-eigs", "80", "--quiet",
            "--config", _cfg("right_isosceles_dirichlet.yaml"),
            "--config", _cfg("spherical_right_triangle.yaml")]

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    try:
        assert main(args + ["--jobs", "1", "--out", str(tmp_path / "1")]) == 0
        eigensolve._close_pool()
        assert main(args + ["--jobs", "2", "--out", str(tmp_path / "2")]) == 0
        assert 1 <= eigensolve._POOL._max_workers <= len(os.sched_getaffinity(0))
    finally:
        eigensolve._close_pool()
    for name in ("right_isosceles_dirichlet", "spherical_right_triangle"):
        for f in ("spectrum.csv", "table.txt"):
            a = (tmp_path / "1" / name / f).read_bytes()
            assert a == (tmp_path / "2" / name / f).read_bytes(), (name, f)


def test_solve_refinements_validated():
    with pytest.raises(Exception, match="refinements"):
        RunConfig(config_path="x", out_dir="y", refinements=1)


@pytest.mark.parametrize(
    "flag, value, name",
    [("--samples", "10", "samples"), ("--tol", "1e-3", "tol"),
     ("--bin-width", "0", "bin_width"), ("--target-h", "-1", "target_h"),
     ("--bin-width", "inf", "bin_width"), ("--target-h", "inf", "target_h")],
)
def test_bad_run_option_exits_2_before_any_work(tmp_path, capsys, flag, value, name):
    out = tmp_path / "o"
    argv = ["report", "--config", _cfg("right_isosceles_dirichlet.yaml"), "--out", str(out),
            "--refinements", "2", "--quiet", flag, value]
    assert main(argv) == 2
    assert f"configuration error: {name} must" in capsys.readouterr().err
    assert not (out / "spectrum.csv").exists()


def test_gaps_with_an_infinite_bin_width_exits_2_before_any_work(tmp_path, capsys):
    spectrum = tmp_path / "s.csv"
    spectrum.write_text("index,predicted,ratio,trusted\n1,1.0,0,1\n2,101.0,0,1\n")
    out = tmp_path / "g"
    argv = ["gaps", "--spectrum", str(spectrum), "--out", str(out), "--bin-width", "inf", "--quiet"]
    assert main(argv) == 2
    assert "configuration error: bin_width must be finite and positive, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_flat_emits_six_graphs(solved_triangle, tmp_path):
    cfg, res = solved_triangle
    out = str(tmp_path / "analysis")
    acfg = RunConfig(
        config_path=cfg.config_path,
        out_dir=out,
        quiet=True,
        samples=256,
    )
    run_analyze(acfg, res["spectrum_path"])
    csvs = sorted(f for f in os.listdir(out) if f.startswith("graph") and f.endswith(".csv"))
    svgs = sorted(f for f in os.listdir(out) if f.startswith("graph") and f.endswith(".svg"))
    assert len(csvs) == 6
    assert len(svgs) == 6
    assert os.path.exists(os.path.join(out, "gaps_cdf.csv"))
    assert os.path.exists(os.path.join(out, "gaps_hist.csv"))


def test_analyze_uses_oracle_and_spherical_has_five_graphs(tmp_path):
    out = str(tmp_path / "sph")
    acfg = RunConfig(
        config_path=_cfg("spherical_right_triangle.yaml"),
        out_dir=out,
        quiet=True,
        samples=256,
        num_eigs=200,
        use_oracle=True,
        emit_svg=False,
        emit_gaps=False,
    )
    run_analyze(acfg, spectrum_path=None)
    csvs = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    assert len(csvs) == 5


def test_analyze_csv_roundtrip(solved_triangle, tmp_path):
    cfg, res = solved_triangle
    out = str(tmp_path / "roundtrip")
    acfg = RunConfig(config_path=cfg.config_path, out_dir=out, quiet=True, samples=256,
                     emit_svg=False, emit_gaps=False)
    result = run_analyze(acfg, res["spectrum_path"])
    for path in result["files"]:
        x, y = analysis.read_graph_csv(path)
        assert len(x) == len(y) > 0


def test_exact_subcommand(tmp_path):
    out = str(tmp_path / "hemi.csv")
    rc = main(["exact", "--case", "hemisphere", "--count", "550", "--out", out])
    assert rc == 0
    spec = eigensolve.read_spectrum_file(out)
    assert len(spec.predicted) == 550
    assert spec.predicted[0] == 2.0

    rc = main(["exact", "--case", "disc-d", "--count", "660", "--out", str(tmp_path / "d.csv")])
    assert rc == 0
    spec = eigensolve.read_spectrum_file(str(tmp_path / "d.csv"))
    assert len(spec.predicted) == 660


def test_exact_unknown_case_exit_code(tmp_path, capsys):
    rc = main(["exact", "--case", "moebius", "--count", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "moebius" in capsys.readouterr().err


def test_solve_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("space: euclidean\nshape: disc\nradius: -1\n")
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    assert "radius" in capsys.readouterr().err


def test_overflowing_hyperbolic_disc_exits_2(tmp_path, capsys):
    bad = tmp_path / "big.yaml"
    bad.write_text("space: hyperbolic\nshape: hyperbolic_disc\nradius: 400\n")
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    assert "radius 400" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["15.5", "19", "100"])
def test_hyperbolic_disc_above_the_radius_limit_exits_2(tmp_path, capsys, radius):
    bad = tmp_path / "big.yaml"
    bad.write_text(f"space: hyperbolic\nshape: hyperbolic_disc\nradius: {radius}\n")
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    assert f"radius {float(radius)} exceeds the limit 15.0" in capsys.readouterr().err


def test_refinements_precondition_exit_code(tmp_path, capsys):
    rc = main(
        [
            "solve",
            "--config",
            _cfg("right_isosceles_dirichlet.yaml"),
            "--out",
            str(tmp_path / "o"),
            "--refinements",
            "1",
            "--quiet",
        ]
    )
    assert rc == 2
    assert "refinements" in capsys.readouterr().err


def test_gaps_subcommand(tmp_path):
    spectrum = str(tmp_path / "s.csv")
    main(["exact", "--case", "hemisphere", "--count", "60", "--out", spectrum])
    out = str(tmp_path / "gaps")
    rc = main(["gaps", "--spectrum", spectrum, "--out", out, "--bin-width", "1.0", "--quiet"])
    assert rc == 0
    with open(os.path.join(out, "gaps_cdf.csv")) as fh:
        cdf = fh.read().splitlines()
    assert cdf[0] == "d,cdf"
    # hemisphere multiplicities put visible mass at zero difference
    first = cdf[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) > 0.5


def test_gaps_with_more_bins_than_the_limit_is_an_analysis_error(tmp_path):
    spectrum = tmp_path / "s.csv"
    spectrum.write_text("index,predicted,ratio,trusted\n1,1.0,0,1\n2,101.0,0,1\n")
    src = os.path.normpath(os.path.join(CONFIG_DIR, "..", "src"))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["gaps", "--spectrum", str(spectrum), "--out", str(tmp_path / "g"),
            "--bin-width", "1e-9", "--quiet"]
    proc = subprocess.run([sys.executable, "-m", "curvspec.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr.startswith("analysis error: bin width 1e-09 gives 1e+11 histogram bins")
    assert "Traceback" not in proc.stderr


def test_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # every level, dense or windowed, runs on pool workers with one BLAS thread
    src = os.path.normpath(os.path.join(CONFIG_DIR, "..", "src"))
    names = ("unit_disc_dirichlet", "hyperbolic_triangle_a")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argv = ["solve", "--refinements", "2", "--num-eigs", "30", "--quiet",
                "--out", str(tmp_path / threads)]
        for name in names:
            argv += ["--config", _cfg(name + ".yaml")]
        out = subprocess.run([sys.executable, "-m", "curvspec.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
    for name in names:
        one, two = (tmp_path / t / name / "spectrum.csv" for t in ("1", "2"))
        assert one.read_bytes() == two.read_bytes(), name


def test_end_to_end_determinism(tmp_path):
    outs = []
    for run in range(2):
        out = str(tmp_path / f"run{run}")
        cfg = RunConfig(
            config_path=_cfg("unit_disc_dirichlet.yaml"),
            out_dir=out,
            refinements=2,
            num_eigs=5,
            target_h=0.5,
            samples=128,
            quiet=True,
        )
        run_report(cfg)
        outs.append(out)
    for name in sorted(os.listdir(outs[0])):
        with open(os.path.join(outs[0], name), "rb") as fa:
            a = fa.read()
        with open(os.path.join(outs[1], name), "rb") as fb:
            b = fb.read()
        assert a == b, f"{name} differs between identical runs"


def test_report_bundles_everything(tmp_path):
    out = str(tmp_path / "report")
    rc = main(
        [
            "report",
            "--config",
            _cfg("hemisphere_dirichlet.yaml"),
            "--out",
            out,
            "--refinements",
            "2",
            "--num-eigs",
            "4",
            "--samples",
            "128",
            "--quiet",
        ]
    )
    assert rc == 0
    files = set(os.listdir(out))
    assert "spectrum.csv" in files
    assert "table.txt" in files
    assert any(f.startswith("graph") and f.endswith(".svg") for f in files)


@pytest.mark.parametrize(
    "header, column",
    [("index,levelX,predicted,ratio,trusted", "levelX"),
     ("index,level_a,predicted,ratio,trusted", "level_a")],
)
def test_malformed_spectrum_header_is_a_solve_error(tmp_path, capsys, header, column):
    spectrum = tmp_path / "f.csv"
    spectrum.write_text(header + "\n1,2.0,2.0,0.1,1\n2,3.0,3.0,0.1,1\n")
    with pytest.raises(eigensolve.SolveError, match=rf"f\.csv:1: bad level column '{column}'"):
        eigensolve.read_spectrum_file(spectrum)
    rc = main(["gaps", "--spectrum", str(spectrum), "--out", str(tmp_path / "g"), "--quiet"])
    assert rc == 3
    assert column in capsys.readouterr().err


def test_analyze_jobs_gives_identical_outputs(tmp_path, monkeypatch):
    pools = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    args = ["analyze", "--use-oracle", "--num-eigs", "200", "--samples", "256", "--quiet",
            "--config", _cfg("unit_disc_dirichlet.yaml"),
            "--config", _cfg("spherical_right_triangle.yaml")]
    for jobs in ("1", "2"):
        assert main(args + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    assert pools == [2]
    names = sorted(
        os.path.relpath(os.path.join(d, f), tmp_path / "1")
        for d, _, files in os.walk(tmp_path / "1") for f in files
    )
    assert len(names) == 2 * (6 + 5) + 2 * 4  # graph CSVs and SVGs, four gap files each
    for name in names:
        a = (tmp_path / "1" / name).read_bytes()
        assert a == (tmp_path / "2" / name).read_bytes(), name


def test_run_analyze_reads_out_dir_spectrum_by_default(tmp_path):
    out = tmp_path / "a"
    out.mkdir()
    eigensolve.write_spectrum_file(
        out / "spectrum.csv", np.arange(1.0, 41.0), np.zeros(40), np.ones(40, dtype=bool)
    )
    cfg = RunConfig(config_path=_cfg("hemisphere_dirichlet.yaml"), out_dir=str(out),
                    samples=128, emit_svg=False, quiet=True)
    files = run_analyze(cfg)["files"]
    assert [os.path.basename(f) for f in files[:5]] == [
        "graph1_N.csv", "graph2_D.csv", "graph3_A.csv", "graph4_At2.csv", "graph5_runmean.csv"
    ]


# ---------------------------------------------------------------------------
# scipy loads where a command first needs it, never at import


def _modules_after(code) -> set:
    """The scipy* and urllib.request modules a fresh interpreter holds after code."""
    src = os.path.normpath(os.path.join(CONFIG_DIR, "..", "src"))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    report = "\nprint(*(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'urllib.request'))"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code + report], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_cli_import_and_every_config_load_no_scipy():
    code = f"""
import glob
import curvspec.cli
from curvspec.configio import load_domain_config
configs = glob.glob({os.path.join(CONFIG_DIR, "*.yaml")!r})
assert len(configs) == 22
for c in configs:
    load_domain_config(c)
"""
    assert _modules_after(code) == set()


@pytest.mark.parametrize("name, bessel", [("equilateral_dirichlet", False),
                                          ("unit_disc_dirichlet", True)])
def test_oracle_analyze_loads_no_solver_scipy(tmp_path, name, bessel):
    # no oracle loads any scipy module: Bessel zeros are computed in numpy
    code = f"""
from curvspec import cli
assert cli.main(["analyze", "--use-oracle", "--num-eigs", "50", "--quiet",
                 "--config", {_cfg(name + ".yaml")!r}, "--out", {str(tmp_path)!r}]) == 0
"""
    if bessel:
        code += f"""
assert cli.main(["exact", "--case", "disc-n", "--count", "4000",
                 "--out", {str(tmp_path / "disc_n.csv")!r}]) == 0
"""
    assert _modules_after(code) == set()
