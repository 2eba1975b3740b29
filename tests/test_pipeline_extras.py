"""Cross-module behaviors that need the whole solve pipeline."""

import os

import numpy as np
import pytest

from curvspec import eigensolve, exact, fem
from curvspec import geometry as geo
from curvspec import meshing
from curvspec.cli import main

from conftest import CONFIG_DIR


def _solve_domain(domain, m, refinements, target_h=None):
    mesh = meshing.triangulate(domain, target_h)
    weight = fem.ConformalWeight(domain.space)
    slices = []
    for lev in range(refinements + 1):
        problem = fem.assemble(mesh, weight)
        k = min(m, problem.dimension)
        sl = eigensolve.solve_lowest(problem, k)
        slices.append(eigensolve.SpectrumSlice(sl.eigenvalues, lev, sl.residual_norms))
        if lev < refinements:
            mesh = meshing.refine(mesh)
    return eigensolve.extrapolate_spectrum(slices[-3:])


@pytest.fixture(scope="module")
def pentagon_spectrum():
    ex = _solve_domain(geo.regular_polygon(5), 30, 4)
    return ex.predicted[: ex.trust_count]


def test_pentagon_gap_mass_at_zero(pentagon_spectrum):
    # dihedral symmetry pairs most eigenvalues: near-zero differences dominate
    d = np.diff(pentagon_spectrum)
    frac = np.mean(d < 0.01 * d.mean())
    assert frac >= 0.3


def test_pentagon_predictions_match_printed_table(pentagon_spectrum):
    printed = [
        10.99643, 27.7862, 27.7862, 49.27358, 49.27359,
        57.09447, 76.97664, 76.97664, 89.16708, 89.16708,
    ]
    assert np.max(np.abs(pentagon_spectrum[:10] - np.array(printed))) < 1e-3


def test_hexagon_contains_equilateral_subspectrum():
    ex = _solve_domain(geo.regular_polygon(6), 12, 4)
    # odd reflection puts the unit equilateral triangle's eigenvalues in the hexagon's
    sub = exact.equilateral_spectrum(1)
    best = np.min(np.abs(ex.predicted - sub[0]))
    assert best < 1e-2 * sub[0]


def test_hexagon_predictions_match_printed_table():
    ex = _solve_domain(geo.regular_polygon(6), 10, 4)
    scale = (4 * np.pi / 3) ** 2
    printed = np.array(
        [0.40781, 1.03338, 1.03338, 1.84953, 1.84953,
         2.13675, 2.71455, 3.0, 3.42558, 3.42558]
    )
    assert np.max(np.abs(ex.predicted / scale - printed)) < 5e-4


def test_analyze_disc_oracle_emits_six_sets(tmp_path):
    out = str(tmp_path / "disc")
    rc = main(
        [
            "analyze",
            "--config",
            os.path.join(CONFIG_DIR, "unit_disc_dirichlet.yaml"),
            "--out",
            out,
            "--use-oracle",
            "--num-eigs",
            "600",
            "--samples",
            "512",
            "--quiet",
        ]
    )
    assert rc == 0
    csvs = [f for f in os.listdir(out) if f.startswith("graph") and f.endswith(".csv")]
    svgs = [f for f in os.listdir(out) if f.startswith("graph") and f.endswith(".svg")]
    assert len(csvs) == 6 and len(svgs) == 6


def test_jobs_flag_runs_multiple_configs(tmp_path):
    out = str(tmp_path / "multi")
    rc = main(
        [
            "solve",
            "--config",
            os.path.join(CONFIG_DIR, "right_isosceles_dirichlet.yaml"),
            "--config",
            os.path.join(CONFIG_DIR, "equilateral_dirichlet.yaml"),
            "--out",
            out,
            "--refinements",
            "2",
            "--num-eigs",
            "3",
            "--target-h",
            "0.4",
            "--jobs",
            "2",
            "--quiet",
        ]
    )
    assert rc == 0
    assert os.path.exists(os.path.join(out, "right_isosceles_dirichlet", "spectrum.csv"))
    assert os.path.exists(os.path.join(out, "equilateral_dirichlet", "spectrum.csv"))


def test_solver_failure_exit_code(tmp_path, capsys):
    # 10-degree needle cannot meet the 20-degree mesh quality bound
    needle = tmp_path / "needle.yaml"
    needle.write_text(
        "space: euclidean\nshape: polygon\nvertices:\n"
        "  - [0.0, 0.0]\n  - [1.0, 0.0]\n  - [1.0, 0.1763269807084649]\nbc: D\n"
    )
    rc = main(
        ["solve", "--config", str(needle), "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert rc == 3
    assert "min angle" in capsys.readouterr().err


def test_skipped_eigenvalue_exit_code(tmp_path, capsys, monkeypatch):
    # level 3 of the disc is the first on the ARPACK path; dropping one
    # eigenvalue there must fail the inertia certificate, not shift the table
    real = eigensolve._eigsh

    def skipping(*args, k, **kwargs):
        vals, vecs = real(*args, k=k + 1, **kwargs)
        keep = np.delete(np.argsort(vals), 4)
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(eigensolve, "_eigsh", skipping)
    # pool tasks run in this process, where the ARPACK driver is patched
    monkeypatch.setattr(eigensolve, "_map", lambda fn, tasks: [fn(*t) for t in tasks])
    config = os.path.join(CONFIG_DIR, "unit_disc_dirichlet.yaml")
    out = str(tmp_path / "o")
    rc = main(
        ["solve", "--config", config, "--out", out, "--refinements", "3", "--num-eigs", "10", "--quiet"]
    )
    assert rc == 3
    assert "refinement level 3: inertia counts" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "spectrum.csv"))


def test_analysis_failure_exit_code(tmp_path, capsys):
    spectrum = str(tmp_path / "one.csv")
    eigensolve.write_spectrum_file(
        spectrum,
        predicted=np.array([1.0]),
        ratio=np.array([0.0]),
        trusted=np.array([True]),
    )
    rc = main(["gaps", "--spectrum", spectrum, "--out", str(tmp_path / "g"), "--quiet"])
    assert rc == 4
    assert "two eigenvalues" in capsys.readouterr().err


def test_hyperbolic_report_emits_six_graph_set(tmp_path):
    out = str(tmp_path / "hyp")
    rc = main(
        [
            "report",
            "--config",
            os.path.join(CONFIG_DIR, "hyperbolic_triangle_k4.yaml"),
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
    svgs = [f for f in os.listdir(out) if f.startswith("graph") and f.endswith(".svg")]
    assert len(svgs) == 6


def test_emitted_svgs_are_wellformed_xml(tmp_path):
    import xml.dom.minidom

    out = str(tmp_path / "svg")
    spectrum = str(tmp_path / "s.csv")
    main(["exact", "--case", "hemisphere", "--count", "80", "--out", spectrum])
    rc = main(
        [
            "analyze",
            "--config",
            os.path.join(CONFIG_DIR, "hemisphere_dirichlet.yaml"),
            "--out",
            out,
            "--spectrum",
            spectrum,
            "--all",
            "--samples",
            "128",
            "--quiet",
        ]
    )
    assert rc == 0
    svgs = [f for f in os.listdir(out) if f.endswith(".svg")]
    assert len(svgs) == 7  # five graphs + gap CDF + gap histogram
    for f in svgs:
        xml.dom.minidom.parse(os.path.join(out, f))


def test_untrusted_tail_is_cut_for_analysis(tmp_path):
    spectrum = str(tmp_path / "s.csv")
    eigensolve.write_spectrum_file(
        spectrum,
        predicted=np.array([1.0, 2.0, 3.0, 50.0]),
        ratio=np.array([0.1, 0.1, 0.1, 0.9]),
        trusted=np.array([True, True, True, False]),
    )
    spec = eigensolve.read_spectrum_file(spectrum)
    assert np.allclose(spec.trusted_prefix(), [1.0, 2.0, 3.0])
