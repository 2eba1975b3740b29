"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` (or plain `pytest`, which
shows the lines in the -rA summary).
"""

import math
import os
import time

import numpy as np

from curvspec import analysis, eigensolve, exact, fem
from curvspec import geometry as geo
from curvspec import meshing
from curvspec.cli import RunConfig, run_solve
from curvspec.geometry import SpaceForm

from conftest import CONFIG_DIR, oracle_params


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{state}] {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def _pipeline(config_name: str, num_eigs: int, refinements: int = 5, target_h=None):
    cfg = RunConfig(
        config_path=os.path.join(CONFIG_DIR, config_name),
        out_dir=f"/tmp/curvspec_accept/{config_name}.{refinements}.{num_eigs}",
        refinements=refinements,
        num_eigs=num_eigs,
        target_h=target_h,
        quiet=True,
    )
    return run_solve(cfg)["extrapolated"]


def test_criterion_1_table1_right_isosceles():
    t0 = time.time()
    ex = _pipeline("right_isosceles_dirichlet.yaml", 10, refinements=5)
    got = ex.predicted / math.pi**2
    want = np.array([5, 10, 13, 17, 20, 25, 26, 29, 34, 37], dtype=float)
    err = float(np.max(np.abs(got - want)))
    elapsed = time.time() - t0
    _report(
        1,
        "right isosceles triangle: extrapolated lambda/pi^2 matches (5..37)",
        err < 1e-2 and elapsed < 120.0,
        f"max err {err:.2e}, {elapsed:.0f}s",
    )


def test_criterion_2_table2_equilateral():
    t0 = time.time()
    ex = _pipeline("equilateral_dirichlet.yaml", 10, refinements=5)
    got = ex.predicted / (4 * math.pi / 3) ** 2
    want = np.array([3, 7, 7, 12, 13, 13, 19, 19, 21, 21], dtype=float)
    err = float(np.max(np.abs(got - want)))
    elapsed = time.time() - t0
    _report(
        2,
        "equilateral triangle: extrapolated lambda/(4pi/3)^2 matches (3..21)",
        err < 1e-2 and elapsed < 120.0,
        f"max err {err:.2e}, {elapsed:.0f}s",
    )


def test_criterion_3_table5_spherical_right_triangle():
    t0 = time.time()
    ex = _pipeline("spherical_right_triangle.yaml", 10, refinements=5)
    want = np.array([12, 30, 30, 56, 56, 56, 90, 90, 90, 90], dtype=float)
    err = float(np.max(np.abs(ex.predicted - want)))
    elapsed = time.time() - t0
    _report(
        3,
        "spherical right triangle: extrapolated spectrum matches (12..90)",
        err < 1e-2 and elapsed < 180.0,
        f"max err {err:.2e}, {elapsed:.0f}s",
    )


def test_criterion_4_table6_hemisphere():
    ex = _pipeline("hemisphere_dirichlet.yaml", 10, refinements=5)
    want = np.array([2, 6, 6, 12, 12, 12, 20, 20, 20, 20], dtype=float)
    err = float(np.max(np.abs(ex.predicted - want)))
    oracle = exact.hemisphere_spectrum(253)
    exact_506 = oracle[251] == 506.0 and oracle[252] == 506.0
    _report(
        4,
        "hemisphere: extrapolated spectrum matches (2..20); oracle rows 252-253 = 506",
        err < 1e-2 and exact_506,
        f"max err {err:.2e}, entries {oracle[251]:.0f}/{oracle[252]:.0f}",
    )


def test_criterion_5_table3_extrapolation():
    pred, _ = eigensolve.extrapolate(10.99889, 10.99704, 10.99658)
    err = abs(pred - 10.99643)
    _report(
        5,
        "three-point extrapolation reproduces the printed pentagon prediction",
        err < 5e-5,
        f"predicted {pred:.6f}, err {err:.1e}",
    )


def test_criterion_6_disc_fem_vs_bessel():
    ex_d = _pipeline("unit_disc_dirichlet.yaml", 50, refinements=4, target_h=0.35)
    oracle_d = exact.disc_spectrum(50, "D")
    rel_d = float(np.max(np.abs(ex_d.predicted - oracle_d) / oracle_d))

    ex_n = _pipeline("unit_disc_neumann.yaml", 50, refinements=4, target_h=0.35)
    oracle_n = exact.disc_spectrum(50, "N")
    zero_ok = abs(ex_n.predicted[0]) < 1e-6
    rel_n = float(np.max(np.abs(ex_n.predicted[1:] - oracle_n[1:]) / oracle_n[1:]))
    _report(
        6,
        "unit disc: 50 extrapolated eigenvalues within 0.2% of Bessel-zero squares",
        rel_d < 2e-3 and rel_n < 2e-3 and zero_ok,
        f"D {rel_d:.2e}, N {rel_n:.2e}, |lambda_1^N| = {abs(ex_n.predicted[0]):.1e}",
    )


def test_criterion_7_constant_c_fixtures():
    sixth = 1.0 / 6.0
    checks = [
        ("euclidean disc", geo.geometric_constants(geo.euclidean_disc(1.0)).c, sixth),
        ("hyperbolic disc R=0.5", geo.build_hyperbolic_disc(0.5)[1].c, sixth),
        ("hyperbolic disc R=1", geo.build_hyperbolic_disc(1.0)[1].c, sixth),
        ("hyperbolic disc R=3", geo.build_hyperbolic_disc(3.0)[1].c, sixth),
        ("spherical disc", geo.build_spherical_disc(0.9)[1].c, sixth),
        ("pentagon", geo.geometric_constants(geo.regular_polygon(5)).c, 2.0 / 9.0),
        ("hexagon", geo.geometric_constants(geo.regular_polygon(6)).c, 5.0 / 24.0),
        ("6-star", geo.geometric_constants(geo.six_star()).c, 25.0 / 48.0),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    rbt_c = geo.geometric_constants(geo.region_between_triangles()).c
    print(
        "ACCEPTANCE  7 [INFO] region between triangles: computed C = "
        f"{rbt_c:.12f}; corner rule as written gives 1/5 = {0.2:.12f}, "
        f"source prints 1/15 = {1 / 15:.12f} (excluded from pass/fail)"
    )
    _report(
        7,
        "count constants match closed forms (1/6, 2/9, 5/24, 25/48)",
        worst < 1e-12 and abs(rbt_c - 0.2) < 1e-12,
        f"worst deviation {worst:.1e}",
    )


def _conjecture_flat_checks(eigs, case):
    params = oracle_params(case)
    series = analysis.graph_series(eigs, params, SpaceForm.EUCLIDEAN, samples=2048)
    x4, y4 = series.get("t14A")
    half = series.t_max / 2.0
    lo = float(np.max(np.abs(y4[x4 <= half])))
    hi = float(np.max(np.abs(y4[x4 > half])))
    _, y6 = series.get("runmean")
    quarter = analysis.graph_series(
        eigs[: max(2, len(eigs) // 4)], params, SpaceForm.EUCLIDEAN, samples=2048
    )
    _, y6q = quarter.get("runmean")
    return hi, lo, float(y6[-1]), float(y6q[-1])


def test_criterion_8_conjecture_flat(right_isosceles_600, equilateral_600, disc_d_660):
    fixtures = [
        ("right-isosceles", right_isosceles_600),
        ("equilateral", equilateral_600),
        ("disc-d", disc_d_660),
    ]
    ok = True
    details = []
    for case, eigs in fixtures:
        t0 = time.time()
        hi, lo, term, term_q = _conjecture_flat_checks(eigs, case)
        elapsed = time.time() - t0
        bounded = hi <= 2.0 * lo
        mean_zero = abs(term) < 0.1 and abs(term) < abs(term_q)
        ok = ok and bounded and mean_zero and elapsed < 60.0
        details.append(f"{case}: hi/lo {hi / lo:.2f}, |mean| {abs(term):.4f}")
    _report(
        8,
        "flat conjecture proxies: bounded t^(1/4)A(t), mean-zero running average",
        ok,
        "; ".join(details),
    )


def test_criterion_9_conjecture_spherical():
    ok = True
    details = []
    for case, count in (("hemisphere", 550), ("spherical-right-triangle", 550)):
        eigs = exact.oracle_spectrum(case, count)
        series = analysis.graph_series(
            eigs, oracle_params(case), SpaceForm.SPHERICAL, samples=2048
        )
        x, y = series.get("At2")
        last_q = float(np.max(np.abs(y[x >= 0.75 * x[-1]])))
        peak = float(np.max(np.abs(y)))
        ok = ok and last_q >= 0.5 * peak
        details.append(f"{case}: last-quarter/global {last_q / peak:.2f}")
    _report(9, "spherical conjecture proxy: A(t^2) does not decay", ok, "; ".join(details))


def test_criterion_10_gauss_bonnet_randomized():
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    while checked < 20:
        kind = checked % 5
        try:
            if kind == 0:
                n = int(rng.integers(3, 9))
                radii = rng.uniform(0.5, 2.0, n)
                ang = np.sort(rng.uniform(0, 2 * math.pi, n))
                if np.min(np.diff(ang)) < 0.3:
                    continue
                verts = [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, ang)]
                dom = geo.euclidean_polygon(verts)
                gc = geo.geometric_constants(dom)
            elif kind == 1:
                a = rng.uniform(0.15, 0.9, 3)
                if a.sum() >= math.pi - 0.05:
                    continue
                dom, gc = geo.build_hyperbolic_triangle(
                    geo.HyperbolicTriangleSpec(angles=tuple(a))
                )
            elif kind == 2:
                dom, gc = geo.build_hyperbolic_disc(rng.uniform(0.2, 2.5))
            elif kind == 3:
                dom, gc = geo.build_spherical_disc(rng.uniform(0.3, 2.8))
            else:
                a = rng.uniform(0.7, 2.6, 3)
                if not math.pi + 0.1 < a.sum() < 3 * math.pi - 0.1:
                    continue
                dom, gc = geo.build_spherical_triangle(
                    geo.SphericalTriangleSpec(angles=tuple(a))
                )
        except geo.GeometryError:
            continue
        lhs = gc.area * dom.space.curvature + gc.boundary_curvature_integral
        lhs += sum(math.pi - th for th, _ in dom.corners)
        target = 2.0 * math.pi * gc.euler_characteristic
        worst = max(worst, abs(lhs - target) / (1.0 + abs(target)))
        checked += 1
    _report(
        10,
        "Gauss-Bonnet identity on 20 randomized domains across all geometries",
        worst < 1e-9,
        f"worst relative residual {worst:.1e}",
    )


_FLAT_FIXTURES = [
    ("right isosceles", lambda: geo.euclidean_polygon([(0, 0), (1, 0), (0, 1)]), "D"),
    (
        "equilateral",
        lambda: geo.euclidean_polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]),
        "D",
    ),
    ("pentagon", lambda: geo.regular_polygon(5), "D"),
    ("hexagon", lambda: geo.regular_polygon(6), "D"),
    ("6-star", lambda: geo.six_star(), "D"),
    ("arrowhead", lambda: geo.arrowhead(), "D"),
    ("region between triangles", lambda: geo.region_between_triangles(), "D"),
    (
        "general triangle (mixed)",
        lambda: geo.euclidean_polygon(
            geo.triangle_from_angles(math.pi / 4, math.pi / 5, 11 * math.pi / 20),
            bc=["D", "D", "N"],
        ),
        None,
    ),
]


def test_criterion_11_galerkin_monotonicity():
    ok = True
    details = []
    for name, make, _bc in _FLAT_FIXTURES:
        mesh = meshing.triangulate(make())
        weight = fem.ConformalWeight(SpaceForm.EUCLIDEAN)
        values = []
        for lev in range(5):
            problem = fem.assemble(mesh, weight)
            k = min(10, problem.dimension)
            if k >= 1:
                values.append(eigensolve.solve_lowest(problem, k).eigenvalues)
            if lev < 4:
                mesh = meshing.refine(mesh)
        n = min(len(v) for v in values)
        arr = np.array([v[:n] for v in values])
        drops = np.diff(arr, axis=0)
        mono = bool(np.all(drops <= 1e-8 * (1.0 + np.abs(arr[:-1]))))
        ok = ok and mono
        details.append(f"{name}: {'ok' if mono else 'VIOLATION'}")
    _report(
        11,
        "first 10 discrete eigenvalues nonincreasing across 4 refinements (flat fixtures)",
        ok,
        "; ".join(details),
    )
