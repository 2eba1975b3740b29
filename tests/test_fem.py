import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from curvspec import eigensolve, fem
from curvspec import geometry as geo
from curvspec import meshing
from curvspec.configio import load_domain_config
from curvspec.geometry import SpaceForm

from conftest import CONFIG_DIR


@pytest.fixture(scope="module")
def square_domain():
    return geo.euclidean_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="module")
def neumann_square():
    return geo.euclidean_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], bc="N")


def _euclid():
    return fem.ConformalWeight(SpaceForm.EUCLIDEAN)


def test_square_lowest_eigenvalue_from_above(square_domain):
    mesh = meshing.triangulate(square_domain, 0.4)
    lam_exact = 2 * math.pi**2
    prev = None
    for _ in range(4):
        problem = fem.assemble(mesh, _euclid())
        lam1 = eigensolve.solve_lowest(problem, 1).eigenvalues[0]
        assert lam1 > lam_exact  # Rayleigh upper bound
        if prev is not None:
            assert lam1 < prev
        prev = lam1
        mesh = meshing.refine(mesh)
    assert prev == pytest.approx(lam_exact, rel=2e-3)


def test_euclidean_weight_gives_plain_mass(neumann_square):
    mesh = meshing.triangulate(neumann_square, 0.5)
    problem = fem.assemble(mesh, _euclid())
    # unweighted P1 mass matrix: A/6 diagonal, A/12 off-diagonal, per element
    p = mesh.vertices[mesh.triangles]
    areas = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    )
    import scipy.sparse as sp

    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    for t, a in zip(mesh.triangles, areas):
        for i in range(3):
            for j in range(3):
                rows.append(t[i])
                cols.append(t[j])
                vals.append(a / 6.0 if i == j else a / 12.0)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    diff = (problem.mass - ref).toarray()
    assert np.max(np.abs(diff)) == 0.0


def test_mass_total_equals_weighted_area():
    dom, _ = geo.build_spherical_disc(math.pi / 2, "N")
    mesh = meshing.triangulate(dom, 0.6)
    w = fem.ConformalWeight(SpaceForm.SPHERICAL)
    problem = fem.assemble(mesh, w)
    # the edge-midpoint rule: a third of each triangle's area per edge midpoint
    p = mesh.vertices[mesh.triangles]
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    area = mesh.signed_areas() / 3.0 * w(mids[:, :, 0], mids[:, :, 1]).sum(axis=1)
    assert problem.mass.sum() == pytest.approx(area.sum(), rel=1e-10)


def test_neumann_stiffness_kernel(neumann_square):
    mesh = meshing.triangulate(neumann_square, 0.3)
    problem = fem.assemble(mesh, _euclid())
    ones = np.ones(problem.dimension)
    assert np.max(np.abs(problem.stiffness @ ones)) < 1e-12


def test_matrices_exactly_symmetric():
    dom, _ = geo.build_hyperbolic_triangle(
        geo.HyperbolicTriangleSpec(angles=(math.pi / 4,) * 3)
    )
    mesh = meshing.triangulate(dom)
    problem = fem.assemble(mesh, fem.ConformalWeight(SpaceForm.HYPERBOLIC))
    for mat in (problem.stiffness, problem.mass):
        assert (mat - mat.T).nnz == 0


def test_constrained_dimension_cases(square_domain):
    mesh = meshing.triangulate(square_domain, 0.4)
    v = mesh.num_vertices
    b = len(np.unique(mesh.boundary_edges[:, :2]))
    neumann = [dataclasses.replace(arc, bc="N") for arc in mesh.arcs]
    all_n = fem.assemble(dataclasses.replace(mesh, arcs=tuple(neumann)), _euclid())
    assert all_n.dimension == v
    all_d = fem.assemble(mesh, _euclid())
    assert all_d.dimension == v - b
    assert len(fem.dirichlet_vertices(mesh)) == b


def test_constrained_dimension_dirichlet_disc():
    mesh = meshing.triangulate(geo.euclidean_disc(1.0, "D"), 0.5)
    problem = fem.assemble(mesh, _euclid())
    boundary = np.unique(mesh.boundary_edges[:, :2])
    assert problem.dimension == mesh.num_vertices - len(boundary)
    # the solver orders the pencil by these model coordinates, row for row:
    # the free vertices in ascending order
    free = np.setdiff1d(np.arange(mesh.num_vertices), boundary)
    assert np.array_equal(problem.points, mesh.vertices[free])


def test_mixed_corner_vertex_constrained():
    # corner between a Dirichlet and a Neumann side is eliminated
    tri = geo.euclidean_polygon(
        geo.triangle_from_angles(math.pi / 4, math.pi / 5, 11 * math.pi / 20),
        bc=["D", "D", "N"],
    )
    mesh = meshing.triangulate(tri)
    constrained = set(fem.dirichlet_vertices(mesh).tolist())
    bc = mesh.boundary_bc()
    d_vertices = set()
    n_vertices = set()
    for (i, j, a), cond in zip(mesh.boundary_edges, bc):
        target = d_vertices if cond == "D" else n_vertices
        target.add(int(i))
        target.add(int(j))
    shared = d_vertices & n_vertices
    assert len(shared) == 2  # the two mixed corners
    assert shared <= constrained
    assert not (n_vertices - d_vertices) & constrained


def test_hyperbolic_assembly_rejects_lower_half_plane(square_domain):
    mesh = meshing.triangulate(square_domain, 0.5)
    shifted = meshing.Mesh(
        vertices=mesh.vertices - np.array([0.0, 0.5]),
        triangles=mesh.triangles,
        boundary_edges=mesh.boundary_edges,
        arcs=mesh.arcs,
        level=0,
    )
    with pytest.raises(fem.AssemblyError):
        fem.assemble(shifted, fem.ConformalWeight(SpaceForm.HYPERBOLIC))


@pytest.mark.parametrize("corners", [
    [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)],  # clockwise
    [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],  # zero area
])
def test_assembly_rejects_nonpositively_oriented_triangles(corners):
    mesh = meshing.Mesh(corners, [[0, 1, 2]], boundary_edges=np.empty((0, 3)), arcs=())
    with pytest.raises(fem.AssemblyError, match="nonpositively oriented triangles"):
        fem.assemble(mesh, _euclid())


@pytest.mark.parametrize("name, refinements", [
    ("unit_disc_neumann", 3),  # 4800 triangles
    ("hyperbolic_triangle_a", 4),  # 10496
    ("spherical_right_triangle", 3),  # 4096
])
def test_assembly_holds_one_matrix_at_a_time(name, refinements):
    # K is finished and its local blocks freed before M's exist, from int32
    # triplets: about 355 bytes per triangle at the peak; both matrices' blocks
    # in flight with int64 triplets take about 685
    cfg = load_domain_config(os.path.join(CONFIG_DIR, f"{name}.yaml"))
    mesh = meshing.triangulate(cfg.domain, cfg.target_h)
    for _ in range(refinements):
        mesh = meshing.refine(mesh)
    weight = fem.ConformalWeight(cfg.domain.space)
    fem.assemble(mesh, weight)  # imports and first-call caches stay out of the trace
    tracemalloc.start()
    try:
        fem.assemble(mesh, weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 450 * mesh.num_triangles


def test_galerkin_monotonicity_square(square_domain):
    mesh = meshing.triangulate(square_domain, 0.5)
    values = []
    for _ in range(4):
        problem = fem.assemble(mesh, _euclid())
        values.append(eigensolve.solve_lowest(problem, 6).eigenvalues)
        mesh = meshing.refine(mesh)
    arr = np.array(values)
    assert np.all(np.diff(arr, axis=0) <= 1e-8 * (1.0 + np.abs(arr[:-1])))


def test_hyperbolic_tile_self_convergence():
    # lambda_1 of the pi/4 tile: prediction stable against a one-level-deeper run
    dom, _ = geo.build_hyperbolic_triangle(
        geo.HyperbolicTriangleSpec(angles=(math.pi / 4,) * 3)
    )
    mesh = meshing.triangulate(dom)
    w = fem.ConformalWeight(SpaceForm.HYPERBOLIC)
    slices = []
    for lev in range(6):
        problem = fem.assemble(mesh, w)
        sl = eigensolve.solve_lowest(problem, 1)
        slices.append(eigensolve.SpectrumSlice(sl.eigenvalues, lev, sl.residual_norms))
        mesh = meshing.refine(mesh)
    lam_5 = eigensolve.extrapolate_spectrum(slices[2:5]).predicted[0]
    lam_6 = eigensolve.extrapolate_spectrum(slices[3:6]).predicted[0]
    assert lam_5 == pytest.approx(lam_6, rel=5e-4)


def test_matrix_export_format(tmp_path, square_domain):
    mesh = meshing.triangulate(square_domain, 0.6)
    problem = fem.assemble(mesh, _euclid())
    path = tmp_path / "K.txt"
    fem.export_matrix(problem.stiffness, path)
    lines = path.read_text().splitlines()
    n_rows, n_cols, nnz = (int(x) for x in lines[0].split())
    assert (n_rows, n_cols) == problem.stiffness.shape
    assert nnz == len(lines) - 1
    entries = [tuple(l.split()) for l in lines[1:]]
    keys = [(int(r), int(c)) for r, c, _ in entries]
    assert keys == sorted(keys)
