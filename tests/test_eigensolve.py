import concurrent.futures
import math
import multiprocessing
import os
import pickle
import platform
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._eigen.arpack import arpack
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvspec import eigensolve, exact, fem
from curvspec import geometry as geo
from curvspec import meshing
from curvspec.geometry import SpaceForm

from conftest import CONFIG_DIR

SRC_DIR = os.path.normpath(os.path.join(CONFIG_DIR, "..", "src"))


def _problem_from(k_mat, m_mat):
    k = sp.csr_matrix(np.asarray(k_mat, dtype=float))
    m = sp.csr_matrix(np.asarray(m_mat, dtype=float))
    return fem.EigenProblem(stiffness=k, mass=m)


def test_one_by_one_pencil():
    problem = _problem_from([[2.0]], [[1.0]])
    sl = eigensolve.solve_lowest(problem, 1)
    assert sl.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)


def test_neumann_zero_mode():
    dom = geo.euclidean_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], bc="N")
    mesh = meshing.triangulate(dom, 0.3)
    problem = fem.assemble(mesh, fem.ConformalWeight(SpaceForm.EUCLIDEAN))
    sl = eigensolve.solve_lowest(problem, 3)
    assert sl.eigenvalues[0] == 0.0
    assert sl.eigenvalues[1] == pytest.approx(math.pi**2, rel=2e-2)


def test_square_sequence_converges_from_above():
    dom = geo.euclidean_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    mesh = meshing.triangulate(dom, 0.4)
    lam = []
    for _ in range(4):
        problem = fem.assemble(mesh, fem.ConformalWeight(SpaceForm.EUCLIDEAN))
        lam.append(eigensolve.solve_lowest(problem, 1).eigenvalues[0])
        mesh = meshing.refine(mesh)
    assert all(a > b for a, b in zip(lam, lam[1:]))
    assert all(a > 2 * math.pi**2 for a in lam)


def test_solver_input_validation():
    problem = _problem_from(np.eye(3), np.eye(3))
    with pytest.raises(eigensolve.SolveError):
        eigensolve.solve_lowest(problem, 0)
    with pytest.raises(eigensolve.SolveError):
        eigensolve.solve_lowest(problem, 4)
    with pytest.raises(eigensolve.SolveError):
        eigensolve.solve_lowest(problem, 1, tol=1e-3)


def test_extrapolate_printed_row():
    pred, ratio = eigensolve.extrapolate(10.99889, 10.99704, 10.99658)
    assert pred == pytest.approx(10.99643, abs=5e-5)
    assert 0.0 < ratio < 0.5


def test_extrapolate_degenerate_cases():
    assert eigensolve.extrapolate(3.0, 3.0, 3.0) == (3.0, 0.0)
    # exact geometric model is recovered exactly
    x = [5.0 + 2.0 * 0.25**n for n in (4, 5, 6)]
    pred, ratio = eigensolve.extrapolate(*x)
    assert pred == pytest.approx(5.0, abs=1e-12)
    assert ratio == pytest.approx(0.25, abs=1e-12)
    # diverging ratio falls back to the finest value
    pred, ratio = eigensolve.extrapolate(1.0, 2.0, 4.0)
    assert pred == 4.0 and ratio == 2.0


def _make_slices(columns, levels=(3, 4, 5)):
    return [
        eigensolve.SpectrumSlice(np.asarray(col, dtype=float), lev, np.zeros(len(col)))
        for col, lev in zip(columns, levels)
    ]


def test_extrapolate_spectrum_resorts_crossing_predictions():
    # per-index predictions cross: output must be ascending
    s4 = [10.0, 10.4]
    s5 = [9.4, 10.1]
    s6 = [9.25, 10.025]
    ex = eigensolve.extrapolate_spectrum(_make_slices([s4, s5, s6]))
    assert np.all(np.diff(ex.predicted) >= 0)
    p0 = eigensolve.extrapolate(s4[0], s5[0], s6[0])[0]
    p1 = eigensolve.extrapolate(s4[1], s5[1], s6[1])[0]
    assert ex.predicted.tolist() == sorted([p0, p1])


def test_extrapolate_spectrum_validation():
    sl = _make_slices([[1.0], [1.0], [1.0]])
    with pytest.raises(eigensolve.SolveError):
        eigensolve.extrapolate_spectrum(sl[:2])
    bad = _make_slices([[1.0, 2.0], [1.0], [1.0]])
    with pytest.raises(eigensolve.SolveError):
        eigensolve.extrapolate_spectrum(bad)
    skipped = _make_slices([[1.0], [1.0], [1.0]], levels=(1, 3, 5))
    with pytest.raises(eigensolve.SolveError):
        eigensolve.extrapolate_spectrum(skipped)


def test_trust_count_prefix():
    s4 = [10.0, 20.0, 34.0]
    s5 = [9.4, 19.0, 30.0]
    s6 = [9.25, 18.75, 26.0]  # third entry keeps falling: ratio 1 -> untrusted
    ex = eigensolve.extrapolate_spectrum(_make_slices([s4, s5, s6]))
    assert ex.trust_count == 2
    assert not ex.trusted[2]


def _run_levels(domain, space, m, refinements, target_h=None):
    mesh = meshing.triangulate(domain, target_h)
    weight = fem.ConformalWeight(space)
    slices = []
    for lev in range(refinements + 1):
        problem = fem.assemble(mesh, weight)
        k = min(m, problem.dimension)
        sl = eigensolve.solve_lowest(problem, k)
        slices.append(eigensolve.SpectrumSlice(sl.eigenvalues, lev, sl.residual_norms))
        if lev < refinements:
            mesh = meshing.refine(mesh)
    return slices


def test_right_isosceles_pipeline_matches_table():
    dom = geo.euclidean_polygon([(0, 0), (1, 0), (0, 1)])
    slices = _run_levels(dom, SpaceForm.EUCLIDEAN, 10, 5)
    ex = eigensolve.extrapolate_spectrum(slices[-3:])
    want = np.array([5, 10, 13, 17, 20, 25, 26, 29, 34, 37], dtype=float)
    assert np.max(np.abs(ex.predicted / math.pi**2 - want)) < 1e-3
    # prediction improves on the finest raw value on the trusted prefix
    exact_vals = want * math.pi**2
    finest = slices[-1].eigenvalues
    for i in range(ex.trust_count):
        assert abs(ex.predicted[i] - exact_vals[i]) <= abs(finest[i] - exact_vals[i])


def test_spherical_right_triangle_pipeline_matches_table():
    dom, _ = geo.build_spherical_triangle(
        geo.SphericalTriangleSpec(angles=(math.pi / 2,) * 3)
    )
    slices = _run_levels(dom, SpaceForm.SPHERICAL, 10, 5)
    ex = eigensolve.extrapolate_spectrum(slices[-3:])
    want = exact.spherical_right_triangle_spectrum(10)
    assert np.max(np.abs(ex.predicted - want)) < 1e-3


def test_multiplicity_pair_resolved_after_resort():
    # deep multiplicity pair: both predictions land on 377 pi^2 after re-sorting
    dom = geo.euclidean_polygon([(0, 0), (1, 0), (0, 1)])
    slices = _run_levels(dom, SpaceForm.EUCLIDEAN, 134, 5)
    ex = eigensolve.extrapolate_spectrum(slices[-3:])
    pair = ex.predicted[132:134] / math.pi**2
    assert pair[0] == pytest.approx(377.0, abs=0.1)
    assert pair[1] == pytest.approx(377.0, abs=0.1)


def test_solver_determinism_bytes(tmp_path):
    dom = geo.euclidean_disc(1.0)
    paths = []
    for run in range(2):
        mesh = meshing.refine(meshing.triangulate(dom, 0.25))
        problem = fem.assemble(mesh, fem.ConformalWeight(SpaceForm.EUCLIDEAN))
        sl = eigensolve.solve_lowest(problem, 20)
        path = tmp_path / f"run{run}.csv"
        eigensolve.write_spectrum_file(
            path,
            predicted=sl.eigenvalues,
            ratio=np.zeros(len(sl)),
            trusted=np.ones(len(sl), dtype=bool),
        )
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_spectrum_file_roundtrip(tmp_path):
    path = tmp_path / "s.csv"
    levels = [np.array([3.0, 4.0]), np.array([2.5, 3.5]), np.array([2.4, 3.4])]
    eigensolve.write_spectrum_file(
        path,
        predicted=np.array([2.37, 3.37]),
        ratio=np.array([0.25, 0.25]),
        trusted=np.array([True, False]),
        levels=levels,
        level_ids=[0, 1, 2],
    )
    spec = eigensolve.read_spectrum_file(path)
    assert spec.level_ids == [0, 1, 2]
    assert np.allclose(spec.levels[1], levels[1])
    assert spec.trusted.tolist() == [True, False]
    assert np.allclose(spec.trusted_prefix(), [2.37])


def test_spectrum_file_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,predicted,ratio,trusted\n1,2.0,0.1\n")
    with pytest.raises(eigensolve.SolveError, match=":2"):
        eigensolve.read_spectrum_file(path)
    path2 = tmp_path / "worse.csv"
    path2.write_text("nope\n")
    with pytest.raises(eigensolve.SolveError, match=":1"):
        eigensolve.read_spectrum_file(path2)


# ---------------------------------------------------------------------------
# ARPACK path: retries and the inertia completeness certificate


@pytest.fixture(scope="module")
def disc_above_dense():
    # just above the dense limit; the disc's double eigenvalues split into
    # near-double pairs on the mesh
    mesh = meshing.triangulate(geo.euclidean_disc(1.0), 0.09)
    problem = fem.assemble(mesh, fem.ConformalWeight(SpaceForm.EUCLIDEAN))
    assert eigensolve._DENSE_LIMIT < problem.dimension < 2 * eigensolve._DENSE_LIMIT
    dense = sla.eigh(problem.stiffness.toarray(), problem.mass.toarray(), eigvals_only=True)
    return problem, dense


def _in_process_map(fn, tasks):
    return [fn(*t) for t in tasks]


@pytest.fixture
def in_process(monkeypatch):
    # run every pool task in this process, where the ARPACK driver and splu can be patched
    monkeypatch.setattr(eigensolve, "_map", _in_process_map)


def _no_convergence(n):
    return spla.ArpackNoConvergence("no convergence", np.array([9.0, 5.0]), np.zeros((n, 2)))


def test_no_convergence_retries_with_doubled_ncv(disc_above_dense, in_process, monkeypatch):
    problem, dense = disc_above_dense
    real = eigensolve._eigsh
    ncvs = []

    def flaky(*args, **kwargs):
        ncvs.append(kwargs["ncv"])
        if len(ncvs) == 1:
            raise _no_convergence(problem.dimension)
        return real(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "_eigsh", flaky)
    real_splu, window_factors = spla.splu, []

    def counting_splu(a, **kwargs):
        if "diag_pivot_thresh" not in kwargs:  # a window's, not an inertia count's
            window_factors.append(a.shape)
        return real_splu(a, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    # the guide's top edge lies between the 6th and 7th values: one window of 6
    sl = eigensolve.solve_lowest(problem, 6, guide=dense[:6] * 1.001)
    assert ncvs == [22, 44]
    assert len(window_factors) == 1  # the retry reuses the window's factor
    np.testing.assert_allclose(sl.eigenvalues, dense[:6], rtol=1e-10)


def test_no_convergence_on_every_attempt_attaches_partial(disc_above_dense, in_process, monkeypatch):
    problem, dense = disc_above_dense
    ncvs = []

    def stuck(*args, **kwargs):
        ncvs.append(kwargs["ncv"])
        raise _no_convergence(problem.dimension)

    monkeypatch.setattr(eigensolve, "_eigsh", stuck)
    with pytest.raises(eigensolve.SolveError, match="2/6") as info:
        eigensolve.solve_lowest(problem, 6, guide=dense[:6] * 1.001)
    assert ncvs == [22, 44, 88]
    assert info.value.partial.eigenvalues.tolist() == [5.0, 9.0]


def _arpack_error():
    return spla.ArpackError(3, {3: "No shifts could be applied during a cycle"})


def test_arpack_error_in_first_window_is_a_solve_error(disc_above_dense, in_process, monkeypatch):
    # the first window, like every other, shifts to its centre and gets one shift
    problem, _ = disc_above_dense
    shifts = []

    def no_shifts(*args, sigma, **kwargs):
        shifts.append(sigma)
        raise _arpack_error()

    monkeypatch.setattr(eigensolve, "_eigsh", no_shifts)
    with pytest.raises(eigensolve.SolveError, match="ARPACK error 3") as info:
        eigensolve.solve_lowest(problem, 6)
    assert len(shifts) == 1 and shifts[0] > 0.0
    assert f"at shift {shifts[0]:.6g}" in str(info.value)


def test_factor_inertia_matches_dense_count(disc_above_dense):
    problem, dense = disc_above_dense
    rel_gap = np.diff(dense[:60]) / dense[1:60]
    p = int(np.argmin(rel_gap[1:])) + 1  # closest pair (p, p+1) above the first
    assert rel_gap[p] < 1e-4
    mids = 0.5 * (dense[:-1] + dense[1:])
    shifts = [-1.0, 0.5 * dense[0], mids[p - 1], mids[p], mids[p + 1], 100.0, mids[149]]
    # in the assembled order and in the nested-dissection order the solver uses
    for pencil in (problem, eigensolve._ordered(problem)):
        for s in shifts:
            shifted = (pencil.stiffness - s * pencil.mass).tocsc()
            # _count_below refuses a factor whose perm_r and perm_c differ
            assert eigensolve._count_below(shifted, s) == np.count_nonzero(dense < s), s


def test_nested_dissection_is_a_deterministic_permutation(disc_above_dense):
    problem, _ = disc_above_dense
    q = eigensolve._nested_dissection(problem.points, problem.mass)
    assert sorted(q.tolist()) == list(range(problem.dimension))
    assert np.array_equal(q, eigensolve._nested_dissection(problem.points, problem.mass))
    ordered = eigensolve._ordered(problem)
    assert ordered.points is None  # its factors keep its order
    assert np.array_equal(ordered.stiffness.toarray(), problem.stiffness.toarray()[q][:, q])
    assert np.array_equal(ordered.mass.toarray(), problem.mass.toarray()[q][:, q])


class _Factor:
    # a SuperLU object takes no weak reference; this holder of one does, and
    # its bound solve keeps it alive as the SuperLU's keeps the factor
    def __init__(self, lu):
        self.lu = lu

    def solve(self, x):
        return self.lu.solve(x)


def test_window_driver_is_eigsh_and_frees_the_factor_before_the_ritz_vectors(
    disc_above_dense, monkeypatch
):
    # _eigsh iterates scipy's private ARPACK driver object; this pins it to
    # eigsh's own bits and pins the release of the factor
    problem, dense = disc_above_dense
    k, ncv, tol, shift = 6, 22, 1e-9, 0.5 * (dense[20] + dense[21])
    v0 = np.random.default_rng(3).uniform(-1.0, 1.0, problem.dimension)
    lu = spla.splu((problem.stiffness - shift * problem.mass).tocsc(), permc_spec="NATURAL")
    op = spla.LinearOperator(lu.shape, matvec=lu.solve, dtype=float)
    want = spla.eigsh(problem.stiffness, k, M=problem.mass, sigma=shift, v0=v0, ncv=ncv,
                      tol=tol, OPinv=op)
    refs, seen = [weakref.ref(op)], []  # which of refs are alive at each extraction
    opinv = [op.matvec]
    del lu, op
    real_extract = arpack._SymmetricArpackParams.extract

    def extract(self, return_eigenvectors):
        seen.append([r() is not None for r in refs])
        return real_extract(self, return_eigenvectors)

    monkeypatch.setattr(arpack._SymmetricArpackParams, "extract", extract)
    got = eigensolve._eigsh(problem.mass, k=k, sigma=shift, v0=v0, ncv=ncv, tol=tol,
                            opinv=opinv)
    assert seen == [[False]] and opinv == []
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    # nor does a window keep its factor: a retry after no convergence reuses
    # it, and the extraction after the retry finds it freed
    real_splu, real_eigsh = spla.splu, eigensolve._eigsh
    refs.clear()
    seen.clear()
    ncvs = []

    def held_splu(a, **kwargs):
        factor = _Factor(real_splu(a, **kwargs))
        refs.append(weakref.ref(factor))
        return factor

    def flaky(*args, **kwargs):
        ncvs.append(kwargs["ncv"])
        if len(ncvs) == 1:
            raise _no_convergence(problem.dimension)
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", held_splu)
    monkeypatch.setattr(eigensolve, "_eigsh", flaky)
    vals, _ = eigensolve._solve_window(problem, k, shift, 3, tol)
    assert ncvs == [ncv, 2 * ncv] and len(refs) == 1 and seen == [[False]]
    nearest = np.sort(dense[np.argsort(np.abs(dense - shift))[:k]])
    np.testing.assert_allclose(vals, nearest, rtol=1e-10)


@pytest.mark.parametrize("k", [1, eigensolve._RESIDUAL_COLS, 3 * eigensolve._RESIDUAL_COLS + 1,
                               3 * eigensolve._RESIDUAL_COLS + 2])
def test_blocked_residuals_match_the_one_shot_formula(k):
    rng = np.random.default_rng(k)
    n = 400
    a = sp.random(n, n, density=0.02, random_state=rng, format="csr")
    b = sp.random(n, n, density=0.02, random_state=rng, format="csr")
    problem = fem.EigenProblem(stiffness=(a + a.T).tocsr(),
                               mass=(b @ b.T + sp.identity(n)).tocsr())
    vals, vecs = rng.uniform(1.0, 100.0, k), rng.standard_normal((n, k))
    kv, mv = problem.stiffness @ vecs, problem.mass @ vecs
    one_shot = np.linalg.norm(kv - mv * vals, axis=0) / np.linalg.norm(mv, axis=0)
    assert eigensolve._residuals(problem, vals, vecs).tobytes() == one_shot.tobytes()


def test_window_holds_one_ritz_block_at_a_time():
    # numpy's share of one window at a default size (k = 37, ncv = k + 16) on
    # 6028 nodes: ARPACK's n x ncv basis, extract's n x ncv Ritz block and its
    # k-column copy, plus one residual block (K v, M v and lambda M v, each n x
    # _RESIDUAL_COLS), with 8 columns of n of slack (ARPACK's workd and resid,
    # v0, solve vectors). tracemalloc does not see SuperLU's own memory. Four
    # n x k residual temporaries beside a sorted copy of the vectors exceed it.
    mesh = meshing.refine(meshing.triangulate(geo.euclidean_disc(1.0), 0.09))
    problem = eigensolve._ordered(fem.assemble(mesh, fem.ConformalWeight(SpaceForm.EUCLIDEAN)))
    n, k, shift = problem.dimension, 37, 150.0
    ncv = k + 16
    eigensolve._solve_window(problem, k, shift, 1, 1e-9)  # imports stay out of the trace
    tracemalloc.start()
    try:
        vals, res = eigensolve._solve_window(problem, k, shift, 1, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(vals) == k and np.all(res < 1e-9 * vals)
    assert peak < 8 * n * (2 * ncv + k + 3 * eigensolve._RESIDUAL_COLS + 8)


def test_nested_dissection_factor_fills_less_than_colamd():
    # an interior-window factor: partial pivoting, in the nested-dissection
    # order against SuperLU's default COLAMD column order
    mesh = meshing.refine(meshing.triangulate(geo.euclidean_disc(1.0), 0.09))
    problem = fem.assemble(mesh, fem.ConformalWeight(SpaceForm.EUCLIDEAN))
    ordered = eigensolve._ordered(problem)
    shift = 200.0  # about the 40th eigenvalue
    nd = spla.splu((ordered.stiffness - shift * ordered.mass).tocsc(), permc_spec="NATURAL")
    colamd = spla.splu((problem.stiffness - shift * problem.mass).tocsc())
    assert nd.L.nnz + nd.U.nnz < colamd.L.nnz + colamd.U.nnz


@pytest.fixture(scope="module")
def neumann_disc_above_dense():
    # disc_above_dense's mesh with a Neumann boundary: K is singular at 0,
    # which the first window [0, e1) holds
    mesh = meshing.triangulate(geo.euclidean_disc(1.0), 0.09)
    mesh = replace(mesh, arcs=tuple(replace(arc, bc="N") for arc in mesh.arcs))
    problem = fem.assemble(mesh, fem.ConformalWeight(SpaceForm.EUCLIDEAN))
    assert eigensolve._DENSE_LIMIT < problem.dimension < 2 * eigensolve._DENSE_LIMIT
    dense = sla.eigh(problem.stiffness.toarray(), problem.mass.toarray(), eigvals_only=True)
    return problem, dense


@pytest.mark.parametrize("m", [1, 2, 40])
def test_arpack_path_matches_dense(disc_above_dense, neumann_disc_above_dense, m):
    problem, dense = disc_above_dense
    sl = eigensolve.solve_lowest(problem, m)
    np.testing.assert_allclose(sl.eigenvalues, dense[:m], rtol=1e-10)
    problem, dense = neumann_disc_above_dense
    sl = eigensolve.solve_lowest(problem, m)
    assert sl.eigenvalues[0] == 0.0
    np.testing.assert_allclose(sl.eigenvalues[1:], dense[1:m], rtol=1e-10)


def test_skipped_interior_eigenvalue_fails_certificate(disc_above_dense, in_process, monkeypatch):
    problem, _ = disc_above_dense
    real = eigensolve._eigsh

    def skipping(*args, k, **kwargs):
        vals, vecs = real(*args, k=k + 1, **kwargs)
        keep = np.delete(np.argsort(vals), 3)
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(eigensolve, "_eigsh", skipping)
    with pytest.raises(eigensolve.SolveError, match="inertia") as info:
        eigensolve.solve_lowest(problem, 10)
    assert len(info.value.partial) == 10


def _diagonal_problem(diag):
    return _problem_from(np.diag(diag), np.eye(len(diag)))


def _exact_diagonal_eigsh(diag, skip=None, calls=None):
    # the k exact eigenpairs of diag(d) v = lambda v nearest sigma, ascending;
    # skip drops one of k + 1
    diag = np.asarray(diag, dtype=float)

    def eigsh(*args, k, sigma, **kwargs):
        near = np.sort(np.argsort(np.abs(diag - sigma), kind="stable")[: k + (skip is not None)])
        idx = near if skip is None else np.delete(near, skip)
        if calls is not None:
            calls.append(diag[idx])
        return diag[idx], np.eye(len(diag))[:, idx]

    return eigsh


@pytest.mark.parametrize("m", [1, 3])
def test_certificate_below_fully_clustered_top(in_process, monkeypatch, m):
    # all requested values lie in one cluster, which the top edge's count covers
    diag = np.concatenate(([5.0, 5.0, 5.0], np.arange(7.0, 7.0 + eigensolve._DENSE_LIMIT)))
    monkeypatch.setattr(eigensolve, "_eigsh", _exact_diagonal_eigsh(diag))
    sl = eigensolve.solve_lowest(_diagonal_problem(diag), m)
    assert sl.eigenvalues.tolist() == [5.0] * m


def test_certificate_catches_member_skipped_from_cluster(in_process, monkeypatch):
    # the guide's top edge, 5 + 0.5 * 5/3, counts the cluster of three
    diag = np.concatenate(([5.0, 5.0, 5.0], np.arange(7.0, 7.0 + eigensolve._DENSE_LIMIT)))
    monkeypatch.setattr(eigensolve, "_eigsh", _exact_diagonal_eigsh(diag, skip=1))
    with pytest.raises(eigensolve.SolveError, match="inertia counts 3 .* found 2"):
        eigensolve.solve_lowest(_diagonal_problem(diag), 3, guide=diag[:3])


@pytest.mark.parametrize("m", [1, 4])
def test_top_cluster_value_dropped_from_one_window_fails_inertia(in_process, monkeypatch, m):
    # one window (no guide, m < 2 * _WINDOW_EIGS) returns the value above its
    # largest in place of it: for m = 4 both lie in a cluster narrower than
    # 10*tol, for m = 1 the window holds that value alone; the top edge's
    # count catches the swap either way
    cluster = 5.0 + 1e-8 * np.arange(4)
    diag = np.concatenate(([1.0, 2.0], cluster, np.arange(7.0, 7.0 + eigensolve._DENSE_LIMIT)))
    monkeypatch.setattr(eigensolve, "_eigsh", _exact_diagonal_eigsh(diag, skip=-2))
    with pytest.raises(eigensolve.SolveError, match="inertia counts") as info:
        eigensolve.solve_lowest(_diagonal_problem(diag), m)
    assert len(info.value.partial) == m


def test_failed_inertia_factorization_is_a_solve_error(in_process, monkeypatch):
    # the counts come before any window, so there is no partial to attach
    diag = np.arange(1.0, eigensolve._DENSE_LIMIT + 101.0)
    monkeypatch.setattr(eigensolve, "_eigsh", _exact_diagonal_eigsh(diag))
    real = spla.splu

    def singular_inertia(a, **kwargs):  # every count's shift lies above zero
        if "diag_pivot_thresh" in kwargs:
            raise RuntimeError("Factor is exactly singular")
        return real(a, **kwargs)

    monkeypatch.setattr(spla, "splu", singular_inertia)
    with pytest.raises(eigensolve.SolveError, match="inertia factorization failed at shift 5.5") as info:
        eigensolve.solve_lowest(_diagonal_problem(diag), 5, guide=diag[:5])
    assert info.value.partial is None



def test_residual_gate_attaches_the_lowest_m_as_partial(in_process, monkeypatch):
    real = eigensolve._residuals

    def one_stalled(problem, vals, vecs):
        res = real(problem, vals, vecs)
        res[1] = 1e-3
        return res

    monkeypatch.setattr(eigensolve, "_residuals", one_stalled)
    problem = _diagonal_problem([4.0, 1.0, 3.0, 2.0])
    with pytest.raises(eigensolve.SolveError, match=r"1 residuals exceed tolerance \(worst 1\.000e-03\)") as info:
        eigensolve.solve_lowest(problem, 3)
    partial = info.value.partial
    assert partial.eigenvalues == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)
    assert partial.residual_norms[1] == 1e-3 and len(partial.residual_norms) == 3


def test_indefinite_stiffness_is_a_negative_eigenvalue_error():
    problem = _problem_from([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 5.0]], np.eye(3))
    with pytest.raises(eigensolve.SolveError, match=r"negative eigenvalue -1\.000e\+00 beyond tolerance") as info:
        eigensolve.solve_lowest(problem, 2)
    assert info.value.partial is None

def test_inertia_factor_with_unequal_permutations_is_refused(monkeypatch):
    real = spla.splu

    def reordered(a, **kwargs):
        lu = real(a, **kwargs)
        return types.SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c, U=lu.U)

    monkeypatch.setattr(spla, "splu", reordered)
    problem = _diagonal_problem([1.0, 2.0, 3.0])
    with pytest.raises(eigensolve.SolveError, match="at shift 2.5 lost its symmetric ordering"):
        eigensolve._count_below((problem.stiffness - 2.5 * problem.mass).tocsc(), 2.5)


@pytest.mark.parametrize("spare", [0, 1])
def test_nearly_full_sparse_spectrum_is_refused(spare):
    n = eigensolve._DENSE_LIMIT + 2
    m = n - spare
    with pytest.raises(eigensolve.SolveError, match=rf"nearly full spectrum \({m} of {n}\)"):
        eigensolve.solve_lowest(_diagonal_problem(np.arange(1.0, n + 1.0)), m)


def test_zero_guide_takes_the_weyl_edge():
    # a Neumann level asking for its zero mode alone: guide[0] == 0 gives no
    # spacing, and an edge at 0 would factor the singular K
    n = eigensolve._DENSE_LIMIT + 2
    assert eigensolve._window_edges([0.0], 1, 1e-9) == []
    sl = eigensolve.solve_lowest(_diagonal_problem(np.arange(0.0, n)), 1, guide=[0.0])
    assert sl.eigenvalues.tolist() == [0.0]


def test_top_edge_counting_nearly_every_value_is_refused():
    # m = n - 2 passes the check above, but the top edge, widened from Weyl's
    # estimate, counts at least n - 1 values, more than eigsh can return
    n = eigensolve._DENSE_LIMIT + 2
    with pytest.raises(eigensolve.SolveError, match=rf"nearly full spectrum \({n - 1} of {n}\) below the top edge"):
        eigensolve.solve_lowest(_diagonal_problem(np.arange(1.0, n + 1.0)), n - 2)


# ---------------------------------------------------------------------------
# windowed solves: edges from a guide spectrum, certified by inertia counts


@pytest.mark.parametrize("m", [74, 150])
def test_windows_match_dense(disc_above_dense, in_process, m):
    problem, dense = disc_above_dense
    guide = dense[:m] * 1.001  # the coarser level lies a little higher
    assert len(eigensolve._window_edges(guide, m, 1e-9)) == m // eigensolve._WINDOW_EIGS >= 2
    sl = eigensolve.solve_lowest(problem, m, guide=guide)
    np.testing.assert_allclose(sl.eigenvalues, dense[:m], rtol=1e-10)
    assert len(sl.residual_norms) == m


def test_clustered_guide_solves_one_window(disc_above_dense):
    # no gap of the guide near the middle quantile is wider than 10*tol, so
    # that edge is dropped and only the top edge stays: one window, which must
    # still give the lowest m
    problem, dense = disc_above_dense
    m = 80
    guide = dense[:m] * 1.001
    guide[36:44] = guide[40]
    edges = eigensolve._window_edges(guide, m, 1e-9)
    assert m // eigensolve._WINDOW_EIGS == 2 and len(edges) == 1 and edges[0] > guide[-1]
    sl = eigensolve.solve_lowest(problem, m, guide=guide)
    np.testing.assert_allclose(sl.eigenvalues, dense[:m], rtol=1e-10)


def test_windows_with_and_without_points_match_dense(disc_above_dense, in_process):
    # with points the solver factors in nested-dissection order, without in
    # the assembled order
    problem, dense = disc_above_dense
    guide = dense[:80] * 1.001
    for pencil in (problem, replace(problem, points=None)):
        sl = eigensolve.solve_lowest(pencil, 80, guide=guide)
        np.testing.assert_allclose(sl.eigenvalues, dense[:80], rtol=1e-10)


@pytest.mark.parametrize("m, ncv", [(6, 22), (36, 52), (68, 85), (72, 90)])
def test_window_basis_is_k_plus_max_16_or_a_quarter(in_process, monkeypatch, m, ncv):
    # one window of m values (m < 2 * _WINDOW_EIGS): k + 16 up to k = 67, k + k // 4 above
    diag = _ladder(eigensolve._DENSE_LIMIT + 200)
    exact_eigsh, asked = _exact_diagonal_eigsh(diag), []

    def eigsh(*args, k, **kwargs):
        asked.append((k, kwargs["ncv"]))
        return exact_eigsh(*args, k=k, **kwargs)

    monkeypatch.setattr(eigensolve, "_eigsh", eigsh)
    sl = eigensolve.solve_lowest(_diagonal_problem(diag), m, guide=diag[:m])
    assert asked == [(m, ncv)]
    assert sl.eigenvalues.tolist() == diag[:m].tolist()


def test_single_150_value_window_matches_dense(disc_above_dense, in_process, monkeypatch):
    # without a guide one window from Weyl's edge holds all of them, at least
    # 150 values and a basis of k + k // 4
    problem, dense = disc_above_dense
    real, asked = eigensolve._eigsh, []

    def eigsh(*args, k, ncv, **kwargs):
        asked.append((k, ncv))
        return real(*args, k=k, ncv=ncv, **kwargs)

    monkeypatch.setattr(eigensolve, "_eigsh", eigsh)
    sl = eigensolve.solve_lowest(problem, 150)
    [(k, ncv)] = asked
    assert k >= 150 and ncv == k + k // 4
    np.testing.assert_allclose(sl.eigenvalues, dense[:150], rtol=1e-10)


def test_dead_window_worker_names_the_main_guard(monkeypatch):
    class BrokenPool:
        def submit(self, fn, *args):
            raise BrokenProcessPool("worker exited")

    monkeypatch.setattr(eigensolve, "_window_pool", BrokenPool)
    with pytest.raises(eigensolve.SolveError, match="a window worker died") as info:
        eigensolve._map(os.getenv, [("HOME",)])
    assert 'if __name__ == "__main__":' in str(info.value)


def test_pooled_windows_bit_identical_to_in_process(disc_above_dense, monkeypatch):
    problem, dense = disc_above_dense
    guide = dense[:80] * 1.001
    before = {v: os.environ.get(v) for v in eigensolve._BLAS_THREAD_VARS}
    try:
        pooled = eigensolve.solve_lowest(problem, 80, guide=guide)
        assert eigensolve._POOL is not None
        # workers run with one BLAS thread
        threads = eigensolve._map(os.getenv, [("OPENBLAS_NUM_THREADS",), ("OMP_NUM_THREADS",)])
        assert threads == ["1", "1"]
        assert {v: os.environ.get(v) for v in before} == before
    finally:
        eigensolve._close_pool()
    assert eigensolve._POOL is None
    monkeypatch.setattr(eigensolve, "_map", _in_process_map)
    local = eigensolve.solve_lowest(problem, 80, guide=guide)
    assert pooled.eigenvalues.tobytes() == local.eigenvalues.tobytes()
    assert pooled.residual_norms.tobytes() == local.residual_norms.tobytes()


def test_threads_share_one_window_pool(disc_above_dense, monkeypatch):
    # solves on more threads than cores, as under --jobs, start one pool of at
    # most cores workers and each get the bytes of a solve on its own
    problem, dense = disc_above_dense
    sizes = (74, 80, 111)  # 2, 2 and 3 windows: a swapped result shows
    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            time.sleep(0.2)  # time for another thread to start a pool of its own
            super().__init__(max_workers, **kwargs)

    def solve(m):
        return eigensolve.solve_lowest(problem, m, guide=dense[:m] * 1.001)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    before = {v: os.environ.get(v) for v in eigensolve._BLAS_THREAD_VARS}
    together = {}
    threads = [threading.Thread(target=lambda m=m: together.update({m: solve(m)}), daemon=True)
               for m in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        alone = {m: solve(m) for m in sizes}
    finally:
        sys.setswitchinterval(interval)
        eigensolve._close_pool()
    assert len(pools) == 1 and pools[0] <= len(os.sched_getaffinity(0))
    assert {v: os.environ.get(v) for v in before} == before
    assert sorted(together) == list(sizes)
    for m in sizes:
        assert together[m].eigenvalues.tobytes() == alone[m].eigenvalues.tobytes()
        assert together[m].residual_norms.tobytes() == alone[m].residual_norms.tobytes()


def _window_pool_in_a_worker():
    # runs in a forked worker, as a library caller's may, and leaves the pool open
    threads = eigensolve._map(os.getenv, [("OPENBLAS_NUM_THREADS",)] * 2)
    return threads, os.getpid()


def test_forked_worker_runs_windows_with_one_blas_thread():
    # as on the pool of the calling process; the worker's open pool must not
    # block the worker's exit
    jobs = concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
    threads, pid = jobs.submit(_window_pool_in_a_worker).result(timeout=60)
    closer = threading.Thread(target=jobs.shutdown)  # joins the worker
    closer.start()
    closer.join(timeout=30)
    stuck = closer.is_alive()
    if stuck:
        os.kill(pid, signal.SIGKILL)
        closer.join()
    assert not stuck
    assert threads == ["1", "1"]
    assert eigensolve._POOL is None


def _pool_is_unset():
    return eigensolve._POOL is None


def test_forked_child_does_not_inherit_the_window_pool():
    try:
        assert eigensolve._window_pool() is not None  # its workers start at the first submit
        fork = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=fork) as jobs:
            assert jobs.submit(_pool_is_unset).result(timeout=60)
    finally:
        eigensolve._close_pool()


def test_window_pool_is_sized_by_cores_and_starts_workers_on_demand(monkeypatch):
    # the pool's size is fixed at its first use, so a first solve with fewer
    # windows than cores must not cap the windows of later, wider solves
    eigensolve._close_pool()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    try:
        assert eigensolve._map(os.getenv, [("OPENBLAS_NUM_THREADS",)] * 2) == ["1", "1"]
        assert eigensolve._POOL._max_workers == 8
        assert 1 <= len(eigensolve._POOL._processes) <= 2
    finally:
        eigensolve._close_pool()


def _ladder(n, double_at=None):
    # an uneven ladder, so no window shift lands on an eigenvalue; double_at
    # makes values double_at and double_at + 1 (0-based) one double eigenvalue
    diag = np.arange(1.0, n + 1.0) ** 1.05
    if double_at is not None:
        diag[double_at + 1] = diag[double_at]
    return diag


def test_double_eigenvalue_at_quantile_stays_in_one_window(in_process, monkeypatch):
    m = 150
    w = m // eigensolve._WINDOW_EIGS
    q = m // w - 1  # the first window's last index
    diag = _ladder(eigensolve._DENSE_LIMIT + 200, q)
    calls = []
    monkeypatch.setattr(eigensolve, "_eigsh", _exact_diagonal_eigsh(diag, calls=calls))
    sl = eigensolve.solve_lowest(_diagonal_problem(diag), m, guide=diag[:m])
    assert sl.eigenvalues.tolist() == diag[:m].tolist()
    assert len(calls) == w
    double = diag[q]
    assert [int(np.count_nonzero(c == double)) for c in calls].count(2) == 1


def test_eigenvalue_dropped_from_second_window_fails_inertia(
    disc_above_dense, in_process, monkeypatch
):
    problem, dense = disc_above_dense
    real = eigensolve._eigsh
    calls = []

    def dropping(*args, k, sigma, **kwargs):
        calls.append(sigma)
        if len(calls) != 2:
            return real(*args, k=k, sigma=sigma, **kwargs)
        vals, vecs = real(*args, k=k + 1, sigma=sigma, **kwargs)
        keep = np.delete(np.argsort(np.abs(vals - sigma)), 0)  # lose the one nearest sigma
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(eigensolve, "_eigsh", dropping)
    with pytest.raises(eigensolve.SolveError, match="inertia counts") as info:
        eigensolve.solve_lowest(problem, 80, guide=dense[:80])
    assert 0.0 < calls[0] < calls[1]
    assert len(info.value.partial) == 80


def test_foreign_value_in_a_window_leaves_an_ascending_partial(in_process, monkeypatch):
    m = 80
    diag = _ladder(eigensolve._DENSE_LIMIT + 100)
    exact = _exact_diagonal_eigsh(diag)
    calls = []

    def foreign(*args, **kwargs):
        vals, vecs = exact(*args, **kwargs)
        calls.append(kwargs["sigma"])
        if len(calls) == 2:  # the second window swaps its lowest value for the spectrum's
            vals[0], vecs[:, 0] = diag[0], np.eye(len(diag))[:, 0]
        return vals, vecs

    monkeypatch.setattr(eigensolve, "_eigsh", foreign)
    with pytest.raises(eigensolve.SolveError, match="inertia counts") as info:
        eigensolve.solve_lowest(_diagonal_problem(diag), m, guide=diag[:m])
    partial = info.value.partial.eigenvalues
    assert len(partial) == m
    assert np.all(np.diff(partial) >= 0.0)


def test_arpack_error_in_interior_window_is_a_solve_error(
    disc_above_dense, in_process, monkeypatch
):
    problem, dense = disc_above_dense
    real = eigensolve._eigsh
    calls = []

    def failing_second(*args, k, sigma, **kwargs):
        calls.append(sigma)
        if len(calls) == 2:
            raise _arpack_error()
        return real(*args, k=k, sigma=sigma, **kwargs)

    monkeypatch.setattr(eigensolve, "_eigsh", failing_second)
    with pytest.raises(eigensolve.SolveError, match="ARPACK error 3") as info:
        eigensolve.solve_lowest(problem, 80, guide=dense[:80])
    assert f"at shift {calls[1]:.6g}" in str(info.value)
    assert len(calls) == 2  # a window has no further shift to try


def test_low_top_edge_is_raised_until_it_counts_m(in_process, monkeypatch):
    m = 80
    diag = _ladder(eigensolve._DENSE_LIMIT + 100)
    monkeypatch.setattr(eigensolve, "_eigsh", _exact_diagonal_eigsh(diag))
    real = eigensolve._count_below
    counted = []

    def recording(shifted, shift):
        count = real(shifted, shift)
        counted.append((shift, count))
        return count

    monkeypatch.setattr(eigensolve, "_count_below", recording)
    guide = 0.8 * diag[:m]  # a guide below the level: its top edge counts fewer than m
    top = eigensolve._window_edges(guide, m, 1e-9)[-1]
    sl = eigensolve.solve_lowest(_diagonal_problem(diag), m, guide=guide)
    assert sl.eigenvalues.tolist() == diag[:m].tolist()
    tops = [c for s, c in counted if s >= top]
    assert tops[0] < m <= tops[-1] and len(tops) >= 2


def test_only_solves_start_the_window_pool(tmp_path):
    # an oracle run solves nothing; a solve whose levels are all dense runs
    # them on the pool too, one BLAS thread each
    script = f"""
import multiprocessing
from curvspec import cli, eigensolve
disc, tri = {os.path.join(CONFIG_DIR, "unit_disc_dirichlet.yaml")!r}, {os.path.join(CONFIG_DIR, "right_isosceles_dirichlet.yaml")!r}
assert cli.main(["analyze", "--use-oracle", "--num-eigs", "200", "--samples", "128", "--quiet",
                 "--config", disc, "--out", {str(tmp_path / "a")!r}]) == 0
print(eigensolve._POOL is None, multiprocessing.active_children() == [])
assert cli.main(["solve", "--refinements", "2", "--num-eigs", "600", "--quiet",
                 "--config", tri, "--out", {str(tmp_path / "s")!r}]) == 0
print(eigensolve._POOL is None)
"""
    env = dict(os.environ, PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True", "False"]


def test_window_worker_imports_no_unused_scipy(disc_above_dense, tmp_path):
    # a spawned worker imports curvspec.cli and unpickles its tasks' problems;
    # scipy.spatial (which loads scipy.special) serves meshing only, exact
    # computes Bessel zeros in numpy, and no module needs scipy.integrate or
    # scipy.optimize
    problem, _ = disc_above_dense
    pickled, small = tmp_path / "problem.pkl", tmp_path / "dense.pkl"
    pickled.write_bytes(pickle.dumps(problem))
    small.write_bytes(pickle.dumps(_diagonal_problem(np.arange(1.0, 11.0))))
    script = f"""
import pickle, sys
import curvspec.cli
from curvspec import eigensolve
from curvspec.configio import load_domain_config
problem = pickle.loads(open({str(pickled)!r}, "rb").read())
eigensolve._task(eigensolve._count_below, (problem.stiffness - 10.0 * problem.mass).tocsc(), 10.0)
eigensolve._task(eigensolve._solve_window, problem, 4, 10.0, 1, 1e-9)
eigensolve._task(eigensolve._solve_dense, pickle.loads(open({str(small)!r}, "rb").read()), 4)
unused = ("scipy.integrate", "scipy.spatial", "scipy.special", "scipy.optimize")
print(",".join(m for m in unused if m in sys.modules) or "none")
load_domain_config({os.path.join(CONFIG_DIR, "hyperbolic_triangle_a.yaml")!r})
print(",".join(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules) or "none")
"""
    env = dict(os.environ, PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["none", "none"]


def test_oracle_analyze_imports_only_what_it_runs(tmp_path):
    # loading a config and the oracle run need neither scipy.integrate nor
    # scipy.optimize (0.25 s and 20 MB per process together; the spherical
    # triangle's constants take boundary quadrature, the disc's do not), no
    # solver module, no multiprocessing or concurrent.futures (0.6 MB with the
    # logging it imports) and no numpy.ma (1 MB, which a plain np.unique imports)
    script = f"""
import sys
from curvspec import cli
assert cli.main(["analyze", "--use-oracle", "--num-eigs", "200", "--samples", "128", "--quiet",
                 "--config", {os.path.join(CONFIG_DIR, "unit_disc_dirichlet.yaml")!r},
                 "--config", {os.path.join(CONFIG_DIR, "spherical_right_triangle.yaml")!r},
                 "--out", {str(tmp_path / "a")!r}]) == 0
unused = ("scipy.integrate", "scipy.optimize", "curvspec.eigensolve", "curvspec.fem",
          "curvspec.meshing", "multiprocessing", "concurrent.futures", "numpy.ma")
print(",".join(m for m in unused if m in sys.modules) or "none")
"""
    env = dict(os.environ, PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["none"]


# ---------------------------------------------------------------------------
# the worker-task wrapper: fn's result or exception, then malloc_trim


def test_task_returns_the_result_and_trims_once(monkeypatch):
    trims = []
    monkeypatch.setattr(eigensolve, "_MALLOC_TRIM", trims.append)
    assert eigensolve._task(divmod, 7, 2) == (3, 1)
    assert trims == [0]


def test_task_reraises_solve_error_with_its_partial(monkeypatch):
    trims = []
    monkeypatch.setattr(eigensolve, "_MALLOC_TRIM", trims.append)
    partial = eigensolve.SpectrumSlice(np.array([1.0, 2.0]), level=-1, residual_norms=[])
    error = eigensolve.SolveError("converged only 2/5", partial=partial)

    def fails():
        raise error

    with pytest.raises(eigensolve.SolveError) as info:
        eigensolve._task(fails)
    assert info.value is error and info.value.partial is partial
    assert info.value.partial.eigenvalues.tolist() == [1.0, 2.0]
    assert trims == [0]


def test_task_without_malloc_trim_is_a_no_op(monkeypatch):
    monkeypatch.setattr(eigensolve, "_MALLOC_TRIM", None)
    assert eigensolve._task(os.getenv, "NO_SUCH_VARIABLE_SET", "fallback") == "fallback"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
def test_malloc_trim_is_found_in_glibc():
    assert eigensolve._MALLOC_TRIM(0) in (0, 1)


# ---------------------------------------------------------------------------
# extrapolation on exact geometric sequences x_n = x + c r^n

_EXTRAP_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def geometric_lanes(draw):
    # (x, r, d): limit x, ratio r and finest jump d = c r^6 / x
    x = draw(st.floats(0.5, 1e4))
    r = draw(st.floats(0.01, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
    d = draw(st.floats(1e-6, 0.1)) * draw(st.sampled_from([-1.0, 1.0]))
    return x, r, d


def _levels(x, r, d):
    c = d * x / r**6
    return [x + c * r**n for n in (4, 5, 6)]


@_EXTRAP_SETTINGS
@given(geometric_lanes())
def test_extrapolate_recovers_geometric_limit(lane):
    x, r, d = lane
    pred, ratio = eigensolve.extrapolate(*_levels(x, r, d))
    assert pred == pytest.approx(x, rel=1e-10)
    assert ratio == pytest.approx(r, rel=1e-6)


@_EXTRAP_SETTINGS
@given(st.lists(geometric_lanes(), min_size=1, max_size=6))
def test_extrapolate_spectrum_recovers_and_trusts_geometric_lanes(lanes):
    xs = np.array([x for x, _, _ in lanes])
    assume(len(xs) == 1 or np.min(np.diff(np.sort(xs)) / np.sort(xs)[1:]) > 1e-6)
    jumps = np.array([abs(d) * x for x, _, d in lanes])
    limit = eigensolve._TRUST_JUMP * (1.0 + xs)
    assume(np.all(np.abs(jumps / limit - 1.0) > 1e-6))
    assume(all(abs(abs(r) - eigensolve._TRUST_RATIO) > 1e-6 for _, r, _ in lanes))
    columns = np.array([_levels(*lane) for lane in lanes]).T
    ex = eigensolve.extrapolate_spectrum(_make_slices(columns))
    order = np.argsort(xs)
    np.testing.assert_allclose(ex.predicted, xs[order], rtol=1e-10)
    assert ex.trusted.tolist() == (jumps <= limit)[order].tolist()


@_EXTRAP_SETTINGS
@given(
    st.floats(0.5, 1e4),
    st.floats(1e-6, 10.0) | st.floats(-10.0, -1e-6),
    st.floats(1.01, 10.0) | st.floats(-10.0, -1.01),
)
def test_extrapolate_degenerate_lanes_return_finest(x4, step, rho):
    flat = [x4, x4, x4 + step]  # x5 == x4
    diverging = [x4, x4 + step, x4 + step + rho * step]  # |r| >= 1
    for lane in (flat, diverging):
        assert eigensolve.extrapolate(*lane)[0] == lane[2]
        ex = eigensolve.extrapolate_spectrum(_make_slices([[v] for v in lane]))
        assert ex.predicted[0] == lane[2]
