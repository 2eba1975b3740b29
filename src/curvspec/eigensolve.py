"""Lowest eigenvalues of the assembled pencil and refinement extrapolation.

Small problems go through dense LAPACK. Above that, ARPACK shift-invert runs
to the residual gate's tol, and Sylvester inertia certifies the result
complete: the negative pivots of a symmetric-mode (diagonal pivot) SuperLU
factor of K - s*M count the eigenvalues below s, and a skipped eigenvalue
raises SolveError instead of shifting every later index. Every solve runs on
one spawned worker pool that every thread of the process shares, one BLAS
thread per worker, so no level's bits depend on the core count or --jobs.

A sparse level is put once into a coordinate nested-dissection order of its
nodes, and every factor of that level keeps that order (SuperLU's NATURAL
column order): the inertia counts factor symmetrically with diagonal pivots,
the windows with partial pivoting.

A sparse solve of m values is split into max(1, m // _WINDOW_EIGS) windows
[lo, hi) (spectrum slicing), the first from 0, each shifted to its centre and
solved from a fixed start vector with a Krylov basis of k + max(16, k // 4)
vectors for its k values. The edges sit in gaps of the guide, the previous
level's eigenvalues; without one, a lone top edge starts at Weyl's estimate
4*pi*m/area. The inertia count at each edge fixes how many
eigenvalues each window must return and certifies that none is missing, and
the top edge's count covers every value below it.

Importing cli loads no scipy, fem, meshing or this module, and this one loads
multiprocessing at its pool's start. A worker imports cli (the spawned main
module), this module, fem, meshing, scipy.sparse and sparse.linalg as it starts,
when solve and report start one worker per window before they mesh
(start_pool), or else with its first task and first factor; linalg at its
first dense solve, never spatial or special, and after every task hands the
heap it freed to the OS.

A window holds one factor-sized object at a time beside the worker and its
input: it frees its factor before ARPACK's Ritz vectors exist (_eigsh) and
takes its residuals a few columns at a time. A count gets K - e*M alone; its
factor plus the L and U copies made to read diag(U) are its floor.

Extrapolation fits the last three refinement values to x_n = x + c*r^n.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import math
import os
import re
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import textio

if TYPE_CHECKING:  # annotations only: reading or writing a spectrum file needs no fem
    from .fem import EigenProblem

_DENSE_LIMIT = 1200
_WINDOW_EIGS = 37  # fewest eigenvalues per window: a solve has max(1, m // _WINDOW_EIGS)
_RESIDUAL_COLS = 4  # columns per block of _residuals
_LEAF = 16  # nested dissection leaves parts of at most this many nodes whole
_SEED = 7151  # window i starts ARPACK from the uniform v0 of seed _SEED + i
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_POOL = None  # see _window_pool
_LOCK = threading.Lock()  # see _map
_TRUST_RATIO = 0.5
_TRUST_JUMP = 0.02
try:  # libc's int malloc_trim(size_t), see _task; None where libc has none
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # macOS, Windows
    _MALLOC_TRIM = None


class SolveError(RuntimeError):
    """Eigenvalue solve failed; partial results may be attached."""

    def __init__(self, msg: str, partial=None):
        super().__init__(msg)
        self.partial = partial


@dataclass(frozen=True)
class SpectrumSlice:
    """Ascending lowest eigenvalues at one refinement level."""

    eigenvalues: np.ndarray
    level: int
    residual_norms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(
            self, "residual_norms", np.asarray(self.residual_norms, dtype=float)
        )

    def __len__(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class ExtrapolatedSpectrum:
    """Per-index geometric-fit predictions, re-sorted ascending."""

    predicted: np.ndarray
    ratios: np.ndarray
    trusted: np.ndarray
    trust_count: int

    def __len__(self) -> int:
        return len(self.predicted)


def _residuals(problem: EigenProblem, vals, vecs) -> np.ndarray:
    """||K v - lambda M v|| / ||M v|| of each pair, _RESIDUAL_COLS columns at a
    time. No block has one column unless vecs does: numpy sums a column on its
    own pairwise, and two or more row by row, as it sums the whole block."""
    k = len(vals)
    cuts = [0, *range(_RESIDUAL_COLS, k - 1, _RESIDUAL_COLS), k]
    res = np.empty(k)
    for lo, hi in zip(cuts, cuts[1:]):
        v = vecs[:, lo:hi]
        kv, mv = problem.stiffness @ v, problem.mass @ v
        kv -= mv * vals[lo:hi]
        res[lo:hi] = np.linalg.norm(kv, axis=0) / np.linalg.norm(mv, axis=0)
    return res


def _nested_dissection(points, graph) -> np.ndarray:
    """Coordinate nested dissection (George 1973): q such that A[q][:, q]
    factors with little fill in its natural order, for A with graph's pattern.

    All parts of one depth split at once: at the median of the part's longer
    coordinate extent, into a left side, a right side and a separator, the
    right-side nodes that touch the left side; they are ordered in that order.
    Parts of at most _LEAF nodes stay whole. Ties go to the lower node index.
    """
    n = len(points)
    g = graph.tocoo()
    up = g.row < g.col
    u, v = g.row[up], g.col[up]  # each edge once, while both ends share an open part
    by = np.argsort(points.T, kind="stable")
    coord = np.take_along_axis(points.T, by, 1)  # each axis sorted
    rank = np.empty_like(by)  # rank[i, node]: the node's place along axis i
    np.put_along_axis(rank, by, np.arange(n), 1)
    path = np.zeros(n, dtype=np.int64)  # base 3, a digit a depth: left 0, right 1, separator 2
    act = np.arange(n)  # nodes of the open parts, grouped by part
    part = np.zeros(n, dtype=np.int64)  # the part of each act entry, ascending
    while act.size:
        first = np.flatnonzero(np.diff(part, prepend=-1))
        size = np.diff(first, append=act.size)
        seg = np.repeat(np.arange(first.size), size)
        x, y = rank[0, act], rank[1, act]
        ext = [coord[i, np.maximum.reduceat(r, first)] - coord[i, np.minimum.reduceat(r, first)]
               for i, r in enumerate((x, y))]
        act = act[np.argsort(seg * n + np.where((ext[1] > ext[0])[seg], y, x))]
        right = np.arange(act.size) - first[seg] >= (size // 2)[seg]
        side = np.zeros(n, dtype=bool)
        side[act[right]] = True
        su, sv = side[u], side[v]
        cut = np.zeros(n, dtype=bool)
        cut[np.where(su, u, v)[su != sv]] = True  # right ends of the edges across
        split = (size > _LEAF)[seg]
        digit = np.where(cut[act], 2, right) * split
        path *= 3
        path[act] += digit
        stay = split & (digit < 2)
        act, part = act[stay], (2 * seg + right)[stay]
        live = np.zeros(n, dtype=bool)
        live[act] = True
        keep = (su == sv) & live[u] & live[v]
        u, v = u[keep], v[keep]
    return np.argsort(path, kind="stable")


def _ordered(problem: EigenProblem) -> EigenProblem:
    """problem in the nested-dissection order of its points, which the result
    drops: every factor keeps the order of a problem without points."""
    if problem.points is None:
        return problem
    q = _nested_dissection(problem.points, problem.mass)  # M holds every mesh edge
    return replace(problem, stiffness=problem.stiffness[q][:, q], mass=problem.mass[q][:, q],
                   points=None)


def _count_below(shifted, shift: float) -> int:
    """Number of eigenvalues below shift, by Sylvester inertia of shifted, the
    CSC matrix K - shift*M. Its sparse LU in the given order with diagonal
    pivots is, with perm_r == perm_c, L D L^T with D = diag(U), so the
    negative entries of diag(U) count the eigenvalues below shift."""
    import scipy.sparse.linalg as spla  # on use, like every scipy import here
    try:
        lu = spla.splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        raise SolveError(f"inertia factorization failed at shift {shift:.6g}") from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolveError(f"inertia factor at shift {shift:.6g} lost its symmetric ordering")
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _solve_dense(problem: EigenProblem, m: int):
    """The m lowest eigenvalues by dense LAPACK, with their residual norms."""
    import scipy.linalg as sla
    vals, vecs = sla.eigh(problem.stiffness.toarray(), problem.mass.toarray())
    vals, vecs = vals[:m], vecs[:, :m]
    return vals, _residuals(problem, vals, vecs)


def _eigsh(mass, *, k, sigma, v0, ncv, tol, opinv):
    """spla.eigsh(K, k, M=mass, sigma=sigma, v0=v0, ncv=ncv, tol=tol, OPinv=op)
    with the same bits, op's matvec being opinv[0], the solve of K - sigma*M.

    It iterates the driver object eigsh builds (ARPACK's reverse communication
    leaves the operator to the caller) and, once that converges, empties opinv
    and drops the driver's hold on it, freeing the factor before the Ritz
    vectors are extracted. No convergence leaves opinv to a retry."""
    from scipy.sparse.linalg._eigen.arpack.arpack import _SymmetricArpackParams
    params = _SymmetricArpackParams(mass.shape[0], k, "d", None, mode=3, M_matvec=mass.dot,
                                    Minv_matvec=opinv[0], sigma=sigma, ncv=ncv, v0=v0, tol=tol)
    while not params.converged:
        params.iterate()
    opinv.clear()
    params.OP = params.OPa = None  # mode 3's operator and its closure over the solve
    return params.extract(True)


def _solve_window(problem: EigenProblem, k: int, shift: float, seed: int, tol: float):
    """The k eigenvalues nearest shift, ascending, with their residual norms.
    Runs in a pool worker or in-process: v0 comes from seed.

    ARPACK's no-convergence is retried twice, each time with twice the Krylov
    subspace and the same factor; a failed factorization or another ARPACK
    error is a SolveError naming the shift.
    """
    import scipy.sparse.linalg as spla
    n = problem.dimension
    v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    ncv = min(n, max(20, k + max(16, k // 4)))  # eigsh's 2k + 1: more memory, no faster
    try:
        # inside the spectrum K - shift*M is indefinite, and _count_below's unpivoted
        # L D L^T grows its pivots (solve backward error ~1e-15 against ~1e-18) until the
        # residuals stall near the gate: so this factor pivots partially, in the problem's
        # order; _eigsh frees it before the Ritz vectors, and the residual gate runs without it
        opinv = [spla.splu((problem.stiffness - shift * problem.mass).tocsc(),
                           permc_spec="NATURAL").solve]
        for attempt in range(3):
            try:
                vals, vecs = _eigsh(problem.mass, k=k, sigma=shift, v0=v0, ncv=ncv, tol=tol,
                                    opinv=opinv)
                break
            except spla.ArpackNoConvergence as exc:
                if attempt == 2:
                    got = np.sort(exc.eigenvalues)
                    raise SolveError(
                        f"eigensolver converged only {len(got)}/{k} eigenvalues",
                        partial=SpectrumSlice(got, level=-1, residual_norms=np.array([])),
                    ) from exc
                ncv = min(2 * ncv, n)  # retry with a larger Krylov subspace
    except SolveError:
        raise
    except RuntimeError as exc:  # a singular factor or another ArpackError
        raise SolveError(
            f"shift-invert solve for {k} eigenvalues at shift {shift:.6g} failed: {exc}"
        ) from None
    order = np.argsort(vals)  # residuals in ARPACK's order: only values and norms are sorted
    return vals[order], _residuals(problem, vals, vecs)[order]


def _window_edges(guide, m: int, tol: float) -> list[float]:
    """Upper edges of the windows of a solve of m values, ascending; [] when
    guide, the previous level's eigenvalues, holds fewer than m or a zero
    guide[m-1].

    Of W = max(1, m // _WINDOW_EIGS) windows, interior edge i sits mid-way in
    the widest relative gap of guide within m/(16W) indices of i*m/W, and is
    dropped if that gap is not wider than 10*tol; the top edge sits half the
    top window's mean spacing (from 0 for one window) above guide[m-1]. The
    edges only need to sit in gaps: inertia counts, not the guide, decide what
    each window holds.
    """
    if guide is None or len(guide) < m or not guide[m - 1] > 0.0:
        return []
    w = max(1, m // _WINDOW_EIGS)
    g = np.asarray(guide, dtype=float)[:m]
    r = max(1, m // (16 * w))  # small: the slowest window sets the wall time
    gap = np.diff(g) / np.maximum(g[1:], 1e-300)  # gap[j] lies between g[j] and g[j+1]
    edges = []
    for i in range(1, w):
        q = i * m // w - 1 - r
        j = q + int(np.argmax(gap[q : q + 2 * r + 1]))
        if gap[j] > 10.0 * tol:
            edges.append(0.5 * (g[j] + g[j + 1]))
    span = m // w
    below = g[-1 - span] if span < m else 0.0
    edges.append(g[-1] + 0.5 * (g[-1] - below) / span)
    return edges


def _solve_windows(problem: EigenProblem, m: int, tol: float, edges):
    """Solve [0, e1), [e1, e2), ... up to the top edge, one window per task.

    Returns the merged ascending eigenvalues (the lowest m and any others below
    the top edge), their residuals and the (edge, inertia count) pairs that
    certify them.
    """
    def count_below(shifts):  # a count task gets K - e*M, half the pencil
        return _map(_count_below,
                    [((problem.stiffness - e * problem.mass).tocsc(), e) for e in shifts])

    # the floor (0, 0) is never factored: 0 is a Neumann K's eigenvalue
    edges = [0.0, *edges]
    counts = [0, *count_below(edges[1:])]
    while counts[-1] < m:  # the spectrum lies above the top edge: widen the top window
        # by the values it lacks at the density it holds, at most its width
        held = max(counts[-1] - counts[-2], 1)
        edges[-1] += (edges[-1] - edges[-2]) * min(1.0, (m - counts[-1]) / held)
        [counts[-1]] = count_below(edges[-1:])
    if counts[-1] >= problem.dimension - 1:
        raise SolveError(
            f"nearly full spectrum ({counts[-1]} of {problem.dimension}) below the top "
            f"edge {edges[-1]:.6g} is outside the iterative solver's range"
        )
    # edges sit in gaps, so a window's eigenvalues are the ones nearest its centre
    tasks = [(problem, int(k), 0.5 * (lo + hi), _SEED + i, tol)
             for i, (k, lo, hi) in enumerate(zip(np.diff(counts), edges, edges[1:])) if k > 0]
    results = _map(_solve_window, tasks)
    vals = np.concatenate([r[0] for r in results])
    res = np.concatenate([r[1] for r in results])
    # ascending when each window returned its own values; the inertia check
    # catches the other case, and sorting keeps its partial slice the lowest m
    order = np.argsort(vals, kind="stable")
    return vals[order], res[order], list(zip(edges[1:], counts[1:]))


def _map(fn, tasks, wait: bool = True) -> list:
    """fn(*task) for each task, in order, on the window pool (without wait, their
    futures). _LOCK covers the pool's start, its workers' BLAS environment and
    the submits, not the wait: the windows of solves on several threads queue
    on the same workers."""
    try:
        with _LOCK:
            pool = _window_pool()
            saved = {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}
            os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
            try:  # workers spawn inside submit and read their BLAS threads from this
                futures = [pool.submit(_task, fn, *t) for t in tasks]
            finally:
                for var, value in saved.items():
                    if value is None:
                        os.environ.pop(var, None)
                    else:
                        os.environ[var] = value
        return [f.result() for f in futures] if wait else futures
    except concurrent.futures.BrokenExecutor:
        _close_pool(pool)
        raise SolveError(
            "a window worker died; a script that calls solve_lowest or run_solve "
            'needs an `if __name__ == "__main__":` guard, or each spawned worker '
            "re-imports it and starts a solve of its own"
        ) from None


def _task(fn, *args):
    """fn(*args) in a window worker, then malloc_trim: glibc keeps tens of MB
    of the heap a task frees, and the next task's factor would land on top."""
    try:
        return fn(*args)
    finally:
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


def _window_pool():
    """The spawned window pool, one worker per usable core, created at first
    use and shut down at exit; the caller holds _LOCK. A submit starts a
    worker only when none is idle, so a pool that a solve creates starts no
    more workers than it uses; start_pool starts those a sparse solve uses."""
    global _POOL
    if _POOL is None:
        import multiprocessing.util  # on use, with concurrent.futures.process below
        _POOL = concurrent.futures.ProcessPoolExecutor(
            len(os.sched_getaffinity(0)), mp_context=multiprocessing.get_context("spawn")
        )
        # a multiprocessing child skips atexit and joins its children before
        # concurrent.futures stops their pools; finalizers run before that
        # join, highest priority first, and the pool's queues close at 10
        multiprocessing.util.Finalize(None, _close_pool, exitpriority=100)
    return _POOL


def start_pool(m: int) -> None:
    """Create the window pool with as many workers started as a sparse solve of
    m values has windows (at most one per core), each importing what a window
    needs, so that no such solve waits for one; solve and report call this
    before they mesh. Once the pool exists this does nothing; threads that both
    find none both submit, and the pool caps the workers they start."""
    if _POOL is None:  # one task a worker, all submitted before any worker is idle
        workers = min(len(os.sched_getaffinity(0)), max(1, m // _WINDOW_EIGS))
        _map(_import_solver, [()] * workers, wait=False)


def _import_solver() -> None:
    import scipy.sparse.linalg  # noqa: F401
    from . import fem  # noqa: F401


def _close_pool(pool=None) -> None:
    """Shut the window pool down; given pool, only if that is still the one."""
    global _POOL
    with _LOCK:
        if _POOL is not None and pool in (None, _POOL):
            _POOL.shutdown()
            _POOL = None


def _forget_pool() -> None:
    global _POOL, _LOCK
    _POOL, _LOCK = None, threading.Lock()  # the parent's are no use in a forked child


os.register_at_fork(after_in_child=_forget_pool)


def solve_lowest(problem: EigenProblem, m: int, tol: float = 1e-9, guide=None) -> SpectrumSlice:
    """The m smallest eigenvalues of K v = lambda M v.

    Residuals ||Kv - lambda Mv|| / ||Mv|| must come out below tol*max(1, lambda);
    eigenvalues within tol of zero are reported as exactly 0 (Neumann mode).
    guide, the previous refinement level's eigenvalues, places the window
    edges of a sparse solve when it holds at least m values (see
    _window_edges). The inertia counts at the edges certify that a sparse
    solve misses no eigenvalue below its top edge, which lies above the m-th.

    Every solve, dense or sparse, runs on the spawned window pool with one
    BLAS thread per worker, so a script that calls this needs an
    `if __name__ == "__main__":` guard around its work.
    """
    n = problem.dimension
    if m < 1:
        raise SolveError(f"need m >= 1, got {m}")
    if m > n:
        raise SolveError(f"requested {m} eigenvalues of a {n}-dimensional problem")
    if not 0.0 < tol <= 1e-6:
        raise SolveError(f"tol must lie in (0, 1e-6], got {tol}")

    checks = []  # (shift, inertia count of eigenvalues below it)
    if n <= _DENSE_LIMIT:
        [(vals, res)] = _map(_solve_dense, [(problem, m)])
    elif m >= n - 1:
        raise SolveError(
            f"nearly full spectrum ({m} of {n}) is outside the iterative solver's "
            "range; refine less or request fewer eigenvalues"
        )
    else:
        problem = _ordered(problem)
        # else Weyl's estimate of the m-th eigenvalue, 4*pi*m/area
        edges = _window_edges(guide, m, tol) or [4.0 * math.pi * m / problem.mass.sum()]
        vals, res, checks = _solve_windows(problem, m, tol, edges)

    scale = max(1.0, float(abs(vals[m - 1])))
    if np.any(vals < -tol * scale):
        raise SolveError(f"negative eigenvalue {vals.min():.3e} beyond tolerance")
    vals = np.where(np.abs(vals) < tol * scale, 0.0, vals)

    sl = SpectrumSlice(eigenvalues=vals[:m], level=-1, residual_norms=res[:m])
    bad = res > tol * np.maximum(1.0, np.abs(vals))
    if np.any(bad):
        worst = float(res[bad].max())
        raise SolveError(
            f"{int(bad.sum())} residuals exceed tolerance (worst {worst:.3e})", partial=sl
        )
    for s, count in checks:
        found = int(np.count_nonzero(vals < s))
        if found != count:
            msg = f"inertia counts {count} eigenvalues below {s:.6g} but the solve found {found}"
            raise SolveError(msg, partial=sl)
    return sl


def _geometric_fit(x4, x5, x6) -> tuple[np.ndarray, np.ndarray]:
    # elementwise x + c r^n fit; see extrapolate for the degenerate cases
    x4, x5, x6 = (np.asarray(v, dtype=float) for v in (x4, x5, x6))
    flat = x5 == x4
    with np.errstate(all="ignore"):  # masked lanes may divide by zero
        r = np.where(flat, 0.0, (x6 - x5) / np.where(flat, 1.0, x5 - x4))
        degenerate = flat | (np.abs(r) >= 1.0) | (np.abs(1.0 - r) < 1e-12)
        pred = np.where(degenerate, x6, x6 + (x6 - x5) * r / (1.0 - r))
    return pred, r


def extrapolate(x4: float, x5: float, x6: float) -> tuple[float, float]:
    """Fit x_n = x + c r^n to three consecutive values and return (x, r).

    Degenerate fits (|r| >= 1 or r ~ 1) return the finest value with the raw
    ratio; the trust decision is made downstream from the ratio.
    """
    pred, r = _geometric_fit(x4, x5, x6)
    return (float(pred), float(r))


def _leading_run(flags) -> int:
    """Length of the leading run of true flags."""
    return len(flags) if flags.all() else int(np.argmin(flags))


def extrapolate_spectrum(slices) -> ExtrapolatedSpectrum:
    """Extrapolate each eigenvalue index over the last three refinement levels.

    Predictions are re-sorted ascending (per-index order can switch);
    trust_count is the longest prefix with |r| <= 0.5 and a relative jump
    from the finest value of at most 2%.
    """
    slices = tuple(slices)
    if len(slices) != 3:
        raise SolveError(f"extrapolation needs exactly 3 slices, got {len(slices)}")
    s4, s5, s6 = slices
    if not (len(s4) == len(s5) == len(s6)):
        raise SolveError(
            f"mismatched eigenvalue counts: {len(s4)}, {len(s5)}, {len(s6)}"
        )
    if not (s5.level == s4.level + 1 and s6.level == s5.level + 1):
        raise SolveError(
            f"slices must be at consecutive levels, got {s4.level}, {s5.level}, {s6.level}"
        )
    preds, ratios = _geometric_fit(s4.eigenvalues, s5.eigenvalues, s6.eigenvalues)
    trusted = (np.abs(ratios) <= _TRUST_RATIO) & (
        np.abs(preds - s6.eigenvalues) <= _TRUST_JUMP * (1.0 + np.abs(preds))
    )
    order = np.argsort(preds, kind="stable")
    preds, ratios, trusted = preds[order], ratios[order], trusted[order]
    return ExtrapolatedSpectrum(
        predicted=preds, ratios=ratios, trusted=trusted, trust_count=_leading_run(trusted)
    )


# ---------------------------------------------------------------------------
# Spectrum file format: one row per eigenvalue, mirroring the refinement tables


@dataclass
class SpectrumFile:
    """Parsed spectrum file: per-level values plus prediction columns."""

    level_ids: list[int]
    levels: list[np.ndarray]
    predicted: np.ndarray
    ratio: np.ndarray
    trusted: np.ndarray

    def trusted_prefix(self) -> np.ndarray:
        """Predicted eigenvalues up to the first untrusted entry."""
        return self.predicted[: _leading_run(self.trusted)]


def write_spectrum_file(
    path,
    predicted: np.ndarray,
    ratio: np.ndarray,
    trusted: np.ndarray,
    levels=(),
    level_ids=(),
) -> None:
    """Rows: index, per-level values (0 where a level had fewer modes),
    predicted, ratio, trusted flag."""
    m = len(predicted)
    cols = [np.asarray(lev, dtype=float)[:m] for lev in levels]
    header = ["index"] + [f"level_{l}" for l in level_ids] + ["predicted", "ratio", "trusted"]
    textio.write_table(
        path,
        ",".join(header),
        ",".join(["%d"] + ["%.17g"] * (len(cols) + 2) + ["%d"]),
        np.arange(1, m + 1),
        *(np.pad(c, (0, m - len(c))) for c in cols),
        predicted,
        ratio,
        np.asarray(trusted, dtype=bool),
    )


def read_spectrum_file(path) -> SpectrumFile:
    def header_ok(h):
        return h[:1] == ["index"] and h[-3:] == ["predicted", "ratio", "trusted"]

    header, data = textio.read_csv(path, "spectrum file", header_ok, SolveError)
    bad = [c for c in header[1:-3] if not re.fullmatch(r"level_\d+", c)]
    if bad:
        raise SolveError(f"{path}:1: bad level column {bad[0]!r}")
    rows = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if rows.size:  # a nan or inf would reach the analysis, which writes before it fails
        raise SolveError(f"{path}: row {rows[0] + 1} holds a non-finite value")
    return SpectrumFile(
        level_ids=[int(c[6:]) for c in header[1:-3]],
        levels=list(data[:, 1:-3].T),
        predicted=data[:, -3],
        ratio=data[:, -2],
        trusted=data[:, -1] != 0.0,
    )
