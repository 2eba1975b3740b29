"""Lowest eigenvalues of the assembled pencil and refinement extrapolation.

Small problems go through dense LAPACK. Above that, ARPACK shift-invert runs
to the residual gate's tol, and Sylvester inertia certifies the result
complete: the negative pivots of a symmetric-mode (diagonal pivot) SuperLU
factor of K - s*M count the eigenvalues below s, and a skipped eigenvalue
raises SolveError instead of shifting every later index.

A sparse level is put once into a coordinate nested-dissection order of its
nodes, and every factor of that level keeps that order (SuperLU's NATURAL
column order): the inertia counts and the window below the spectrum factor
symmetrically with diagonal pivots, windows inside the spectrum with partial
pivoting.

Given the previous level's eigenvalues as a guide, a solve of m values is
split into m // _WINDOW_EIGS windows (spectrum slicing). The edges sit in gaps
of the guide; the inertia count at each edge fixes how many eigenvalues each
window must return and certifies that none is missing. The windows run on one
spawned worker pool that every thread of the process shares, one BLAS thread
per worker, each from a fixed start vector, so a windowed level depends on
neither the core count nor --jobs; dense and single-window levels use the
caller's BLAS threads, whose number moves their last bits. Without a guide,
one window shifts below the spectrum and one count above its top certifies it.

Extrapolation fits the last three refinement values to x_n = x + c*r^n.
"""

from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
import multiprocessing.util
import os
import re
import threading
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import textio
from .fem import EigenProblem

_DENSE_LIMIT = 1200
_WINDOW_EIGS = 37  # fewest eigenvalues per window: a solve has m // _WINDOW_EIGS windows
_LEAF = 16  # nested dissection leaves parts of at most this many nodes whole
_SEED = 7151  # window i starts ARPACK from the uniform v0 of seed _SEED + i
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_POOL = None  # see _window_pool
_LOCK = threading.Lock()  # see _map
_TRUST_RATIO = 0.5
_TRUST_JUMP = 0.02


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
    kv = problem.stiffness @ vecs
    mv = problem.mass @ vecs
    return np.linalg.norm(kv - mv * vals, axis=0) / np.linalg.norm(mv, axis=0)


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
    free = problem.free_nodes[q]
    node_index = problem.node_index.copy()
    node_index[free] = np.arange(len(q))
    return replace(
        problem,
        stiffness=problem.stiffness[q][:, q],
        mass=problem.mass[q][:, q],
        free_nodes=free,
        node_index=node_index,
        points=None,
    )


def _factor(problem: EigenProblem, sigma: float):
    """Sparse LU of K - sigma*M in the problem's order with diagonal pivots:
    with perm_r == perm_c it is L D L^T, D = diag(U), so the negative entries of
    diag(U) count the eigenvalues below sigma (Sylvester inertia)."""
    a = (problem.stiffness - sigma * problem.mass).tocsc()
    opts = {"SymmetricMode": True}
    return spla.splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=opts)


def _count_below(problem: EigenProblem, shift: float) -> int:
    """Number of eigenvalues below shift, by Sylvester inertia."""
    try:
        lu = _factor(problem, shift)
    except RuntimeError:
        raise SolveError(f"inertia factorization failed at shift {shift:.6g}") from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolveError(f"inertia factor at shift {shift:.6g} lost its symmetric ordering")
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _shift_invert(problem: EigenProblem, k: int, shift: float, v0, ncv: int, tol: float):
    """eigsh for the k eigenvalues nearest shift; the factor dies with this frame.

    Both factors keep the problem's order (see _ordered). Negative shifts lie
    below the spectrum and use _factor. A shift inside the spectrum makes
    K - shift*M indefinite, where _factor's unpivoted L D L^T grows its pivots
    (solve backward error ~1e-15 against ~1e-18) and the residuals stall near
    the gate, so it gets partial pivoting.
    """
    if shift < 0.0:
        lu = _factor(problem, shift)
    else:
        a = (problem.stiffness - shift * problem.mass).tocsc()
        lu = spla.splu(a, permc_spec="NATURAL")
    op = spla.LinearOperator(lu.shape, matvec=lu.solve, dtype=float)
    return spla.eigsh(
        problem.stiffness, k=k, M=problem.mass, sigma=shift, v0=v0, ncv=ncv, tol=tol, OPinv=op
    )


def _solve_window(problem: EigenProblem, k: int, shifts, seed: int, tol: float):
    """The k eigenvalues nearest a shift, ascending, with their residual norms
    and that shift. Runs in a pool worker or in-process: v0 comes from seed.

    A failed factorization or ARPACK error moves on to the next of shifts; a
    window inside the spectrum has only one.
    """
    n = problem.dimension
    v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    ncv = min(max(2 * k + 1, 20), n)  # eigsh's default subspace size
    shifts = iter(shifts)
    shift = next(shifts)
    for attempt in range(3):
        try:
            vals, vecs = _shift_invert(problem, k, shift, v0, ncv, tol)
            break
        except spla.ArpackNoConvergence as exc:
            if attempt == 2:
                got = np.sort(exc.eigenvalues)
                raise SolveError(
                    f"eigensolver converged only {len(got)}/{k} eigenvalues",
                    partial=SpectrumSlice(got, level=-1, residual_norms=np.array([])),
                ) from exc
            ncv = min(2 * ncv, n)  # retry with a larger Krylov subspace
        except RuntimeError as exc:  # a singular factor or another ArpackError
            failed, shift = shift, next(shifts, None)
            if attempt == 2 or shift is None:
                raise SolveError(
                    f"shift-invert solve for {k} eigenvalues at shift {failed:.6g} failed: {exc}"
                ) from None
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    return vals, _residuals(problem, vals, vecs), shift


def _window_edges(guide, m: int, tol: float) -> list[float]:
    """Upper edges of the m // _WINDOW_EIGS windows; [] means one window.

    guide holds the previous level's eigenvalues. Interior edge i sits mid-way
    in the widest relative gap of guide within m/(16W) indices of i*m/W (one
    window if that gap is not wider than 10*tol); the top edge sits half the
    top window's mean spacing above guide[m-1]. The edges only need to sit in
    gaps: inertia counts, not the guide, decide what each window holds.
    """
    w = m // _WINDOW_EIGS
    if guide is None or len(guide) < m or w < 2:
        return []
    g = np.asarray(guide, dtype=float)[:m]
    r = max(1, m // (16 * w))  # small: the slowest window sets the wall time
    gap = np.diff(g) / np.maximum(g[1:], 1e-300)  # gap[j] lies between g[j] and g[j+1]
    edges = []
    for i in range(1, w):
        q = i * m // w - 1 - r
        j = q + int(np.argmax(gap[q : q + 2 * r + 1]))
        if gap[j] <= 10.0 * tol:
            return []
        edges.append(0.5 * (g[j] + g[j + 1]))
    span = m // w
    edges.append(g[-1] + 0.5 * (g[-1] - g[-1 - span]) / span)
    return edges


def _solve_windows(problem: EigenProblem, m: int, tol: float, low_shifts, edges):
    """Solve [-inf, e1), [e1, e2), ... up to the top edge, one window per task.

    Returns the merged ascending eigenvalues (the lowest m and any others below
    the top edge), their residuals and the (edge, inertia count) pairs that
    certify them.
    """
    edges = list(edges)
    counts = _map(_count_below, [(problem, e) for e in edges])
    while counts[-1] < m:  # the spectrum lies above the guide: widen the top window
        edges[-1] += edges[-1] - edges[-2]
        counts[-1] = _map(_count_below, [(problem, edges[-1])])[0]
    # the first window shifts below the spectrum, the others to their centres;
    # edges sit in gaps, so a window's eigenvalues are the ones nearest its shift
    shifts = [low_shifts] + [(0.5 * (lo + hi),) for lo, hi in zip(edges, edges[1:])]
    sizes = np.diff(counts, prepend=0)
    tasks = [(problem, int(k), s, _SEED + i, tol)
             for i, (k, s) in enumerate(zip(sizes, shifts)) if k > 0]
    results = _map(_solve_window, tasks)
    vals = np.concatenate([r[0] for r in results])
    res = np.concatenate([r[1] for r in results])
    # ascending when each window returned its own values; the inertia check
    # catches the other case, and sorting keeps its partial slice the lowest m
    order = np.argsort(vals, kind="stable")
    return vals[order], res[order], list(zip(edges, counts))


def _map(fn, tasks) -> list:
    """fn(*task) for each task, in order, on the window pool. _LOCK covers the
    pool's start, its workers' BLAS environment and the submits, not the wait:
    the windows of solves on several threads queue on the same workers."""
    try:
        with _LOCK:
            pool = _window_pool()
            saved = {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}
            os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
            try:  # workers spawn inside submit and read their BLAS threads from this
                futures = [pool.submit(fn, *t) for t in tasks]
            finally:
                for var, value in saved.items():
                    if value is None:
                        os.environ.pop(var, None)
                    else:
                        os.environ[var] = value
        return [f.result() for f in futures]
    except concurrent.futures.BrokenExecutor:
        _close_pool(pool)
        raise SolveError(
            "a window worker died; a script that calls solve_lowest or run_solve "
            'needs an `if __name__ == "__main__":` guard, or each spawned worker '
            "re-imports it and starts a solve of its own"
        ) from None


def _window_pool():
    """The spawned window pool, one worker per usable core, created at first
    use and shut down at exit; the caller holds _LOCK. A submit starts a
    worker only when none is idle, so a solve starts no more than it uses."""
    global _POOL
    if _POOL is None:
        _POOL = concurrent.futures.ProcessPoolExecutor(
            len(os.sched_getaffinity(0)), mp_context=multiprocessing.get_context("spawn")
        )
        # a multiprocessing child skips atexit and joins its children before
        # concurrent.futures stops their pools; finalizers run before that
        # join, highest priority first, and the pool's queues close at 10
        multiprocessing.util.Finalize(None, _close_pool, exitpriority=100)
    return _POOL


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
    guide, the previous refinement level's eigenvalues, splits a sparse solve
    into windows when it holds at least m values (see _window_edges). The
    inertia counts at the window edges certify that a windowed solve misses
    no eigenvalue below its top edge. A sparse solve in one window (no guide,
    m < 2 * _WINDOW_EIGS = 74, or a guide with no gap wider than 10*tol near a
    window quantile) certifies only its values below the topmost gap wider
    than 10*tol among its results; the top cluster above that gap, which is
    every value when m == 1, is not certified.
    """
    n = problem.dimension
    if m < 1:
        raise SolveError(f"need m >= 1, got {m}")
    if m > n:
        raise SolveError(f"requested {m} eigenvalues of a {n}-dimensional problem")
    if not 0.0 < tol <= 1e-6:
        raise SolveError(f"tol must lie in (0, 1e-6], got {tol}")

    checks = []  # (shift, inertia count of eigenvalues below it)
    one_window = False
    if n <= _DENSE_LIMIT:
        vals, vecs = sla.eigh(problem.stiffness.toarray(), problem.mass.toarray())
        vals, vecs = vals[:m], vecs[:, :m]
        res = _residuals(problem, vals, vecs)
        del vecs
    elif m >= n - 1:
        raise SolveError(
            f"nearly full spectrum ({m} of {n}) is outside the iterative solver's "
            "range; refine less or request fewer eigenvalues"
        )
    else:
        problem = _ordered(problem)
        # shift below the spectrum, scaled by the Weyl estimate of lambda_1,
        # then further below while K - sigma*M fails to factor
        area = problem.mass.sum()
        sigma = -0.5 * max(4.0 * math.pi / area, 1e-8)
        shifts = (sigma, 4.0 * sigma, 16.0 * sigma)
        edges = _window_edges(guide, m, tol)
        if edges:
            vals, res, checks = _solve_windows(problem, m, tol, shifts, edges)
        else:
            one_window = True
            vals, res, sigma = _solve_window(problem, m, shifts, _SEED, tol)

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
    if one_window:
        # count below the topmost gap of [sigma, *vals] wider than 10*tol
        # relative (1e-8 at the default tol); sigma lies below the spectrum,
        # so m == 1 and a fully clustered top still have that gap
        v = np.concatenate(([sigma], vals))
        wide = np.diff(v) > 10.0 * tol * np.maximum(1.0, v[1:])
        wide[0] = True
        j = int(np.flatnonzero(wide)[-1])
        s = 0.5 * (v[j] + v[j + 1])
        try:
            checks.append((s, _count_below(problem, s)))
        except SolveError as exc:
            raise SolveError(str(exc), partial=sl) from None
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
    trust_count = int(np.argmin(trusted)) if not trusted.all() else len(trusted)
    return ExtrapolatedSpectrum(
        predicted=preds, ratios=ratios, trusted=trusted, trust_count=trust_count
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
        if self.trusted.all():
            return self.predicted
        return self.predicted[: int(np.argmin(self.trusted))]


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
    return SpectrumFile(
        level_ids=[int(c[6:]) for c in header[1:-3]],
        levels=list(data[:, 1:-3].T),
        predicted=data[:, -3],
        ratio=data[:, -2],
        trusted=data[:, -1] != 0.0,
    )
