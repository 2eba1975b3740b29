"""Lowest eigenvalues of the assembled pencil and refinement extrapolation.

Small problems go through dense LAPACK. The scale path is ARPACK shift-invert
on a symmetric-mode (MMD, diagonal pivot) SuperLU factor of K - sigma*M, run
to the residual gate's tol and certified complete by Sylvester inertia: a
skipped eigenvalue raises SolveError instead of shifting every later index.
Extrapolation fits the last three refinement values to x_n = x + c*r^n.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import textio
from .fem import EigenProblem

_DENSE_LIMIT = 1200
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


def _factor(problem: EigenProblem, sigma: float):
    """Sparse LU of K - sigma*M in one symmetric ordering with diagonal pivots:
    with perm_r == perm_c it is L D L^T, D = diag(U), so the negative entries of
    diag(U) count the eigenvalues below sigma (Sylvester inertia)."""
    a = (problem.stiffness - sigma * problem.mass).tocsc()
    opts = {"SymmetricMode": True}
    return spla.splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=opts)


def _shift_invert(problem: EigenProblem, m: int, sigma: float, v0, ncv: int, tol: float):
    # the factor dies with this frame, before the certificate builds its own
    lu = _factor(problem, sigma)
    op = spla.LinearOperator(lu.shape, matvec=lu.solve, dtype=float)
    return spla.eigsh(
        problem.stiffness, k=m, M=problem.mass, sigma=sigma, v0=v0, ncv=ncv, tol=tol, OPinv=op
    )


def _certify(problem: EigenProblem, sl: SpectrumSlice, floor: float, tol: float) -> None:
    """Raise SolveError unless inertia confirms that no eigenvalue was skipped.

    The check shift s sits mid-way in the topmost gap of [floor, *eigenvalues]
    wider than 10*tol relative (1e-8 at the default tol); floor lies below the
    spectrum, so m == 1 and a fully clustered top still have that gap. K - s*M
    must have exactly one negative pivot per computed eigenvalue below s.
    """
    v = np.concatenate(([floor], sl.eigenvalues))
    wide = np.diff(v) > 10.0 * tol * np.maximum(1.0, v[1:])
    wide[0] = True  # floor lies below the spectrum
    j = int(np.flatnonzero(wide)[-1])
    s = 0.5 * (v[j] + v[j + 1])
    try:
        lu = _factor(problem, s)
    except RuntimeError:
        raise SolveError(f"inertia factorization failed at shift {s:.6g}", partial=sl) from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolveError("inertia factor lost its symmetric ordering", partial=sl)
    below = int(np.count_nonzero(lu.U.diagonal() < 0))
    if below != j:
        msg = f"inertia counts {below} eigenvalues below {s:.6g} but the solve found {j}"
        raise SolveError(msg, partial=sl)


def solve_lowest(problem: EigenProblem, m: int, tol: float = 1e-9) -> SpectrumSlice:
    """The m smallest eigenvalues of K v = lambda M v.

    Residuals ||Kv - lambda Mv|| / ||Mv|| must come out below tol*max(1, lambda);
    eigenvalues within tol of zero are reported as exactly 0 (Neumann mode).
    """
    n = problem.dimension
    if m < 1:
        raise SolveError(f"need m >= 1, got {m}")
    if m > n:
        raise SolveError(f"requested {m} eigenvalues of a {n}-dimensional problem")
    if not 0.0 < tol <= 1e-6:
        raise SolveError(f"tol must lie in (0, 1e-6], got {tol}")

    if n <= _DENSE_LIMIT:
        k_dense = problem.stiffness.toarray()
        m_dense = problem.mass.toarray()
        vals, vecs = sla.eigh(k_dense, m_dense)
        vals, vecs = vals[:m], vecs[:, :m]
    elif m >= n - 1:
        raise SolveError(
            f"nearly full spectrum ({m} of {n}) is outside the iterative solver's "
            "range; refine less or request fewer eigenvalues"
        )
    else:
        # shift below the spectrum, scaled by the Weyl estimate of lambda_1
        area = problem.mass.sum()
        sigma = -0.5 * max(4.0 * math.pi / area, 1e-8)
        rng = np.random.default_rng(7151)
        v0 = rng.uniform(-1.0, 1.0, n)
        ncv = min(max(2 * m + 1, 20), n)  # eigsh's default subspace size
        for attempt in range(3):
            try:
                vals, vecs = _shift_invert(problem, m, sigma, v0, ncv, tol)
                break
            except spla.ArpackNoConvergence as exc:
                if attempt == 2:
                    got = np.sort(exc.eigenvalues)
                    raise SolveError(
                        f"eigensolver converged only {len(got)}/{m} eigenvalues",
                        partial=SpectrumSlice(got, level=-1, residual_norms=np.array([])),
                    ) from exc
                ncv = min(2 * ncv, n)  # retry with a larger Krylov subspace
            except RuntimeError:
                if attempt == 2:
                    raise SolveError("shifted factorization failed repeatedly") from None
                sigma *= 4.0  # retry with a pivot further from the spectrum

    order = np.argsort(vals)
    vals = np.asarray(vals)[order]
    vecs = np.asarray(vecs)[:, order]
    res = _residuals(problem, vals, vecs)

    scale = max(1.0, float(abs(vals[-1])))
    if np.any(vals < -tol * scale):
        raise SolveError(f"negative eigenvalue {vals.min():.3e} beyond tolerance")
    vals = np.where(np.abs(vals) < tol * scale, 0.0, vals)

    sl = SpectrumSlice(eigenvalues=vals, level=-1, residual_norms=res)
    bad = res > tol * np.maximum(1.0, np.abs(vals))
    if np.any(bad):
        worst = float(res[bad].max())
        raise SolveError(
            f"{int(bad.sum())} residuals exceed tolerance (worst {worst:.3e})", partial=sl
        )
    if n > _DENSE_LIMIT:
        del vecs  # make room for the certificate's factor
        _certify(problem, sl, sigma, tol)
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
