"""Exact oracle spectra for the closed-form test domains.

Lattice triangles, unit discs via Bessel-function zeros, the hemisphere and
the spherical equilateral right triangle. Bessel zeros are computed in numpy:
Miller's backward recurrence (W. Gautschi, Computational aspects of
three-term recurrence relations, SIAM Review 9, 1967; Abramowitz & Stegun
9.12) gives J_k on a grid, sign changes bracket the zeros of J_k and J_k',
and Newton steps kept inside their brackets refine them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class OracleError(ValueError):
    """Invalid oracle request."""


@dataclass(frozen=True)
class OracleSpectrum:
    """Ascending eigenvalue list with multiplicity expanded."""

    case: str
    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))

    def __len__(self) -> int:
        return len(self.eigenvalues)


# ---------------------------------------------------------------------------
# Zeros of Bessel functions of the first kind

_BIG = 2.0**600  # Miller's values are rescaled past this, far below overflow
_STEP = 0.5  # grid spacing of the zero scan; consecutive zeros lie about 3 or more apart


def _bessel_j(x: np.ndarray, lo, width: int) -> np.ndarray:
    """J_{lo[i] + r}(x[i]) for r < width (lo an int or one per point), as rows r,
    for x > 0; rows of order above x + 2, which no caller reads, may be inexact
    (0 past the start N).

    Miller's algorithm, per point: f_{m-1} = (2m/x) f_m - f_{m+1} runs from
    f_{N+1} = 0, f_N = 1 down to f_0, and J_m = f_m / (f_0 + 2 f_2 + 2 f_4 + ...).
    The even start N >= x + 15 x^(1/3) + 20 lies far enough past the turning
    point m = x for full double precision. It depends on x alone, so no value
    depends on the other points. Points run in descending N, so the steps skip
    the suffix yet to start. A point whose |f| passes _BIG is rescaled by the
    exact factor 1/_BIG; between two checks |f| cannot grow from _BIG to
    overflow.
    """
    start = 2 * np.ceil((x + 15.0 * np.cbrt(x) + 20.0) / 2.0).astype(np.int64)
    perm = np.argsort(-start, kind="stable")
    x, lo, start = x[perm], np.broadcast_to(lo, x.shape)[perm], start[perm]
    top = int(start[0])
    inv2 = 2.0 / x
    every = max(1, int(400.0 / math.log2(top * float(inv2.max()) + 2.0)))
    m = np.arange(top + 2)
    running = np.searchsorted(-start, -m, side="right").tolist()  # the points with N >= m
    by_lo = np.argsort(lo, kind="stable")  # by_lo[first[m]:last[m]] record f_m
    first = np.searchsorted(lo[by_lo], m - width + 1).tolist()
    last = np.searchsorted(lo[by_lo], m, side="right").tolist()
    out = np.zeros((width, len(x)))
    f, g, t, total = (np.zeros_like(x) for _ in range(4))
    for m in range(top, -1, -1):  # f = f_m, g = f_{m+1}
        n = running[m]
        if running[m + 1] < n:
            f[running[m + 1] : n] = 1.0
        if first[m] < last[m]:
            keep = by_lo[first[m] : last[m]]
            out[m - lo[keep], keep] = f[keep]
        if m == 0:
            break
        if m % 2 == 0:
            total[:n] += f[:n]
        if m % every == 0 and np.abs(f[:n]).max() > _BIG:
            scale = np.where(np.abs(f[:n]) > _BIG, 1.0 / _BIG, 1.0)
            for v in (f[:n], g[:n], total[:n], out[:, :n]):
                v *= scale
        np.multiply(inv2[:n], m, out=t[:n])
        t[:n] *= f[:n]
        t[:n] -= g[:n]
        f, g, t = t, f, g
    values = np.empty_like(out)
    values[:, perm] = out / (2.0 * total + f)
    return values


def _zero_brackets(radius: float, kmin: int, kmax: int):
    """Grid brackets of every zero of J_k and of J_k' below radius (and possibly
    a few just past it), for kmin <= k <= kmax.

    Returns order, kind (True for J_k'), bracket ends and the function's values
    there, sorted by order, then kind, then position. Only x >= k - 1 is
    scanned: no zero of either kind lies below k, and J_k underflows there.
    """
    x = _STEP * np.arange(max(1, math.ceil((kmin - 1) / _STEP)), math.ceil(radius / _STEP) + 1)
    rows = _bessel_j(x, kmin, kmax - kmin + 2)
    k = np.arange(kmin, kmax + 1)[:, None]
    f = np.stack([rows[:-1], k / x * rows[:-1] - rows[1:]], axis=1)  # (order, kind, x)
    neg = np.signbit(f)
    order, kind, i = np.nonzero((neg[..., :-1] != neg[..., 1:]) & (x[:-1] >= k[..., None] - 1))
    return order + kmin, kind.astype(bool), x[i], x[i + 1], f[order, kind, i], f[order, kind, i + 1]


def _refine_zeros(k, derivative, a, b, fa, fb) -> np.ndarray:
    """Zeros of J_k (of J_k' where derivative) in the brackets [a, b] with
    values fa, fb of opposite sign, to 1e-15 relative.

    Newton's method from each bracket's secant point, all brackets at once;
    J_k'' comes from Bessel's equation. Every evaluation shrinks the bracket,
    and a step that would leave it goes to its midpoint instead. A converged
    zero stops, so each depends on its own bracket alone.
    """
    neg = np.signbit(fa)
    x = a - fa * (b - a) / (fb - fa)
    a, b = a.copy(), b.copy()
    todo = np.arange(len(x))
    while len(todo):
        xt, kt, dt = x[todo], k[todo].astype(float), derivative[todo]
        jk, jk1 = _bessel_j(xt, k[todo], 2)
        jp = kt / xt * jk - jk1
        f = np.where(dt, jp, jk)
        fp = np.where(dt, -jp / xt - (1.0 - (kt / xt) ** 2) * jk, jp)
        left = np.signbit(f) == neg[todo]
        a[todo[left]], b[todo[~left]] = xt[left], xt[~left]
        y = xt - f / fp
        y = np.where((a[todo] <= y) & (y <= b[todo]), y, 0.5 * (a[todo] + b[todo]))
        x[todo] = y
        todo = todo[np.abs(y - xt) > 1e-15 * xt]
    return x


_ZEROS = {}  # order k -> (radius, zeros of J_k, zeros of J_k'): see bessel_zero


def bessel_zero(k: int, n: int, derivative: bool = False) -> float:
    """n-th positive zero of J_k (or of J_k' when derivative=True).

    J_0'(0) = 0 is not counted: the first derivative zero of order 0 is the
    first positive one (it equals the first zero of J_1). Order k's zeros below
    a radius are refined at once and kept; a call past them scans a radius at
    least 1.25 times larger.
    """
    if k < 0 or int(k) != k:
        raise OracleError(f"Bessel order must be a nonnegative integer, got {k}")
    if n < 1 or int(n) != n:
        raise OracleError(f"zero index must be a positive integer, got {n}")
    k, n, derivative = int(k), int(n), bool(derivative)
    radius, *zeros = _ZEROS.get(k, (0.0, (), ()))
    if len(zeros[derivative]) < n:  # from past McMahon's j_{k,n} ~ (n + k/2 - 1/4) pi
        radius = max(math.pi * (n + 0.5 * k + 1.0), 1.25 * radius)
        while True:
            order, kind, a, b, fa, fb = _zero_brackets(radius, k, k)
            if np.count_nonzero(kind == derivative) >= n:
                break
            radius *= 1.25
        z = _refine_zeros(order, kind, a, b, fa, fb)
        zeros = [z[~kind], z[kind]]
        _ZEROS[k] = (radius, *zeros)
    return float(zeros[derivative][n - 1])


# ---------------------------------------------------------------------------
# Oracle spectra


def _lattice_spectrum(case: str, count: int, scale: float, form, twice: bool) -> OracleSpectrum:
    """The count smallest scale * form(j, k) over pairs 1 <= j < k, or, when
    twice, over 1 <= j <= k with each pair j < k counted twice.

    kmax doubles from 3 until count values lie below scale * form(1, kmax + 1),
    which no pair with a larger k can undercut.
    """
    if count < 1:
        raise OracleError("count must be >= 1")
    kmax = 3
    while True:
        j, k = np.triu_indices(kmax, 0 if twice else 1)
        j, k = j + 1, k + 1
        vals = np.sort(np.repeat(scale * form(j, k), np.where(j < k, 1 + twice, 1)))
        safe = vals[vals < scale * form(1, kmax + 1)]
        if len(safe) >= count:
            return OracleSpectrum(case, safe[:count])
        kmax *= 2


def right_isosceles_spectrum(count: int) -> OracleSpectrum:
    """First eigenvalues pi^2 (j^2 + k^2), 0 < j < k, of the unit-leg right isosceles triangle."""
    scale = math.pi**2
    return _lattice_spectrum("right-isosceles", count, scale, lambda j, k: j * j + k * k, False)


def equilateral_spectrum(count: int) -> OracleSpectrum:
    """First eigenvalues (4 pi / 3)^2 (j^2 + k^2 + j k) of the unit-side equilateral triangle.

    Unordered pairs {j, k}; multiplicity 2 when j != k.
    """
    scale = (4.0 * math.pi / 3.0) ** 2
    return _lattice_spectrum("equilateral", count, scale, lambda j, k: j * j + k * k + j * k, True)


@functools.lru_cache(maxsize=8)
def _disc_spectra(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count lowest Dirichlet and Neumann unit-disc eigenvalues, from one
    scan of the zeros of every J_k and J_k'.

    All zeros below a radius are collected; the radius starts at the Weyl
    estimate sqrt(lambda_count) ~ 2 sqrt(count) and grows until at least
    count eigenvalues of each kind lie below its square. Orders above the
    radius have no zero below it.
    """
    radius = 2.0 * math.sqrt(count) + 2.0
    while True:
        k, kind, a, b, fa, fb = _zero_brackets(radius, 0, int(radius))
        z = _refine_zeros(k, kind, a, b, fa, fb)
        below = z < radius
        times = np.where(k[below] > 0, 2, 1)
        lam, kind = np.repeat(z[below] ** 2, times), np.repeat(kind[below], times)
        vals = (np.sort(lam[~kind]), np.sort(np.concatenate([np.zeros(1), lam[kind]])))
        if min(len(v) for v in vals) >= count:
            return vals[0][:count], vals[1][:count]
        radius *= 1.25


def disc_spectrum(count: int, bc: str = "D") -> OracleSpectrum:
    """Unit-disc spectrum: squares of Bessel zeros (Dirichlet) or of derivative
    zeros plus the zero mode (Neumann); multiplicity 1 for order 0, 2 otherwise.

    Both kinds come from one scan, cached per count; each call gets a copy.
    """
    if count < 1:
        raise OracleError("count must be >= 1")
    if bc not in ("D", "N"):
        raise OracleError(f"bc must be 'D' or 'N', got {bc!r}")
    return OracleSpectrum(f"disc-{bc.lower()}", _disc_spectra(count)["DN".index(bc)].copy())


def _staircase_spectrum(case: str, count: int, value) -> OracleSpectrum:
    # value(i) with multiplicity i for i = 1, 2, ...; i up to isqrt(2 count) + 1
    # gives more than count entries
    if count < 1:
        raise OracleError("count must be >= 1")
    i = np.arange(1, math.isqrt(2 * count) + 2)
    return OracleSpectrum(case, np.repeat(value(i), i)[:count])


def spherical_right_triangle_spectrum(count: int) -> OracleSpectrum:
    """Spherical equilateral right triangle: i-th distinct value 4 i^2 + 6 i + 2, multiplicity i."""
    return _staircase_spectrum("spherical-right-triangle", count, lambda i: 4 * i * i + 6 * i + 2)


def hemisphere_spectrum(count: int) -> OracleSpectrum:
    """Dirichlet hemisphere: n-th distinct value n (n + 1), multiplicity n."""
    return _staircase_spectrum("hemisphere", count, lambda n: n * (n + 1))


ORACLE_CASES = {
    "right-isosceles": right_isosceles_spectrum,
    "equilateral": equilateral_spectrum,
    "disc-d": lambda n: disc_spectrum(n, "D"),
    "disc-n": lambda n: disc_spectrum(n, "N"),
    "spherical-right-triangle": spherical_right_triangle_spectrum,
    "hemisphere": hemisphere_spectrum,
}


def oracle_spectrum(case: str, count: int) -> OracleSpectrum:
    try:
        fn = ORACLE_CASES[case]
    except KeyError:
        raise OracleError(
            f"unknown oracle case {case!r}; valid cases: {', '.join(sorted(ORACLE_CASES))}"
        ) from None
    return fn(count)
