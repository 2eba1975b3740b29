"""Exact oracle spectra for the closed-form test domains.

Lattice triangles, unit discs via Bessel-function zeros, the hemisphere and
the spherical equilateral right triangle. Bessel zeros come from
scipy.special (specfun JYZO, Zhang & Jin, Computation of Special Functions,
1996).
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


def bessel_zero(k: int, n: int, derivative: bool = False) -> float:
    """n-th positive zero of J_k (or of J_k' when derivative=True).

    J_0'(0) = 0 is not counted: the first derivative zero of order 0 is the
    first positive one (it equals the first zero of J_1).
    """
    if k < 0 or int(k) != k:
        raise OracleError(f"Bessel order must be a nonnegative integer, got {k}")
    if n < 1 or int(n) != n:
        raise OracleError(f"zero index must be a positive integer, got {n}")
    from scipy import special  # here and below, so a window worker never loads it
    zeros = special.jnp_zeros if derivative else special.jn_zeros
    return float(zeros(int(k), int(n))[-1])


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
    scan: each JYZO call returns the zeros of J_k and of J_k' together.

    All zeros below a radius are collected order by order; the radius starts
    at the Weyl estimate sqrt(lambda_count) ~ 2 sqrt(count) and grows until
    at least count eigenvalues of each kind lie below its square.
    """
    from scipy import special
    radius = 2.0 * math.sqrt(count) + 2.0
    while True:
        parts = ([], [np.zeros(1)])  # Dirichlet, Neumann with its zero mode
        # zeros below the radius per order: at most one more than at the
        # previous order, and (for k >= 1) none of either kind once j'_{k,1},
        # the lower first zero, passes it; order 0 cannot stop the scan since
        # j'_{0,1} > j'_{1,1}
        nt, k = int(radius / math.pi) + 2, 0
        while True:
            z = special.jnyn_zeros(k, nt)[:2]
            while min(z[0][-1], z[1][-1]) < radius:  # until both pass the radius
                nt *= 2
                z = special.jnyn_zeros(k, nt)[:2]
            z = [zk[zk < radius] for zk in z]
            if k >= 1 and len(z[1]) == 0:
                break
            for part, zk in zip(parts, z):
                part.append(np.repeat(zk * zk, 2 if k else 1))
            nt, k = len(z[1]) + 2, k + 1
        vals = [np.sort(np.concatenate(part)) for part in parts]
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
