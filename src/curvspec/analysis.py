"""Counting-function analysis: refined three-term count, error averages,
the graph set (six graphs flat/hyperbolic, five spherical, as a dict of Graph
by key in their numbered order), and consecutive-gap statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import textio
from .geometry import GeometricConstants, SpaceForm


class AnalysisError(ValueError):
    """Invalid analysis request."""


_MAX_BINS = 2**20  # gap histogram bins; the default bin width gives 40


@dataclass(frozen=True)
class RefinedCountParams:
    """Coefficients of the refined count  leading*t + half_order*sqrt(t) + constant."""

    leading: float
    half_order: float
    constant: float

    def __post_init__(self):
        if not self.leading > 0.0:
            raise AnalysisError(f"leading coefficient must be positive, got {self.leading}")

    @classmethod
    def from_constants(cls, gc: GeometricConstants) -> "RefinedCountParams":
        return cls(
            leading=gc.area / (4.0 * math.pi),
            half_order=(gc.perimeter_n - gc.perimeter_d) / (4.0 * math.pi),
            constant=gc.c,
        )


def counting_function(spectrum, t):
    """N(t) = number of eigenvalues <= t (right-continuous step function)."""
    eigs = np.asarray(spectrum, dtype=float)
    out = np.searchsorted(eigs, np.asarray(t, dtype=float), side="right")
    return int(out) if np.isscalar(t) else out


def refined_count(params: RefinedCountParams, t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise AnalysisError("refined count is defined for t >= 0")
    val = params.leading * t + params.half_order * np.sqrt(t) + params.constant
    return float(val) if val.ndim == 0 else val


def _integral_refined(params: RefinedCountParams, t):
    # int_0^t of the refined count, closed form
    return (
        0.5 * params.leading * t**2
        + (2.0 / 3.0) * params.half_order * t**1.5
        + params.constant * t
    )


def average_error(spectrum, params: RefinedCountParams, t):
    """A(t) = (1/t) int_0^t [N(s) - refined(s)] ds, evaluated in closed form.

    int_0^t N = sum over lambda_j <= t of (t - lambda_j); no quadrature error
    beyond floating point.
    """
    eigs = np.asarray(spectrum, dtype=float)
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0.0):
        raise AnalysisError("averaged error needs t > 0")
    prefix = np.concatenate([[0.0], np.cumsum(eigs)])
    idx = np.searchsorted(eigs, ts, side="right")
    int_n = ts * idx - prefix[idx]
    vals = (int_n - _integral_refined(params, ts)) / ts
    return float(vals[0]) if scalar else vals


class Graph(NamedTuple):
    """One sampled graph: file key, SVG title and x-axis label, samples."""

    key: str
    title: str
    xlabel: str
    x: np.ndarray
    y: np.ndarray


def _grid_with_breakpoints(lo_open: float, hi: float, samples: int, breaks) -> np.ndarray:
    # np.unique(grid + breaks) bit for bit without its numpy.ma import: nans sort last, one stays
    grid = np.linspace(lo_open, hi, samples + 1)[1:]
    breaks = np.asarray(breaks, dtype=float)
    s = np.sort(np.concatenate([grid, breaks[(breaks > lo_open) & (breaks <= hi)]]))
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) & ~np.isnan(s[:-1])
    return s[keep]


def _running_mean(spectrum, params, a: float, x_grid: np.ndarray):
    # (1/(x-a)) int_a^x sqrt(s) A(s^2) ds by composite trapezoid on an 8x finer grid
    xs = x_grid[x_grid > a]
    base = np.concatenate([[a], xs])  # ascending and distinct, as x_grid is
    s = np.concatenate([base[:1], np.linspace(base[:-1], base[1:], 9, axis=-1)[:, 1:].ravel()])
    integrand = average_error(spectrum, params, s * s) * np.sqrt(s)  # sqrt(s) not held during A
    cum = np.concatenate([[0.0], np.cumsum(np.diff(s) * 0.5 * (integrand[1:] + integrand[:-1]))])
    cum_at = np.interp(xs, s, cum)
    return xs, cum_at / (xs - a)


def graph_series(
    spectrum,
    params: RefinedCountParams,
    space: SpaceForm,
    samples: int = 4096,
) -> dict[str, Graph]:
    """Sample the standard graph set over the spectrum's range, as graphs by
    key in their numbered order.

    Flat/hyperbolic: N, D, A, t14A = t^(1/4) A(t), t14At2 = t^(1/4) A(t^2),
    and runmean, the running mean of sqrt(s) A(s^2) from a = sqrt(t_max)/4.
    Spherical: N, D, A, At2 = A(t^2) and the same running mean. Graphs in t
    run over (0, t_max], those in sqrt(t) over (0, sqrt(t_max)], and the
    running mean over x > a.
    """
    eigs = np.asarray(spectrum, dtype=float)
    if len(eigs) == 0:
        raise AnalysisError("graph series needs a nonempty spectrum")
    if samples < 64:
        raise AnalysisError("graph series needs samples >= 64")
    t_max = float(eigs[-1])
    if t_max <= 0.0:
        raise AnalysisError("graph series needs a positive largest eigenvalue")
    root = math.sqrt(t_max)
    a = root / 4.0

    grid_t = _grid_with_breakpoints(0.0, t_max, samples, eigs)
    grid_r = _grid_with_breakpoints(0.0, root, samples, np.sqrt(np.abs(eigs)))

    n_vals = counting_function(eigs, grid_t).astype(float)
    d_vals = n_vals - refined_count(params, grid_t)
    a_vals = average_error(eigs, params, grid_t)

    graphs = []
    add = graphs.append
    add(Graph("N", "graph 1: N(t)", "t", grid_t, n_vals))
    add(Graph("D", "graph 2: D(t) = N(t) - refined(t)", "t", grid_t, d_vals))
    add(Graph("A", "graph 3: A(t)", "t", grid_t, a_vals))
    a_sq = average_error(eigs, params, grid_r * grid_r)
    if space is SpaceForm.SPHERICAL:
        add(Graph("At2", "graph 4: A(t^2)", "sqrt(t)", grid_r, a_sq))
    else:
        add(Graph("t14A", "graph 4: t^(1/4) A(t)", "t", grid_t, grid_t**0.25 * a_vals))
        add(Graph("t14At2", "graph 5: t^(1/4) A(t^2)", "sqrt(t)", grid_r, grid_r**0.25 * a_sq))
    xs, mean = _running_mean(eigs, params, a, grid_r)
    add(Graph("runmean", "running mean of s^(1/2) A(s^2)", "sqrt(t)", xs, mean))
    return {g.key: g for g in graphs}


@dataclass
class GapStats:
    """Consecutive-eigenvalue differences with their empirical CDF and histogram."""

    differences: np.ndarray
    cdf_x: np.ndarray
    cdf_y: np.ndarray
    bin_width: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray


def gap_stats(spectrum, bin_width: float | None = None) -> GapStats:
    """Differences of consecutive sorted eigenvalues, their CDF and histogram
    (at most _MAX_BINS bins of bin_width, by default the largest difference / 40)."""
    eigs = np.asarray(spectrum, dtype=float)
    if len(eigs) < 2:
        raise AnalysisError("gap statistics need at least two eigenvalues")
    d = np.diff(eigs)
    top = float(d.max())
    if bin_width is None:
        bin_width = max(top / 40.0, 1e-12)
    if not bin_width > 0.0:
        raise AnalysisError(f"bin width must be positive, got {bin_width}")
    if np.any(d < 0.0):
        raise AnalysisError("spectrum must be ascending")
    xs, counts = np.unique(d, return_counts=True)
    cdf_y = np.cumsum(counts) / len(d)
    if top / bin_width > _MAX_BINS:  # checked before the bin edges are allocated
        raise AnalysisError(
            f"bin width {bin_width:g} gives {top / bin_width:.4g} histogram bins for the "
            f"largest difference {top:g}, above the limit {_MAX_BINS}"
        )
    n_bins = max(1, math.ceil(top / bin_width))
    edges = bin_width * np.arange(n_bins + 1)
    hist, _ = np.histogram(d, bins=edges)
    return GapStats(
        differences=d,
        cdf_x=xs,
        cdf_y=cdf_y,
        bin_width=float(bin_width),
        bin_edges=edges,
        bin_counts=hist,
    )


# ---------------------------------------------------------------------------
# CSV emission


def write_graph_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    textio.write_table(path, "t,value", "%.17g,%.17g", x, y)


def read_graph_csv(path) -> tuple[np.ndarray, np.ndarray]:
    _, data = textio.read_csv(path, "graph CSV", lambda h: h == ["t", "value"], AnalysisError)
    return data[:, 0], data[:, 1]


def write_gap_csvs(base_path, stats: GapStats) -> tuple[str, str]:
    cdf_path = f"{base_path}_cdf.csv"
    hist_path = f"{base_path}_hist.csv"
    textio.write_table(cdf_path, "d,cdf", "%.17g,%.17g", stats.cdf_x, stats.cdf_y)
    textio.write_table(
        hist_path, "bin_left,count", "%.17g,%d", stats.bin_edges[:-1], stats.bin_counts
    )
    return cdf_path, hist_path
