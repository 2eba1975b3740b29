import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from curvspec import analysis, exact
from curvspec.analysis import RefinedCountParams
from curvspec.geometry import SpaceForm

from conftest import oracle_params


def test_counting_function_examples(right_isosceles_600):
    assert analysis.counting_function(right_isosceles_600, 20 * math.pi**2) == 5
    assert analysis.counting_function(right_isosceles_600, 1.0) == 0
    lam = right_isosceles_600[3]
    assert analysis.counting_function(right_isosceles_600, lam) == 4  # inclusive


def test_counting_function_vectorized():
    spec = np.array([1.0, 2.0, 2.0, 5.0])
    out = analysis.counting_function(spec, np.array([0.5, 2.0, 10.0]))
    assert out.tolist() == [0, 3, 4]


def test_refined_count_examples():
    disc = oracle_params("disc-d")
    assert analysis.refined_count(disc, 4.0) == pytest.approx(1 - 1 + 1 / 6, abs=1e-14)
    hemi = oracle_params("hemisphere")
    assert analysis.refined_count(hemi, 4.0) == pytest.approx(2 - 1 + 1 / 6, abs=1e-14)
    assert analysis.refined_count(disc, 0.0) == pytest.approx(1 / 6, abs=1e-15)
    with pytest.raises(analysis.AnalysisError):
        analysis.refined_count(disc, -1.0)


def test_average_error_trivial_cases():
    params = RefinedCountParams(leading=0.7, half_order=-0.3, constant=0.25)
    # empty prefix: A(t) = -(l t / 2 + 2 h sqrt(t) / 3 + c)
    t = 0.5
    want = -(0.7 * t / 2 + (2 / 3) * (-0.3) * math.sqrt(t) + 0.25)
    got = analysis.average_error(np.array([9.0]), params, t)
    assert got == pytest.approx(want, abs=1e-14)

    tiny = RefinedCountParams(leading=1e-300, half_order=0.0, constant=0.0)
    got = analysis.average_error(np.array([1.0]), tiny, 2.0)
    assert got == pytest.approx(0.5, abs=1e-12)

    with pytest.raises(analysis.AnalysisError):
        analysis.average_error(np.array([1.0]), params, 0.0)


def test_average_error_against_quadrature(disc_d_660):
    params = oracle_params("disc-d")
    eigs = disc_d_660

    def d_func(s):
        return analysis.counting_function(eigs, s) - analysis.refined_count(params, s)

    rng = np.random.default_rng(5)
    for t in rng.uniform(5.0, float(eigs[-1]), 4):
        # integrate N exactly between jump points, the smooth part analytically
        jumps = eigs[eigs <= t]
        pts = np.concatenate([[0.0], jumps, [t]])
        int_n = float(np.sum((t - jumps)))
        int_refined = quad(
            lambda s: analysis.refined_count(params, s), 0.0, t, limit=400
        )[0]
        want = (int_n - int_refined) / t
        assert analysis.average_error(eigs, params, float(t)) == pytest.approx(
            want, abs=1e-9
        )


def test_average_error_disc_bounded(disc_d_660):
    # t^(1/4) A(t) stays within [-1, 1] over the first 600 eigenvalues
    params = oracle_params("disc-d")
    ts = np.linspace(1.0, float(disc_d_660[599]), 4000)
    vals = ts**0.25 * analysis.average_error(disc_d_660[:600], params, ts)
    assert np.max(np.abs(vals)) < 1.0


def test_graph_series_flat_keys_and_jumps(right_isosceles_600):
    params = oracle_params("right-isosceles")
    series = analysis.graph_series(
        right_isosceles_600[:200], params, SpaceForm.EUCLIDEAN, samples=512
    )
    assert tuple(series) == ("N", "D", "A", "t14A", "t14At2", "runmean")
    assert all(key == g.key for key, g in series.items())
    x, y = series["D"].x, series["D"].y
    lam = right_isosceles_600[5]
    mult = int(np.sum(np.isclose(right_isosceles_600[:200], lam)))
    before = y[x < lam - 1e-9][-1]
    at = y[np.isclose(x, lam)][0]
    # D jumps by the multiplicity at lam (graph sampled exactly at the jump)
    assert at - before == pytest.approx(
        mult - (analysis.refined_count(params, lam) - analysis.refined_count(params, x[x < lam - 1e-9][-1])),
        abs=1e-6,
    )


def test_counting_function_right_continuous_and_monotone(right_isosceles_600):
    ts = np.linspace(0.0, float(right_isosceles_600[-1]), 5000)
    n_vals = analysis.counting_function(right_isosceles_600, ts)
    assert np.all(np.diff(n_vals) >= 0)
    lam = float(right_isosceles_600[10])
    # right-continuity: the jump is attained at the eigenvalue itself
    assert analysis.counting_function(right_isosceles_600, lam) == analysis.counting_function(
        right_isosceles_600, lam + 1e-9
    )


def test_graph6_band_at_150_eigenvalues(right_isosceles_600):
    params = oracle_params("right-isosceles")
    series = analysis.graph_series(
        right_isosceles_600[:150], params, SpaceForm.EUCLIDEAN, samples=1024
    )
    y6 = series["runmean"].y
    assert abs(y6[-1]) < 0.05


def test_graph_series_spherical_keys():
    eigs = exact.hemisphere_spectrum(300)
    series = analysis.graph_series(
        eigs, oracle_params("hemisphere"), SpaceForm.SPHERICAL, samples=256
    )
    assert tuple(series) == ("N", "D", "A", "At2", "runmean")
    assert all(key == g.key for key, g in series.items())


def test_graph6_mean_zero_evidence(right_isosceles_600):
    # the running mean tends to zero; quarter-spectrum value is larger
    params = oracle_params("right-isosceles")
    n = 600
    series = analysis.graph_series(
        right_isosceles_600[:n], params, SpaceForm.EUCLIDEAN, samples=1024
    )
    y6 = series["runmean"].y
    assert abs(y6[-1]) < 0.05
    series_q = analysis.graph_series(
        right_isosceles_600[: n // 4], params, SpaceForm.EUCLIDEAN, samples=1024
    )
    y6q = series_q["runmean"].y
    assert abs(y6[-1]) < abs(y6q[-1])


def test_graph6_shrinks_with_prefix(equilateral_600):
    params = oracle_params("equilateral")
    terminal = {}
    for n in (150, 600):
        s = analysis.graph_series(
            equilateral_600[:n], params, SpaceForm.EUCLIDEAN, samples=1024
        )
        terminal[n] = abs(s["runmean"].y[-1])
    assert terminal[600] < terminal[150]


def test_hemisphere_at2_no_decay():
    eigs = exact.hemisphere_spectrum(550)
    series = analysis.graph_series(
        eigs, oracle_params("hemisphere"), SpaceForm.SPHERICAL, samples=2048
    )
    x, y = series["At2"].x, series["At2"].y
    q = 0.75 * x[-1]
    assert np.max(np.abs(y[x >= q])) >= 0.5 * np.max(np.abs(y))


def test_graph_series_validation():
    params = RefinedCountParams(1.0, 0.0, 0.0)
    with pytest.raises(analysis.AnalysisError):
        analysis.graph_series(np.array([]), params, SpaceForm.EUCLIDEAN)
    with pytest.raises(analysis.AnalysisError):
        analysis.graph_series(np.array([1.0, 2.0]), params, SpaceForm.EUCLIDEAN, samples=8)


@pytest.mark.parametrize("seed", range(6))
def test_grid_with_breakpoints_is_np_unique_bit_for_bit(seed):
    # repeated values, both signed zeros and breaks outside (lo, hi], and a nan upper end
    rng = np.random.default_rng(seed)
    pool = np.concatenate([[0.0, -0.0], rng.uniform(-3.0, 3.0, 20), np.linspace(-2.0, 2.0, 9)])
    breaks = rng.choice(pool, size=int(rng.integers(0, 400)))
    samples = int(rng.integers(1, 100))
    for lo, hi in [(-2.0, 2.0), (-1.5, 0.0), (0.0, 2.0), (-1.0, math.nan)]:
        inside = breaks[(breaks > lo) & (breaks <= hi)]
        want = np.unique(np.concatenate([np.linspace(lo, hi, samples + 1)[1:], inside]))
        got = analysis._grid_with_breakpoints(lo, hi, samples, breaks)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _cdf(stats, x):
    # the step function that cdf_x and cdf_y tabulate: fraction of differences <= x
    i = np.searchsorted(stats.cdf_x, x, side="right")
    return float(stats.cdf_y[i - 1]) if i else 0.0


def test_gap_stats_hemisphere_first_ten():
    eigs = exact.hemisphere_spectrum(10)
    stats = analysis.gap_stats(eigs, bin_width=1.0)
    assert stats.differences.tolist() == [4, 0, 6, 0, 0, 8, 0, 0, 0]
    assert _cdf(stats, 0.0) == pytest.approx(6 / 9)
    assert _cdf(stats, -1e-9) == 0.0
    assert _cdf(stats, 8.0) == 1.0


def test_gap_stats_simple_spectrum_no_zero_mass():
    stats = analysis.gap_stats(np.array([1.0, 2.5, 4.1, 7.0]), bin_width=0.5)
    assert _cdf(stats, 0.0) == 0.0
    assert stats.bin_counts.sum() == 3


def test_gap_stats_validation():
    with pytest.raises(analysis.AnalysisError):
        analysis.gap_stats(np.array([1.0]), 0.1)
    with pytest.raises(analysis.AnalysisError):
        analysis.gap_stats(np.array([1.0, 2.0]), 0.0)


@pytest.mark.parametrize("width, bins", [(1e-9, "1e+11"), (5e-324, "inf")])
def test_gap_stats_rejects_more_bins_than_the_limit(width, bins):
    # raised before the bin edges exist: 1e11 of them would take 745 GiB
    message = re.escape(f"bin width {width:g} gives {bins} histogram bins")
    with pytest.raises(analysis.AnalysisError, match=message):
        analysis.gap_stats(np.array([0.0, 100.0]), width)
    limit = 100.0 / analysis._MAX_BINS  # exactly the limit passes
    assert len(analysis.gap_stats(np.array([0.0, 100.0]), limit).bin_counts) == analysis._MAX_BINS


def test_graph_csv_roundtrip(tmp_path):
    x = np.linspace(0.1, 9.7, 57)
    y = np.sin(x) * 1e-7
    path = tmp_path / "g.csv"
    analysis.write_graph_csv(path, x, y)
    x2, y2 = analysis.read_graph_csv(path)
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)
    path2 = tmp_path / "g2.csv"
    analysis.write_graph_csv(path2, x2, y2)
    assert path.read_bytes() == path2.read_bytes()


def test_graph_csv_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n1.0,2.0\nbroken\n")
    with pytest.raises(analysis.AnalysisError, match="3"):
        analysis.read_graph_csv(path)


def test_d_slope_is_removed(right_isosceles_600, equilateral_600, disc_d_660):
    # the two-term prediction removes the linear trend: regression slope of D
    # is small relative to the leading coefficient
    for eigs, case in [
        (right_isosceles_600, "right-isosceles"),
        (equilateral_600, "equilateral"),
        (disc_d_660, "disc-d"),
    ]:
        params = oracle_params(case)
        ts = np.linspace(eigs[0], eigs[-1], 3000)
        d = analysis.counting_function(eigs, ts) - analysis.refined_count(params, ts)
        slope = np.polyfit(ts, d, 1)[0]
        assert abs(slope) < 0.01 * params.leading
