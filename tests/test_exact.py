import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvspec import exact


# ---------------------------------------------------------------------------
# Bessel zeros


def _j0_series(x):
    # independent ascending-series evaluation, small argument only
    total, term, m = 1.0, 1.0, 1
    while abs(term) > 1e-18:
        term *= -(x * x / 4.0) / (m * m)
        total += term
        m += 1
    return total


def _bisect(f, lo, hi, iters=60):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_first_zero_j0_against_series_bisection():
    want = _bisect(_j0_series, 2.0, 3.0)
    assert exact.bessel_zero(0, 1) == pytest.approx(want, abs=1e-9)
    assert exact.bessel_zero(0, 1) == pytest.approx(2.4048255577, abs=1e-9)


def test_first_derivative_zero_j1_against_bisection():
    def j1p(x):
        return float(mpmath.besselj(1, x, derivative=1))

    want = _bisect(j1p, 1.2, 2.4)
    assert exact.bessel_zero(1, 1, derivative=True) == pytest.approx(want, abs=1e-6)
    assert exact.bessel_zero(1, 1, derivative=True) == pytest.approx(
        1.8411837813, abs=1e-9
    )


@pytest.mark.parametrize(
    "k,n,deriv",
    [
        (0, 1, False),
        (0, 10, False),
        (1, 1, True),
        (2, 7, False),
        (11, 3, True),
        (40, 1, False),
        (40, 30, False),
        (95, 2, True),
        (200, 1, False),
        (200, 4, True),
        # near sqrt(lambda_4000) ~ 126, the frontier of the 4000-value disc spectra
        (1, 40, True),
        (95, 5, False),
    ],
)
def test_zeros_against_mpmath(k, n, deriv):
    ref = float(mpmath.besseljzero(k, n, derivative=1 if deriv else 0))
    assert exact.bessel_zero(k, n, deriv) == pytest.approx(ref, rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(0, 150), n=st.integers(1, 60), deriv=st.booleans())
def test_zeros_against_scipy(k, n, deriv):
    from scipy import special

    ref = (special.jnp_zeros if deriv else special.jn_zeros)(k, n)[-1]
    assert exact.bessel_zero(k, n, deriv) == pytest.approx(ref, rel=1e-14)


def test_large_zero_magnitude():
    # supported range extends to zeros of magnitude 1e4
    n = 3183  # j_{0,n} ~ n pi is close to 1e4
    ref = float(mpmath.besseljzero(0, n))
    assert ref > 9.99e3
    assert exact.bessel_zero(0, n) == pytest.approx(ref, abs=1e-9)


def _zeros_below(radius, kmax, derivative=False):
    """Zeros of J_k (of J_k' when derivative) below radius for k = 0..kmax, one
    ascending array per order, from one scan of all the orders."""
    order, kind, a, b, fa, fb = exact._zero_brackets(radius, 0, kmax)
    z = exact._refine_zeros(order, kind, a, b, fa, fb)
    mine = (kind == derivative) & (z < radius)
    return [z[mine & (order == k)] for k in range(kmax + 1)]


def test_mcmahon_spacing_limit():
    (z,) = _zeros_below(402 * math.pi, 0)
    gaps = [z[n - 1] - z[n - 2] for n in (50, 200, 400)]
    for g in gaps:
        assert g == pytest.approx(math.pi, abs=2e-4)
    assert abs(gaps[2] - math.pi) < abs(gaps[0] - math.pi)


def test_zero_interlacing():
    z = _zeros_below(60.0, 30)
    assert min(len(zk) for zk in z) >= 6
    for k in range(0, 30):
        for n in range(5):
            assert z[k][n] < z[k + 1][n] < z[k][n + 1]


@pytest.mark.parametrize(
    "k,n,deriv", [(0, 1, False), (3, 7, True), (40, 2, False), (95, 5, False), (1, 40, True)]
)
def test_zero_does_not_depend_on_the_scan_radius(monkeypatch, k, n, deriv):
    # the same zero, refined together with every zero of its order from scans
    # 1.25 and 2 times larger than bessel_zero's, has the same bits
    real, radii = exact._zero_brackets, []

    def spy(radius, kmin, kmax):
        radii.append(radius)
        return real(radius, kmin, kmax)

    monkeypatch.setattr(exact, "_zero_brackets", spy)
    got = exact.bessel_zero(k, n, deriv)
    for factor in (1.25, 2.0):
        order, kind, a, b, fa, fb = real(factor * radii[-1], k, k)
        z = exact._refine_zeros(order, kind, a, b, fa, fb)
        assert z[kind == deriv][n - 1] == got


def test_bessel_zero_input_validation():
    with pytest.raises(exact.OracleError):
        exact.bessel_zero(-1, 1)
    with pytest.raises(exact.OracleError):
        exact.bessel_zero(0, 0)


# ---------------------------------------------------------------------------
# oracle spectra


def test_right_isosceles_first_ten():
    spec = exact.right_isosceles_spectrum(10)
    assert np.allclose(
        spec / math.pi**2, [5, 10, 13, 17, 20, 25, 26, 29, 34, 37]
    )
    assert exact.right_isosceles_spectrum(1)[0] == pytest.approx(
        5 * math.pi**2
    )


def test_right_isosceles_multiplicity_377():
    vals = exact.right_isosceles_spectrum(140) / math.pi**2
    count = int(np.sum(np.isclose(vals, 377.0)))
    assert count >= 2
    assert vals[132] == pytest.approx(377.0)
    assert vals[133] == pytest.approx(377.0)


def test_equilateral_first_ten():
    spec = exact.equilateral_spectrum(10)
    scale = (4 * math.pi / 3) ** 2
    assert np.allclose(
        spec / scale, [3, 7, 7, 12, 13, 13, 19, 19, 21, 21]
    )
    assert exact.equilateral_spectrum(1)[0] == pytest.approx(3 * scale)


def test_equilateral_219_multiplicity_two():
    vals = exact.equilateral_spectrum(130) / (4 * math.pi / 3) ** 2
    assert int(np.sum(np.isclose(vals, 219.0))) == 2
    assert vals[118] == pytest.approx(219.0)
    assert vals[119] == pytest.approx(219.0)


def test_disc_dirichlet_values(disc_d_660):
    assert disc_d_660[0] == pytest.approx(exact.bessel_zero(0, 1) ** 2, rel=1e-12)
    assert disc_d_660[0] == pytest.approx(5.7832, abs=1e-4)
    j11 = exact.bessel_zero(1, 1) ** 2
    assert disc_d_660[1] == pytest.approx(j11, rel=1e-12)
    assert disc_d_660[2] == pytest.approx(j11, rel=1e-12)
    assert disc_d_660[1] == pytest.approx(14.6820, abs=1e-4)
    assert np.all(np.diff(disc_d_660) >= 0)


def test_disc_neumann_values(disc_n_550):
    assert disc_n_550[0] == 0.0
    jp11 = exact.bessel_zero(1, 1, derivative=True) ** 2
    assert disc_n_550[1] == pytest.approx(jp11, rel=1e-12)
    assert disc_n_550[2] == pytest.approx(jp11, rel=1e-12)
    assert np.all(np.diff(disc_n_550) >= 0)


def test_disc_spectrum_is_squares_of_zeros(disc_d_660):
    # internal consistency: every value is the square of some tabulated zero;
    # no order above the radius has a zero below it
    radius = math.sqrt(disc_d_660[-1] + 1)
    zeros = {round(float(z * z), 8) for zk in _zeros_below(radius, int(radius)) for z in zk}
    for lam in disc_d_660:
        assert round(float(lam), 8) in zeros


def test_disc_multiplicity_law(disc_d_660):
    # k = 0 zeros appear once, k >= 1 twice
    lam0 = exact.bessel_zero(0, 2) ** 2
    assert int(np.sum(np.isclose(disc_d_660, lam0, rtol=1e-12))) == 1
    lam2 = exact.bessel_zero(2, 1) ** 2
    assert int(np.sum(np.isclose(disc_d_660, lam2, rtol=1e-12))) == 2


@pytest.fixture(scope="module")
def disc_4000():
    return {bc: exact.disc_spectrum(4000, bc) for bc in ("D", "N")}


@pytest.mark.parametrize("bc", ["D", "N"])
@pytest.mark.parametrize("m", [1, 2, 3, 37, 660])
def test_disc_spectrum_prefix_of_larger(disc_4000, m, bc):
    # spectra gathered below different radii agree on their common prefix
    assert np.array_equal(exact.disc_spectrum(m, bc), disc_4000[bc][:m])


def _scipy_zeros(bc):
    from scipy import special

    return special.jnp_zeros if bc == "N" else special.jn_zeros


def _own_zeros(bc):
    """zeros(k, nt): the first nt zeros of J_k (of J_k' for Neumann) from exact's
    own bracketing and refinement, scanning order k alone."""

    def zeros(k, nt):
        radius = math.pi * (nt + 0.5 * k + 1.0)
        while True:
            order, kind, a, b, fa, fb = exact._zero_brackets(radius, k, k)
            mine = np.flatnonzero(kind == (bc == "N"))[:nt]
            if len(mine) == nt:
                return exact._refine_zeros(order[mine], kind[mine], a[mine], b[mine], fa[mine], fb[mine])
            radius *= 1.25

    return zeros


def _per_kind_disc_scan(count, bc, zeros):
    """Disc spectrum from one scan per kind: zeros(k, nt), the first nt zeros
    of order k, per order until an order has none below the radius."""
    radius = 2.0 * math.sqrt(count) + 2.0
    while True:
        parts = [np.zeros(1)] if bc == "N" else []
        nt, k = int(radius / math.pi) + 2, 0
        while True:
            while True:
                z = zeros(k, nt)
                if z[-1] >= radius:
                    z = z[z < radius]
                    break
                nt *= 2
            if k >= 1 and len(z) == 0:
                break
            parts.append(np.repeat(z * z, 2 if k else 1))
            nt, k = len(z) + 2, k + 1
        vals = np.sort(np.concatenate(parts))
        if len(vals) >= count:
            return vals[:count]
        radius *= 1.25


_SCAN_COUNTS = (1, 2, 3, 150, 600, 4000)


@pytest.fixture(scope="module")
def per_kind_scans():
    return {(m, bc): _per_kind_disc_scan(m, bc, _own_zeros(bc)) for m in _SCAN_COUNTS for bc in "DN"}


@pytest.fixture(scope="module")
def scipy_per_kind_scans():
    return {(m, bc): _per_kind_disc_scan(m, bc, _scipy_zeros(bc)) for m in _SCAN_COUNTS for bc in "DN"}


@pytest.mark.parametrize("order", ["DN", "ND"])
@pytest.mark.parametrize("m", _SCAN_COUNTS)
def test_one_disc_scan_matches_per_kind_scans_bit_for_bit(per_kind_scans, monkeypatch, m, order):
    # each zero depends on its own bracket alone, so scanning all orders and
    # both kinds at once changes no bit
    exact._disc_spectra.cache_clear()
    real, calls = exact._zero_brackets, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exact, "_zero_brackets", counting)
    for i, bc in enumerate(order):
        assert exact.disc_spectrum(m, bc).tobytes() == per_kind_scans[m, bc].tobytes()
        if i == 0:
            scanned = len(calls)
    assert scanned > 0 and len(calls) == scanned  # the second kind came from the cache


@pytest.mark.parametrize("bc", ["D", "N"])
@pytest.mark.parametrize("m", _SCAN_COUNTS)
def test_disc_spectrum_matches_scipy_per_kind_scans(scipy_per_kind_scans, m, bc):
    # Miller's zeros and scipy's agree to rounding, not bit for bit
    got, want = exact.disc_spectrum(m, bc), scipy_per_kind_scans[m, bc]
    assert len(got) == len(want) == m
    if bc == "N":
        assert got[0] == 0.0  # the zero mode
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_disc_spectrum_returns_copies():
    first = exact.disc_spectrum(40, "N")
    want = first.copy()
    first[:] = -1.0
    again = exact.disc_spectrum(40, "N")
    assert again.tobytes() == want.tobytes()
    again[0] = 7.0
    assert exact.disc_spectrum(40, "N").tobytes() == want.tobytes()


def test_spherical_right_triangle_spectrum():
    spec = exact.spherical_right_triangle_spectrum(10)
    assert spec.tolist() == [12, 30, 30, 56, 56, 56, 90, 90, 90, 90]
    # cumulative count through the i-th distinct value is i (i + 1) / 2
    full = exact.spherical_right_triangle_spectrum(210)
    for i in (1, 5, 12, 19):
        lam = 4 * i * i + 6 * i + 2
        assert int(np.sum(full <= lam)) == i * (i + 1) // 2


def test_hemisphere_spectrum():
    spec = exact.hemisphere_spectrum(10)
    assert spec.tolist() == [2, 6, 6, 12, 12, 12, 20, 20, 20, 20]
    full = exact.hemisphere_spectrum(260)
    assert full[251] == 506.0
    assert full[252] == 506.0
    assert full[0] == 2.0


@pytest.mark.parametrize(
    "case,count,area",
    [
        ("right-isosceles", 1500, 0.5),
        ("equilateral", 1200, math.sqrt(3) / 4),
        ("disc-d", 660, math.pi),
        ("disc-n", 550, math.pi),
        ("spherical-right-triangle", 800, math.pi / 2),
        ("hemisphere", 550, 2 * math.pi),
    ],
)
def test_weyl_law_on_oracles(case, count, area):
    vals = exact.oracle_spectrum(case, count)
    t = vals[-1]
    n_t = np.sum(vals <= t)
    assert n_t / t == pytest.approx(area / (4 * math.pi), rel=0.05)


@pytest.mark.parametrize("count", [1, 2, 37])
@pytest.mark.parametrize("case", sorted(exact.ORACLE_CASES))
def test_oracle_spectrum_is_a_fresh_ascending_float_array(case, count):
    got = exact.oracle_spectrum(case, count)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (count,)
    assert np.all(np.diff(got) >= 0)
    want = got.copy()
    got[:] = -1.0
    assert exact.oracle_spectrum(case, count).tobytes() == want.tobytes()


def test_oracle_case_errors():
    with pytest.raises(exact.OracleError):
        exact.oracle_spectrum("nonsense", 5)
    with pytest.raises(exact.OracleError):
        exact.right_isosceles_spectrum(0)
