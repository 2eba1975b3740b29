"""The shared text-table format: byte identity with the per-row f-string loops
it replaced, the CSV reader's errors, and write -> read round trips."""

import math
import os
import re
import signal

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from curvspec import analysis, eigensolve, exact, fem, meshing, svgplot, textio
from curvspec import geometry as geo
from curvspec.cli import RunConfig, run_solve
from curvspec.configio import load_domain_config

from conftest import CONFIG_DIR

_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
    -1e308, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0, -123.456e-7, 2.5, 0.125, 1e16,
]
_INT64 = np.iinfo(np.int64)


def test_format_rows_matches_fstrings_on_extreme_values():
    x = np.array(_SPECIAL)
    assert textio.format_rows("%.17g", x) == "\n".join(f"{v:.17g}" for v in x)
    pairs = textio.format_rows("%.17g,%.2f", x, x[::-1])
    assert pairs == "\n".join(f"{a:.17g},{b:.2f}" for a, b in zip(x, x[::-1]))
    ints = np.array([_INT64.min, _INT64.min + 1, -1, 0, 1, _INT64.max], dtype=np.int64)
    assert textio.format_rows("%d %d", ints, ints[::-1], sep=";") == ";".join(
        f"{a} {b}" for a, b in zip(ints, ints[::-1])
    )
    flags = np.array([True, False, True])
    assert textio.format_rows("%d", flags) == "\n".join("1" if f else "0" for f in flags)
    assert textio.format_rows("%d", np.array([], dtype=int)) == ""


def test_format_rows_zero_and_one_row_and_mixed_types(tmp_path):
    empty = np.array([])
    assert textio.format_rows("%.17g,%d", empty, empty.astype(int), sep=" ") == ""
    assert textio.format_rows("%.17g,%d", [0.1], [7], sep=" ") == "0.10000000000000001,7"
    # one row mixing an int, a bool and a float column; sep only between rows
    cols = (np.array([3, -2]), np.array([True, False]), np.array([-0.0, math.inf]))
    assert textio.format_rows("%d|%d|%.17g", *cols, sep="") == "3|1|-0-2|0|inf"
    assert textio.format_rows("%d|%d|%.17g", *(c[:1] for c in cols)) == "3|1|-0"
    path = tmp_path / "t.csv"
    textio.write_table(path, "a,b", "%d,%.17g", empty.astype(int), empty)
    assert path.read_bytes() == b"a,b\n"
    textio.write_table(path, "a,b", "%d,%.17g", [True], [2.5])
    assert path.read_bytes() == b"a,b\n1,2.5\n"


def test_svg_polyline_of_one_point(tmp_path):
    path = tmp_path / "one.svg"
    svgplot.render_line_plot(path, "one", [3.0], [-7.5])
    # the lone point sits at the left edge, halfway up the widened y range
    assert '<polyline points="64.00,195.00"' in path.read_text()


# ---------------------------------------------------------------------------
# every writer against the row loop it replaced


def _old_write_spectrum_file(path, predicted, ratio, trusted, levels=(), level_ids=()):
    m = len(predicted)
    cols = ["index"] + [f"level_{l}" for l in level_ids] + ["predicted", "ratio", "trusted"]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(m):
            row = [str(i + 1)]
            for lev in levels:
                row.append(f"{lev[i]:.17g}" if i < len(lev) else "0")
            row.append(f"{predicted[i]:.17g}")
            row.append(f"{ratio[i]:.17g}")
            row.append("1" if trusted[i] else "0")
            fh.write(",".join(row) + "\n")


def _same_bytes(tmp_path, write_new, write_old) -> None:
    new, old = tmp_path / "new", tmp_path / "old"
    write_new(new)
    write_old(old)
    assert new.read_bytes() == old.read_bytes()


def test_spectrum_file_matches_row_loop(tmp_path):
    rng = np.random.default_rng(3)
    m = len(_SPECIAL)
    predicted = np.array(_SPECIAL)
    ratio = rng.standard_normal(m) * 1e-300
    trusted = rng.random(m) < 0.7
    levels = [predicted[:3], predicted[::-1][:9], -predicted, np.array([]), np.arange(m + 5.0)]
    kwargs = dict(predicted=predicted, ratio=ratio, trusted=trusted, levels=levels,
                  level_ids=[0, 1, 2, 3, 4])
    _same_bytes(
        tmp_path,
        lambda p: eigensolve.write_spectrum_file(p, **kwargs),
        lambda p: _old_write_spectrum_file(p, **kwargs),
    )
    _same_bytes(
        tmp_path,
        lambda p: eigensolve.write_spectrum_file(p, predicted[:0], ratio[:0], trusted[:0]),
        lambda p: _old_write_spectrum_file(p, predicted[:0], ratio[:0], trusted[:0]),
    )


def test_graph_and_gap_csvs_match_row_loop(tmp_path):
    eigs = np.sort(np.random.default_rng(5).uniform(0.0, 300.0, 400))
    eigs[10:13] = eigs[10]  # zero differences
    stats = analysis.gap_stats(eigs, 0.37)

    def old_gaps(base):
        with open(f"{base}_cdf.csv", "w", encoding="ascii") as fh:
            fh.write("d,cdf\n")
            for xi, yi in zip(stats.cdf_x, stats.cdf_y):
                fh.write(f"{xi:.17g},{yi:.17g}\n")
        with open(f"{base}_hist.csv", "w", encoding="ascii") as fh:
            fh.write("bin_left,count\n")
            for left, cnt in zip(stats.bin_edges[:-1], stats.bin_counts):
                fh.write(f"{left:.17g},{int(cnt)}\n")

    analysis.write_gap_csvs(str(tmp_path / "new"), stats)
    old_gaps(str(tmp_path / "old"))
    for suffix in ("_cdf.csv", "_hist.csv"):
        new = (tmp_path / f"new{suffix}").read_bytes()
        assert new == (tmp_path / f"old{suffix}").read_bytes()

    x, y = np.array(_SPECIAL), np.array(_SPECIAL[::-1])

    def old_graph(path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("t,value\n")
            for xi, yi in zip(x, y):
                fh.write(f"{xi:.17g},{yi:.17g}\n")

    _same_bytes(tmp_path, lambda p: analysis.write_graph_csv(p, x, y), old_graph)


def test_export_matrix_matches_row_loop(tmp_path):
    a = sp.random(40, 30, density=0.2, random_state=np.random.default_rng(9), format="csr")
    a.data[:len(_SPECIAL)] = _SPECIAL

    def old_export(path):
        coo = a.tocoo()
        order = np.lexsort((coo.col, coo.row))
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for r, c, val in zip(coo.row[order], coo.col[order], coo.data[order]):
                fh.write(f"{r} {c} {val:.17g}\n")

    _same_bytes(tmp_path, lambda p: fem.export_matrix(a, p), old_export)


def _old_write_table(path, slices, extr, oracle_vals):
    headers = ["", "Initial"] + [str(s.level) for s in slices[1:]] + ["Predicted"]
    if oracle_vals is not None:
        headers.append("True")
    rows = []
    for i in range(len(extr)):
        row = [str(i + 1)]
        for s in slices:
            row.append(f"{s.eigenvalues[i]:.7g}" if i < len(s) else "0")
        row.append(f"{extr.predicted[i]:.8g}")
        if oracle_vals is not None:
            row.append(f"{oracle_vals[i]:.8g}" if i < len(oracle_vals) else "")
        rows.append(row)
    widths = [max(len(h), *(len(r[c]) for r in rows)) for c, h in enumerate(headers)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n")
        for row in rows:
            fh.write("  ".join(v.rjust(w) for v, w in zip(row, widths)) + "\n")


@pytest.mark.parametrize("name,opts", [
    ("right_isosceles_dirichlet.yaml", dict(target_h=0.35)),  # an oracle column
    ("region_between_triangles.yaml", {}),  # level 0 has no free nodes: zeros
])
def test_table_matches_cell_loop(tmp_path, name, opts):
    cfg = RunConfig(config_path=os.path.join(CONFIG_DIR, name), out_dir=str(tmp_path),
                    refinements=3, num_eigs=6, quiet=True, **opts)
    res = run_solve(cfg)
    slices, extr, oracle = res["slices"], res["extrapolated"], res["config"].oracle
    oracle_vals = None if oracle is None else exact.oracle_spectrum(oracle, len(extr)).eigenvalues
    assert (oracle_vals is not None) == (name == "right_isosceles_dirichlet.yaml")
    assert (len(slices[0]) == 0) == (name == "region_between_triangles.yaml")
    _old_write_table(tmp_path / "old", slices, extr, oracle_vals)
    assert (tmp_path / "table.txt").read_bytes() == (tmp_path / "old").read_bytes()


def _old_save_mesh(mesh, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"mesh level {mesh.level}\n")
        for tag, table, fmt in (
            ("vertices", mesh.vertices, "%.17g"),
            ("triangles", mesh.triangles, "%d"),
            ("boundary_edges", mesh.boundary_edges, "%d"),
        ):
            fh.write(f"{tag} {len(table)}\n")
            np.savetxt(fh, table, fmt=fmt)
        fh.write(f"arcs {len(mesh.arcs)}\n")
        for arc in mesh.arcs:
            if isinstance(arc, geo.LineSegment):
                fh.write(
                    f"segment {arc.p0[0]:.17g} {arc.p0[1]:.17g} "
                    f"{arc.p1[0]:.17g} {arc.p1[1]:.17g} {arc.bc}\n"
                )
            else:
                fh.write(
                    f"arc {arc.center[0]:.17g} {arc.center[1]:.17g} {arc.radius:.17g} "
                    f"{arc.phi0:.17g} {arc.phi1:.17g} {arc.bc}\n"
                )


@pytest.mark.parametrize("name", ["unit_disc_dirichlet", "region_between_triangles",
                                  "spherical_right_triangle"])
def test_save_mesh_matches_savetxt(tmp_path, name):
    cfg = load_domain_config(os.path.join(CONFIG_DIR, f"{name}.yaml"))
    mesh = meshing.refine(meshing.triangulate(cfg.domain, cfg.target_h))
    _same_bytes(tmp_path, lambda p: meshing.save_mesh(mesh, p), lambda p: _old_save_mesh(mesh, p))


def _old_polyline(x, y) -> str:
    # render_line_plot's scaling, evaluated point by point as it used to be
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw = svgplot._W - svgplot._ML - svgplot._MR
    ph = svgplot._H - svgplot._MT - svgplot._MB

    def sx(v):
        return svgplot._ML + pw * (v - x_lo) / (x_hi - x_lo if x_hi > x_lo else 1.0)

    def sy(v):
        return svgplot._MT + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    return " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))


def test_svg_polyline_matches_per_point_loop(tmp_path):
    rng = np.random.default_rng(17)
    x = np.sort(rng.uniform(0.0, 700.0, 3000))
    y = np.cumsum(rng.standard_normal(3000))
    y[[5, 700]] = np.nan
    path = tmp_path / "plot.svg"
    svgplot.render_line_plot(path, "walk", x, y)
    assert f'<polyline points="{_old_polyline(x, y)}"' in path.read_text()


def _nice_ticks_or_timeout(lo, hi, seconds=5):
    def stalled(signum, frame):
        raise TimeoutError(f"_nice_ticks({lo!r}, {hi!r}) did not return in {seconds} s")

    old = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        return svgplot._nice_ticks(lo, hi)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("lo, hi", [
    (1e8, 1e8 + 1e-8),  # a step below the float spacing: t += step stalled
    (1e17, 1e17),  # lo + 1.0 == lo: log10 of a zero range
    (-1e17, -1e17),
])
def test_nice_ticks_return_on_ranges_below_float_spacing(lo, hi):
    ticks = _nice_ticks_or_timeout(lo, hi)
    assert 2 <= len(ticks) <= 6
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    assert lo <= ticks[0] and ticks[-1] <= max(hi, lo + 20 * math.ulp(lo))


def test_nice_ticks_unchanged_on_ordinary_ranges():
    # the ticks the accumulating loop gave before ranges were widened
    assert svgplot._nice_ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]
    assert svgplot._nice_ticks(-3.2, 7.9) == [-2.5, 0.0, 2.5, 5.0, 7.5]
    assert svgplot._nice_ticks(5.0, 5.0) == [
        5.0, 5.2, 5.4, 5.6000000000000005, 5.800000000000001, 6.000000000000001
    ]
    assert svgplot._nice_ticks(1e-9, 3e-9) == [1e-09, 1.5000000000000002e-09, 2e-09, 2.5e-09, 3e-09]


_MAX = 1.7976931348623157e308  # the largest float


@pytest.mark.parametrize("lo, hi", [
    (-1e308, 1e308),  # hi - lo overflows
    (_MAX, _MAX),  # lo + 20 float spacings overflows
    (-_MAX, _MAX),
    (-_MAX, -_MAX),
    (0.5 * _MAX, _MAX),
])
def test_nice_ticks_finite_on_ranges_at_the_float_limit(lo, hi):
    ticks = _nice_ticks_or_timeout(lo, hi)
    assert 2 <= len(ticks) <= 6
    assert all(math.isfinite(t) for t in ticks)
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    if (lo, hi) == (-1e308, 1e308):
        assert ticks == [-1e308, -5e307, 0.0, 5e307, 1e308]


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [-1e308, 1e308]),
    ([-_MAX, _MAX], [-_MAX, _MAX]),
    ([0.0, 1.0], [_MAX, _MAX]),
    ([0.0, 1.0], [1e20, 1e20]),  # y +- 1.0 rounds back to y: the range was empty
])
def test_svg_of_values_at_the_float_limit_has_finite_coordinates(tmp_path, x, y):
    path = tmp_path / "big.svg"
    svgplot.render_line_plot(path, "a < b & c", x, y)
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    assert ">a &lt; b &amp; c</text>" in text
    points = text.split('<polyline points="')[1].split('"')[0].split()
    for px, py in (p.split(",") for p in points):
        assert svgplot._ML <= float(px) <= svgplot._W - svgplot._MR
        assert svgplot._MT <= float(py) <= svgplot._H - svgplot._MB
    if y[0] == -1e308:
        assert ">-1.00e+308</text>" in text and ">1.00e+308</text>" in text



@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [1e20, 1e20]),  # y ticks at -46.5 and -288 px
    ([_MAX, _MAX], [0.0, 1.0]),  # x ticks near -2e302 px
])
def test_svg_ticks_of_a_widened_range_stay_on_the_axes(tmp_path, x, y):
    # _nice_ticks widens a range narrower than 20 float spacings upward; the
    # plot scales by its own range, so the ticks beyond it are left out
    path = tmp_path / "ticks.svg"
    svgplot.render_line_plot(path, "t", x, y)
    text = path.read_text()
    bottom = svgplot._H - svgplot._MB
    x_ticks = re.findall(rf'<line x1="([^"]+)" y1="{bottom}" x2="[^"]+" y2="{bottom + 5}"', text)
    y_ticks = re.findall(rf'<line x1="{svgplot._ML - 5}" y1="([^"]+)"', text)
    assert y_ticks and all(svgplot._MT <= float(py) <= bottom for py in y_ticks)
    assert all(svgplot._ML <= float(px) <= svgplot._W - svgplot._MR for px in x_ticks)
    labels = re.findall(r'font-size="11">', text)
    assert len(labels) == len(x_ticks) + len(y_ticks)

# ---------------------------------------------------------------------------
# the reader's errors


def test_read_graph_csv_errors_name_path_and_line(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("t,val\n1,2\n")
    with pytest.raises(analysis.AnalysisError, match=r"g\.csv:1: not a graph CSV"):
        analysis.read_graph_csv(path)
    path.write_text("t,value\n1,2\n\n1,2,3\n")
    with pytest.raises(analysis.AnalysisError, match=r"g\.csv:4: expected 2 columns, got 3"):
        analysis.read_graph_csv(path)
    path.write_text("t,value\n1,x2\n")
    with pytest.raises(analysis.AnalysisError, match=r"g\.csv:2: malformed number in '1,x2'"):
        analysis.read_graph_csv(path)
    path.write_bytes(b"t,value\n1,2\n3,4\xc3\xa9\n")  # not ASCII
    with pytest.raises(analysis.AnalysisError, match=r"g\.csv:3: malformed number"):
        analysis.read_graph_csv(path)
    path.write_bytes(b"t,v\xe4lue\n1,2\n")
    with pytest.raises(analysis.AnalysisError, match=r"g\.csv:1: not a graph CSV"):
        analysis.read_graph_csv(path)


# ---------------------------------------------------------------------------
# round trips: every finite float comes back bit for bit

_PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)
_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@_PROPERTY_SETTINGS
@given(data=st.data())
def test_spectrum_file_roundtrip_is_bit_identical(tmp_path_factory, data):
    m = data.draw(st.integers(1, 12))
    column = st.lists(_finite, min_size=m, max_size=m)
    predicted, ratio = np.array(data.draw(column)), np.array(data.draw(column))
    trusted = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    levels = [np.array(data.draw(st.lists(_finite, max_size=m))) for _ in range(3)]
    path = tmp_path_factory.mktemp("spectrum") / "s.csv"
    eigensolve.write_spectrum_file(path, predicted, ratio, trusted, levels, [3, 4, 5])
    spec = eigensolve.read_spectrum_file(path)
    assert spec.level_ids == [3, 4, 5]
    for lev, got in zip(levels, spec.levels):
        assert _bits(got) == _bits(np.concatenate([lev, np.zeros(m - len(lev))]))
    assert _bits(spec.predicted) == _bits(predicted)
    assert _bits(spec.ratio) == _bits(ratio)
    assert spec.trusted.tolist() == trusted.tolist()


@_PROPERTY_SETTINGS
@given(xy=st.lists(st.tuples(_finite, _finite), max_size=40))
def test_graph_csv_roundtrip_is_bit_identical(tmp_path_factory, xy):
    x, y = (np.array([p[k] for p in xy], dtype=float) for k in (0, 1))
    path = tmp_path_factory.mktemp("graph") / "g.csv"
    analysis.write_graph_csv(path, x, y)
    x2, y2 = analysis.read_graph_csv(path)
    assert _bits(x2) == _bits(x)
    assert _bits(y2) == _bits(y)
