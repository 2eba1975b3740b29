import dataclasses
import glob
import math
import os
import re

import pytest

from curvspec.analysis import RefinedCountParams
from curvspec.cli import main
from curvspec.configio import ConfigError, build_domain, load_domain_config, parse_angle
from curvspec.geometry import SpaceForm

from conftest import CONFIG_DIR, ORACLE_CONSTANTS, oracle_params


def test_parse_angle_forms():
    assert parse_angle(0.5, "k") == 0.5
    assert parse_angle("pi", "k") == pytest.approx(math.pi)
    assert parse_angle("pi/4", "k") == pytest.approx(math.pi / 4)
    assert parse_angle("-pi/6", "k") == pytest.approx(-math.pi / 6)
    assert parse_angle("2*pi/3", "k") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("0.55*pi", "k") == pytest.approx(0.55 * math.pi)
    assert parse_angle("1.25", "k") == 1.25
    with pytest.raises(ConfigError, match="'k'"):
        parse_angle("sin(1)", "k")


# the paper's closed forms of C; for the region between triangles the corner
# rule as written gives 1/5, where the source prints 1/15
_CLOSED_FORM_C = {"pentagon_dirichlet": 2.0 / 9.0, "hexagon_dirichlet": 5.0 / 24.0,
                  "six_star_dirichlet": 25.0 / 48.0, "region_between_triangles": 1.0 / 5.0}


def test_all_shipped_configs_load():
    # and each shipped named domain or oracle config has its exact constants
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert len(paths) >= 20
    pinned = set()
    for path in paths:
        cfg = load_domain_config(path)
        gc, stem = cfg.constants, os.path.basename(path)[:-5]
        assert gc.area > 0
        if stem in _CLOSED_FORM_C:
            assert gc.c == pytest.approx(_CLOSED_FORM_C[stem], abs=1e-12), stem
            pinned.add(stem)
        if cfg.oracle is not None:
            got = (gc.area, gc.perimeter_d, gc.perimeter_n, gc.c)
            assert got == pytest.approx(ORACLE_CONSTANTS[cfg.oracle], rel=1e-12, abs=1e-12), stem
            params = dataclasses.astuple(RefinedCountParams.from_constants(gc))
            assert params == pytest.approx(dataclasses.astuple(oracle_params(cfg.oracle)),
                                           rel=1e-12, abs=1e-12), stem
            pinned.add(cfg.oracle)
    assert pinned == set(_CLOSED_FORM_C) | set(ORACLE_CONSTANTS)


# float.hex of each disc config's area, perimeter_d, perimeter_n,
# boundary_curvature_integral, c1, c2 and c3: table.txt and every graph file's
# bytes depend on them, and a one-ulp move would pass a relative tolerance
_DISC_CONSTANTS_HEX = {
    "unit_disc_dirichlet": (
        "0x1.921fb54442d18p+1", "0x1.921fb54442d18p+2", "0x0.0p+0",
        "0x1.921fb54442d18p+2", "0x0.0p+0", "0x1.5555555555555p-3", "0x0.0p+0",
    ),
    "unit_disc_neumann": (
        "0x1.921fb54442d18p+1", "0x0.0p+0", "0x1.921fb54442d18p+2",
        "0x1.921fb54442d18p+2", "0x0.0p+0", "0x1.5555555555555p-3", "0x0.0p+0",
    ),
    "hyperbolic_disc_r1": (
        "0x1.b4c577fa28681p+1", "0x1.d89391901e179p+2", "0x0.0p+0",
        "0x1.364138a0ab82cp+3", "0x0.0p+0", "0x1.075a38be6a38bp-2", "-0x1.72be384efe380p-4",
    ),
    "hyperbolic_disc_rhalf": (
        "0x1.9a9252226c3f9p-1", "0x1.a316f74cad329p+1", "0x0.0p+0",
        "0x1.c571ff8890596p+2", "0x0.0p+0", "0x1.80e575d8e8bc0p-3", "-0x1.5c81041c9b355p-6",
    ),
    "hemisphere_dirichlet": (
        "0x1.921fb54442d17p+2", "0x1.921fb54442d18p+2", "0x0.0p+0",
        "0x1.bb9179a03e784p-52", "0x0.0p+0", "0x1.78832eec5d009p-57", "0x1.5555555555555p-3",
    ),
    "spherical_disc_quarter": (
        "0x1.d71e0e59b28cfp+0", "0x1.1c5831add62e4p+2", "0x0.0p+0",
        "0x1.1c5831add62e4p+2", "0x0.0p+0", "0x1.e2b7dddfefa67p-4", "0x1.8fe5999576088p-5",
    ),
}


@pytest.mark.parametrize("stem", sorted(_DISC_CONSTANTS_HEX))
def test_disc_config_constants_are_pinned_bit_for_bit(stem):
    gc = load_domain_config(os.path.join(CONFIG_DIR, stem + ".yaml")).constants
    names = ("area", "perimeter_d", "perimeter_n", "boundary_curvature_integral",
             "c1", "c2", "c3")
    assert tuple(getattr(gc, name).hex() for name in names) == _DISC_CONSTANTS_HEX[stem]


def test_polygon_config():
    cfg = build_domain(
        {
            "space": "euclidean",
            "shape": "polygon",
            "vertices": [[0, 0], [1, 0], [0, 1]],
            "bc": "D",
        }
    )
    assert cfg.domain.space is SpaceForm.EUCLIDEAN
    assert cfg.constants.area == pytest.approx(0.5)


def test_oracle_key_checked():
    with pytest.raises(ConfigError, match="'oracle'"):
        build_domain(
            {
                "space": "euclidean",
                "shape": "disc",
                "radius": 1.0,
                "oracle": "made-up",
            }
        )


def test_errors_name_offending_key():
    base = {"space": "euclidean", "shape": "polygon"}
    with pytest.raises(ConfigError, match="'vertices'"):
        build_domain(base)
    with pytest.raises(ConfigError, match="'shape'"):
        build_domain({"space": "euclidean", "shape": "cube"})
    with pytest.raises(ConfigError, match="'space'"):
        build_domain({"shape": "disc", "radius": 1.0})
    with pytest.raises(ConfigError, match="'radius'"):
        build_domain({"space": "euclidean", "shape": "disc", "radius": -2})
    with pytest.raises(ConfigError, match="'bc'"):
        build_domain(
            {
                "space": "euclidean",
                "shape": "polygon",
                "vertices": [[0, 0], [1, 0], [0, 1]],
                "bc": "X",
            }
        )
    with pytest.raises(ConfigError, match="'frobnicate'"):
        build_domain({**base, "vertices": [[0, 0], [1, 0], [0, 1]], "frobnicate": 1})
    with pytest.raises(ConfigError, match="'angles'"):
        build_domain(
            {"space": "hyperbolic", "shape": "hyperbolic_triangle", "angles": [1.2, 1.2, 1.2]}
        )
    with pytest.raises(ConfigError, match="'space'"):
        build_domain({"space": "euclidean", "shape": "hyperbolic_disc", "radius": 1.0})


@pytest.mark.parametrize(
    "raw, key, shape",
    [
        (
            {"space": "euclidean", "shape": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]],
             "radius": 1.0, "hole_bc": "N"},
            "radius",  # the first stray key in file order
            "polygon",
        ),
        (
            {"space": "spherical", "shape": "spherical_triangle",
             "angles": ["pi/2", "pi/2", "pi/2"], "circles": [1, 2, -1, 2]},
            "circles",
            "spherical_triangle",
        ),
        (
            {"space": "hyperbolic", "shape": "hyperbolic_triangle",
             "angles": ["pi/4", "pi/4", "pi/4"], "params": [-1.5, 0.7, -2.0, -0.5]},
            "params",
            "hyperbolic_triangle",
        ),
    ],
)
def test_key_the_shape_does_not_read_is_an_error(raw, key, shape):
    with pytest.raises(ConfigError, match=f"^key '{key}': not used by shape '{shape}'$"):
        build_domain(raw)


def test_triangle_spec_needs_exactly_one_form():
    with pytest.raises(ConfigError):
        build_domain(
            {
                "space": "hyperbolic",
                "shape": "hyperbolic_triangle",
                "angles": ["pi/4", "pi/4", "pi/4"],
                "circles": [1, 2, -1, 2],
            }
        )


def test_spherical_params_take_exactly_four_values():
    cfg = build_domain({**_SPH_PARAMS, "params": [-1.5, "pi/4", -2.0, "-pi/6"]})
    assert cfg.constants.area > 0
    for params in ([-1.5, "pi/4", -2.0], [-1.5, "pi/4", -2.0, "-pi/6", 2.0, -1.0]):
        with pytest.raises(ConfigError, match=r"^key 'params': params form takes \(t1, beta1, t2, beta2\)$"):
            build_domain({**_SPH_PARAMS, "params": params})


def test_missing_file():
    with pytest.raises(ConfigError):
        load_domain_config("/nonexistent/config.yaml")


_HOLED = {
    "space": "euclidean",
    "shape": "polygon_with_holes",
    "outer": [[0, 0], [10, 0], [10, 10], [0, 10]],
    "holes": [[[1, 1], [3, 1], [3, 3], [1, 3]], [[6, 6], [8, 6], [8, 8], [6, 8]]],
}
_HYP_CIRCLES = {"space": "hyperbolic", "shape": "hyperbolic_triangle"}
_SPH_PARAMS = {"space": "spherical", "shape": "spherical_triangle"}


@pytest.mark.parametrize(
    "raw, key",
    [
        ({**_HYP_CIRCLES, "circles": [1, None, -1, 2]}, "circles"),
        ({**_SPH_PARAMS, "params": [[1], 0.5, -2, 0.3]}, "params"),
        ({**_SPH_PARAMS, "params": [-1.5, "pi/4", {"t": 2}, "-pi/6"]}, "params"),
        ({**_HOLED, "hole_bc": ["D"]}, "hole_bc"),
        ({**_HOLED, "hole_bc": ["D", "N", "D"]}, "hole_bc"),
        ({**_HOLED, "hole_bc": 5}, "hole_bc"),
        ({**_HOLED, "hole_bc": "X"}, "hole_bc"),
        ({**_HOLED, "hole_bc": ["D", "Q"]}, "hole_bc"),
        ({"space": "euclidean", "shape": "disc", "radius": 1.0, "oracle": ["x"]}, "oracle"),
        ({"space": "euclidean", "shape": "disc", "radius": 1.0, "oracle": 3}, "oracle"),
    ],
)
def test_malformed_values_raise_config_error(raw, key):
    with pytest.raises(ConfigError, match=key):
        build_domain(raw)


_POLYGON = {"space": "euclidean", "shape": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}
_DISC = {"space": "euclidean", "shape": "disc", "radius": 1.0}


_NON_FINITE_CASES = [
    ("radius", lambda v: {**_DISC, "radius": v}),
    ("target_h", lambda v: {**_DISC, "target_h": v}),
    ("vertices[1]", lambda v: {**_POLYGON, "vertices": [[0, 0], [v, 0], [0, 1]]}),
    ("outer[2]", lambda v: {**_HOLED, "outer": [[0, 0], [10, 0], [10, v], [0, 10]]}),
    ("holes[0][3]", lambda v: {**_HOLED, "holes": [[[1, 1], [3, 1], [3, 3], [v, 3]]]}),
    ("angles[1]", lambda v: {**_HYP_CIRCLES, "angles": [0.5, v, 0.5]}),
    ("circles[2]", lambda v: {**_HYP_CIRCLES, "circles": [1, 2, v, 2]}),
    ("params[3]", lambda v: {**_SPH_PARAMS, "params": [-1.5, "pi/4", -2.0, v]}),
]


@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, 10**400], ids=["inf", "-inf", "nan", "int-over-float"]
)
@pytest.mark.parametrize("key, raw", _NON_FINITE_CASES, ids=[k for k, _ in _NON_FINITE_CASES])
def test_non_finite_numbers_are_config_errors_naming_the_key(key, raw, bad):
    with pytest.raises(ConfigError, match=rf"^key '{re.escape(key)}': must be finite"):
        build_domain(raw(bad))


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999", "pi/0", "-2*pi/0.0"])
def test_non_finite_angle_strings_are_config_errors_naming_the_key(text):
    with pytest.raises(ConfigError, match=r"^key 'angles\[0\]': must be finite"):
        build_domain({**_HYP_CIRCLES, "angles": [text, 0.5, 0.5]})
    with pytest.raises(ConfigError, match=r"^key 'params\[1\]': must be finite"):
        build_domain({**_SPH_PARAMS, "params": [-1.5, text, -2.0, "-pi/6"]})


def test_hole_bc_forms_accepted():
    for hole_bc in ("N", ["N", "D"], [["N", "D", "D", "D"], "D"]):
        cfg = build_domain({**_HOLED, "hole_bc": hole_bc})
        assert cfg.constants.area == pytest.approx(92.0)
    assert build_domain({**_HOLED, "hole_bc": "N"}).constants.perimeter_n == pytest.approx(16.0)


def test_nested_holes_config_rejected():
    nested = [[[2, 2], [8, 2], [8, 8], [2, 8]], [[4, 4], [6, 4], [6, 6], [4, 6]]]
    with pytest.raises(ConfigError, match="hole 1 lies inside hole 0"):
        build_domain({**_HOLED, "holes": nested})


def test_hyperbolic_disc_too_large_for_a_float_is_config_error():
    # e^(2R) overflows above R = 354.9; the radius limit stops it long before
    with pytest.raises(ConfigError, match="radius 400"):
        build_domain({"space": "hyperbolic", "shape": "hyperbolic_disc", "radius": 400})


def test_malformed_config_exits_2_through_cli(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("space: hyperbolic\nshape: hyperbolic_triangle\ncircles: [1, null, -1, 2]\n")
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    assert "circles" in capsys.readouterr().err
