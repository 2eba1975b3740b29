import glob
import math
import os

import pytest

from curvspec.cli import main
from curvspec.configio import ConfigError, build_domain, load_domain_config, parse_angle
from curvspec.geometry import SpaceForm

from conftest import CONFIG_DIR


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


def test_all_shipped_configs_load():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert len(paths) >= 20
    for path in paths:
        cfg = load_domain_config(path)
        assert cfg.constants.area > 0


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


def test_spherical_params_with_explicit_roots():
    t1, b1 = -1.5, math.pi / 4
    u1_other = t1 * math.sin(b1) - math.hypot(t1 * math.sin(b1), 2.0)
    cfg = build_domain(
        {
            "space": "spherical",
            "shape": "spherical_triangle",
            "params": [-1.5, "pi/4", -2.0, "-pi/6"],
        }
    )
    assert cfg.constants.area > 0
    with pytest.raises(ConfigError):
        build_domain(
            {
                "space": "spherical",
                "shape": "spherical_triangle",
                "params": [-1.5, "pi/4", -2.0, "-pi/6", 99.0, 1.0],
            }
        )


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
    # e^(2R) overflows above R = 354.9
    with pytest.raises(ConfigError, match="radius 400"):
        build_domain({"space": "hyperbolic", "shape": "hyperbolic_disc", "radius": 400})


def test_malformed_config_exits_2_through_cli(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("space: hyperbolic\nshape: hyperbolic_triangle\ncircles: [1, null, -1, 2]\n")
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    assert "circles" in capsys.readouterr().err
