"""Domain configuration files (YAML): parsing, validation and construction.

Schema (see configs/ for complete examples per geometry):

    space: euclidean | hyperbolic | spherical
    shape: polygon | polygon_with_holes | disc | hyperbolic_triangle |
           hyperbolic_disc | spherical_triangle | spherical_disc
    bc: D | N | [per-arc list of D/N]
    # shape-specific keys:
    vertices: [[x, y], ...]            (polygon)
    outer: [[x, y], ...]               (polygon_with_holes)
    holes: [[[x, y], ...], ...]        (polygon_with_holes; hole_bc: D, N or one per hole)
    radius: r                          (disc / hyperbolic_disc / spherical_disc)
    angles: [a, b, c]                  (hyperbolic_triangle / spherical_triangle)
    circles: [a1, r1, a2, r2]          (hyperbolic_triangle)
    params: [t1, beta1, t2, beta2]     (spherical_triangle)
    oracle: <case name>                (optional: attach an exact spectrum)
    target_h: h                        (optional: initial mesh size)

Angles accept numbers or simple pi expressions ("pi/4", "-2*pi/3", "0.55*pi").
A key the shape does not read (say `radius` on a polygon) is an error.
Validation errors name the offending key.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import yaml

from . import geometry as geo
from .exact import ORACLE_CASES


class ConfigError(ValueError):
    """Malformed domain configuration."""


# shape -> (the space it lives in, the shape-specific keys it reads)
_SHAPES = {
    "polygon": (geo.SpaceForm.EUCLIDEAN, ("vertices",)),
    "polygon_with_holes": (geo.SpaceForm.EUCLIDEAN, ("outer", "holes", "hole_bc")),
    "disc": (geo.SpaceForm.EUCLIDEAN, ("radius",)),
    "hyperbolic_triangle": (geo.SpaceForm.HYPERBOLIC, ("angles", "circles")),
    "hyperbolic_disc": (geo.SpaceForm.HYPERBOLIC, ("radius",)),
    "spherical_triangle": (geo.SpaceForm.SPHERICAL, ("angles", "params")),
    "spherical_disc": (geo.SpaceForm.SPHERICAL, ("radius",)),
}
_COMMON_KEYS = ("space", "shape", "bc", "oracle", "target_h")

_PI_EXPR = re.compile(
    r"^\s*(-)?\s*(?:(\d+(?:\.\d+)?)\s*\*\s*)?pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$"
)


def _finite(v, key: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"key {key!r}: expected a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # nan, +-inf, or an int float() rejects
        raise ConfigError(f"key {key!r}: must be finite, got {v!r}")
    return float(v)


def parse_angle(value, key: str) -> float:
    """Finite number, or a simple pi expression like 'pi/4' or '-2*pi/3'."""
    if isinstance(value, str) and (m := _PI_EXPR.match(value)):
        num, den = float(m.group(2) or 1.0), float(m.group(3) or 1.0)
        value = (-1.0 if m.group(1) else 1.0) * num * math.pi / den if den else math.inf
    elif isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot interpret {value!r} as an angle") from None
    return _finite(value, key)


def _number(raw: dict, key: str, positive: bool = False) -> float:
    if key not in raw:
        raise ConfigError(f"key {key!r}: required for this shape")
    v = _finite(raw[key], key)
    if positive and not v > 0:
        raise ConfigError(f"key {key!r}: must be positive, got {v}")
    return v


def _vertex_list(raw, key: str) -> list[tuple[float, float]]:
    if not isinstance(raw, list) or len(raw) < 3:
        raise ConfigError(f"key {key!r}: expected a list of at least 3 [x, y] pairs")
    out = []
    for k, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"key {key!r}[{k}]: expected an [x, y] pair, got {item!r}")
        out.append(tuple(_finite(c, f"{key}[{k}]") for c in item))
    return out


def _bc_value(bc, key: str = "bc"):
    if isinstance(bc, str):
        if bc not in ("D", "N"):
            raise ConfigError(f"key {key!r}: must be 'D' or 'N', got {bc!r}")
        return bc
    if isinstance(bc, list):
        for k, b in enumerate(bc):
            if b not in ("D", "N"):
                raise ConfigError(f"key {key!r}[{k}]: must be 'D' or 'N', got {b!r}")
        return list(bc)
    raise ConfigError(f"key {key!r}: expected 'D'/'N' or a list, got {bc!r}")


@dataclass
class DomainConfig:
    """A parsed domain: geometry plus its exact constants and run hints."""

    domain: geo.Domain
    constants: geo.GeometricConstants
    oracle: str | None
    target_h: float | None
    name: str


def load_domain_config(path) -> DomainConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a key-value mapping at top level")
    return build_domain(raw, name=str(path))


def build_domain(raw: dict, name: str = "<config>") -> DomainConfig:
    if "space" not in raw:
        raise ConfigError("key 'space': required")
    if "shape" not in raw:
        raise ConfigError("key 'shape': required")
    try:
        space = geo.SpaceForm.parse(raw["space"])
    except geo.GeometryError as exc:
        raise ConfigError(f"key 'space': {exc}") from None
    shape = raw["shape"]
    if not isinstance(shape, str) or shape not in _SHAPES:
        raise ConfigError(f"key 'shape': {shape!r} is not one of {', '.join(_SHAPES)}")
    wanted, keys = _SHAPES[shape]
    if space is not wanted:
        raise ConfigError(
            f"key 'space': shape {shape!r} requires space '{wanted.value}', got '{space.value}'"
        )
    for key in raw:
        if key not in _COMMON_KEYS + keys:
            known = any(key in k for _, k in _SHAPES.values())
            why = f"not used by shape {shape!r}" if known else "unknown configuration key"
            raise ConfigError(f"key {key!r}: {why}")
    bc = _bc_value(raw.get("bc", "D"))

    oracle = raw.get("oracle")
    if oracle is not None and (not isinstance(oracle, str) or oracle not in ORACLE_CASES):
        raise ConfigError(
            f"key 'oracle': {oracle!r} is not one of {', '.join(sorted(ORACLE_CASES))}"
        )
    target_h = None
    if "target_h" in raw:
        target_h = _number(raw, "target_h", positive=True)

    try:
        domain, constants = _construct(shape, bc, raw)
    except geo.GeometryError as exc:
        raise ConfigError(f"shape {shape!r}: {exc}") from None
    return DomainConfig(
        domain=domain, constants=constants, oracle=oracle, target_h=target_h, name=name
    )


def _construct(shape, bc, raw):
    if shape == "hyperbolic_disc":
        return geo.build_hyperbolic_disc(_number(raw, "radius", positive=True), _single_bc(bc))
    if shape == "spherical_disc":
        return geo.build_spherical_disc(_number(raw, "radius", positive=True), _single_bc(bc))
    if shape == "hyperbolic_triangle":
        spec = _triangle_spec(raw, geo.HyperbolicTriangleSpec, _SHAPES[shape][1])
        return geo.build_hyperbolic_triangle(spec, bc)
    if shape == "spherical_triangle":
        spec = _triangle_spec(raw, geo.SphericalTriangleSpec, _SHAPES[shape][1])
        return geo.build_spherical_triangle(spec, bc)
    if shape == "polygon":
        domain = geo.euclidean_polygon(_vertex_list(raw.get("vertices"), "vertices"), bc)
    elif shape == "disc":
        domain = geo.euclidean_disc(_number(raw, "radius", positive=True), _single_bc(bc))
    else:  # polygon_with_holes
        outer = _vertex_list(raw.get("outer"), "outer")
        holes_raw = raw.get("holes")
        if not isinstance(holes_raw, list) or not holes_raw:
            raise ConfigError("key 'holes': expected a nonempty list of vertex lists")
        holes = [_vertex_list(h, f"holes[{k}]") for k, h in enumerate(holes_raw)]
        hole_bc = raw.get("hole_bc", "D")
        if not isinstance(hole_bc, list):
            hole_bc = _bc_value(hole_bc, "hole_bc")
        elif len(hole_bc) == len(holes):
            hole_bc = [_bc_value(b, f"hole_bc[{k}]") for k, b in enumerate(hole_bc)]
        else:
            raise ConfigError(f"key 'hole_bc': expected one entry per hole, got {hole_bc!r}")
        domain = geo.euclidean_polygon(outer, bc, holes=holes, hole_bc=hole_bc)
    return domain, geo.geometric_constants(domain)


def _single_bc(bc):
    if isinstance(bc, list):
        if len(bc) != 1:
            raise ConfigError("key 'bc': a disc has a single boundary arc")
        return bc[0]
    return bc


def _triangle_spec(raw, spec_cls, keys):
    given = [k for k in keys if k in raw]
    if len(given) != 1:
        raise ConfigError(f"key {keys[0]!r}: give exactly one of {' or '.join(map(repr, keys))}")
    key = given[0]
    vals = raw[key]
    if not isinstance(vals, list):
        raise ConfigError(f"key {key!r}: expected a list, got {vals!r}")
    parsed = tuple(parse_angle(v, f"{key}[{i}]") for i, v in enumerate(vals))
    try:
        return spec_cls(**{key: parsed})
    except geo.GeometryError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None
