import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from curvspec import geometry as geo
from curvspec.configio import load_domain_config

from conftest import CONFIG_DIR


def test_corner_phi_values():
    assert geo.corner_phi(math.pi) == 0.0
    assert geo.corner_phi(math.pi / 2) == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert geo.corner_phi(math.pi / 3) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert geo.corner_phi(4 * math.pi / 3) == pytest.approx(-7.0 / 288.0, abs=1e-15)


def test_corner_phi_domain_error():
    with pytest.raises(geo.GeometryError):
        geo.corner_phi(0.0)
    with pytest.raises(geo.GeometryError):
        geo.corner_phi(-1.0)


_ARCS = {
    "LineSegment": (geo.LineSegment, {"p0": (0.0, 0.0), "p1": (1.0, 0.0)}),
    "CircleArc": (geo.CircleArc, {"center": (0.0, 0.0), "radius": 1.0, "phi0": 0.0, "phi1": 1.0}),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind, field, index", [
    ("LineSegment", "p0", 0), ("LineSegment", "p0", 1), ("LineSegment", "p1", 0),
    ("LineSegment", "p1", 1), ("CircleArc", "center", 0), ("CircleArc", "center", 1),
    ("CircleArc", "radius", None), ("CircleArc", "phi0", None), ("CircleArc", "phi1", None),
])
def test_non_finite_arc_field_is_rejected_naming_it(kind, field, index, bad):
    cls, fields = _ARCS[kind]
    cls(**fields)  # the finite arc builds
    value = bad if index is None else tuple(bad if i == index else v
                                            for i, v in enumerate(fields[field]))
    with pytest.raises(geo.GeometryError, match=f"^{kind} {field} must be finite, got "):
        cls(**{**fields, field: value})


def test_corner_phi_inversion_symmetry():
    # phi(theta) = -phi(pi^2 / theta)
    rng = np.random.default_rng(42)
    for theta in rng.uniform(1e-3, 2 * math.pi, 20):
        assert geo.corner_phi(theta) == pytest.approx(
            -geo.corner_phi(math.pi**2 / theta), rel=1e-12, abs=1e-15
        )


def test_corner_constant_examples():
    pentagon = [(3 * math.pi / 5, False)] * 5
    assert geo.corner_constant_c1(pentagon) == pytest.approx(2.0 / 9.0, abs=1e-14)
    hexagon = [(2 * math.pi / 3, False)] * 6
    assert geo.corner_constant_c1(hexagon) == pytest.approx(5.0 / 24.0, abs=1e-14)
    star = [(math.pi / 3, False)] * 6 + [(4 * math.pi / 3, False)] * 6
    assert geo.corner_constant_c1(star) == pytest.approx(25.0 / 48.0, abs=1e-14)
    mixed = [(math.pi / 2, True)]
    assert geo.corner_constant_c1(mixed) == pytest.approx(-1.0 / 16.0, abs=1e-15)


# ---------------------------------------------------------------------------
# geometric_constants


def test_unit_disc_constants():
    gc = geo.geometric_constants(geo.euclidean_disc(1.0, "D"))
    assert gc.area == pytest.approx(math.pi, rel=1e-13)
    assert gc.perimeter_d == pytest.approx(2 * math.pi, rel=1e-13)
    assert gc.perimeter_n == 0.0
    assert gc.c1 == 0.0
    assert gc.c2 == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert gc.c3 == 0.0
    assert gc.c == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_equilateral_triangle_constants():
    dom = geo.euclidean_polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    gc = geo.geometric_constants(dom)
    assert gc.area == pytest.approx(math.sqrt(3) / 4, rel=1e-13)
    assert gc.perimeter_d == pytest.approx(3.0, rel=1e-13)
    assert gc.c1 == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert gc.c == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_polygon_fixture_constants():
    cases = [
        (geo.regular_polygon(5), 2.0 / 9.0, 5.0),
        (geo.regular_polygon(6), 5.0 / 24.0, 6.0),
        (geo.six_star(), 25.0 / 48.0, 12.0),
    ]
    for dom, c1, perim in cases:
        gc = geo.geometric_constants(dom)
        assert gc.c1 == pytest.approx(c1, abs=1e-13)
        assert gc.c == pytest.approx(c1, abs=1e-13)  # flat geodesic boundary
        assert gc.perimeter == pytest.approx(perim, rel=1e-12)


def test_region_between_triangles_constants():
    gc = geo.geometric_constants(geo.region_between_triangles())
    assert gc.euler_characteristic == 0
    assert gc.area == pytest.approx(3 * math.sqrt(3) / 16, rel=1e-12)
    assert gc.perimeter == pytest.approx(4.5, rel=1e-12)
    # Eq.-as-written value 1/5; the source prints 1/15 (recorded discrepancy)
    assert gc.c1 == pytest.approx(1.0 / 5.0, abs=1e-12)


def test_general_triangle_constants():
    t1, t2, t3 = math.pi / 4, math.pi / 5, 11 * math.pi / 20
    dom = geo.euclidean_polygon(geo.triangle_from_angles(t1, t2, t3))
    gc = geo.geometric_constants(dom)
    assert gc.c1 == pytest.approx(9.0 / 22.0, abs=1e-13)
    angles = sorted(th for th, _ in dom.corners)
    assert angles == pytest.approx(sorted([t1, t2, t3]), abs=1e-12)


def test_mixed_triangle_constant():
    # D on the two sides flanking the pi/5 corner, N on the third
    t1, t2, t3 = math.pi / 4, math.pi / 5, 11 * math.pi / 20
    dom = geo.euclidean_polygon(
        geo.triangle_from_angles(t1, t2, t3), bc=["D", "D", "N"]
    )
    gc = geo.geometric_constants(dom)
    assert gc.c1 == pytest.approx(1.0 / 22.0, abs=1e-13)
    assert gc.perimeter_n > 0 and gc.perimeter_d > 0


def test_smooth_mixed_junction_counts_as_corner():
    # straight-through D|N transition contributes phi(2 pi) - phi(pi) = -1/16
    dom = geo.euclidean_polygon(
        [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)], bc=["D", "N", "N", "N", "N"]
    )
    mixed = [(th, m) for th, m in dom.corners if m]
    assert len(mixed) == 2
    thetas = sorted(th for th, _ in mixed)
    assert thetas[1] == pytest.approx(math.pi, abs=1e-12)


def test_isometry_invariance():
    verts = [(0, 0), (2, 0), (1.3, 1.7), (0.2, 1.1)]
    gc0 = geo.geometric_constants(geo.euclidean_polygon(verts))
    shifted = [(x + 11.5, y - 3.25) for x, y in verts]
    gc1 = geo.geometric_constants(geo.euclidean_polygon(shifted))
    rolled = verts[2:] + verts[:2]
    gc2 = geo.geometric_constants(geo.euclidean_polygon(rolled))
    for a, b in ((gc0, gc1), (gc0, gc2)):
        assert a.area == pytest.approx(b.area, abs=1e-12)
        assert a.perimeter_d == pytest.approx(b.perimeter_d, abs=1e-12)
        assert a.c == pytest.approx(b.c, abs=1e-12)


# ---------------------------------------------------------------------------
# the boundary quadrature


def test_hyperbolic_nonvertical_segment_length():
    p0, p1 = (0.3, 0.7), (2.1, 1.9)
    seg = geo.LineSegment(p0, p1)
    want = math.dist(p0, p1) * math.log(p1[1] / p0[1]) / (p1[1] - p0[1])
    assert geo.arc_length(geo.SpaceForm.HYPERBOLIC, seg) == pytest.approx(want, rel=1e-14)
    assert geo.arc_length(geo.SpaceForm.HYPERBOLIC, seg.reversed()) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("radius", [0.5, 5.0, 15.0])
def test_hyperbolic_disc_circumference_quadrature(radius):
    # model circle from y = 1 to e^(2R): the length density peaks at its
    # bottom (t = 0 and 1) with width ~ e^-R; y = 1 + 2 r sin^2(pi t) avoids
    # the cancellation of the circle's own point(t) there
    r = 0.5 * math.expm1(2.0 * radius)
    want = 2.0 * math.pi * math.sinh(radius)

    def density(t):
        return 2.0 * math.pi * r / (1.0 + 2.0 * r * np.sin(math.pi * np.minimum(t, 1.0 - t)) ** 2)

    assert geo._quad(density, "circumference") == pytest.approx(want, rel=1e-12)
    if radius <= 5.0:  # along the circle itself, while point(t) keeps ~1e-13
        dom, _ = geo.build_hyperbolic_disc(radius)
        length = geo.arc_length(geo.SpaceForm.HYPERBOLIC, dom.outer_loop[0])
        assert length == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("radius", [0.1, 1.0, math.pi / 2, 2.5])
def test_spherical_cap_area_quadrature(radius):
    dom, _ = geo.build_spherical_disc(radius)
    area = geo.green_area(geo.SpaceForm.SPHERICAL, dom.outer_loop[0])
    assert area == pytest.approx(2.0 * math.pi * (1.0 - math.cos(radius)), rel=1e-13)


def test_shipped_boundary_integrals_match_quadpack(monkeypatch):
    ours, pairs = geo._quad, []

    def both(f, what):
        ref, _ = quad(lambda t: float(f(t)), 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=400)
        pairs.append((what, ours(f, what), ref))
        return pairs[-1][1]

    monkeypatch.setattr(geo, "_quad", both)
    for name in sorted(os.listdir(CONFIG_DIR)):
        load_domain_config(os.path.join(CONFIG_DIR, name))
    assert len(pairs) == 32  # the arcs of the 4 hyperbolic and 2 spherical triangles
    for what, val, ref in pairs:
        assert val == pytest.approx(ref, rel=1e-14, abs=1e-300), what


def test_divergent_integral_names_the_quantity():
    with pytest.raises(geo.GeometryError, match="quadrature for 1/t did not converge"):
        geo._quad(lambda t: 1.0 / t, "1/t")


# ---------------------------------------------------------------------------
# hyperbolic builders


def _hyp_dist(p, q):
    return math.acosh(
        1.0 + ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) / (2.0 * p[1] * q[1])
    )


def _hyp_area_from_vertices(verts):
    # independent oracle: side lengths from the distance formula, angles from
    # the hyperbolic law of cosines, area from the angle defect
    L = [
        _hyp_dist(verts[(i + 1) % 3], verts[(i + 2) % 3]) for i in range(3)
    ]
    total = 0.0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cos_a = (math.cosh(L[j]) * math.cosh(L[k]) - math.cosh(L[i])) / (
            math.sinh(L[j]) * math.sinh(L[k])
        )
        total += math.acos(cos_a)
    return math.pi - total, sorted(L)


def test_hyperbolic_triangle_angles_form():
    spec = geo.HyperbolicTriangleSpec(angles=(math.pi / 4,) * 3)
    dom, gc = geo.build_hyperbolic_triangle(spec)
    assert gc.area == pytest.approx(math.pi / 4, abs=1e-12)
    want = math.acosh(1.0 + math.sqrt(2.0))
    assert gc.perimeter == pytest.approx(3 * want, rel=1e-12)
    assert gc.c2 == 0.0
    assert gc.c3 == pytest.approx(-math.pi / 4 / (12 * math.pi), abs=1e-14)


def test_hyperbolic_triangle_matches_distance_oracle():
    spec = geo.HyperbolicTriangleSpec(angles=(math.pi / 4, math.pi / 5, math.pi / 3))
    dom, gc = geo.build_hyperbolic_triangle(spec)
    verts = []
    for arc in dom.outer_loop:
        verts.append(tuple(np.asarray(arc.point(0.0)).reshape(2)))
    area, sides = _hyp_area_from_vertices(verts)
    assert gc.area == pytest.approx(area, abs=1e-11)
    lengths = sorted(
        geo.arc_length(geo.SpaceForm.HYPERBOLIC, a) for a in dom.outer_loop
    )
    assert lengths == pytest.approx(sides, abs=1e-10)


def test_hyperbolic_triangle_circles_form_quadrature():
    # k = 4 equilateral tile, explicit circles; angle-defect area vs dblquad
    spec_a = geo.HyperbolicTriangleSpec(angles=(math.pi / 4,) * 3)
    dom, gc = geo.build_hyperbolic_triangle(spec_a)
    arcs = [a for a in dom.outer_loop if isinstance(a, geo.CircleArc)]
    (a1, r1), (a2, r2) = sorted(
        ((a.center[0], a.radius) for a in arcs), key=lambda t: t[0], reverse=True
    )
    dom2, gc2 = geo.build_hyperbolic_triangle(
        geo.HyperbolicTriangleSpec(circles=(a1, r1, a2, r2))
    )
    assert gc2.area == pytest.approx(gc.area, abs=1e-12)

    x3 = (r2**2 - r1**2 - a2**2 + a1**2) / (2 * (a1 - a2))
    val, err = dblquad(
        lambda y, x: 1.0 / y**2,
        0.0,
        x3,
        lambda x: math.sqrt(r1**2 - (x - a1) ** 2),
        lambda x: math.sqrt(r2**2 - (x - a2) ** 2),
        epsabs=1e-12,
        epsrel=1e-12,
    )
    assert err < 1e-9
    assert gc2.area == pytest.approx(val, abs=1e-9)


def test_hyperbolic_triangle_invalid():
    with pytest.raises(geo.GeometryError):
        geo.HyperbolicTriangleSpec(angles=(1.2, 1.2, 1.2))  # sum >= pi
    with pytest.raises(geo.ConstructionError):
        geo.build_hyperbolic_triangle(
            geo.HyperbolicTriangleSpec(circles=(0.5, 0.2, -0.5, 0.2))
        )


@pytest.mark.parametrize(
    "curvature, angles, geometry",
    [
        (-1.0, (math.pi / 2,) * 3, "hyperbolic"),  # angle sum above pi: cosh L = 0
        (1.0, (0.1,) * 3, "spherical"),  # angle sum below pi: cos L > 1
    ],
)
def test_law_of_cosines_rejects_impossible_angles(curvature, angles, geometry):
    with pytest.raises(geo.ConstructionError, match=f"no {geometry} triangle with these angles"):
        geo.law_of_cosines(curvature, *angles)


def test_hyperbolic_disc_constants():
    for radius in (0.5, 1.0, 2.0):
        dom, gc = geo.build_hyperbolic_disc(radius)
        assert gc.area == pytest.approx(4 * math.pi * math.sinh(radius / 2) ** 2, rel=1e-14)
        assert gc.perimeter_d == pytest.approx(2 * math.pi * math.sinh(radius), rel=1e-14)
        assert gc.c == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert gc.c2 == pytest.approx(math.cosh(radius) / 6.0, rel=1e-14)
        assert gc.c3 == pytest.approx(-(math.cosh(radius) - 1.0) / 6.0, rel=1e-14)


def test_hyperbolic_disc_quadrature_oracle():
    dom, gc = geo.build_hyperbolic_disc(1.0)
    arc = dom.outer_loop[0]
    b, r = arc.center[1], arc.radius
    val, err = dblquad(
        lambda y, x: 1.0 / y**2,
        -r,
        r,
        lambda x: b - math.sqrt(r**2 - x**2),
        lambda x: b + math.sqrt(r**2 - x**2),
        epsabs=1e-10,
    )
    assert gc.area == pytest.approx(val, abs=5e-9)
    # generic quadrature path agrees with the closed forms
    gq = geo.geometric_constants(dom)
    assert gq.area == pytest.approx(gc.area, rel=1e-11)
    assert gq.c == pytest.approx(gc.c, abs=1e-11)
    # perimeter oracle for R = 1/2: 2 pi sinh(1/2)
    _, gc_half = geo.build_hyperbolic_disc(0.5)
    assert gc_half.perimeter == pytest.approx(2 * math.pi * math.sinh(0.5), rel=1e-13)


def test_hyperbolic_disc_flat_limit():
    _, gc = geo.build_hyperbolic_disc(1e-4)
    assert gc.area / (math.pi * 1e-8) == pytest.approx(1.0, rel=1e-7)


def test_hyperbolic_disc_builds_at_its_radius_limit():
    limit = geo._HYPERBOLIC_DISC_MAX_RADIUS
    _, gc = geo.build_hyperbolic_disc(limit)
    assert gc.area == pytest.approx(4 * math.pi * math.sinh(limit / 2) ** 2, rel=1e-14)


@pytest.mark.parametrize("radius", [math.nextafter(15.0, math.inf), 15.25, 16.0, 17.0, 19.0, 100.0])
def test_hyperbolic_disc_above_its_radius_limit_names_radius_and_limit(radius):
    # 16 and 17 failed the Gauss-Bonnet audit, 19 and 100 claimed to leave
    # the upper half-plane
    assert radius > geo._HYPERBOLIC_DISC_MAX_RADIUS == 15.0
    with pytest.raises(geo.GeometryError, match=f"radius {radius} exceeds the limit 15.0"):
        geo.build_hyperbolic_disc(radius)


# ---------------------------------------------------------------------------
# spherical builders


def _sphere_point(u, v):
    s = u * u + v * v + 4.0
    return np.array([4.0 * u / s, 4.0 * v / s, 2.0 - 8.0 / s])


def _sph_area_from_vertices(verts):
    # independent oracle: l'Huilier's formula from chordal side lengths
    p = [_sphere_point(u, v) - np.array([0.0, 0.0, 1.0]) for u, v in verts]
    sides = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        sides.append(math.acos(np.clip(np.dot(p[j], p[k]), -1.0, 1.0)))
    a, b, c = sides
    s = 0.5 * (a + b + c)
    tan_term = math.sqrt(
        max(
            0.0,
            math.tan(s / 2)
            * math.tan((s - a) / 2)
            * math.tan((s - b) / 2)
            * math.tan((s - c) / 2),
        )
    )
    return 4.0 * math.atan(tan_term), sorted(sides)


def test_octant_triangle():
    dom, gc = geo.build_spherical_triangle(
        geo.SphericalTriangleSpec(angles=(math.pi / 2,) * 3)
    )
    assert gc.area == pytest.approx(math.pi / 2, abs=1e-12)
    assert gc.perimeter == pytest.approx(3 * math.pi / 2, rel=1e-12)
    assert gc.c == pytest.approx(11.0 / 48.0, abs=1e-13)
    lengths = sorted(geo.arc_length(geo.SpaceForm.SPHERICAL, a) for a in dom.outer_loop)
    assert lengths == pytest.approx([math.pi / 2] * 3, abs=1e-11)


def test_spherical_triangle_paper_parameters():
    # printed example (-1.5, pi/4, -2, -pi/6): tangent-derived corner angles
    # must reproduce the arctangent formulas of the projected circles
    t1, b1, t2, b2 = -1.5, math.pi / 4, -2.0, -math.pi / 6
    dom, gc = geo.build_spherical_triangle(
        geo.SphericalTriangleSpec(params=(t1, b1, t2, b2))
    )
    u1 = t1 * math.sin(b1) + math.hypot(t1 * math.sin(b1), 2.0)
    u2 = t2 * math.sin(b2) + math.hypot(t2 * math.sin(b2), 2.0)
    alpha1 = math.atan((-u1 + t1 * math.sin(b1)) / (t1 * math.cos(b1)))
    alpha2 = math.pi - math.atan((-u2 + t2 * math.sin(b2)) / (t2 * math.cos(b2)))
    angles = sorted(th for th, _ in dom.corners)
    alpha3 = gc.area + math.pi - alpha1 - alpha2
    assert angles == pytest.approx(sorted([alpha1, alpha2, alpha3]), abs=1e-10)
    verts = [tuple(np.asarray(a.point(0.0)).reshape(2)) for a in dom.outer_loop]
    area, _ = _sph_area_from_vertices(verts)
    assert gc.area == pytest.approx(area, abs=1e-10)


def test_spherical_triangle_random_specs_match_oracle():
    rng = np.random.default_rng(7)
    found = 0
    while found < 5:
        t_1, t_2 = rng.uniform(-3, 3, 2)
        b_1, b_2 = rng.uniform(-math.pi / 2 + 0.2, math.pi / 2 - 0.2, 2)
        try:
            dom, gc = geo.build_spherical_triangle(
                geo.SphericalTriangleSpec(params=(t_1, b_1, t_2, b_2))
            )
        except geo.GeometryError:
            continue
        verts = [tuple(np.asarray(a.point(0.0)).reshape(2)) for a in dom.outer_loop]
        area, _ = _sph_area_from_vertices(verts)
        assert gc.area == pytest.approx(area, abs=1e-8)
        found += 1


def test_spherical_disc_constants():
    dom, gc = geo.build_spherical_disc(math.pi / 2)
    assert gc.area == pytest.approx(2 * math.pi, rel=1e-13)
    assert gc.perimeter == pytest.approx(2 * math.pi, rel=1e-13)
    assert gc.c == pytest.approx(1.0 / 6.0, abs=1e-13)
    assert dom.outer_loop[0].radius == pytest.approx(2.0, rel=1e-14)

    _, gc2 = geo.build_spherical_disc(math.pi / 4)
    assert gc2.area == pytest.approx(2 * math.pi * (1 - math.sqrt(2) / 2), rel=1e-13)

    _, gc3 = geo.build_spherical_disc(1e-4)
    assert gc3.area / (math.pi * 1e-8) == pytest.approx(1.0, rel=1e-7)

    with pytest.raises(geo.GeometryError):
        geo.build_spherical_disc(math.pi)
    # generic quadrature path agrees on a larger-than-hemisphere disc
    dom4, gc4 = geo.build_spherical_disc(2.0)
    gq = geo.geometric_constants(dom4)
    assert gq.area == pytest.approx(gc4.area, rel=1e-11)
    assert gq.c == pytest.approx(gc4.c, abs=1e-11)


# ---------------------------------------------------------------------------
# invariants


def _mean_curvature_from(space, arc, t):
    # K1 averaged over the piece [t, t + 0.05] of the arc (intrinsic length)
    phi = arc.phi0 + t * arc.span
    piece = geo.CircleArc(arc.center, arc.radius, phi, phi + 0.05 * arc.span, arc.bc)
    return geo.curvature_integral(space, piece) / geo.arc_length(space, piece)


def test_pointwise_geodesic_curvature_signs():
    # boundary curving toward the interior is positive: 1/r, coth R, cot r,
    # constant along a geodesic circle, so on every short piece of it
    e_disc = geo.euclidean_disc(2.0)
    assert _mean_curvature_from(
        geo.SpaceForm.EUCLIDEAN, e_disc.outer_loop[0], 0.3
    ) == pytest.approx(0.5, rel=1e-12)
    h_disc, _ = geo.build_hyperbolic_disc(1.2)
    for t in (0.0, 0.37, 0.81):
        assert _mean_curvature_from(
            geo.SpaceForm.HYPERBOLIC, h_disc.outer_loop[0], t
        ) == pytest.approx(1.0 / math.tanh(1.2), rel=1e-12)
    s_disc, _ = geo.build_spherical_disc(2.2)  # beyond the hemisphere: negative
    assert _mean_curvature_from(
        geo.SpaceForm.SPHERICAL, s_disc.outer_loop[0], 0.5
    ) == pytest.approx(1.0 / math.tan(2.2), rel=1e-12)


def test_corner_free_simply_connected_c2_plus_c3():
    # C2 + C3 = 1/6 for the disc in all three geometries
    cases = [
        geo.geometric_constants(geo.euclidean_disc(1.7)),
        geo.build_hyperbolic_disc(0.8)[1],
        geo.build_spherical_disc(1.1)[1],
    ]
    for gc in cases:
        assert gc.c2 + gc.c3 == pytest.approx(1.0 / 6.0, abs=1e-12)


def _gauss_bonnet_residual(domain, gc):
    lhs = gc.area * domain.space.curvature + gc.boundary_curvature_integral
    lhs += sum(math.pi - th for th, _ in domain.corners)
    return lhs - 2.0 * math.pi * gc.euler_characteristic


def test_gauss_bonnet_randomized():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 20:
        kind = checked % 4
        try:
            if kind == 0:
                n = int(rng.integers(3, 9))
                radii = rng.uniform(0.5, 2.0, n)
                ang = np.sort(rng.uniform(0, 2 * math.pi, n))
                if np.min(np.diff(ang)) < 0.3:
                    continue
                verts = [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, ang)]
                dom = geo.euclidean_polygon(verts)
                gc = geo.geometric_constants(dom)
            elif kind == 1:
                a = rng.uniform(0.15, 0.8, 3)
                if a.sum() >= math.pi - 0.05:
                    continue
                dom, gc = geo.build_hyperbolic_triangle(
                    geo.HyperbolicTriangleSpec(angles=tuple(a))
                )
            elif kind == 2:
                dom, gc = geo.build_hyperbolic_disc(rng.uniform(0.2, 2.0))
            else:
                a = rng.uniform(0.7, 2.6, 3)
                if not math.pi + 0.1 < a.sum() < 3 * math.pi - 0.1:
                    continue
                dom, gc = geo.build_spherical_triangle(
                    geo.SphericalTriangleSpec(angles=tuple(a))
                )
        except geo.GeometryError:
            continue
        res = _gauss_bonnet_residual(dom, gc)
        assert abs(res) < 1e-9 * (1 + 2 * math.pi * abs(gc.euler_characteristic))
        checked += 1


def test_loop_closure_validation():
    with pytest.raises(geo.GeometryError):
        geo.Domain(
            geo.SpaceForm.EUCLIDEAN,
            [
                geo.LineSegment((0, 0), (1, 0)),
                geo.LineSegment((1, 0.5), (0, 0)),  # gap
            ],
        )


def test_self_intersecting_polygon_rejected():
    with pytest.raises(geo.GeometryError):
        geo.euclidean_polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


def test_hole_outside_outer_rejected():
    with pytest.raises(geo.GeometryError):
        geo.euclidean_polygon(
            [(0, 0), (1, 0), (1, 1), (0, 1)],
            holes=[[(2, 2), (3, 2), (3, 3), (2, 3)]],
        )
    with pytest.raises(geo.GeometryError, match="^hole 1 is not inside the outer loop$"):
        geo.euclidean_polygon(_square(0, 10), holes=[_square(2, 4), _square(12, 14)])
    with pytest.raises(geo.GeometryError, match="^hole 0 is not inside the outer loop$"):
        geo.euclidean_polygon(_square(0, 10), holes=[_square(-1, 11)])


def test_hyperbolic_domain_must_stay_in_upper_half_plane():
    with pytest.raises(geo.GeometryError):
        geo.Domain(
            geo.SpaceForm.HYPERBOLIC,
            [
                geo.LineSegment((0, -0.5), (1, -0.5)),
                geo.LineSegment((1, -0.5), (0.5, 1)),
                geo.LineSegment((0.5, 1), (0, -0.5)),
            ],
        )


def test_hyperbolic_arc_dipping_below_the_axis_between_its_ends_is_rejected():
    # both ends at y = 0.3, the bottom of the circle (inside the span) at y = -0.2
    arc = geo.CircleArc((0.0, 0.8), 1.0, -5 * math.pi / 6, -math.pi / 6)
    chord = geo.LineSegment(tuple(arc.point(1.0)), tuple(arc.point(0.0)))
    with pytest.raises(geo.GeometryError, match="upper half-plane"):
        geo.Domain(geo.SpaceForm.HYPERBOLIC, [arc, chord])


def _square(lo, hi):
    return [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]


def test_nested_or_coincident_holes_rejected():
    with pytest.raises(geo.GeometryError, match="hole 1 lies inside hole 0"):
        geo.euclidean_polygon(_square(0, 10), holes=[_square(2, 8), _square(4, 6)])
    with pytest.raises(geo.GeometryError, match="hole 0 lies inside hole 1"):
        geo.euclidean_polygon(_square(0, 10), holes=[_square(4, 6), _square(2, 8)])
    # coincident holes meet at every sample: some points test inside, some not
    with pytest.raises(geo.GeometryError, match="hole 1 overlaps hole 0"):
        geo.euclidean_polygon(_square(0, 10), holes=[_square(2, 5), _square(2, 5)])
    dom = geo.euclidean_polygon(_square(0, 10), holes=[_square(2, 4), _square(6, 8)])
    assert geo.geometric_constants(dom).area == pytest.approx(92.0)


def test_holes_meeting_only_at_chord_samples_rejected():
    # 33 chords per 3-unit side put both crossings, (5, 4) and (4, 5), on samples
    with pytest.raises(geo.GeometryError, match="hole 1 overlaps hole 0"):
        geo.euclidean_polygon(_square(0, 10), holes=[_square(2, 5), _square(4, 7)])
    # one chord spacing (3/33) apart: disjoint, accepted
    gap = 5.0 + 3.0 / 33.0
    side_by_side = [_square(2, 5), [(gap, 2), (8, 2), (8, 5), (gap, 5)]]
    dom = geo.euclidean_polygon(_square(0, 10), holes=side_by_side)
    assert geo.geometric_constants(dom).area == pytest.approx(100.0 - 9.0 - 3.0 * (8 - gap))


@pytest.mark.parametrize("outer, holes, loops", [
    # a triangle hole with one vertex on each side of the square in turn: the
    # crossing-number test alone took a point on a left or bottom edge as inside
    (_square(0, 10), [[(0, 5), (3, 4), (3, 6)]], (0, 1)),
    (_square(0, 10), [[(5, 0), (6, 3), (4, 3)]], (0, 1)),
    (_square(0, 10), [[(10, 5), (7, 6), (7, 4)]], (0, 1)),
    (_square(0, 10), [[(5, 10), (4, 7), (6, 7)]], (0, 1)),
    # the tip of a notch in the outer loop on a hole's edge
    ([(0, 0), (10, 0), (10, 10), (5.5, 10), (5, 6), (4.5, 10), (0, 10)], [_square(3, 6)], (0, 1)),
    # a vertex of the second hole on an edge of the first
    (_square(0, 10), [_square(2, 4), [(4, 3), (6, 2), (6, 4)]], (1, 2)),
])
def test_loops_that_touch_are_rejected(outer, holes, loops):
    match = rf"^boundary loops are not simple/disjoint \(loops {loops[0]} and {loops[1]} touch\)$"
    with pytest.raises(geo.GeometryError, match=match):
        geo.euclidean_polygon(outer, holes=holes)


def test_hole_in_the_notch_of_a_u_shaped_hole_is_accepted():
    u = [(0, 0), (3, 0), (3, 0.3), (0.3, 0.3), (0.3, 2.7), (3, 2.7), (3, 3), (0, 3)]
    bar = [(0.6, 0.6), (8, 0.6), (8, 2.4), (0.6, 2.4)]
    for holes in ([u, bar], [bar, u]):
        dom = geo.euclidean_polygon(_square(-10, 10), holes=holes)
        assert geo.geometric_constants(dom).area == pytest.approx(400.0 - 2.52 - 13.32, abs=1e-9)


def test_c_shaped_hole_inside_a_c_shaped_outer_loop_is_accepted():
    outer = [(0, 0), (10, 0), (10, 10), (0, 10), (0, 6), (6, 6), (6, 4), (0, 4)]
    c = [(1, 1), (8, 1), (8, 9), (1, 9), (1, 8), (7, 8), (7, 2), (1, 2)]
    dom = geo.euclidean_polygon(outer, holes=[c])
    assert geo.geometric_constants(dom).area == pytest.approx(68.0, abs=1e-9)


@st.composite
def _star_holes(draw):
    """(centre, vertices) of 1-3 holes, one per 10 x 10 cell of [-20, 20]^2, each
    star-shaped about its cell's centre: 2m vertices at angles (k + jitter) pi / m,
    with radii alternating in [0.8, 1.2] and [3.5, 4.5], so every short spoke is a
    reflex vertex."""
    holes = []
    for cell in draw(st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True)):
        m = draw(st.integers(3, 5))
        radii = [draw(st.floats(3.5, 4.5) if k % 2 else st.floats(0.8, 1.2)) for k in range(2 * m)]
        jitter = draw(st.lists(st.floats(-0.15, 0.15), min_size=2 * m, max_size=2 * m))
        cx, cy = 10.0 * (cell % 4) - 15.0, 10.0 * (cell // 4) - 15.0
        angles = (np.arange(2 * m) + np.asarray(jitter)) * math.pi / m
        vertices = [(cx + r * math.cos(a), cy + r * math.sin(a)) for r, a in zip(radii, angles)]
        holes.append(((cx, cy), vertices))
    return holes


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(holes=_star_holes())
def test_star_shaped_holes_apart_are_accepted_and_a_shrunk_copy_inside_is_not(holes):
    outer = _square(-20, 20)
    vertex_lists = [v for _, v in holes]
    dom = geo.euclidean_polygon(outer, holes=vertex_lists)
    want = 1600.0 - sum(abs(geo._signed_area(np.array(v))) for v in vertex_lists)
    assert geo.geometric_constants(dom).area == pytest.approx(want, abs=1e-9)
    (cx, cy), first = holes[0]
    shrunk = [(cx + 0.5 * (x - cx), cy + 0.5 * (y - cy)) for x, y in first]
    with pytest.raises(geo.GeometryError, match="^hole 1 lies inside hole 0$"):
        geo.euclidean_polygon(outer, holes=[first, shrunk])


def _first_crossing(polys):
    """Pure-Python pairwise chord-crossing test; loops of the first crossing pair, or None.

    Segments a < b cross when orient(a0, a1, b0) * orient(a0, a1, b1) and
    orient(b0, b1, a0) * orient(b0, b1, a1) are both below -eps, with
    orient(p, q, r) = (q - p) x (r - p) written out inline.
    """
    pts = np.concatenate(polys)
    scale = 1.0 + math.hypot(*(pts.max(axis=0) - pts.min(axis=0)))
    eps = (1e-12 * scale) ** 2
    segs = []
    for li, poly in enumerate(polys):
        n = len(poly)
        for i in range(n):
            (x0, y0), (x1, y1) = poly[i].tolist(), poly[(i + 1) % n].tolist()
            segs.append((li, i, n, x0, y0, x1, y1, x1 - x0, y1 - y0))
    for a, (la, ia, n, ax0, ay0, ax1, ay1, adx, ady) in enumerate(segs):
        for lb, ib, _, bx0, by0, bx1, by1, bdx, bdy in segs[a + 1 :]:
            if la == lb and (ib == ia + 1 or (ia == 0 and ib == n - 1)):
                continue
            d1 = adx * (by0 - ay0) - ady * (bx0 - ax0)
            d2 = adx * (by1 - ay0) - ady * (bx1 - ax0)
            if d1 * d2 < -eps:
                d3 = bdx * (ay0 - by0) - bdy * (ax0 - bx0)
                d4 = bdx * (ay1 - by0) - bdy * (ax1 - bx0)
                if d3 * d4 < -eps:
                    return la, lb
    return None


def _check_against_reference(outer, holes=()):
    loops = [geo.oriented(geo._polygon_loop(outer, "D"), ccw=True)]
    loops += [geo.oriented(geo._polygon_loop(h, "D"), ccw=False) for h in holes]
    want = _first_crossing([geo._chordize(loop) for loop in loops])
    try:
        geo.euclidean_polygon(outer, holes=holes)
    except geo.GeometryError as exc:
        assert want is not None, str(exc)
        assert f"not simple/disjoint (loops {want[0]} and {want[1]} cross)" in str(exc)
        return want
    assert want is None
    return None


def test_simplicity_check_matches_pairwise_reference():
    rng = np.random.default_rng(11)
    crossings = 0
    for _ in range(150):
        n = int(rng.integers(4, 11))
        outer = [tuple(v) for v in rng.uniform(-1, 1, (n, 2))]
        crossings += _check_against_reference(outer) is not None
    assert crossings > 75
    layouts = [
        [],
        [_square(2, 4), _square(6, 8)],
        [[(7, 4), (12, 4), (12, 6), (7, 6)]],  # crosses the outer loop
        [_square(2, 5), _square(4.5, 7.5)],  # two holes cross
        [_square(1, 3), _square(6, 8), [(2, 5), (7, 5), (7, 7), (2, 7)]],
        [[(10.05, 4), (7, 4), (7, 6), (10.05, 6)]],  # the hole's first chord crosses
    ]
    found = [_check_against_reference(_square(0, 10), holes) for holes in layouts]
    assert found == [None, None, (0, 1), (1, 2), (2, 3), (0, 1)]


def _unvalidated_polygon(outer, holes):
    # a flat polygon domain whose __post_init__ checks have not run
    dom = object.__new__(geo.Domain)
    dom.space = geo.SpaceForm.EUCLIDEAN
    dom.outer_loop = geo.oriented(geo._polygon_loop(outer, "D"), ccw=True)
    dom.holes = [geo.oriented(geo._polygon_loop(h, "D"), ccw=False) for h in holes]
    return dom


def _per_segment_first_crossing(dom):
    """Domain._validate_simple's crossing pass as it was, one segment a at a
    time over all later segments: the loops of the first crossing pair, or None."""
    polys = [geo._chordize(loop) for loop in dom.loops()]
    eps = (1e-12 * (1.0 + dom.model_diameter())) ** 2
    loop_of = np.repeat(np.arange(len(polys)), [len(poly) for poly in polys])
    p0 = np.concatenate(polys)
    p1 = np.concatenate([np.roll(poly, -1, axis=0) for poly in polys])
    (x0, y0), (x1, y1) = p0.T, p1.T
    dx, dy = x1 - x0, y1 - y0
    for a in range(len(p0) - 1):
        b = slice(a + 1, None)
        d1 = dx[a] * (y0[b] - y0[a]) - dy[a] * (x0[b] - x0[a])
        d2 = dx[a] * (y1[b] - y0[a]) - dy[a] * (x1[b] - x0[a])
        d3 = dx[b] * (y0[a] - y0[b]) - dy[b] * (x0[a] - x0[b])
        d4 = dx[b] * (y1[a] - y0[b]) - dy[b] * (x1[a] - x0[b])
        hit = np.flatnonzero((d1 * d2 < -eps) & (d3 * d4 < -eps))
        if hit.size:
            return int(loop_of[a]), int(loop_of[a + 1 + hit[0]])
    return None


def _crossing_message(dom):
    try:
        dom._validate_simple()
    except geo.GeometryError as exc:
        return str(exc)
    return None


def _assert_same_first_crossing(dom):
    got = _crossing_message(dom)
    want = _per_segment_first_crossing(dom)
    if want is None:
        assert got is None or "cross)" not in got
    else:
        assert got == f"boundary loops are not simple/disjoint (loops {want[0]} and {want[1]} cross)"


def _vertices(lo, hi, most):
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(coord, coord), min_size=3, max_size=most, unique=True)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(outer=_vertices(-1.0, 1.0, 36), holes=st.lists(_vertices(-0.3, 0.3, 6), max_size=2))
def test_blockwise_crossing_pass_matches_per_segment_loop(outer, holes):
    _assert_same_first_crossing(_unvalidated_polygon(outer, holes))


def test_crossing_pass_reaches_its_last_row_block():
    # 48 sides give 1584 chord points and three blocks of at most 2^20 pairs;
    # only the two holes, the last 264 points, cross
    outer = [(10 * math.cos(math.pi * k / 20), 10 * math.sin(math.pi * k / 20)) for k in range(40)]
    holes = [_square(-2, 1), _square(0.05, 3.05)]
    dom = _unvalidated_polygon(outer, holes)
    assert _per_segment_first_crossing(dom) == (1, 2)
    _assert_same_first_crossing(dom)
    with pytest.raises(geo.GeometryError, match=r"loops 1 and 2 cross"):
        geo.euclidean_polygon(outer, holes=holes)
