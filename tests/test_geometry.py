import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from curvspec import geometry as geo


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


def test_pointwise_geodesic_curvature_signs():
    # boundary curving toward the interior is positive: 1/r, coth R, cot r
    e_disc = geo.euclidean_disc(2.0)
    assert geo.geodesic_curvature(
        geo.SpaceForm.EUCLIDEAN, e_disc.outer_loop[0], 0.3
    ) == pytest.approx(0.5, rel=1e-12)
    h_disc, _ = geo.build_hyperbolic_disc(1.2)
    for t in (0.0, 0.37, 0.81):
        assert geo.geodesic_curvature(
            geo.SpaceForm.HYPERBOLIC, h_disc.outer_loop[0], t
        ) == pytest.approx(1.0 / math.tanh(1.2), rel=1e-12)
    s_disc, _ = geo.build_spherical_disc(2.2)  # beyond the hemisphere: negative
    assert geo.geodesic_curvature(
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
    with pytest.raises(geo.GeometryError, match="hole 1 lies inside hole 0"):
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
