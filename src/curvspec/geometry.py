"""Domains on constant-curvature surfaces and their geometric constants.

Domains live in conformally flat model coordinates: the plane itself
(curvature 0), the upper half-plane (curvature -1), and the stereographic
image of the unit sphere (curvature +1, conformal factor 4/(u^2+v^2+4)).
Boundaries are chains of line segments and circle arcs; every constructed
domain is audited against the Gauss-Bonnet identity
    A*K2 + int_dS K1 + sum_j (pi - theta_j) = 2*pi*chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.integrate import quad

DIRICHLET = "D"
NEUMANN = "N"

_CLOSURE_TOL = 1e-12
_SMOOTH_TOL = 1e-9
_GB_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid domain data or a failed geometric consistency check."""


class ConstructionError(GeometryError):
    """A domain builder received parameters with no valid realization."""


class SpaceForm(Enum):
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"
    SPHERICAL = "spherical"

    @property
    def curvature(self) -> float:
        return {"euclidean": 0.0, "hyperbolic": -1.0, "spherical": 1.0}[self.value]

    @classmethod
    def parse(cls, name: str) -> "SpaceForm":
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise GeometryError(
                f"unknown space {name!r}; expected euclidean, hyperbolic or spherical"
            ) from None


def conformal_factor(space: SpaceForm, x, y):
    """Conformal factor rho with metric rho^2 (dx^2 + dy^2)."""
    if space is SpaceForm.EUCLIDEAN:
        return np.ones_like(np.asarray(x, dtype=float))
    if space is SpaceForm.HYPERBOLIC:
        return 1.0 / np.asarray(y, dtype=float)
    return 4.0 / (np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2 + 4.0)


def _grad_log_factor(space: SpaceForm, x: float, y: float) -> tuple[float, float]:
    # gradient of log(rho) at a point
    if space is SpaceForm.EUCLIDEAN:
        return (0.0, 0.0)
    if space is SpaceForm.HYPERBOLIC:
        return (0.0, -1.0 / y)
    s = x * x + y * y + 4.0
    return (-2.0 * x / s, -2.0 * y / s)


# ---------------------------------------------------------------------------
# Boundary arcs


def _check_bc(bc: str) -> str:
    if bc not in (DIRICHLET, NEUMANN):
        raise GeometryError(f"boundary condition must be 'D' or 'N', got {bc!r}")
    return bc


@dataclass(frozen=True)
class LineSegment:
    p0: tuple[float, float]
    p1: tuple[float, float]
    bc: str = DIRICHLET

    def __post_init__(self):
        _check_bc(self.bc)
        if self.chord_length() == 0.0:
            raise GeometryError(f"degenerate segment at {self.p0}")

    def point(self, t: float) -> np.ndarray:
        p0 = np.asarray(self.p0, dtype=float)
        p1 = np.asarray(self.p1, dtype=float)
        return p0 + np.multiply.outer(np.asarray(t, dtype=float), p1 - p0).reshape(
            np.shape(t) + (2,)
        )

    def velocity(self, t: float) -> np.ndarray:
        d = np.asarray(self.p1, dtype=float) - np.asarray(self.p0, dtype=float)
        return np.broadcast_to(d, np.shape(t) + (2,)).copy()

    def euclid_curvature(self) -> float:
        return 0.0

    def chord_length(self) -> float:
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])

    def reversed(self) -> "LineSegment":
        return LineSegment(self.p1, self.p0, self.bc)


@dataclass(frozen=True)
class CircleArc:
    """Arc traversed linearly in angle from phi0 to phi1 (phi1 < phi0 is clockwise)."""

    center: tuple[float, float]
    radius: float
    phi0: float
    phi1: float
    bc: str = DIRICHLET

    def __post_init__(self):
        _check_bc(self.bc)
        if not self.radius > 0.0:
            raise GeometryError(f"circle arc radius must be positive, got {self.radius}")
        span = self.phi1 - self.phi0
        if span == 0.0:
            raise GeometryError("degenerate circle arc (zero angular span)")
        if abs(span) > 2.0 * math.pi + 1e-12:
            raise GeometryError("circle arc span exceeds a full turn")

    @property
    def span(self) -> float:
        return self.phi1 - self.phi0

    def point(self, t: float) -> np.ndarray:
        phi = self.phi0 + np.asarray(t, dtype=float) * self.span
        c = np.asarray(self.center, dtype=float)
        return c + self.radius * np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    def velocity(self, t: float) -> np.ndarray:
        phi = self.phi0 + np.asarray(t, dtype=float) * self.span
        return self.radius * self.span * np.stack([-np.sin(phi), np.cos(phi)], axis=-1)

    def euclid_curvature(self) -> float:
        # signed w.r.t. the left normal of the traversal direction
        return math.copysign(1.0, self.span) / self.radius

    def chord_length(self) -> float:
        return self.radius * abs(self.span)

    def reversed(self) -> "CircleArc":
        return CircleArc(self.center, self.radius, self.phi1, self.phi0, self.bc)


Arc = LineSegment | CircleArc


def unit_tangent(arc: Arc, t: float) -> np.ndarray:
    v = np.asarray(arc.velocity(t), dtype=float).reshape(2)
    return v / np.linalg.norm(v)


def is_geodesic(space: SpaceForm, arc: Arc, tol: float = 1e-12) -> bool:
    """Whether the arc is a geodesic of the space form (in model coordinates)."""
    if space is SpaceForm.EUCLIDEAN:
        return isinstance(arc, LineSegment)
    if space is SpaceForm.HYPERBOLIC:
        if isinstance(arc, LineSegment):
            return abs(arc.p1[0] - arc.p0[0]) <= tol * (1.0 + arc.chord_length())
        return abs(arc.center[1]) <= tol * arc.radius
    if isinstance(arc, LineSegment):
        cross = arc.p0[0] * arc.p1[1] - arc.p0[1] * arc.p1[0]
        return abs(cross) <= tol * (1.0 + arc.chord_length()) ** 2
    cx, cy = arc.center
    return abs(cx * cx + cy * cy + 4.0 - arc.radius**2) <= tol * (4.0 + arc.radius**2)


# ---------------------------------------------------------------------------
# Per-arc integrals (intrinsic length, Green-theorem area, geodesic curvature)


def _quad(f, what: str) -> float:
    val, err = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=400)
    if err > 1e-9 * (1.0 + abs(val)):
        raise GeometryError(
            f"quadrature for {what} did not converge (achieved tolerance {err:.3e})"
        )
    return val


def arc_length(space: SpaceForm, arc: Arc) -> float:
    """Intrinsic length of the arc."""
    if space is SpaceForm.EUCLIDEAN:
        return arc.chord_length()
    if space is SpaceForm.HYPERBOLIC and isinstance(arc, LineSegment):
        if abs(arc.p1[0] - arc.p0[0]) == 0.0:
            return abs(math.log(arc.p1[1] / arc.p0[1]))

    def f(t):
        p = arc.point(t)
        v = arc.velocity(t)
        return float(conformal_factor(space, p[0], p[1]) * math.hypot(v[0], v[1]))

    return _quad(f, "arc length")


def green_area(space: SpaceForm, arc: Arc) -> float:
    """Contribution of the arc to the intrinsic area, by Green's theorem.

    Euclidean: contour x dy. Hyperbolic: contour dx / y. Spherical:
    contour 2 (u dv - v du) / (u^2 + v^2 + 4). Loops must run with the
    domain on the left (outer counterclockwise, holes clockwise).
    """
    if space is SpaceForm.EUCLIDEAN:
        # closed forms
        if isinstance(arc, LineSegment):
            return 0.5 * (arc.p0[0] + arc.p1[0]) * (arc.p1[1] - arc.p0[1])
        cx = arc.center[0]
        r = arc.radius
        s0, s1 = math.sin(arc.phi0), math.sin(arc.phi1)
        return cx * r * (s1 - s0) + r * r * (
            0.5 * arc.span + 0.25 * (math.sin(2 * arc.phi1) - math.sin(2 * arc.phi0))
        )
    if space is SpaceForm.HYPERBOLIC:

        def f(t):  # exactly 0 on a vertical segment
            p = arc.point(t)
            v = arc.velocity(t)
            return v[0] / p[1]

        return _quad(f, "hyperbolic area")

    def f(t):
        p = arc.point(t)
        v = arc.velocity(t)
        return 2.0 * (p[0] * v[1] - p[1] * v[0]) / (p[0] ** 2 + p[1] ** 2 + 4.0)

    return _quad(f, "spherical area")


def _curvature_density(space: SpaceForm, arc: Arc, t: float):
    """(kappa_e - d(log rho)/dn, Euclidean speed, point) at t, with n the left
    normal of the traversal; K1 = kappa_e - d(log rho)/dn over rho."""
    p = np.asarray(arc.point(t), dtype=float).reshape(2)
    v = np.asarray(arc.velocity(t), dtype=float).reshape(2)
    speed = math.hypot(v[0], v[1])
    nx, ny = -v[1] / speed, v[0] / speed
    gx, gy = _grad_log_factor(space, p[0], p[1])
    return arc.euclid_curvature() - (gx * nx + gy * ny), speed, p


def curvature_integral(space: SpaceForm, arc: Arc) -> float:
    """Integral of the geodesic curvature K1 along the arc (intrinsic).

    K1 ds = (kappa_e - d(log rho)/dn) ds_euclid with n the left normal of the
    traversal, so the integrand needs no metric factor.
    """
    if is_geodesic(space, arc):
        return 0.0
    if space is SpaceForm.EUCLIDEAN:
        return 0.0 if isinstance(arc, LineSegment) else arc.span

    def f(t):
        k, speed, _ = _curvature_density(space, arc, t)
        return k * speed

    return _quad(f, "boundary curvature")


def geodesic_curvature(space: SpaceForm, arc: Arc, t: float) -> float:
    """Pointwise geodesic curvature K1, positive when curving into the domain."""
    k, _, p = _curvature_density(space, arc, t)
    return k / float(conformal_factor(space, p[0], p[1]))


# ---------------------------------------------------------------------------
# Corner functions


def corner_phi(theta: float) -> float:
    """Corner contribution (1/24)(pi/theta - theta/pi) of interior angle theta."""
    if theta <= 0.0:
        raise GeometryError(f"corner angle must be positive, got {theta}")
    return (math.pi / theta - theta / math.pi) / 24.0


def corner_constant_c1(corners) -> float:
    """Sum corner terms: phi(theta) for same-BC corners, phi(2 theta) - phi(theta) mixed."""
    total = 0.0
    for theta, mixed in corners:
        if mixed:
            total += corner_phi(2.0 * theta) - corner_phi(theta)
        else:
            total += corner_phi(theta)
    return total


# ---------------------------------------------------------------------------
# Domains


def _chordize(loop: list[Arc], per_arc: int = 33) -> np.ndarray:
    # two loops may cross exactly at samples; _validate_simple checks for that
    pts = []
    for arc in loop:
        ts = np.linspace(0.0, 1.0, per_arc, endpoint=False)
        pts.append(np.asarray(arc.point(ts)))
    return np.concatenate(pts, axis=0)


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _points_in_poly(poly: np.ndarray, pts) -> np.ndarray:
    """Crossing-number test: which of the points (rows of `pts`) lie inside `poly`."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, y = pts[:, :1], pts[:, 1:]
    px, py = poly[:, 0], poly[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    cond = (py > y) != (qy > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = px + (y - py) * (qx - px) / (qy - py)
    return np.count_nonzero(cond & (x < xint), axis=1) % 2 == 1


def oriented(loop: list[Arc], ccw: bool = True) -> list[Arc]:
    """Return the loop traversed counterclockwise (or clockwise)."""
    area = _signed_area(_chordize(loop))
    if (area > 0.0) != ccw:
        return [arc.reversed() for arc in reversed(loop)]
    return list(loop)


@dataclass
class Domain:
    """A bounded region of a space form, described by its boundary arcs.

    The outer loop runs counterclockwise and holes clockwise, so the domain
    is always on the left of the traversal. Corners are derived at arc
    junctions; a junction is a corner when the tangent turns or when the
    boundary condition changes across it.
    """

    space: SpaceForm
    outer_loop: list[Arc]
    holes: list[list[Arc]] = field(default_factory=list)
    corners: list[tuple[float, bool]] = field(init=False)

    def __post_init__(self):
        self.outer_loop = oriented(self.outer_loop, ccw=True)
        self.holes = [oriented(h, ccw=False) for h in self.holes]
        self._validate_points()
        self._validate_closure()
        self.corners = self._extract_corners()
        self._validate_simple()

    # -- structure ---------------------------------------------------------
    def loops(self) -> list[list[Arc]]:
        return [self.outer_loop] + list(self.holes)

    def arcs(self) -> list[Arc]:
        out: list[Arc] = []
        for loop in self.loops():
            out.extend(loop)
        return out

    def bbox(self) -> tuple[float, float, float, float]:
        pts = np.concatenate([_chordize(loop) for loop in self.loops()], axis=0)
        return (
            float(pts[:, 0].min()),
            float(pts[:, 1].min()),
            float(pts[:, 0].max()),
            float(pts[:, 1].max()),
        )

    def model_diameter(self) -> float:
        x0, y0, x1, y1 = self.bbox()
        return math.hypot(x1 - x0, y1 - y0)

    # -- validation --------------------------------------------------------
    def _validate_points(self):
        if self.space is not SpaceForm.HYPERBOLIC:
            return
        for arc in self.arcs():
            # an arc's lowest point is one of its ends, or a circle's bottom
            # (angle -pi/2) when the span contains it
            ys = [arc.point(0.0)[1], arc.point(1.0)[1]]
            if isinstance(arc, CircleArc):
                lo, hi = sorted((arc.phi0, arc.phi1))
                if any(lo <= -math.pi / 2 + 2 * math.pi * k <= hi for k in range(-2, 3)):
                    ys.append(arc.center[1] - arc.radius)
            if min(ys) <= 0.0:
                raise GeometryError(
                    "hyperbolic domain boundary leaves the open upper half-plane"
                )

    def _validate_closure(self):
        scale = 1.0 + self.model_diameter()
        for loop in self.loops():
            for i, arc in enumerate(loop):
                nxt = loop[(i + 1) % len(loop)]
                gap = np.linalg.norm(
                    np.asarray(arc.point(1.0)) - np.asarray(nxt.point(0.0))
                )
                if gap > _CLOSURE_TOL * scale:
                    raise GeometryError(
                        f"boundary loop not closed at arc {i} (gap {gap:.3e})"
                    )

    def _extract_corners(self) -> list[tuple[float, bool]]:
        corners = []
        for loop in self.loops():
            n = len(loop)
            for i, arc in enumerate(loop):
                nxt = loop[(i + 1) % n]
                t_in = unit_tangent(arc, 1.0)
                t_out = unit_tangent(nxt, 0.0)
                turn = math.atan2(
                    t_in[0] * t_out[1] - t_in[1] * t_out[0],
                    t_in[0] * t_out[0] + t_in[1] * t_out[1],
                )
                mixed = arc.bc != nxt.bc
                if abs(turn) < _SMOOTH_TOL and not mixed:
                    continue
                theta = math.pi - turn
                if not (0.0 < theta < 2.0 * math.pi - _SMOOTH_TOL):
                    raise GeometryError(
                        f"degenerate corner angle {theta:.6f} at junction {i}"
                    )
                corners.append((theta, mixed))
        return corners

    def _validate_simple(self):
        polys = [_chordize(loop) for loop in self.loops()]
        # holes must sit inside the outer loop (checked at their chord means)
        means = np.array([hp.mean(axis=0) for hp in polys[1:]]).reshape(-1, 2)
        outside = ~_points_in_poly(polys[0], means)
        if outside.any():
            raise GeometryError(f"hole {int(np.argmax(outside))} is not inside the outer loop")
        # no two chord segments may cross: one pass per segment a over all
        # later segments b, which cross when orient(a0, a1, b0) * orient(a0, a1, b1)
        # and orient(b0, b1, a0) * orient(b0, b1, a1) are both below -eps, with
        # orient(p, q, r) = (q - p) x (r - p); two neighbours on a loop share an
        # end, which makes one of their orientations exactly 0
        scale = 1.0 + self.model_diameter()
        eps = (1e-12 * scale) ** 2
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
                lb = loop_of[a + 1 + hit[0]]
                raise GeometryError(
                    f"boundary loops are not simple/disjoint (loops {loop_of[a]} and {lb} cross)"
                )
        # holes must sit outside each other (checked at their chord means; of
        # two concentric holes, the smaller one is inside)
        areas = np.array([abs(_signed_area(hp)) for hp in polys[1:]])
        for j, hp in enumerate(polys[1:]):
            inside = _points_in_poly(hp, means) & (areas <= areas[j])
            inside[j] = False
            if inside.any():
                raise GeometryError(f"hole {int(np.argmax(inside))} lies inside hole {j}")
        # boundaries that meet only at samples pass the crossing test, so no
        # chord point of one hole may lie inside another
        hole_of = loop_of[loop_of > 0] - 1
        for j, hp in enumerate(polys[1:]):
            inside = _points_in_poly(hp, p0[loop_of > 0]) & (hole_of != j)
            if inside.any():
                raise GeometryError(f"hole {hole_of[np.argmax(inside)]} overlaps hole {j}")


# ---------------------------------------------------------------------------
# Geometric constants


@dataclass(frozen=True)
class GeometricConstants:
    """Exact geometric data entering the refined eigenvalue count."""

    area: float
    perimeter_d: float
    perimeter_n: float
    euler_characteristic: int
    boundary_curvature_integral: float
    c1: float
    c2: float
    c3: float

    @property
    def c(self) -> float:
        return self.c1 + self.c2 + self.c3

    @property
    def perimeter(self) -> float:
        return self.perimeter_d + self.perimeter_n


def _check_gauss_bonnet(domain: Domain, area: float, k1_int: float) -> None:
    chi = 1 - len(domain.holes)
    lhs = area * domain.space.curvature + k1_int
    lhs += sum(math.pi - theta for theta, _ in domain.corners)
    target = 2.0 * math.pi * chi
    if abs(lhs - target) > _GB_TOL * (1.0 + abs(target)):
        raise GeometryError(
            f"Gauss-Bonnet check failed: got {lhs:.12g}, expected {target:.12g}"
        )


def geometric_constants(domain: Domain) -> GeometricConstants:
    """Area, perimeters, curvature integrals and the count constant C = C1+C2+C3."""
    area = 0.0
    per_d = 0.0
    per_n = 0.0
    k1_int = 0.0
    for arc in domain.arcs():
        area += green_area(domain.space, arc)
        length = arc_length(domain.space, arc)
        if arc.bc == DIRICHLET:
            per_d += length
        else:
            per_n += length
        k1_int += curvature_integral(domain.space, arc)
    if not area > 0.0:
        raise GeometryError(f"domain has nonpositive area {area:.6g}")
    _check_gauss_bonnet(domain, area, k1_int)
    c1 = corner_constant_c1(domain.corners)
    c2 = k1_int / (12.0 * math.pi)
    c3 = area * domain.space.curvature / (12.0 * math.pi)
    return GeometricConstants(
        area=area,
        perimeter_d=per_d,
        perimeter_n=per_n,
        euler_characteristic=1 - len(domain.holes),
        boundary_curvature_integral=k1_int,
        c1=c1,
        c2=c2,
        c3=c3,
    )


# ---------------------------------------------------------------------------
# Euclidean constructors


def _bc_list(bc, n: int) -> list[str]:
    if isinstance(bc, str):
        return [_check_bc(bc)] * n
    bcs = [_check_bc(b) for b in bc]
    if len(bcs) != n:
        raise GeometryError(f"expected {n} boundary conditions, got {len(bcs)}")
    return bcs


def _polygon_loop(vertices, bc) -> list[Arc]:
    verts = [tuple(map(float, v)) for v in vertices]
    if len(verts) < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    bcs = _bc_list(bc, len(verts))
    return [
        LineSegment(verts[i], verts[(i + 1) % len(verts)], bcs[i])
        for i in range(len(verts))
    ]


def euclidean_polygon(vertices, bc=DIRICHLET, holes=(), hole_bc=DIRICHLET) -> Domain:
    """Flat polygon, optionally with polygonal holes."""
    outer = _polygon_loop(vertices, bc)
    hole_loops = []
    for k, hverts in enumerate(holes):
        hbc = hole_bc[k] if isinstance(hole_bc, (list, tuple)) else hole_bc
        hole_loops.append(_polygon_loop(hverts, hbc))
    return Domain(SpaceForm.EUCLIDEAN, outer, hole_loops)


def euclidean_disc(radius: float = 1.0, bc: str = DIRICHLET) -> Domain:
    if not radius > 0.0:
        raise GeometryError(f"disc radius must be positive, got {radius}")
    arc = CircleArc((0.0, 0.0), float(radius), 0.0, 2.0 * math.pi, _check_bc(bc))
    return Domain(SpaceForm.EUCLIDEAN, [arc])


def regular_polygon(n: int, side: float = 1.0, bc: str = DIRICHLET) -> Domain:
    """Regular n-gon with the given side length, centered at the origin."""
    if n < 3:
        raise GeometryError("regular polygon needs n >= 3")
    circum = side / (2.0 * math.sin(math.pi / n))
    verts = [
        (circum * math.cos(2 * math.pi * k / n), circum * math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]
    return euclidean_polygon(verts, bc)


def six_star(edge: float = 1.0, bc: str = DIRICHLET) -> Domain:
    """Regular 6-pointed star (hexagram) with the given edge length.

    Twelve edges; six point corners of pi/3 and six reflex corners of 4 pi/3.
    The star tiles into twelve equilateral triangles of side `edge`.
    """
    r_point = edge * math.sqrt(3.0)
    r_inner = edge
    verts = []
    for k in range(6):
        a = math.pi * k / 3.0
        verts.append((r_point * math.cos(a), r_point * math.sin(a)))
        b = a + math.pi / 6.0
        verts.append((r_inner * math.cos(b), r_inner * math.sin(b)))
    return euclidean_polygon(verts, bc)


def region_between_triangles(
    outer_side: float = 1.0, inner_side: float = 0.5, bc: str = DIRICHLET
) -> Domain:
    """Equilateral triangle with a concentric, same-orientation equilateral hole."""

    def tri(side):
        r = side / math.sqrt(3.0)
        return [
            (r * math.cos(math.pi / 2 + 2 * math.pi * k / 3),
             r * math.sin(math.pi / 2 + 2 * math.pi * k / 3))
            for k in range(3)
        ]

    if not 0.0 < inner_side < outer_side:
        raise GeometryError("inner triangle must be smaller than the outer one")
    return euclidean_polygon(tri(outer_side), bc, holes=[tri(inner_side)], hole_bc=bc)


def arrowhead(bc: str = DIRICHLET) -> Domain:
    """Nonconvex quadrilateral with one reflex corner (sides sqrt5, sqrt5, sqrt13, sqrt13)."""
    verts = [(-2.0, 0.0), (0.0, 1.0), (2.0, 0.0), (0.0, 3.0)]
    return euclidean_polygon(verts, bc)


def triangle_from_angles(theta1: float, theta2: float, theta3: float, base: float = 1.0):
    """Vertices of a flat triangle with the given angles; base side on the x-axis."""
    if abs(theta1 + theta2 + theta3 - math.pi) > 1e-12:
        raise GeometryError("flat triangle angles must sum to pi")
    r = base * math.sin(theta2) / math.sin(theta3)
    return [(0.0, 0.0), (base, 0.0), (r * math.cos(theta1), r * math.sin(theta1))]


# ---------------------------------------------------------------------------
# Geodesic triangles (hyperbolic and spherical)


def _upper_arc(center, radius, p_from, p_to, bc) -> CircleArc:
    """Arc of the circle from p_from to p_to inside the closed upper half-plane.

    The shortest qualifying span wins; for a circle centered on the x-axis
    and two endpoints above it, that is the direct atan2 span.
    """
    cx, cy = float(center[0]), float(center[1])
    phi_a = math.atan2(p_from[1] - cy, p_from[0] - cx)
    phi_b = math.atan2(p_to[1] - cy, p_to[0] - cx)
    ends = [phi_b, phi_b + 2.0 * math.pi, phi_b - 2.0 * math.pi]
    ends = [phi1 for phi1 in ends if 0.0 < abs(phi1 - phi_a) <= 2.0 * math.pi]
    for phi1 in sorted(ends, key=lambda phi1: abs(phi1 - phi_a)):
        arc = CircleArc((cx, cy), radius, phi_a, phi1, bc)
        ts = np.linspace(0.0, 1.0, 65)[1:-1]
        if np.all(np.asarray(arc.point(ts))[:, 1] > -1e-12):
            return arc
    raise ConstructionError("no side arc stays in the closed upper half-plane")


def law_of_cosines(curvature: float, alpha_i, alpha_j, alpha_k) -> float:
    """Side length opposite alpha_i of the geodesic triangle with these angles
    on the space form of curvature -1 (hyperbolic) or +1 (spherical)."""
    arg = (math.cos(alpha_i) + math.cos(alpha_j) * math.cos(alpha_k)) / (
        math.sin(alpha_j) * math.sin(alpha_k)
    )
    if curvature < 0.0:
        if arg < 1.0:
            raise ConstructionError(
                f"no hyperbolic triangle with these angles (cosh L = {arg:.6f})"
            )
        return math.acosh(arg)
    if not -1.0 <= arg <= 1.0:
        raise ConstructionError(f"no spherical triangle with these angles (cos L = {arg:.6f})")
    return math.acos(arg)


def _audit_triangle(domain: Domain, requested_angles) -> GeometricConstants:
    """Exact constants of a geodesic triangle, cross-checked to 1e-9.

    The area is K (sum(theta) - pi), the angle defect (K = -1) or the
    excess (K = +1); C2 = 0 and C3 = K area / 12 pi. It must match the
    Green-integral area, the requested angles (if any) and, through the law
    of cosines, the quadrature perimeter.
    """
    gc = geometric_constants(domain)
    if len(domain.corners) != 3:
        raise ConstructionError("expected exactly three corners")
    angles = [theta for theta, _ in domain.corners]
    curvature = domain.space.curvature
    # the summation order fixes the last bit: ascending for a defect,
    # corner order for an excess
    area = curvature * (sum(sorted(angles) if curvature < 0.0 else angles) - math.pi)
    kind = "excess" if curvature > 0.0 else "angle defect"
    if area <= 0.0:
        raise ConstructionError(f"nonpositive {domain.space.value} {kind} {area:.6g}")
    if abs(gc.area - area) > 1e-9 * (1.0 + area):
        raise ConstructionError(
            f"area mismatch: Green integral {gc.area:.12g} vs {kind} {area:.12g}"
        )
    if requested_angles is not None:
        pairs = zip(sorted(requested_angles), sorted(angles))
        if max(abs(w - g) for w, g in pairs) > 1e-9:
            raise ConstructionError("constructed angles do not match the requested ones")
    per_locos = sum(
        law_of_cosines(curvature, angles[i], angles[(i + 1) % 3], angles[(i + 2) % 3])
        for i in range(3)
    )
    if abs(per_locos - gc.perimeter) > 1e-9 * (1.0 + per_locos):
        raise ConstructionError(
            f"perimeter mismatch: law of cosines {per_locos:.12g} vs arcs {gc.perimeter:.12g}"
        )
    c3 = curvature * area / (12.0 * math.pi)
    return replace(gc, area=area, boundary_curvature_integral=0.0, c2=0.0, c3=c3)


def _geodesic_disc(space: SpaceForm, arc: CircleArc, area, per, k1, c2, c3):
    """The disc bounded by arc, with its closed-form constants (no corners),
    checked against Gauss-Bonnet."""
    domain = Domain(space, [arc])
    gc = GeometricConstants(
        area=area, perimeter_d=per if arc.bc == DIRICHLET else 0.0,
        perimeter_n=per if arc.bc == NEUMANN else 0.0, euler_characteristic=1,
        boundary_curvature_integral=k1, c1=0.0, c2=c2, c3=c3,
    )
    _check_gauss_bonnet(domain, area, k1)
    return domain, gc


# ---------------------------------------------------------------------------
# Hyperbolic constructors


@dataclass(frozen=True)
class HyperbolicTriangleSpec:
    """Geodesic triangle in the upper half-plane: one side on the y-axis, two
    sides on circles y^2 + (x - a_j)^2 = r_j^2. Either the circles (a1, r1,
    a2, r2) or the angles (alpha1, alpha2, alpha3) with alpha1+alpha2+alpha3 < pi."""

    circles: tuple[float, float, float, float] | None = None
    angles: tuple[float, float, float] | None = None

    def __post_init__(self):
        if (self.circles is None) == (self.angles is None):
            raise GeometryError("give exactly one of circles=(a1,r1,a2,r2) or angles")
        if self.angles is not None:
            a = self.angles
            if len(a) != 3 or any(x <= 0.0 for x in a):
                raise GeometryError("triangle angles must be three positive numbers")
            if sum(a) >= math.pi:
                raise GeometryError(
                    "hyperbolic triangle needs angle sum < pi, got "
                    f"{sum(a):.6f}"
                )
        elif len(self.circles) != 4:
            raise GeometryError("circles form takes (a1, r1, a2, r2)")


def _hyperbolic_circles_from_angles(angles) -> tuple[float, float, float, float]:
    a1_, a2_, a3_ = angles
    # vertex C at (0, 1); L3 (side on the y-axis) from the hyperbolic law of cosines
    length3 = law_of_cosines(-1.0, a3_, a1_, a2_)
    y1, y2 = 1.0, math.exp(length3)
    a1 = y1 / math.tan(a1_)
    r1 = y1 / math.sin(a1_)
    a2 = -y2 / math.tan(a2_)
    r2 = y2 / math.sin(a2_)
    return (a1, r1, a2, r2)


def build_hyperbolic_triangle(
    spec: HyperbolicTriangleSpec, bc=DIRICHLET
) -> tuple[Domain, GeometricConstants]:
    """Geodesic hyperbolic triangle with its exact constants.

    The reported area is the angle defect pi - sum(alpha); the Green-integral
    area and the law-of-cosines side lengths are cross-checked to 1e-9.
    """
    if spec.circles is not None:
        a1, r1, a2, r2 = map(float, spec.circles)
    else:
        a1, r1, a2, r2 = _hyperbolic_circles_from_angles(spec.angles)
    for a, r in ((a1, r1), (a2, r2)):
        if not r > abs(a):
            raise ConstructionError(
                f"circle (a={a}, r={r}) does not cross the y-axis"
            )
    if a1 == a2:
        raise ConstructionError("side circles are concentric (a1 == a2)")
    y1 = math.sqrt(r1 * r1 - a1 * a1)
    y2 = math.sqrt(r2 * r2 - a2 * a2)
    x3 = (r2 * r2 - r1 * r1 - a2 * a2 + a1 * a1) / (2.0 * (a1 - a2))
    disc = r1 * r1 - (x3 - a1) ** 2
    if disc <= 0.0:
        raise ConstructionError("side circles do not intersect in the upper half-plane")
    y3 = math.sqrt(disc)
    resid = abs((x3 - a2) ** 2 + y3 * y3 - r2 * r2)
    if resid > 1e-9 * r2 * r2:
        raise ConstructionError(f"intersection residual {resid:.3e} on second circle")
    if abs(x3) < 1e-12 or abs(y2 - y1) < 1e-12:
        raise ConstructionError("degenerate triangle (vertex on the y-axis side)")

    bcs = _bc_list(bc, 3)
    c_vert = (0.0, y1)
    a_vert = (0.0, y2)
    b_vert = (x3, y3)
    # side i carries bc[i] and is opposite vertex i (C, A, B) = (alpha1, alpha2, alpha3)
    loop = [
        _upper_arc((a1, 0.0), r1, c_vert, b_vert, bcs[1]),
        _upper_arc((a2, 0.0), r2, b_vert, a_vert, bcs[0]),
        LineSegment(a_vert, c_vert, bcs[2]),
    ]
    domain = Domain(SpaceForm.HYPERBOLIC, loop)
    return domain, _audit_triangle(domain, spec.angles)


def build_hyperbolic_disc(radius: float, bc: str = DIRICHLET) -> tuple[Domain, GeometricConstants]:
    """Hyperbolic disc of geodesic radius R, model circle centered on the y-axis.

    Model center (0, (e^{2R}+1)/2) and Euclidean radius (e^{2R}-1)/2 put the
    vertical geodesic diameter between y = 1 and y = e^{2R}.
    """
    if not radius > 0.0:
        raise GeometryError(f"hyperbolic disc radius must be positive, got {radius}")
    try:
        e2 = math.exp(2.0 * radius)
    except OverflowError:
        raise GeometryError(f"hyperbolic disc radius {radius} overflows e^(2R)") from None
    center = (0.0, 0.5 * (e2 + 1.0))
    r_e = 0.5 * (e2 - 1.0)
    arc = CircleArc(center, r_e, -math.pi / 2, 3.0 * math.pi / 2, _check_bc(bc))
    return _geodesic_disc(
        SpaceForm.HYPERBOLIC, arc, area=4.0 * math.pi * math.sinh(0.5 * radius) ** 2,
        per=2.0 * math.pi * math.sinh(radius), k1=2.0 * math.pi * math.cosh(radius),
        c2=math.cosh(radius) / 6.0, c3=-(math.cosh(radius) - 1.0) / 6.0,
    )


# ---------------------------------------------------------------------------
# Spherical constructors


@dataclass(frozen=True)
class SphericalTriangleSpec:
    """Geodesic spherical triangle in stereographic coordinates: one side on
    the u-axis, two sides on great circles
    (u - t_j sin(beta_j))^2 + (v + t_j cos(beta_j))^2 = t_j^2 + 4.

    `params` is (t1, beta1, t2, beta2) with optional explicit u-axis vertices
    (u1, u2); by default each vertex is the larger root of its circle on the
    u-axis. `angles` gives (alpha1, alpha2, alpha3) with angle sum in (pi, 3pi).
    """

    params: tuple[float, ...] | None = None
    angles: tuple[float, float, float] | None = None

    def __post_init__(self):
        if (self.params is None) == (self.angles is None):
            raise GeometryError("give exactly one of params=(t1,b1,t2,b2[,u1,u2]) or angles")
        if self.params is not None and len(self.params) not in (4, 6):
            raise GeometryError("params form takes (t1, beta1, t2, beta2[, u1, u2])")
        if self.angles is not None:
            a = self.angles
            if len(a) != 3 or any(not 0.0 < x < math.pi for x in a):
                raise GeometryError("spherical triangle angles must lie in (0, pi)")
            if not math.pi < sum(a) < 3.0 * math.pi:
                raise GeometryError("spherical excess must be positive")


def _great_circle_root(t: float, beta: float) -> float:
    # the larger root of the side circle on the u-axis
    s = t * math.sin(beta)
    return s + math.hypot(s, 2.0)


def _circle_intersection_upper(c1, r1, c2, r2):
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    d = float(np.linalg.norm(c2 - c1))
    if d == 0.0:
        raise ConstructionError("side circles are concentric")
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 <= 0.0:
        raise ConstructionError("side circles do not intersect")
    h = math.sqrt(h2)
    base = c1 + a * (c2 - c1) / d
    perp = np.array([-(c2 - c1)[1], (c2 - c1)[0]]) / d
    p_up = base + h * perp
    p_dn = base - h * perp
    return (p_up, p_dn) if p_up[1] >= p_dn[1] else (p_dn, p_up)


def _sph_circle_from_vertex(u: float, tangent_dir) -> tuple[np.ndarray, float]:
    # great circle through (u, 0) with the given model tangent direction
    if abs(u) < 1e-12:
        raise ConstructionError("u-axis vertex at the origin maps to a model line")
    s = (u * u - 4.0) / (2.0 * u)
    tx, ty = tangent_dir
    if abs(ty) < 1e-12:
        raise ConstructionError("side tangent parallel to the u-axis")
    my = (u - s) * tx / ty
    center = np.array([s, my])
    return center, math.sqrt(s * s + my * my + 4.0)


def build_spherical_triangle(
    spec: SphericalTriangleSpec, bc=DIRICHLET
) -> tuple[Domain, GeometricConstants]:
    """Geodesic spherical triangle with its exact constants.

    The reported area is the spherical excess sum(alpha) - pi; the conformal
    Green-integral area and law-of-cosines lengths are cross-checked to 1e-9.
    """
    bcs = _bc_list(bc, 3)
    if spec.params is not None:
        t1, b1, t2, b2 = map(float, spec.params[:4])
        c1 = np.array([t1 * math.sin(b1), -t1 * math.cos(b1)])
        c2 = np.array([t2 * math.sin(b2), -t2 * math.cos(b2)])
        r1 = math.sqrt(t1 * t1 + 4.0)
        r2 = math.sqrt(t2 * t2 + 4.0)
        if len(spec.params) == 6:
            u1, u2 = map(float, spec.params[4:])
            for u, t, b in ((u1, t1, b1), (u2, t2, b2)):
                if abs(u * u - 2.0 * t * math.sin(b) * u - 4.0) > 1e-9 * (4.0 + u * u):
                    raise ConstructionError(
                        f"u-axis vertex {u} does not lie on its side circle"
                    )
        else:
            u1 = _great_circle_root(t1, b1)
            u2 = _great_circle_root(t2, b2)
    else:
        a1_, a2_, a3_ = spec.angles
        length3 = law_of_cosines(1.0, a3_, a1_, a2_)
        u1 = -2.0 * math.tan(length3 / 4.0)
        u2 = -u1
        c1, r1 = _sph_circle_from_vertex(u1, (math.cos(a1_), math.sin(a1_)))
        c2, r2 = _sph_circle_from_vertex(u2, (-math.cos(a2_), math.sin(a2_)))

    apex, _ = _circle_intersection_upper(c1, r1, c2, r2)
    if apex[1] <= 0.0:
        raise ConstructionError("side circles do not meet above the u-axis")
    if abs(u1 - u2) < 1e-12:
        raise ConstructionError("degenerate triangle (coincident u-axis vertices)")

    # arcs from the u-axis vertices to the apex must avoid each circle's other
    # u-axis root, so the sides only touch v = 0 at their endpoints
    arc1 = _upper_arc(c1, r1, (u1, 0.0), apex, bcs[1])
    arc2 = _upper_arc(c2, r2, apex, (u2, 0.0), bcs[0])
    loop = [LineSegment((u2, 0.0), (u1, 0.0), bcs[2]), arc1, arc2]
    domain = Domain(SpaceForm.SPHERICAL, loop)
    return domain, _audit_triangle(domain, spec.angles)


def build_spherical_disc(radius: float, bc: str = DIRICHLET) -> tuple[Domain, GeometricConstants]:
    """Spherical disc of geodesic radius r in (0, pi); model circle of radius 2 tan(r/2)."""
    if not 0.0 < radius < math.pi:
        raise GeometryError(f"spherical disc radius must lie in (0, pi), got {radius}")
    r_e = 2.0 * math.tan(0.5 * radius)
    arc = CircleArc((0.0, 0.0), r_e, 0.0, 2.0 * math.pi, _check_bc(bc))
    return _geodesic_disc(
        SpaceForm.SPHERICAL, arc, area=2.0 * math.pi * (1.0 - math.cos(radius)),
        per=2.0 * math.pi * math.sin(radius), k1=2.0 * math.pi * math.cos(radius),
        c2=math.cos(radius) / 6.0, c3=(1.0 - math.cos(radius)) / 6.0,
    )
