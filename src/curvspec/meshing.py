"""Conforming triangulations of model-coordinate domains and uniform refinement.

The initial mesh comes from a Delaunay triangulation of boundary-chord
endpoints plus a hexagonal interior lattice. Chord endpoints sit exactly on
their arcs, interior points keep a clearance just above half a chord length
from the boundary, so every chord has an empty diametral disc and is
guaranteed to appear as a Delaunay edge; triangles are then kept or dropped
by a point-in-polygon test on their centroids. Refinement is red (4-way)
subdivision with boundary midpoints snapped back onto their arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .geometry import (
    Arc,
    CircleArc,
    Domain,
    GeometryError,
    LineSegment,
    _points_in_poly,
)

_MIN_ANGLE_DEG = 20.0
_CHORD_FACTOR = 0.75  # boundary chord target relative to target_h
_CLEARANCE_FACTOR = 0.55  # interior clearance relative to the chord length
_ON_ARC_TOL = 1e-10


class MeshError(GeometryError):
    """Triangulation failed structurally."""


class MeshQualityError(MeshError):
    """The requested quality bound could not be met."""

    def __init__(self, msg: str, min_angle_deg: float):
        super().__init__(msg)
        self.min_angle_deg = min_angle_deg


@dataclass
class Mesh:
    """Triangulation in model coordinates.

    `boundary_edges` rows are (v0, v1, arc_id); `arcs` holds the referenced
    boundary arcs so refinement can snap midpoints without the Domain.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    arcs: tuple[Arc, ...]
    level: int = 0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.boundary_edges = np.asarray(self.boundary_edges, dtype=np.int64)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def boundary_bc(self) -> np.ndarray:
        """Per-boundary-edge condition, from the referenced arcs."""
        return np.array([arc.bc for arc in self.arcs])[self.boundary_edges[:, 2]]

    def signed_areas(self) -> np.ndarray:
        # cross(p1 - p0, p2 - p0) with p2 - p0 = -e2
        e = edge_vectors(self.vertices, self.triangles)
        return 0.5 * (e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0])

    def min_angle_deg(self) -> float:
        return float(np.degrees(_triangle_angles(self.vertices, self.triangles).min()))

    def max_edge_length(self) -> float:
        return float(np.linalg.norm(edge_vectors(self.vertices, self.triangles), axis=2).max())


def edge_vectors(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Edge vectors (T, 3, 2) of each triangle: row i runs from corner i to corner i + 1.

    Gathers by `np.take`: numpy 2.4 fancy-indexes rows of a float table by an
    index array (`vertices[triangles]`, `p[:, [1, 2, 0]]`) on a path 5-10x slower.
    """
    p = np.take(vertices, triangles, axis=0)
    return np.take(p, [1, 2, 0], axis=1) - p


def _triangle_angles(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    # corner i lies between edge i and the reversed edge i - 1
    e = edge_vectors(vertices, triangles)
    lengths = np.linalg.norm(e, axis=2)
    dots = -np.einsum("tij,tij->ti", e, np.take(e, [2, 0, 1], axis=1))
    return np.arccos(np.clip(dots / (lengths * lengths[:, [2, 0, 1]]), -1.0, 1.0))


def _edges(triangles: np.ndarray):
    """The edge table of a triangulation.

    Returns the unique edges (E, 2) as sorted (i < j) rows in lexicographic
    order, each triangle's rows of its edges (v0v1, v1v2, v2v0) as (T, 3), and
    the number of triangles on each edge (E,).
    """
    t = np.asarray(triangles, dtype=np.int64)
    nxt = t[:, [1, 2, 0]]
    n = int(t.max()) + 1 if t.size else 0
    keys, rows, counts = np.unique(
        np.minimum(t, nxt) * n + np.maximum(t, nxt),
        return_inverse=True,
        return_counts=True,
    )
    return np.column_stack([keys // n, keys % n]), rows.reshape(t.shape), counts


def _sorted_rows(table: np.ndarray) -> np.ndarray:
    """An int64 (R, 3) table's rows in lexicographic order, bit for bit as `np.lexsort`'s.

    Argsorting the key col1 * n + col2 (n past the largest entry: int64 below
    about 3e9 vertices, as in `_edges`), then stably by col0, is about 2x faster
    than lexsort on numpy 2.4; rows that tie in both passes are equal.
    """
    n = int(table.max()) + 1 if table.size else 0
    order = np.argsort(table[:, 1] * n + table[:, 2])
    order = order[np.argsort(table[order, 0], kind="stable")]
    return np.take(table, order, axis=0)


# ---------------------------------------------------------------------------
# Boundary discretization


def _discretize_boundary(domain: Domain, chord: float):
    """Chord endpoints on every arc plus the chord->arc map.

    Returns (points (N, 2), chords (N, 3) of rows (i, j, arc_id), loop
    polygons). Each loop's chords join consecutive points and close back to
    the loop's first point.
    """
    polys: list[np.ndarray] = []
    chords: list[np.ndarray] = []
    arc_id = 0
    start = 0
    for loop in domain.loops():
        pieces, arc_ids = [], []
        for k, arc in enumerate(loop):
            span = arc.chord_length()
            n_seg = max(1, int(math.ceil(span / chord)))
            if isinstance(arc, CircleArc) and abs(arc.span) > 1.9 * math.pi:
                n_seg = max(n_seg, 8)
            pieces.append(np.asarray(arc.point(np.arange(n_seg) / n_seg)))
            if isinstance(loop[k - 1], LineSegment):  # exact junction after a segment
                pieces[-1][0] = loop[k - 1].p1
            arc_ids.append(np.full(n_seg, arc_id))
            arc_id += 1
        polys.append(np.concatenate(pieces, axis=0))
        m = len(polys[-1])
        i = np.arange(m)
        chords.append(
            np.column_stack([start + i, start + (i + 1) % m, np.concatenate(arc_ids)])
        )
        start += m
    return np.concatenate(polys, axis=0), np.concatenate(chords, axis=0), polys


def _points_in_polys(outer: np.ndarray, holes: list[np.ndarray], pts: np.ndarray):
    mask = _points_in_poly(outer, pts)
    for h in holes:
        mask &= ~_points_in_poly(h, pts)
    return mask


def _dist_to_segments(pts: np.ndarray, segs_a: np.ndarray, segs_b: np.ndarray):
    # min distance from each point to any segment (a_k, b_k)
    d = segs_b - segs_a
    seg_len2 = np.einsum("ij,ij->i", d, d)
    rel = pts[:, None, :] - segs_a  # (P, S, 2)
    t = np.clip(np.einsum("psk,sk->ps", rel, d) / seg_len2, 0.0, 1.0)
    proj = segs_a + t[:, :, None] * d
    return np.linalg.norm(pts[:, None, :] - proj, axis=2).min(axis=1)


def _hex_lattice(bbox, pitch: float) -> np.ndarray:
    x0, y0, x1, y1 = bbox
    row_h = pitch * math.sqrt(3.0) / 2.0
    # fixed fractional offsets avoid lattice points landing on symmetric loci;
    # row heights are the running sum y0 + 0.2137 pitch + row_h + row_h + ...
    y_start = y0 + 0.2137 * pitch
    ys = np.cumsum(np.r_[y_start, np.full(max(0, int((y1 - y_start) / row_h) + 2), row_h)])
    ys = ys[ys < y1]
    row_xs = [np.arange(x0 + (0.3391 + off) * pitch, x1, pitch) for off in (0.0, 0.5)]
    counts = np.resize([len(xs) for xs in row_xs], len(ys))  # even and odd rows alternate
    xs = np.concatenate(row_xs * (len(ys) // 2 + 1))[: counts.sum()]
    return np.column_stack([xs, np.repeat(ys, counts)])


def _turned_to_min(tris: np.ndarray) -> np.ndarray:
    # each row turned to start at its smallest vertex, keeping the orientation
    turn = np.take([[0, 1, 2], [1, 2, 0], [2, 0, 1]], np.argmin(tris, axis=1), axis=0)
    return np.take(tris, turn + 3 * np.arange(len(tris))[:, None])


def _drop_unused(points: np.ndarray, triangles: np.ndarray, n_keep: int):
    """Points without the unused ones past the first n_keep, and the renumbered triangles."""
    used = np.union1d(np.arange(n_keep), triangles)
    return np.take(points, used, axis=0), np.searchsorted(used, triangles)


def triangulate(domain: Domain, target_h: float | None = None) -> Mesh:
    """Conforming triangulation with max edge <= target_h and min angle >= 20 degrees.

    Curved arcs are approximated by chords between on-arc vertices; holes are
    respected. Raises MeshQualityError (with the achieved minimum angle) if
    the quality bound cannot be met.
    """
    if target_h is None:
        target_h = 0.2 * domain.model_diameter()
    if not target_h > 0.0:
        raise MeshError(f"target_h must be positive, got {target_h}")

    h = float(target_h)
    last_angle = 0.0
    for _ in range(4):
        mesh = _triangulate_once(domain, h)
        if mesh is not None:
            last_angle = mesh.min_angle_deg()
            if last_angle >= _MIN_ANGLE_DEG - 1e-9 and (
                mesh.max_edge_length() <= target_h * (1.0 + 1e-9)
            ):
                return mesh
        h /= 1.4
    raise MeshQualityError(
        f"could not reach min angle {_MIN_ANGLE_DEG} deg / max edge {target_h}"
        f" (achieved min angle {last_angle:.2f} deg)",
        min_angle_deg=last_angle,
    )


def _triangulate_once(domain: Domain, target_h: float) -> Mesh | None:
    from scipy.spatial import Delaunay  # here, so a window worker never loads it
    chord = _CHORD_FACTOR * target_h
    boundary, chords, polys = _discretize_boundary(domain, chord)
    outer_poly, hole_polys = polys[0], polys[1:]

    segs_a = boundary[chords[:, 0]]
    segs_b = boundary[chords[:, 1]]
    max_chord = float(np.max(np.linalg.norm(segs_b - segs_a, axis=1)))
    clearance = _CLEARANCE_FACTOR * max_chord

    lattice = _hex_lattice(domain.bbox(), _CHORD_FACTOR * target_h)
    lattice = lattice[_points_in_polys(outer_poly, hole_polys, lattice)]
    lattice = lattice[_dist_to_segments(lattice, segs_a, segs_b) > clearance]
    points = np.concatenate([boundary, lattice], axis=0)
    n_boundary = len(boundary)

    # boundary vertices come first and keep their indices through the cleanup below
    ends = np.sort(chords[:, :2], axis=1)
    boundary_edges = _sorted_rows(np.column_stack([ends, chords[:, 2]]))

    for _ in range(4):  # smoothing attempts
        simplices = Delaunay(points).simplices
        cent = np.take(points, simplices, axis=0).mean(axis=1)
        keep = _points_in_polys(outer_poly, hole_polys, cent)
        kept = simplices[keep]
        if len(kept) == 0:
            return None
        # boundary of the kept triangulation must be exactly the chord set
        edges, _, counts = _edges(kept)
        if counts.max() > 2 or not np.array_equal(
            edges[counts == 1], boundary_edges[:, :2]
        ):
            return None
        angles = np.degrees(_triangle_angles(points, kept).min())
        if angles >= _MIN_ANGLE_DEG - 1e-9 or len(points) == n_boundary:
            break
        # Laplacian smoothing of the interior points over the kept triangulation;
        # each triangle side adds (i <- j) then (j <- i), in triangle order
        pairs = np.stack([kept, np.roll(kept, -1, axis=1)], axis=-1)
        directed = np.stack([pairs, pairs[..., ::-1]], axis=2).reshape(-1, 2)
        neigh_sum = np.zeros_like(points)
        np.add.at(neigh_sum, directed[:, 0], points[directed[:, 1]])
        neigh_cnt = np.bincount(directed[:, 0], minlength=len(points))
        movable = np.arange(len(points)) >= n_boundary
        movable &= neigh_cnt > 0
        points = points.copy()
        points[movable] = neigh_sum[movable] / neigh_cnt[movable, None]

    # drop lattice points that ended up outside every kept triangle
    vertices, triangles = _drop_unused(points, kept, n_boundary)
    mesh = Mesh(vertices, triangles, boundary_edges, tuple(domain.arcs()), level=0)
    # orient counterclockwise and order canonically
    flip = mesh.signed_areas() < 0
    mesh.triangles[flip] = mesh.triangles[flip][:, [0, 2, 1]]
    mesh.triangles = _sorted_rows(_turned_to_min(mesh.triangles))
    return mesh


# ---------------------------------------------------------------------------
# Refinement


def refine(mesh: Mesh) -> Mesh:
    """Red refinement: each triangle splits into four via edge midpoints.

    Boundary-edge midpoints are projected onto their arcs (radially for circle
    arcs, exact for segments). New vertices are appended in the canonical
    order of their parent edges, so the output is schedule-independent.
    """
    v = mesh.vertices
    t = mesh.triangles
    n = len(v)
    edges, rows, _ = _edges(t)
    mids = 0.5 * (np.take(v, edges[:, 0], axis=0) + np.take(v, edges[:, 1], axis=0))

    b = mesh.boundary_edges
    b_ends = np.sort(b[:, :2], axis=1)
    b_rows = np.searchsorted(edges[:, 0] * n + edges[:, 1], b_ends[:, 0] * n + b_ends[:, 1])
    if np.any(b_rows >= len(edges)) or not np.array_equal(edges[b_rows], b_ends):
        raise MeshError("declared boundary edges are not edges of the mesh")
    for a, arc in enumerate(mesh.arcs):
        if isinstance(arc, CircleArc):
            sel = b_rows[b[:, 2] == a]
            c = np.asarray(arc.center, dtype=float)
            d = mids[sel] - c
            mids[sel] = c + arc.radius * d / np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]
    new_vertices = np.concatenate([v, mids], axis=0)

    # children (v_k, m_k, m_{k-1}) for k = 0, 1, 2 start at their smallest vertex
    # v_k < n; the middle (m01, m12, m20) is turned to start at its smallest
    m = n + rows
    corners = np.stack([t, m, m[:, [2, 0, 1]]], axis=-1)
    new_tris = np.concatenate([corners, _turned_to_min(m)[:, None, :]], axis=1).reshape(-1, 3)

    # each boundary edge (i, j) splits into (i, m) and (j, m), with m > i, j
    b_mid = n + b_rows
    new_boundary = _sorted_rows(
        np.column_stack([b[:, :2].ravel(), np.repeat(b_mid, 2), np.repeat(b[:, 2], 2)])
    )

    out = Mesh(new_vertices, _sorted_rows(new_tris), new_boundary, mesh.arcs, mesh.level + 1)
    bad = out.signed_areas() <= 0.0
    if np.any(bad):
        raise MeshError(f"refinement produced {int(bad.sum())} inverted triangles")
    return out


# ---------------------------------------------------------------------------
# Validation and bookkeeping


def euler_characteristic(mesh: Mesh) -> int:
    return mesh.num_vertices - len(_edges(mesh.triangles)[0]) + mesh.num_triangles


def _arc_distance(arc: Arc, p: np.ndarray) -> np.ndarray:
    if isinstance(arc, CircleArc):
        return np.abs(np.linalg.norm(p - np.asarray(arc.center), axis=1) - arc.radius)
    return _dist_to_segments(p, np.asarray([arc.p0], float), np.asarray([arc.p1], float))


def validate_mesh(mesh: Mesh) -> None:
    """Check the structural mesh invariants; raise MeshError on violation."""
    if not np.isfinite(mesh.vertices).all():
        raise MeshError("mesh has non-finite vertex coordinates")
    if np.any(mesh.signed_areas() <= 0.0):
        raise MeshError("mesh has nonpositively oriented triangles")
    edges, _, counts = _edges(mesh.triangles)
    if np.any(counts > 2):
        raise MeshError("mesh is not edge-manifold")
    b = mesh.boundary_edges
    declared = np.unique(np.sort(b[:, :2], axis=1), axis=0)
    if not np.array_equal(edges[counts == 1], declared):
        raise MeshError("declared boundary edges do not tile the mesh boundary")
    scale = 1.0 + float(np.abs(mesh.vertices).max())
    for a, arc in enumerate(mesh.arcs):
        vtx = b[b[:, 2] == a, :2].ravel()
        dist = _arc_distance(arc, mesh.vertices[vtx])
        far = np.flatnonzero(dist > _ON_ARC_TOL * scale)
        if len(far):
            raise MeshError(
                f"boundary vertex {vtx[far[0]]} lies {dist[far[0]]:.3e} away from arc {a}"
            )
    incident = np.bincount(b[:, :2].ravel())
    if np.any((incident != 0) & (incident != 2)):
        raise MeshError("boundary edges do not form closed loops")


# ---------------------------------------------------------------------------
# Mesh file I/O (round-trips bit-identically)


def save_mesh(mesh: Mesh, path) -> None:
    """Plain-text mesh: vertex, triangle, boundary-edge and arc tables."""
    arcs = [f"arcs {len(mesh.arcs)}"]
    for arc in mesh.arcs:
        if isinstance(arc, LineSegment):
            arcs.append("segment %.17g %.17g %.17g %.17g %s" % (*arc.p0, *arc.p1, arc.bc))
        else:
            fields = (*arc.center, arc.radius, arc.phi0, arc.phi1, arc.bc)
            arcs.append("arc %.17g %.17g %.17g %.17g %.17g %s" % fields)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"mesh level {mesh.level}\n")
        # one table at a time: that bounds the text held in memory
        for tag, table, fmt in (
            ("vertices", mesh.vertices, "%.17g %.17g"),
            ("triangles", mesh.triangles, "%d %d %d"),
            ("boundary_edges", mesh.boundary_edges, "%d %d %d"),
        ):
            fh.write(f"{tag} {len(table)}\n" + textio.format_rows(fmt + "\n", *table.T, sep=""))
        fh.write("\n".join(arcs) + "\n")


def load_mesh(path) -> Mesh:
    # a non-ASCII byte becomes U+FFFD, which fails a header or table check below
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    pos = 0

    def expect(tag: str, field: int) -> int:
        # the non-negative integer in the given field of a section header
        nonlocal pos
        if pos >= len(lines):
            raise MeshError(f"{path}: truncated before {tag!r} section")
        parts = lines[pos].split()
        if not parts or parts[0] != tag:
            raise MeshError(f"{path}:{pos + 1}: expected {tag!r} section header")
        if len(parts) <= field or not parts[field].isdigit():
            raise MeshError(f"{path}:{pos + 1}: malformed {tag!r} header {lines[pos]!r}")
        pos += 1
        return int(parts[field])

    def rows(tag: str) -> list[str]:
        nonlocal pos
        n = expect(tag, 1)
        body = lines[pos : pos + n]
        if len(body) < n:
            raise MeshError(f"{path}: {tag!r} table truncated after {len(body)} of {n} rows")
        pos += n
        return body

    def table(tag: str, cols: int, dtype) -> np.ndarray:
        body = rows(tag)
        try:
            return np.loadtxt(body, dtype=dtype, ndmin=2).reshape(len(body), cols)
        except ValueError as exc:
            raise MeshError(f"{path}: bad {tag!r} table: {exc}") from None

    level = expect("mesh", 2)
    vertices = table("vertices", 2, float)
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if len(bad):
        raise MeshError(f"{path}: bad 'vertices' table row {bad[0] + 1}: non-finite coordinate")
    triangles = table("triangles", 3, np.int64)
    boundary = table("boundary_edges", 3, np.int64)
    body = rows("arcs")
    arcs: list[Arc] = []
    for r, row in enumerate(body):
        kind, *fields = row.split() or [""]
        if kind not in ("segment", "arc"):
            raise MeshError(f"{path}:{pos - len(body) + r + 1}: unknown arc kind {kind!r}")
        try:
            x = [float(f) for f in fields[:-1]]
            if len(x) != (4 if kind == "segment" else 5):
                raise ValueError(f"{len(fields)} fields")
            if not all(map(math.isfinite, x)):
                raise ValueError("non-finite field")
            if kind == "segment":
                arcs.append(LineSegment((x[0], x[1]), (x[2], x[3]), fields[-1]))
            else:
                arcs.append(CircleArc((x[0], x[1]), x[2], x[3], x[4], fields[-1]))
        except ValueError as exc:
            raise MeshError(f"{path}: bad 'arcs' table row {r + 1}: {exc}") from None
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=boundary,
        arcs=tuple(arcs),
        level=level,
    )
