"""Property tests of triangulate + refine on random triangles of all three geometries."""

import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvspec import fem
from curvspec import geometry as geo
from curvspec import meshing

_MIN = 0.5  # smallest corner angle (rad)
_PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)
_SIDE_BCS = st.lists(st.sampled_from("DN"), min_size=3, max_size=3)


@st.composite
def flat_triangles(draw):
    a = draw(st.floats(_MIN, math.pi - 2 * _MIN))
    b = draw(st.floats(_MIN, math.pi - _MIN - a))
    verts = geo.triangle_from_angles(a, b, math.pi - a - b)
    return geo.euclidean_polygon(verts, bc=draw(_SIDE_BCS))


@st.composite
def hyperbolic_triangles(draw):
    a = draw(st.floats(_MIN, math.pi - 2 * _MIN - 0.1))
    b = draw(st.floats(_MIN, math.pi - _MIN - 0.1 - a))
    c = draw(st.floats(_MIN, math.pi - 0.1 - a - b))
    spec = geo.HyperbolicTriangleSpec(angles=(a, b, c))
    return geo.build_hyperbolic_triangle(spec, draw(_SIDE_BCS))[0]


@st.composite
def spherical_triangles(draw):
    # angles stay below pi - 1: a near-lune such as (1.8471, 2.4857, 1.2032),
    # with sides (2.94, 3.01, 0.195), reaches the 20 deg minimum angle only at
    # h / 1.4**6 (646 level-0 vertices, about 660k after 5 refinements), so
    # triangulate at the default target_h rejects it; that is a documented
    # limit of the mesher, not a defect
    angles = draw(st.lists(st.floats(_MIN, math.pi - 1.0), min_size=3, max_size=3))
    total = sum(angles)
    # positive excess, and each angle's supplement beats the other two's sum
    assume(total > math.pi + 0.01)
    assume(all(total - 2.0 * x < math.pi - 0.01 for x in angles))
    spec = geo.SphericalTriangleSpec(angles=tuple(angles))
    return geo.build_spherical_triangle(spec, draw(_SIDE_BCS))[0]


def _num_edges(mesh):
    t = mesh.triangles
    pairs = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=-1).reshape(-1, 2), axis=1)
    return len(np.unique(pairs, axis=0))


def _check_round_trip(mesh):
    # save_mesh then load_mesh gives bit-identical tables and equal arcs
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mesh")
        meshing.save_mesh(mesh, path)
        loaded = meshing.load_mesh(path)
    assert loaded.level == mesh.level
    for table in ("vertices", "triangles", "boundary_edges"):
        a, b = getattr(mesh, table), getattr(loaded, table)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), table
    assert loaded.arcs == mesh.arcs


# ---------------------------------------------------------------------------
# Reference implementations: the per-corner and per-row loops the mesh kernels
# replaced. The kernels must reproduce them bit for bit (tobytes, so that -0.0
# against 0.0 counts as a difference).


def _ref_signed_areas(v, t):
    p = v[t]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _ref_triangle_angles(v, t):
    p = v[t]
    angles = np.empty((len(t), 3))
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        cosang = np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)
        angles[:, i] = np.arccos(cosang)
    return angles


def _ref_max_edge_length(v, t):
    p = v[t]
    lengths = [np.linalg.norm(p[:, i] - p[:, (i + 1) % 3], axis=1) for i in range(3)]
    return float(np.max(lengths))


def _ref_canonical_triangles(tris):
    rolled = np.empty_like(tris)
    argmin = np.argmin(tris, axis=1)
    for r in range(3):
        sel = argmin == r
        rolled[sel] = np.roll(tris[sel], -r, axis=1)
    return rolled[np.lexsort(rolled.T[::-1])]


def _ref_sorted_rows(table):
    return table[np.lexsort(table.T[::-1])]


def _ref_refine(mesh):
    # vertices, triangles and boundary edges of the red refinement, gathered by
    # fancy indexing, turned by np.roll and sorted by np.lexsort
    v, t, b = mesh.vertices, mesh.triangles, mesh.boundary_edges
    n = len(v)
    nxt = np.roll(t, -1, axis=1)
    keys, rows = np.unique(np.minimum(t, nxt) * n + np.maximum(t, nxt), return_inverse=True)
    edges = np.column_stack([keys // n, keys % n])
    mids = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    b_ends = np.sort(b[:, :2], axis=1)
    b_rows = np.searchsorted(keys, b_ends[:, 0] * n + b_ends[:, 1])
    for a, arc in enumerate(mesh.arcs):
        if isinstance(arc, geo.CircleArc):
            sel = b_rows[b[:, 2] == a]
            c = np.asarray(arc.center, dtype=float)
            d = mids[sel] - c
            mids[sel] = c + arc.radius * d / np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]
    m = n + rows.reshape(t.shape)
    corners = np.stack([t, m, np.roll(m, 1, axis=1)], axis=-1)
    tris = np.concatenate([corners, m[:, None, :]], axis=1).reshape(-1, 3)
    b_mid = n + b_rows
    boundary = np.column_stack([b[:, :2].ravel(), np.repeat(b_mid, 2), np.repeat(b[:, 2], 2)])
    return np.concatenate([v, mids]), _ref_canonical_triangles(tris), _ref_sorted_rows(boundary)


def _ref_hex_lattice(bbox, pitch):
    x0, y0, x1, y1 = bbox
    rows = []
    row_h = pitch * math.sqrt(3.0) / 2.0
    y = y0 + 0.2137 * pitch
    odd = False
    while y < y1:
        x_start = x0 + (0.3391 + (0.5 if odd else 0.0)) * pitch
        xs = np.arange(x_start, x1, pitch)
        if len(xs):
            rows.append(np.column_stack([xs, np.full(len(xs), y)]))
        y += row_h
        odd = not odd
    if not rows:
        return np.empty((0, 2))
    return np.concatenate(rows, axis=0)


def _ref_drop_unused(points, kept, n_boundary):
    used = np.zeros(len(points), dtype=bool)
    used[:n_boundary] = True
    used[kept.ravel()] = True
    remap = -np.ones(len(points), dtype=np.int64)
    remap[used] = np.arange(int(used.sum()))
    return points[used], remap[kept]


def _ref_assemble(mesh, weight):
    v, t = mesh.vertices, mesh.triangles
    area = _ref_signed_areas(v, t)
    p = v[t]
    grads = np.empty((len(t), 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= 2.0 * area[:, None, None]
    k_loc = np.einsum("tia,tja->tij", grads, grads) * area[:, None, None]
    k_loc = 0.5 * (k_loc + np.swapaxes(k_loc, 1, 2))
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    w = weight(mids[:, :, 0], mids[:, :, 1])
    m_loc = np.zeros((len(t), 3, 3))
    for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        m_loc[:, a, a] += w[:, e]
        m_loc[:, b, b] += w[:, e]
        m_loc[:, a, b] += w[:, e]
        m_loc[:, b, a] += w[:, e]
    m_loc *= (area / 12.0)[:, None, None]
    rows = np.repeat(t, 3, axis=1).reshape(-1)
    cols = np.tile(t, (1, 3)).reshape(-1)
    n = mesh.num_vertices
    free = np.setdiff1d(np.arange(n, dtype=np.int64), fem.dirichlet_vertices(mesh))
    return [
        sp.coo_matrix((loc.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()[free][:, free].tocsr()
        for loc in (k_loc, m_loc)
    ]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_mesh_kernels(v, t):
    mesh = meshing.Mesh(v, t, boundary_edges=np.empty((0, 3)), arcs=())
    assert _same_bits(mesh.signed_areas(), _ref_signed_areas(v, t))
    assert _same_bits(meshing._triangle_angles(v, t), _ref_triangle_angles(v, t))
    assert _same_bits(mesh.max_edge_length(), _ref_max_edge_length(v, t))
    # every row rotated by its index mod 3, so all three argmin cases occur
    turned = np.take_along_axis(t, (np.arange(3) + np.arange(len(t))[:, None]) % 3, axis=1)
    canonical = meshing._sorted_rows(meshing._turned_to_min(turned))
    assert _same_bits(canonical, _ref_canonical_triangles(turned))


def _check_kernels_bitwise(mesh, space):
    v, t = mesh.vertices, mesh.triangles
    _check_mesh_kernels(v, t)
    b = mesh.boundary_edges
    assert _same_bits(meshing._sorted_rows(b[::-1]), _ref_sorted_rows(b[::-1]))
    _check_mesh_kernels(v, np.ascontiguousarray(t[:, ::-1]))  # clockwise
    # every other triangle leaves vertices unused, some of them before n_keep
    n_keep = mesh.num_vertices // 3
    for new, ref in zip(
        meshing._drop_unused(v, t[::2], n_keep), _ref_drop_unused(v, t[::2], n_keep)
    ):
        assert _same_bits(new, ref)
    weight = fem.ConformalWeight(space)
    # the mesh's own BCs, then two mixed ones that swap D and N on every arc
    mixed = (tuple(replace(arc, bc="DN"[(a + s) % 2]) for a, arc in enumerate(mesh.arcs))
             for s in (0, 1))
    for case in (mesh, *(replace(mesh, arcs=arcs) for arcs in mixed)):
        problem = fem.assemble(case, weight)
        for new, ref in zip((problem.stiffness, problem.mass), _ref_assemble(case, weight)):
            for part in ("data", "indices", "indptr"):
                assert _same_bits(getattr(new, part), getattr(ref, part)), part


def _check_hex_lattice_bitwise(domain):
    h = 0.2 * domain.model_diameter()
    x0, y0, x1, y1 = domain.bbox()
    # the pitches of triangulate's four attempts, one that leaves a single row
    # and one that leaves none
    coarse = [2.0 * (y1 - y0), 5.0 * max(x1 - x0, y1 - y0)]
    for pitch in [meshing._CHORD_FACTOR * h / 1.4**k for k in range(4)] + coarse:
        lattice = meshing._hex_lattice((x0, y0, x1, y1), pitch)
        assert _same_bits(lattice, _ref_hex_lattice((x0, y0, x1, y1), pitch))


def _check_refinement_chain(domain):
    mesh = meshing.triangulate(domain)
    meshing.validate_mesh(mesh)
    assert meshing.euler_characteristic(mesh) == 1
    _check_round_trip(mesh)
    _check_hex_lattice_bitwise(domain)
    _check_kernels_bitwise(mesh, domain.space)
    for _ in range(2):
        child = meshing.refine(mesh)
        tables = (child.vertices, child.triangles, child.boundary_edges)
        for table, ref in zip(tables, _ref_refine(mesh)):
            assert _same_bits(table, ref)
        meshing.validate_mesh(child)
        assert meshing.euler_characteristic(child) == 1
        assert child.num_vertices == mesh.num_vertices + _num_edges(mesh)
        assert len(child.boundary_edges) == 2 * len(mesh.boundary_edges)
        assert np.array_equal(child.vertices[: mesh.num_vertices], mesh.vertices)
        # every vertex keeps its boundary condition, so free-node counts never fall
        child_d = fem.dirichlet_vertices(child)
        assert np.array_equal(child_d[child_d < mesh.num_vertices], fem.dirichlet_vertices(mesh))
        if domain.space is geo.SpaceForm.EUCLIDEAN:
            area, child_area = mesh.signed_areas().sum(), child.signed_areas().sum()
            assert math.isclose(child_area, area, rel_tol=1e-12)
        _check_round_trip(child)
        _check_kernels_bitwise(child, domain.space)
        mesh = child


@_PROPERTY_SETTINGS
@given(flat_triangles())
def test_refinement_invariants_flat(domain):
    _check_refinement_chain(domain)


@_PROPERTY_SETTINGS
@given(hyperbolic_triangles())
def test_refinement_invariants_hyperbolic(domain):
    _check_refinement_chain(domain)


@_PROPERTY_SETTINGS
@given(spherical_triangles())
def test_refinement_invariants_spherical(domain):
    _check_refinement_chain(domain)


def test_axis_aligned_right_triangles_keep_the_reference_zero_sign():
    # the stiffness entry across a right angle's hypotenuse is a sum of two
    # zero products; a Neumann hypotenuse keeps it in the pencil, and with the
    # legs on the axes both products are -0.0, so a sum that did not start
    # from +0.0 (as einsum does) would store -0.0
    domain = geo.euclidean_polygon([(0.0, 0.0), (0.0, -1.0), (1.0, 0.0)], bc="N")
    mesh = meshing.Mesh(
        [(0.0, 0.0), (0.0, -1.0), (1.0, 0.0)],
        [[0, 1, 2]],
        boundary_edges=[[0, 1, 0], [1, 2, 1], [0, 2, 2]],
        arcs=tuple(domain.arcs()),
    )
    for _ in range(3):
        _check_kernels_bitwise(mesh, geo.SpaceForm.EUCLIDEAN)
        mesh = meshing.refine(mesh)


def _lexsorted_rows(table):
    assert _same_bits(meshing._sorted_rows(table), _ref_sorted_rows(table))


def test_sorted_rows_of_an_empty_table():
    _lexsorted_rows(np.empty((0, 3), dtype=np.int64))


def test_sorted_rows_of_boundary_edges_keep_lexsort_order():
    # rows (v0, v1, arc_id), the arc id the third key; in a refined boundary
    # each midpoint is v1 of two rows
    mesh = meshing.refine(meshing.triangulate(geo.region_between_triangles()))
    b = mesh.boundary_edges
    _lexsorted_rows(b[::-1])
    _lexsorted_rows(np.random.default_rng(1).permutation(b))
    swapped = np.ascontiguousarray(b[:, [2, 1, 0]])  # arc ids first: many ties in col0
    _lexsorted_rows(swapped)


def test_sorted_rows_near_two_to_the_31_keep_lexsort_order():
    # shuffled rows whose entries straddle 2**31; the key col1 * n + col2 then
    # exceeds 2**62 and must still fit int64, and col0 ties many times
    rng = np.random.default_rng(7)
    base = 2**31 - 8
    table = base + rng.integers(0, 16, size=(500, 3), dtype=np.int64)
    table = np.unique(table, axis=0)
    _lexsorted_rows(rng.permutation(table))
    _lexsorted_rows(rng.permutation(np.concatenate([table, table[:50]])))  # repeated rows too
