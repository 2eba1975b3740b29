import math

import numpy as np
import pytest

from curvspec import geometry as geo
from curvspec import meshing


@pytest.fixture(scope="module")
def disc_domain():
    return geo.euclidean_disc(1.0, "D")


def test_unit_square_coarse():
    dom = geo.euclidean_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    mesh = meshing.triangulate(dom, 1.0)
    meshing.validate_mesh(mesh)
    assert mesh.num_triangles >= 2
    corners = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
    have = {tuple(v) for v in mesh.vertices}
    assert corners <= have
    assert mesh.max_edge_length() <= 1.0 + 1e-12
    assert mesh.min_angle_deg() >= 20.0 - 1e-9


def test_disc_boundary_snapping(disc_domain):
    mesh = meshing.triangulate(disc_domain, 0.5)
    meshing.validate_mesh(mesh)
    b = np.unique(mesh.boundary_edges[:, :2])
    r2 = np.sum(mesh.vertices[b] ** 2, axis=1)
    assert np.max(np.abs(r2 - 1.0)) < 1e-10


def test_region_between_triangles_euler():
    mesh = meshing.triangulate(geo.region_between_triangles())
    meshing.validate_mesh(mesh)
    assert meshing.euler_characteristic(mesh) == 0


def test_refine_counts_and_nesting(disc_domain):
    mesh = meshing.triangulate(disc_domain, 0.5)
    fine = meshing.refine(mesh)
    meshing.validate_mesh(fine)
    assert fine.num_triangles == 4 * mesh.num_triangles
    assert fine.level == mesh.level + 1
    # parent vertices are a prefix of the child's
    assert np.array_equal(fine.vertices[: mesh.num_vertices], mesh.vertices)
    # shared midpoints created once: V_new = V + E
    edges = set()
    for t in mesh.triangles:
        for a in range(3):
            i, j = int(t[a]), int(t[(a + 1) % 3])
            edges.add((min(i, j), max(i, j)))
    assert fine.num_vertices == mesh.num_vertices + len(edges)


def test_refined_disc_midpoints_on_circle(disc_domain):
    mesh = meshing.refine(meshing.triangulate(disc_domain, 0.5))
    b = np.unique(mesh.boundary_edges[:, :2])
    r2 = np.sum(mesh.vertices[b] ** 2, axis=1)
    assert np.max(np.abs(r2 - 1.0)) < 1e-10


def test_mesh_area_converges_to_disc_area(disc_domain):
    mesh = meshing.triangulate(disc_domain, 0.5)
    errors = []
    for _ in range(4):
        errors.append(abs(float(mesh.signed_areas().sum()) - math.pi))
        mesh = meshing.refine(mesh)
    errors.append(abs(float(mesh.signed_areas().sum()) - math.pi))
    assert all(e2 < e1 / 2 for e1, e2 in zip(errors, errors[1:]))


def test_orientation_positive_everywhere():
    for dom in [
        geo.six_star(),
        geo.arrowhead(),
        geo.build_spherical_triangle(
            geo.SphericalTriangleSpec(angles=(math.pi / 2,) * 3)
        )[0],
    ]:
        mesh = meshing.triangulate(dom)
        assert np.all(mesh.signed_areas() > 0)
        mesh = meshing.refine(mesh)
        assert np.all(mesh.signed_areas() > 0)


def test_quality_and_edge_bounds_across_domains():
    domains = [
        geo.regular_polygon(5),
        geo.region_between_triangles(),
        geo.build_hyperbolic_triangle(
            geo.HyperbolicTriangleSpec(angles=(math.pi / 6,) * 3)
        )[0],
        geo.build_spherical_disc(math.pi / 2)[0],
    ]
    for dom in domains:
        h = 0.25 * dom.model_diameter()
        mesh = meshing.triangulate(dom, h)
        meshing.validate_mesh(mesh)
        assert mesh.min_angle_deg() >= 20.0 - 1e-9
        assert mesh.max_edge_length() <= h * (1 + 1e-9)


def test_quality_error_reports_achieved_angle():
    # a 10-degree needle cannot meet the 20-degree bound at its apex
    needle = geo.euclidean_polygon(
        [(0, 0), (1.0, 0.0), (1.0, math.tan(math.radians(10.0)))]
    )
    with pytest.raises(meshing.MeshQualityError) as err:
        meshing.triangulate(needle, 0.5)
    assert 0.0 < err.value.min_angle_deg < 20.0


def test_triangulate_determinism(disc_domain):
    m1 = meshing.triangulate(disc_domain, 0.4)
    m2 = meshing.triangulate(disc_domain, 0.4)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)
    assert np.array_equal(m1.boundary_edges, m2.boundary_edges)


def test_mesh_file_roundtrip_bit_identical(tmp_path, disc_domain):
    mesh = meshing.refine(meshing.triangulate(disc_domain, 0.6))
    p1 = tmp_path / "a.mesh"
    p2 = tmp_path / "b.mesh"
    meshing.save_mesh(mesh, p1)
    loaded = meshing.load_mesh(p1)
    meshing.validate_mesh(loaded)
    assert loaded.level == mesh.level
    meshing.save_mesh(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # refinement still works after a round trip (arcs preserved)
    finer = meshing.refine(loaded)
    meshing.validate_mesh(finer)


def test_load_mesh_error_messages(tmp_path):
    bad = tmp_path / "bad.mesh"
    bad.write_text("not a mesh\n")
    with pytest.raises(meshing.MeshError, match="mesh"):
        meshing.load_mesh(bad)


def _saved_lines(tmp_path, disc_domain):
    path = tmp_path / "good.mesh"
    meshing.save_mesh(meshing.triangulate(disc_domain, 0.6), path)
    return path.read_text().splitlines()


def test_load_mesh_truncated_table_names_path_and_table(tmp_path, disc_domain):
    lines = _saved_lines(tmp_path, disc_domain)
    tri = next(k for k, line in enumerate(lines) if line.startswith("triangles "))
    bad = tmp_path / "truncated.mesh"
    bad.write_text("\n".join(lines[: tri + 3]) + "\n")
    with pytest.raises(meshing.MeshError, match=r"truncated\.mesh.*'triangles'"):
        meshing.load_mesh(bad)


def test_load_mesh_malformed_number_names_path_and_table(tmp_path, disc_domain):
    lines = _saved_lines(tmp_path, disc_domain)
    lines[2] = "0.5 not-a-number"  # first vertex row
    bad = tmp_path / "malformed.mesh"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshing.MeshError, match=r"malformed\.mesh.*'vertices'"):
        meshing.load_mesh(bad)


@pytest.mark.parametrize(
    "line, header",
    [(0, "mesh level"), (0, "mesh"), (1, "vertices two"), (1, "vertices -3")],
)
def test_load_mesh_malformed_header_names_path_line_and_tag(tmp_path, disc_domain, line, header):
    lines = _saved_lines(tmp_path, disc_domain)
    lines[line] = header
    bad = tmp_path / "header.mesh"
    bad.write_text("\n".join(lines) + "\n")
    tag = header.split()[0]
    with pytest.raises(meshing.MeshError, match=rf"header\.mesh:{line + 1}: .*'{tag}'"):
        meshing.load_mesh(bad)


@pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
def test_load_mesh_non_ascii_byte_names_path_and_line(tmp_path, disc_domain, encoding):
    lines = _saved_lines(tmp_path, disc_domain)
    lines[1] = lines[1].replace("vertices", "vertic\u00e9s")
    bad = tmp_path / "accent.mesh"
    bad.write_bytes(("\n".join(lines) + "\n").encode(encoding))
    with pytest.raises(meshing.MeshError, match=r"accent\.mesh:2: expected 'vertices'"):
        meshing.load_mesh(bad)


def test_load_mesh_truncated_before_a_section_names_path_and_tag(tmp_path, disc_domain):
    lines = _saved_lines(tmp_path, disc_domain)
    tri = next(k for k, line in enumerate(lines) if line.startswith("triangles "))
    bad = tmp_path / "cut.mesh"
    bad.write_text("\n".join(lines[:tri]) + "\n")  # ends with the last vertex row
    with pytest.raises(meshing.MeshError, match=r"cut\.mesh: truncated before 'triangles' section"):
        meshing.load_mesh(bad)


def test_load_mesh_unknown_arc_kind_names_path_and_line(tmp_path, disc_domain):
    lines = _saved_lines(tmp_path, disc_domain)
    assert lines[-1].startswith("arc ")
    lines[-1] = "spline" + lines[-1][3:]
    bad = tmp_path / "kind.mesh"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshing.MeshError, match=rf"kind\.mesh:{len(lines)}: unknown arc kind 'spline'"):
        meshing.load_mesh(bad)


def test_target_h_validation(disc_domain):
    for target_h in (-1.0, 0.0, math.nan):
        with pytest.raises(meshing.MeshError, match="target_h must be positive"):
            meshing.triangulate(disc_domain, target_h)


@pytest.mark.parametrize("row, detail", [
    ("arc 0 0 1", "3 fields"),  # a circle arc needs five numbers
    ("segment 0 0 1 0 0 D", "6 fields"),
    ("arc 0 0 one 0 6.28 D", "could not convert string to float: 'one'"),
])
def test_load_mesh_bad_arcs_row_names_path_and_row(tmp_path, disc_domain, row, detail):
    lines = _saved_lines(tmp_path, disc_domain)
    assert lines[-2] == "arcs 1"
    lines[-1] = row
    bad = tmp_path / "arcs.mesh"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshing.MeshError, match=rf"arcs\.mesh: bad 'arcs' table row 1: {detail}"):
        meshing.load_mesh(bad)


@pytest.mark.parametrize("table, value, detail", [
    ("vertices", "nan", "row 1: non-finite coordinate"),
    ("vertices", "-inf", "row 1: non-finite coordinate"),
    ("arcs", "nan", "row 1: non-finite field"),
    ("arcs", "inf", "row 1: non-finite field"),
])
def test_load_mesh_non_finite_number_names_path_table_and_row(tmp_path, disc_domain, table, value, detail):
    lines = _saved_lines(tmp_path, disc_domain)
    row = 2 if table == "vertices" else len(lines) - 1  # the first vertex, the circle arc
    fields = lines[row].split()
    fields[1 if table == "vertices" else 4] = value  # a y coordinate, the arc's phi0
    lines[row] = " ".join(fields)
    bad = tmp_path / "finite.mesh"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(meshing.MeshError, match=rf"finite\.mesh: bad '{table}' table {detail}$"):
        meshing.load_mesh(bad)


def _hand_mesh(vertices, triangles, boundary):
    # every boundary edge (i, j) lies on its own segment from vertex i to vertex j
    v = np.asarray(vertices, dtype=float)
    arcs = tuple(geo.LineSegment(tuple(v[i]), tuple(v[j]), "D") for i, j in boundary)
    rows = [(i, j, a) for a, (i, j) in enumerate(boundary)]
    return meshing.Mesh(v, triangles, rows, arcs)


def test_validate_mesh_rejects_a_clockwise_triangle():
    mesh = _hand_mesh([(0, 0), (0, 1), (1, 0)], [[0, 1, 2]], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(meshing.MeshError, match="mesh has nonpositively oriented triangles"):
        meshing.validate_mesh(mesh)


def test_validate_mesh_rejects_an_edge_on_three_triangles():
    # counterclockwise triangles above, below and again above the edge (0, 1)
    vertices = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)]
    triangles = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
    mesh = _hand_mesh(vertices, triangles, [(1, 2), (2, 0), (0, 3), (3, 1)])
    with pytest.raises(meshing.MeshError, match="mesh is not edge-manifold"):
        meshing.validate_mesh(mesh)


def test_validate_mesh_rejects_a_boundary_that_does_not_tile(disc_domain):
    mesh = meshing.triangulate(disc_domain, 0.5)
    mesh.boundary_edges = mesh.boundary_edges[1:]
    with pytest.raises(meshing.MeshError, match="declared boundary edges do not tile the mesh boundary"):
        meshing.validate_mesh(mesh)


def test_validate_mesh_rejects_a_boundary_vertex_off_its_arc(disc_domain):
    mesh = meshing.triangulate(disc_domain, 0.5)
    k, _, a = mesh.boundary_edges[0]
    mesh.vertices[k] *= 1.0 + 1e-6  # radially outward, triangles keep their orientation
    with pytest.raises(meshing.MeshError, match=rf"boundary vertex {k} lies 1\.000e-06 away from arc {a}$"):
        meshing.validate_mesh(mesh)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_mesh_rejects_a_non_finite_vertex(disc_domain, value):
    # nan fails no comparison the later checks make, and refine spreads it
    mesh = meshing.triangulate(disc_domain, 0.5)
    mesh.vertices[len(mesh.vertices) // 2, 1] = value
    with pytest.raises(meshing.MeshError, match="mesh has non-finite vertex coordinates"):
        meshing.validate_mesh(mesh)


@pytest.mark.parametrize("triangles, boundary", [
    # two triangles that touch only at vertex 0, which has four boundary edges
    ([[0, 1, 2], [0, 3, 4]], [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
    # one triangle with (1, 2) declared twice: vertices 1 and 2 have three
    ([[0, 1, 2]], [(0, 1), (1, 2), (2, 0), (1, 2)]),
])
def test_validate_mesh_rejects_boundary_edges_that_are_not_closed_loops(triangles, boundary):
    # every declared edge is a boundary edge of the mesh, so the tiling check passes
    mesh = _hand_mesh([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)], triangles, boundary)
    with pytest.raises(meshing.MeshError, match="boundary edges do not form closed loops"):
        meshing.validate_mesh(mesh)


def test_spherical_triangle_junction_meshes():
    # the junction after the u-axis segment must be that segment's exact end;
    # an arc-evaluated y of -1e-17 there once fanned chord points into slivers
    dom = geo.build_spherical_triangle(
        geo.SphericalTriangleSpec(angles=(1.071, 0.701, 1.494))
    )[0]
    mesh = meshing.triangulate(dom)
    meshing.validate_mesh(mesh)
    assert mesh.min_angle_deg() >= 20.0 - 1e-9


def test_refine_rejects_boundary_edge_not_in_mesh(disc_domain):
    mesh = meshing.triangulate(disc_domain, 0.5)
    boundary = mesh.boundary_edges.copy()
    boundary[0, 1] = mesh.num_vertices - 1  # an interior vertex: not a mesh edge
    bad = meshing.Mesh(mesh.vertices, mesh.triangles, boundary, mesh.arcs)
    with pytest.raises(meshing.MeshError, match="not edges of the mesh"):
        meshing.refine(bad)


def test_refine_rejects_snapped_midpoint_that_inverts_a_child():
    # the chord (1, 0)-(0, 1) of the unit circle is a boundary edge of a thin
    # triangle whose third corner (0.8, 0.8) lies inside the arc: the snapped
    # midpoint (0.707, 0.707) passes the middle child's opposite edge
    arc = geo.CircleArc((0.0, 0.0), 1.0, 0.0, 0.5 * math.pi, bc="N")
    mesh = meshing.Mesh(
        [(1.0, 0.0), (0.0, 1.0), (0.8, 0.8)], [[0, 2, 1]], boundary_edges=[[0, 1, 0]], arcs=(arc,)
    )
    with pytest.raises(meshing.MeshError, match="refinement produced 1 inverted triangles"):
        meshing.refine(mesh)
