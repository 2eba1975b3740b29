"""Property tests of triangulate + refine on random triangles of all three geometries."""

import math
import os
import tempfile

import numpy as np
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


def _check_refinement_chain(domain):
    mesh = meshing.triangulate(domain)
    meshing.validate_mesh(mesh)
    assert meshing.euler_characteristic(mesh) == 1
    _check_round_trip(mesh)
    for _ in range(2):
        child = meshing.refine(mesh)
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
