"""P1 finite element assembly for the conformally weighted eigenproblem.

The stiffness matrix is the flat P1 gradient form (curvature enters only
through the mass side); the mass matrix carries the conformal weight and is
integrated with the 3-point edge-midpoint rule, which is exact for the flat
case and second-order consistent for curved weights. Dirichlet nodes are
eliminated by row/column deletion; Neumann is natural.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import textio
from .geometry import DIRICHLET, SpaceForm, conformal_factor
from .meshing import Mesh, edge_vectors


class AssemblyError(ValueError):
    """Mesh/weight combination cannot be assembled."""


@dataclass(frozen=True)
class ConformalWeight:
    """Mass-side weight of the model-coordinate eigenproblem.

    Euclidean 1, hyperbolic 1/y^2, spherical (4/(x^2+y^2+4))^2: the squared
    conformal factor of the space form.
    """

    space: SpaceForm

    def __call__(self, x, y):
        rho = conformal_factor(self.space, x, y)
        return rho * rho


@dataclass
class EigenProblem:
    """Symmetric pencil (K, M) on the free nodes of a mesh.

    points, the model coordinates of the free nodes, let the sparse solver
    order the pencil by nested dissection; a problem without them is factored
    in its own order.
    """

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    free_nodes: np.ndarray  # matrix index -> mesh vertex
    node_index: np.ndarray  # mesh vertex -> matrix index, -1 if constrained
    num_constrained: int
    points: np.ndarray | None = None  # (dimension, 2), row i of matrix index i

    @property
    def dimension(self) -> int:
        return self.stiffness.shape[0]


def constrained_dimension(problem: EigenProblem) -> int:
    """Number of free nodes of the assembled problem."""
    return problem.dimension


def dirichlet_vertices(mesh: Mesh, bc_map=None) -> np.ndarray:
    """Mesh vertices on any Dirichlet arc (mixed-BC corners count as Dirichlet)."""
    on_dirichlet = _effective_bc(mesh, bc_map) == DIRICHLET
    return np.unique(mesh.boundary_edges[on_dirichlet, :2])


def _effective_bc(mesh: Mesh, bc_map) -> np.ndarray:
    if bc_map is None:
        return mesh.boundary_bc()
    arc_ids = mesh.boundary_edges[:, 2]
    used, first = np.unique(arc_ids, return_index=True)
    per_arc = np.full(len(mesh.arcs), "", dtype="<U1")
    for a in used[np.argsort(first)]:  # arcs in order of first use
        bc = bc_map.get(int(a)) if hasattr(bc_map, "get") else bc_map[int(a)]
        if bc not in ("D", "N"):
            raise AssemblyError(f"bc_map[{int(a)}] must be 'D' or 'N', got {bc!r}")
        per_arc[a] = bc
    return per_arc[arc_ids]


def _midpoint_weights(p: np.ndarray, weight: ConformalWeight) -> np.ndarray:
    # the weight at each triangle's edge midpoints (m01, m12, m20), (T, 3)
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    return weight(mids[:, :, 0], mids[:, :, 1])


def assemble(mesh: Mesh, weight: ConformalWeight, bc_map=None) -> EigenProblem:
    """Assemble the P1 stiffness/weighted-mass pencil with BCs applied.

    `bc_map` optionally overrides the per-arc boundary conditions carried by
    the mesh (arc id -> "D"/"N").
    """
    v = mesh.vertices
    t = mesh.triangles
    if weight.space is SpaceForm.HYPERBOLIC and np.any(v[:, 1] <= 0.0):
        raise AssemblyError("hyperbolic assembly needs all vertices at y > 0")

    area = mesh.signed_areas()
    if np.any(area <= 0.0):
        raise AssemblyError("mesh contains nonpositively oriented triangles")

    # P1 gradients: grad phi_i = rot90(p_{i+2} - p_{i+1}) / (2 area), the opposite edge
    opposite = np.roll(edge_vectors(v, t), -1, axis=1)
    grads = np.stack([-opposite[..., 1], opposite[..., 0]], axis=-1)
    grads /= 2.0 * area[:, None, None]

    k_loc = np.einsum("tia,tja->tij", grads, grads) * area[:, None, None]
    k_loc = 0.5 * (k_loc + np.swapaxes(k_loc, 1, 2))  # exact symmetry

    # an edge's midpoint has phi = 1/2 at its two ends: an off-diagonal entry takes
    # the shared edge's weight, vertex i the weights of edges i and i - 1
    w = _midpoint_weights(v[t], weight)
    m_loc = np.take(w, [[0, 0, 2], [0, 1, 1], [2, 1, 2]], axis=1)  # C order: reshape(-1) is a view
    m_loc[:, [0, 1, 2], [0, 1, 2]] += np.roll(w, 1, axis=1)
    m_loc *= (area / 12.0)[:, None, None]

    rows = np.repeat(t, 3, axis=1).reshape(-1)
    cols = np.tile(t, (1, 3)).reshape(-1)
    n = mesh.num_vertices
    stiffness = sp.coo_matrix((k_loc.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    mass = sp.coo_matrix((m_loc.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()

    constrained = dirichlet_vertices(mesh, bc_map)
    node_index = -np.ones(n, dtype=np.int64)
    free = np.setdiff1d(np.arange(n, dtype=np.int64), constrained)
    node_index[free] = np.arange(len(free))
    stiffness = stiffness[free][:, free].tocsr()
    mass = mass[free][:, free].tocsr()
    return EigenProblem(
        stiffness=stiffness,
        mass=mass,
        free_nodes=free,
        node_index=node_index,
        num_constrained=len(constrained),
        points=v[free],
    )


def weighted_mesh_area(mesh: Mesh, weight: ConformalWeight) -> float:
    """Midpoint-rule integral of the weight over the mesh (equals sum of all mass entries)."""
    w = _midpoint_weights(mesh.vertices[mesh.triangles], weight)
    return float(np.sum(mesh.signed_areas() / 3.0 * w.sum(axis=1)))


def export_matrix(matrix: sp.spmatrix, path) -> None:
    """Coordinate-format text dump: 0-based `row col value`, sorted row-major."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    header = f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"
    cols = (coo.row[order], coo.col[order], coo.data[order])
    textio.write_table(path, header, "%d %d %.17g", *cols)
