"""P1 finite element assembly for the conformally weighted eigenproblem.

The stiffness matrix is the flat P1 gradient form (curvature enters only
through the mass side); the mass matrix carries the conformal weight and is
integrated with the 3-point edge-midpoint rule, which is exact for the flat
case and second-order consistent for curved weights. Dirichlet nodes are
eliminated by row/column deletion; Neumann is natural. K and then M are
built from int32 COO triplets and equal the COO sum bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import textio
from .geometry import DIRICHLET, SpaceForm, conformal_factor
from .meshing import Mesh, _check_indices, edge_vectors

if TYPE_CHECKING:  # assemble imports scipy.sparse on use
    import scipy.sparse as sp


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
    """Symmetric pencil (K, M) on the free nodes of a mesh, which are the
    vertices on no Dirichlet arc, in ascending vertex order.

    points, the model coordinates of the free nodes, let the sparse solver
    order the pencil by nested dissection; a problem without them is factored
    in its own order.
    """

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    points: np.ndarray | None = None  # (dimension, 2), row i of matrix index i

    @property
    def dimension(self) -> int:
        return self.stiffness.shape[0]


def dirichlet_vertices(mesh: Mesh) -> np.ndarray:
    """Mesh vertices on any Dirichlet arc (mixed-BC corners count as Dirichlet)."""
    return np.unique(mesh.boundary_edges[mesh.boundary_bc() == DIRICHLET, :2])


def _midpoint_weights(p: np.ndarray, weight: ConformalWeight) -> np.ndarray:
    # the weight at each triangle's edge midpoints (m01, m12, m20), (T, 3)
    mids = 0.5 * (p + np.take(p, [1, 2, 0], axis=1))
    return weight(mids[:, :, 0], mids[:, :, 1])


def assemble(mesh: Mesh, weight: ConformalWeight) -> EigenProblem:
    """Assemble the P1 stiffness/weighted-mass pencil with the boundary
    conditions that the mesh's arcs carry applied."""
    _check_indices(mesh, "mesh")
    v = mesh.vertices
    t = mesh.triangles
    if weight.space is SpaceForm.HYPERBOLIC and np.any(v[:, 1] <= 0.0):
        raise AssemblyError("hyperbolic assembly needs all vertices at y > 0")

    area = mesh.signed_areas()
    if np.any(area <= 0.0):
        raise AssemblyError("mesh contains nonpositively oriented triangles")

    n = mesh.num_vertices
    free = np.flatnonzero(np.bincount(dirichlet_vertices(mesh), minlength=n) == 0)

    import scipy.sparse as sp  # here, so that importing cli loads no scipy
    # int32 triplets (tocsr's own index dtype), row-major over each 3x3 block
    rows = np.repeat(t.astype(np.int32), 3, axis=1).reshape(-1)
    cols = rows.reshape(-1, 3, 3).swapaxes(1, 2).reshape(-1)

    def free_block(loc):
        whole = sp.coo_matrix((loc.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
        return whole[free][:, free].tocsr()

    # P1 gradients: grad phi_i = rot90(p_{i+2} - p_{i+1}) / (2 area), the opposite
    # edge. k_ij sums the x products, then the y products, from +0.0 as einsum does
    # (two -0.0 products give +0.0); rot90's sign cancels, and k_ij = k_ji exactly.
    # Products over (3, 3, T), with its long inner axis, beat those over (T, 3, 3)
    gx, gy = np.ascontiguousarray(edge_vectors(v, t[:, [1, 2, 0]]).T) / (2.0 * area)
    k_loc = gy[:, None] * gy
    k_loc += 0.0
    k_loc += gx[:, None] * gx
    k_loc *= area
    k_loc = np.ascontiguousarray(k_loc.transpose(2, 0, 1))
    del gx, gy  # one matrix in flight at a time: K's arrays go before M's exist
    stiffness = free_block(k_loc)
    del k_loc

    # an edge's midpoint has phi = 1/2 at its two ends: an off-diagonal entry takes
    # the shared edge's weight, vertex i the weights of edges i and i - 1
    w = _midpoint_weights(np.take(v, t, axis=0), weight)
    m_loc = np.take(w, [[0, 0, 2], [0, 1, 1], [2, 1, 2]], axis=1)  # C order: reshape(-1) is a view
    m_loc[:, [0, 1, 2], [0, 1, 2]] += w[:, [2, 0, 1]]
    m_loc *= (area / 12.0)[:, None, None]
    del w
    mass = free_block(m_loc)
    return EigenProblem(stiffness=stiffness, mass=mass, points=np.take(v, free, axis=0))


def export_matrix(matrix: sp.spmatrix, path) -> None:
    """Coordinate-format text dump: 0-based `row col value`, sorted row-major."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    header = f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"
    cols = (coo.row[order], coo.col[order], coo.data[order])
    textio.write_table(path, header, "%d %d %.17g", *cols)
