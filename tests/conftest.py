import math
import os
from dataclasses import replace

import numpy as np
import pytest

from curvspec import exact, meshing
from curvspec.analysis import RefinedCountParams
from curvspec.configio import DomainConfig, load_domain_config

CONFIG_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")
)


# area, Dirichlet and Neumann perimeters and constant C of the exact-spectrum fixtures
ORACLE_CONSTANTS = {
    "right-isosceles": (0.5, 2.0 + math.sqrt(2.0), 0.0, 3.0 / 8.0),
    "equilateral": (math.sqrt(3.0) / 4.0, 3.0, 0.0, 1.0 / 3.0),
    "disc-d": (math.pi, 2.0 * math.pi, 0.0, 1.0 / 6.0),
    "disc-n": (math.pi, 0.0, 2.0 * math.pi, 1.0 / 6.0),
    "spherical-right-triangle": (math.pi / 2.0, 3.0 * math.pi / 2.0, 0.0, 11.0 / 48.0),
    "hemisphere": (2.0 * math.pi, 2.0 * math.pi, 0.0, 1.0 / 6.0),
}


def oracle_params(case: str) -> RefinedCountParams:
    """Refined-count coefficients of the exact-spectrum fixtures."""
    area, p_d, p_n, c = ORACLE_CONSTANTS[case]
    return RefinedCountParams(
        leading=area / (4.0 * math.pi),
        half_order=(p_n - p_d) / (4.0 * math.pi),
        constant=c,
    )


def shipped_config(name: str) -> DomainConfig:
    """configs/<name>.yaml loaded: the one definition of each named domain."""
    return load_domain_config(os.path.join(CONFIG_DIR, name + ".yaml"))


def disc_with_bad_vertex(index):
    """The once-refined unit disc with the last corner of its first triangle
    off the boundary set to index(num_vertices), and that triangle's row (from 1)."""
    domain = shipped_config("unit_disc_dirichlet").domain
    mesh = meshing.refine(meshing.triangulate(domain, 0.5))
    row = int(np.flatnonzero(~np.isin(mesh.triangles, mesh.boundary_edges[:, :2]).any(axis=1))[0])
    triangles = mesh.triangles.copy()
    triangles[row, 2] = index(mesh.num_vertices)
    return replace(mesh, triangles=triangles), row + 1


@pytest.fixture(scope="session")
def disc_d_660():
    return exact.disc_spectrum(660, "D")


@pytest.fixture(scope="session")
def disc_n_550():
    return exact.disc_spectrum(550, "N")


@pytest.fixture(scope="session")
def right_isosceles_600():
    return exact.right_isosceles_spectrum(600)


@pytest.fixture(scope="session")
def equilateral_600():
    return exact.equilateral_spectrum(600)
