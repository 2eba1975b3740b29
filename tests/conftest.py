import math
import os

import pytest

from curvspec import exact
from curvspec.analysis import RefinedCountParams

CONFIG_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")
)


def oracle_params(case: str) -> RefinedCountParams:
    """Refined-count coefficients of the exact-spectrum fixtures."""
    if case == "right-isosceles":
        area, p_d, p_n, c = 0.5, 2.0 + math.sqrt(2.0), 0.0, 3.0 / 8.0
    elif case == "equilateral":
        area, p_d, p_n, c = math.sqrt(3.0) / 4.0, 3.0, 0.0, 1.0 / 3.0
    elif case == "disc-d":
        area, p_d, p_n, c = math.pi, 2.0 * math.pi, 0.0, 1.0 / 6.0
    elif case == "disc-n":
        area, p_d, p_n, c = math.pi, 0.0, 2.0 * math.pi, 1.0 / 6.0
    elif case == "spherical-right-triangle":
        area, p_d, p_n, c = math.pi / 2.0, 3.0 * math.pi / 2.0, 0.0, 11.0 / 48.0
    elif case == "hemisphere":
        area, p_d, p_n, c = 2.0 * math.pi, 2.0 * math.pi, 0.0, 1.0 / 6.0
    else:
        raise ValueError(case)
    return RefinedCountParams(
        leading=area / (4.0 * math.pi),
        half_order=(p_n - p_d) / (4.0 * math.pi),
        constant=c,
    )


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
