"""Shared table fixtures.

Tables are the expensive ingredient (0.01 to 0.15 s each in process on a
2-core host, the critical d=3 ones costing most; the entropy integrals about
0.01 s), so they are computed once per session and shared.  Everything
else builds its own small inputs.
"""

import numpy as np
import pytest

from sandharm.green import compute_green, entropy_quadrature


@pytest.fixture(scope="session")
def table_d2_g4():
    return compute_green(2, 4, 16)


@pytest.fixture(scope="session")
def table_d2_g5():
    return compute_green(2, 5, 16)


@pytest.fixture(scope="session")
def table_d3_g6():
    return compute_green(3, 6, 8)


@pytest.fixture(scope="session")
def table_d3_g7():
    return compute_green(3, 7, 8)


@pytest.fixture(scope="session")
def table_d3_g6_r16():
    return compute_green(3, 6, 16)


@pytest.fixture(scope="session")
def table_d2_g4_r32():
    return compute_green(2, 4, 32)


@pytest.fixture(scope="session")
def entropy_d2_critical():
    return entropy_quadrature(2, 4)


@pytest.fixture(scope="session")
def entropy_d3_critical():
    return entropy_quadrature(3, 6)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
