import random

import pytest

from gridhfk import GridDiagram, component_count
from gridhfk.corpus import get


@pytest.fixture
def unknot():
    return get("unknot").grid


@pytest.fixture
def unknot_corner_x():
    return get("unknot-corner-x").grid


@pytest.fixture
def trefoil():
    return get("trefoil").grid


@pytest.fixture
def trefoil_corner_x():
    return get("trefoil-corner-x").grid


@pytest.fixture
def figure_eight():
    return get("figure-eight").grid


@pytest.fixture
def cinquefoil():
    return get("cinquefoil").grid


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_grid(rng, n):
    """A random valid n x n grid, knot or link."""
    while True:
        o = list(range(1, n + 1))
        x = list(range(1, n + 1))
        rng.shuffle(o)
        rng.shuffle(x)
        try:
            return GridDiagram(n, tuple(o), tuple(x))
        except Exception:
            continue


def random_knot(rng, n):
    """A random valid single-component n x n grid."""
    while True:
        G = random_grid(rng, n)
        if component_count(G) == 1:
            return G
