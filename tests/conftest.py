import numpy as np
import pytest

from polyheart import bodies


@pytest.fixture(scope="session")
def square():
    return bodies.square()


@pytest.fixture(scope="session")
def rect21():
    return bodies.rectangle(2.0, 1.0)


@pytest.fixture(scope="session")
def right_tri():
    return bodies.triangle([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])


@pytest.fixture(scope="session")
def halfdisc64():
    return bodies.halfdisc(1.0, 0.0, 64)


@pytest.fixture(scope="session")
def hexagon():
    return bodies.regular_ngon(6)


@pytest.fixture(scope="session")
def disc256():
    return bodies.regular_ngon(256)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def point_in(poly, x, eps):
    """x lies in poly or at most eps beyond each of its edge lines."""
    return bool(np.all(poly.edge_normals @ np.asarray(x, dtype=float) <= poly.edge_offsets + eps))


def random_bodies(seed: int, count: int, lo: int = 5, hi: int = 12):
    gen = np.random.default_rng(seed)
    return [
        bodies.random_convex_polygon(gen, int(gen.integers(lo, hi + 1)))
        for _ in range(count)
    ]
