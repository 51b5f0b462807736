import numpy as np
import pytest

from polyheart import bodies
from polyheart.geometry import ConvexPolygon

pytest_plugins = ("pytester",)


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


def far_bodies(count: int):
    """Seeded 3-300-gons scaled by 1e-4 to 1e4 and shifted by up to 1e3."""
    gen = np.random.default_rng(20260419)
    for _ in range(count):
        base = bodies.random_convex_polygon(gen, int(gen.integers(3, 301)))
        yield ConvexPolygon(base.vertices * 10.0 ** gen.uniform(-4.0, 4.0) + gen.uniform(-1e3, 1e3, size=2))


def decay_rel_err(samples, eigenvalue: float) -> float:
    """Relative gap between lam1 and the decay rate of the last 6 sampled
    peaks, fitted as a line through log peak against time: the heat track
    checked against its own grid eigenpair."""
    ts = np.array([s.time for s in samples[-6:]])
    ms = np.array([s.peak for s in samples[-6:]])
    assert np.all(ms > 0.0)
    rate = -float(np.polyfit(ts, np.log(ms), 1)[0])
    return abs(rate - eigenvalue) / eigenvalue
