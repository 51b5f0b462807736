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
    return bodies.right_triangle()


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


def random_bodies(seed: int, count: int, lo: int = 5, hi: int = 12):
    gen = np.random.default_rng(seed)
    return [
        bodies.random_convex_polygon(gen, int(gen.integers(lo, hi + 1)))
        for _ in range(count)
    ]


def spacings_polygon(rng: np.random.Generator, n: int, min_gap_frac: float = 0.3) -> np.ndarray:
    """CCW vertices of a seeded convex n-gon, built in O(n).

    Angles on the unit circle have conditioned uniform spacings: each gap
    is delta + (2 pi - n delta) * Dirichlet(1, ..., 1).  The cyclic polygon
    then goes through a rotation, an axis stretch in [0.6, 1.8] and a
    shift.  The same construction makes the benchmark's seeded bodies, so
    a body it reports can be rebuilt here from its seed.
    """
    delta = min_gap_frac * 2.0 * np.pi / n
    gaps = delta + (2.0 * np.pi - n * delta) * rng.dirichlet(np.ones(n))
    ang = rng.uniform(0.0, 2.0 * np.pi) + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    theta = rng.uniform(0.0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    stretch = np.diag(rng.uniform(0.6, 1.8, size=2))
    return pts @ (rot @ stretch).T + rng.uniform(-0.5, 0.5, size=2)
