import numpy as np
import pytest
from scipy.special import jn_zeros

from polyheart.bounds import (
    DISC_EIGENVALUE,
    BodyStats,
    distance_bound_starshaped,
    distance_bounds_convex,
    distance_bounds_general,
    eigenvalue_upper_bounds,
    eigenvalue_upper_starshaped,
    minimal_reciprocal_support_integral,
    reciprocal_support_integral,
)
from polyheart.errors import QuadratureUnstable
from polyheart.geometry import ConvexPolygon, chebyshev_center

from conftest import random_bodies

DISC_LAM = 5.783185962946785  # square of the first positive zero of J0


def edge_sum_oracle(poly: ConvexPolygon, center) -> float:
    # support distance is constant along each edge, so the boundary
    # integral of its reciprocal collapses to sum(|e_j| / gap_j)
    center = np.asarray(center, dtype=float)
    a = poly.vertices
    b = np.roll(a, -1, axis=0)
    lengths = np.linalg.norm(b - a, axis=1)
    gaps = poly.edge_offsets - poly.edge_normals @ center
    return float(np.sum(lengths / gaps))


def test_disc_eigenvalue_golden():
    assert DISC_EIGENVALUE == pytest.approx(DISC_LAM, abs=1e-10)
    assert DISC_EIGENVALUE == pytest.approx(jn_zeros(0, 1)[0] ** 2, rel=1e-15)


def test_eigen_upper_square(square):
    stats = BodyStats.from_polygon(square)
    ub = eigenvalue_upper_bounds(stats, None)
    # both routes coincide on the square: lam(B1)/N * 4/(1/2) = lam(B1)/(1/2)^2
    assert ub.perimeter_over_inradius == pytest.approx(23.13274385, abs=1e-6)
    assert ub.monotone == pytest.approx(23.13274385, abs=1e-6)
    assert ub.best == pytest.approx(23.13274385, abs=1e-6)
    assert ub.best >= 2.0 * np.pi**2  # upper bound really is above the true value


def test_eigen_upper_prefers_numeric(square):
    stats = BodyStats.from_polygon(square)
    ub = eigenvalue_upper_bounds(stats, numeric=19.74)
    assert ub.best == pytest.approx(19.74)


def test_starshaped_upper_disc_tight(disc256):
    ub = eigenvalue_upper_starshaped(
        BodyStats.from_polygon(disc256), minimal_reciprocal_support_integral(disc256)[0]
    )
    assert ub >= DISC_LAM
    assert ub == pytest.approx(DISC_LAM, rel=1e-3)


def test_reciprocal_support_square(square):
    val = reciprocal_support_integral(square, [0.5, 0.5])
    assert val == pytest.approx(8.0, abs=1e-9)
    # off-center: all four gaps change, closed-form edge sum is the oracle
    val = reciprocal_support_integral(square, [0.3, 0.6])
    assert val == pytest.approx(edge_sum_oracle(square, [0.3, 0.6]), abs=1e-9)


def test_reciprocal_support_random_oracle():
    for poly in random_bodies(seed=3, count=8):
        gen = np.random.default_rng(99)
        cheb = chebyshev_center(poly)
        for _ in range(3):
            c = cheb.center + cheb.radius * 0.5 * gen.uniform(-1.0, 1.0, size=2)
            assert reciprocal_support_integral(poly, c) == pytest.approx(
                edge_sum_oracle(poly, c), rel=1e-9
            )


def test_reciprocal_support_unstable_on_boundary(square):
    with pytest.raises(QuadratureUnstable, match=r"smallest edge gap .* <= tolerance"):
        reciprocal_support_integral(square, [0.0, 0.5])


def test_minimal_reciprocal_support_square(square):
    val, center = minimal_reciprocal_support_integral(square)
    assert val == pytest.approx(8.0, abs=1e-6)
    assert np.allclose(center, [0.5, 0.5], atol=1e-3)


def test_minimal_reciprocal_support_disc(disc256):
    val = minimal_reciprocal_support_integral(disc256)[0]
    assert val == pytest.approx(2.0 * np.pi, abs=2e-3)


def test_minimal_reciprocal_support_is_stationary(halfdisc64):
    # the gradient sum |e_i| n_i / d_i^2 vanishes at the returned minimizer
    for poly in [halfdisc64, *random_bodies(seed=29, count=12, lo=3)]:
        val, center = minimal_reciprocal_support_integral(poly)
        gaps = poly.edge_offsets - poly.edge_normals @ center
        grad = (poly.edge_lengths / gaps**2) @ poly.edge_normals
        assert np.linalg.norm(grad) <= 1e-9 * val / poly.diameter
        assert val == pytest.approx(reciprocal_support_integral(poly, center), rel=1e-15)


def test_distance_goldens_square(square):
    stats = BodyStats.from_polygon(square)
    conv = distance_bounds_convex(stats)
    assert conv.coarse == pytest.approx(0.00336489, abs=1e-7)
    star = distance_bound_starshaped(stats, minimal_reciprocal_support_integral(square)[0])
    # every square support line touches the incircle, so the star route
    # reproduces the convex one exactly
    assert star == pytest.approx(conv.precise, rel=1e-5)
    assert star == pytest.approx(0.0052855562, abs=1e-8)


def test_disc_coarse_golden(disc256):
    conv = distance_bounds_convex(BodyStats.from_polygon(disc256))
    assert conv.coarse == pytest.approx(0.019029, abs=2e-5)


def test_general_bounds_monotone_in_lambda(square):
    stats = BodyStats.from_polygon(square)
    g1 = distance_bounds_general(stats, 20.0)
    g2 = distance_bounds_general(stats, 40.0)
    assert g1.precise > g2.precise
    assert g1.coarse > g2.coarse


def test_bound_hierarchy_random():
    for poly in random_bodies(seed=17, count=10):
        stats = BodyStats.from_polygon(poly)
        ub = eigenvalue_upper_bounds(stats, None)
        gen = distance_bounds_general(stats, ub.best)
        conv = distance_bounds_convex(stats)
        w_val = minimal_reciprocal_support_integral(poly)[0]
        star = distance_bound_starshaped(stats, w_val)
        # the star bound is the precise general one at lam_W = lam(B1)/2 * W/|body|,
        # i.e. 16 |body| / (lam(B1)^2 d W^2)
        lam_w = eigenvalue_upper_starshaped(stats, w_val)
        assert star == pytest.approx(distance_bounds_general(stats, lam_w).precise, rel=1e-15)
        expanded = 16.0 * stats.area / (DISC_EIGENVALUE**2 * stats.diameter * w_val**2)
        assert star == pytest.approx(expanded, rel=1e-14)
        vals = [gen.precise, gen.coarse, conv.precise, conv.coarse, star]
        assert all(v > 0.0 for v in vals)
        assert all(v <= stats.inradius + 1e-12 for v in vals)
        # substituting the perimeter eigenvalue bound can only lose ground
        assert gen.precise >= conv.precise - 1e-12
        # the boundary-integral route is at least as sharp as the convex one
        assert star >= conv.precise - 1e-12


def test_bounds_scale_linearly(right_tri):
    doubled = ConvexPolygon(2.0 * right_tri.vertices)
    s1, s2 = (
        distance_bound_starshaped(BodyStats.from_polygon(p), minimal_reciprocal_support_integral(p)[0])
        for p in (right_tri, doubled)
    )
    assert s2 == pytest.approx(2.0 * s1, rel=1e-6)
    c1 = distance_bounds_convex(BodyStats.from_polygon(right_tri)).coarse
    c2 = distance_bounds_convex(BodyStats.from_polygon(doubled)).coarse
    assert c2 == pytest.approx(2.0 * c1, rel=1e-9)
