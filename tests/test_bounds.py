import numpy as np
import pytest
from scipy.special import jn_zeros

from polyheart.bounds import (
    DISC_EIGENVALUE,
    distance_bounds_convex,
    distance_bounds_general,
    eigenvalue_upper_bounds,
    minimal_reciprocal_support_integral,
    reciprocal_support_integral,
)
from polyheart.errors import QuadratureUnstable
from polyheart.geometry import ConvexPolygon, chebyshev_center

from conftest import geometric_upper_bounds, random_bodies

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
    ub = geometric_upper_bounds(square)
    # all three routes coincide on the square: lam(B1)/N * 4/(1/2) = lam(B1)/(1/2)^2
    # = lam(B1)/N * W/|body| with W = 8
    assert ub.perimeter_over_inradius == pytest.approx(23.13274385, abs=1e-6)
    assert ub.monotone == pytest.approx(23.13274385, abs=1e-6)
    assert ub.support_integral == pytest.approx(23.13274385, abs=1e-6)
    assert ub.best == pytest.approx(23.13274385, abs=1e-6)
    assert ub.best >= 2.0 * np.pi**2  # upper bound really is above the true value


def test_starshaped_upper_disc_tight(disc256):
    ub = geometric_upper_bounds(disc256)
    assert ub.best == ub.support_integral
    assert ub.support_integral >= DISC_LAM
    assert ub.support_integral == pytest.approx(DISC_LAM, rel=1e-3)


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
    conv = distance_bounds_convex(square)
    assert conv.coarse == pytest.approx(0.00336489, abs=1e-7)
    general = distance_bounds_general(square, geometric_upper_bounds(square).best)
    # every square support line touches the incircle, so the support-integral
    # route reproduces the convex one exactly
    assert general.precise == pytest.approx(conv.precise, rel=1e-5)
    assert general.precise == pytest.approx(0.0052855562, abs=1e-8)


def test_disc_coarse_golden(disc256):
    conv = distance_bounds_convex(disc256)
    assert conv.coarse == pytest.approx(0.019029, abs=2e-5)


def test_general_bounds_monotone_in_lambda(square):
    g1 = distance_bounds_general(square, 20.0)
    g2 = distance_bounds_general(square, 40.0)
    assert g1.precise > g2.precise
    assert g1.coarse > g2.coarse


def test_bound_hierarchy_random():
    for poly in random_bodies(seed=17, count=10):
        w_val = minimal_reciprocal_support_integral(poly)[0]
        ub = eigenvalue_upper_bounds(poly, w_val)
        # the support-integral form is always best: W <= |bd|/r and W <= 2|body|/r^2
        assert ub.best == ub.support_integral
        assert ub.support_integral <= ub.perimeter_over_inradius * (1.0 + 1e-12)
        assert ub.support_integral <= ub.monotone * (1.0 + 1e-12)
        gen = distance_bounds_general(poly, ub.best)
        conv = distance_bounds_convex(poly)
        # at lam_W = lam(B1)/2 * W/|body| the precise general bound is
        # 16 |body| / (lam(B1)^2 d W^2)
        expanded = 16.0 * poly.area / (DISC_EIGENVALUE**2 * poly.diameter * w_val**2)
        assert gen.precise == pytest.approx(expanded, rel=1e-14)
        vals = [gen.precise, gen.coarse, conv.precise, conv.coarse]
        assert all(v > 0.0 for v in vals)
        assert all(v <= poly.incircle.radius + 1e-12 for v in vals)
        # substituting the perimeter eigenvalue bound can only lose ground
        assert gen.precise >= conv.precise - 1e-12


def test_bounds_scale_linearly(right_tri):
    doubled = ConvexPolygon(2.0 * right_tri.vertices)
    s1, s2 = (
        distance_bounds_general(p, geometric_upper_bounds(p).best).precise
        for p in (right_tri, doubled)
    )
    assert s2 == pytest.approx(2.0 * s1, rel=1e-6)
    c1 = distance_bounds_convex(right_tri).coarse
    c2 = distance_bounds_convex(doubled).coarse
    assert c2 == pytest.approx(2.0 * c1, rel=1e-9)
