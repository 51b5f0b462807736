import numpy as np
import pytest

from polyheart import bodies
from polyheart.bounds import minimal_reciprocal_support_integral
from polyheart.errors import CenterTooCloseToBoundary
from polyheart.folding import folding_profile, heart_region
from polyheart.geometry import ConvexPolygon, boundary_distance, chebyshev_center
from polyheart.polar import (
    polar_area,
    polar_area_eigen_check,
    polar_area_lower_check,
    polar_polygon,
    santalo_point,
)

from conftest import far_bodies, point_in, random_bodies


def hausdorff(a: ConvexPolygon, b: ConvexPolygon) -> float:
    def one_way(p, q):
        worst = 0.0
        for v in p.vertices:
            if not point_in(q, v, eps=0.0):
                worst = max(worst, boundary_distance(q, v))
        return worst

    return max(one_way(a, b), one_way(b, a))


def test_polar_area_is_polar_polygon_area():
    # the closed form against the shoelace of the polar polygon; the
    # straight-angle body repeats a normal, so one term q_i is 0
    gen = np.random.default_rng(26)
    polys = [bodies.random_convex_polygon(gen, n) for n in (3, 4, 5, 8, 13, 32, 64, 128, 200)]
    polys.append(ConvexPolygon([[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]]))
    for poly in polys:
        for c in (poly.centroid, santalo_point(poly)):
            assert polar_area(poly, c) == pytest.approx(polar_polygon(poly, c).area, rel=1e-13, abs=0.0)


def test_square_polar_is_diamond(square):
    pb = polar_polygon(square, [0.5, 0.5])
    assert len(pb) == 4
    assert pb.area == pytest.approx(8.0, abs=1e-9)


def test_bipolar_identity(square, hexagon):
    for poly, center in ((square, [0.5, 0.5]), (hexagon, [0.0, 0.0])):
        pb = polar_polygon(poly, center)
        back = polar_polygon(pb, center)
        assert hausdorff(back, poly) <= 1e-9 * poly.diameter


def test_bipolar_identity_random():
    for poly in random_bodies(seed=8, count=8):
        c = chebyshev_center(poly).center
        back = polar_polygon(polar_polygon(poly, c), c)
        assert hausdorff(back, poly) <= 1e-9 * poly.diameter


def test_polar_blows_up_near_boundary():
    sq = bodies.square()
    areas = [polar_polygon(sq, [x, 0.5]).area for x in (0.5, 0.8, 0.95, 0.99)]
    assert all(a2 > a1 for a1, a2 in zip(areas, areas[1:]))
    with pytest.raises(CenterTooCloseToBoundary, match=r"smallest edge gap .* <= tolerance"):
        polar_polygon(sq, [1.0 - 1e-12, 0.5])


def test_area_product_lower_bound_random():
    # |K| * |K*_p| >= pi^2 * (near/far stuff) for interior p; the helper
    # packages the exact inequality, we only require it to hold
    gen = np.random.default_rng(55)
    count = 0
    for poly in random_bodies(seed=21, count=25):
        cheb = chebyshev_center(poly)
        for _ in range(4):
            p = cheb.center + 0.6 * cheb.radius * gen.uniform(-1.0, 1.0, size=2)
            chk = polar_area_lower_check(poly, p)
            assert chk.ok, f"lhs {chk.lhs} rhs {chk.rhs}"
            count += 1
    assert count == 100


def test_santalo_of_symmetric_bodies(square, hexagon):
    assert np.allclose(santalo_point(square), [0.5, 0.5], atol=1e-6)
    assert np.allclose(santalo_point(hexagon), [0.0, 0.0], atol=1e-6)


def test_santalo_is_affine_invariant_for_triangles():
    # affine equivariance + the regular triangle pin the point at the centroid
    gen = np.random.default_rng(13)
    for _ in range(5):
        verts = gen.uniform(-1.0, 1.0, size=(3, 2))
        u, v = verts[1] - verts[0], verts[2] - verts[0]
        area2 = u[0] * v[1] - u[1] * v[0]
        if abs(area2) < 0.3:
            continue
        tri = ConvexPolygon(verts if area2 > 0 else verts[::-1])
        assert np.allclose(santalo_point(tri), tri.centroid, atol=1e-4 * tri.diameter)


def test_santalo_minimizes(square):
    s = santalo_point(square)
    base = polar_polygon(square, s).area
    gen = np.random.default_rng(4)
    for _ in range(10):
        p = s + 0.2 * gen.uniform(-1.0, 1.0, size=2)
        assert polar_polygon(square, p).area >= base - 1e-9


def test_santalo_point_is_polar_centroid(halfdisc64):
    # Santalo (1949): the polar body about the minimizer has its centroid there
    for poly in [halfdisc64, *random_bodies(seed=31, count=12, lo=3)]:
        s = santalo_point(poly)
        centroid = polar_polygon(poly, s).centroid
        assert np.linalg.norm(centroid - s) <= 1e-9 * poly.diameter


def test_bodies_far_from_the_origin():
    # seeded 3-300-gons scaled by 1e-4 to 1e4 and shifted by up to 1e3:
    # where areas, centroids or Newton's gaps are taken in absolute
    # coordinates, the heart check, the minimizers or the Santalo
    # condition fail on about one body in seven.  The folding profile
    # must not change when the body is moved to its first vertex: in
    # absolute coordinates it moved by up to 4.5e4 units of
    # spacing(max |v|) + 1e-12 diam here, and in the frame at vertex 0 it
    # moves by at most 0.1 unit.
    for poly in far_bodies(120):
        _, profile = heart_region(poly, 720)
        v0 = poly.vertices[0]
        moved = folding_profile(ConvexPolygon(poly.vertices - v0), profile.directions)
        unit = np.spacing(np.abs(poly.vertices).max()) + 1e-12 * poly.diameter
        assert np.abs(profile.values - moved.values - profile.directions @ v0).max() <= unit
        minimal_reciprocal_support_integral(poly)
        s = santalo_point(poly)
        polar = polar_polygon(poly, s)
        assert np.linalg.norm(polar.centroid - s) <= 1e-9 * polar.diameter


def test_straight_angle_vertex():
    # edges 0 and 1 share a normal, so they give the same polar vertex
    poly = ConvexPolygon([[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]])
    pb = polar_polygon(poly, [1.0, 0.5])
    assert len(pb) == 4
    assert pb.area == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(santalo_point(poly), [1.0, 0.5], atol=1e-9)
    assert minimal_reciprocal_support_integral(poly)[0] == pytest.approx(10.0, abs=1e-9)


def test_minimizers_reject_body_thinner_than_eps():
    sliver = ConvexPolygon([[0, 0], [1, 0], [0.5, 1e-10]])
    for minimize in (santalo_point, minimal_reciprocal_support_integral):
        with pytest.raises(CenterTooCloseToBoundary, match=r"smallest edge gap .* <= tolerance"):
            minimize(sliver)


def test_eigen_area_check(square, disc256):
    lam_sq = 2.0 * np.pi**2
    chk = polar_area_eigen_check(square, [0.5, 0.5], lam_sq)
    assert chk.ok
    chk = polar_area_eigen_check(disc256, [0.0, 0.0], 5.783185962946785)
    assert chk.ok
    # an impossible hot-spot location violates the inequality
    bad = polar_area_eigen_check(square, [0.999, 0.5], lam_sq)
    assert not bad.ok
