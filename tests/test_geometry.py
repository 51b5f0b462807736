import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheart import bodies
from polyheart.errors import InvalidPolygon
from polyheart.geometry import (
    ConvexPolygon,
    HalfPlane,
    Region,
    boundary_distance,
    chebyshev_center,
    chord,
    clip,
    halfplane_intersection,
    line_interval,
    point_in,
    region_point_distance,
    shadow_interval,
    support,
    unit,
)

EPS = 1e-12


def test_rejects_degenerate_inputs():
    with pytest.raises(InvalidPolygon):
        ConvexPolygon([[0, 0], [1, 0]])
    with pytest.raises(InvalidPolygon):
        ConvexPolygon([[0, 0], [1, 0], [2, 0]])  # collinear
    with pytest.raises(InvalidPolygon):
        ConvexPolygon([[0, 0], [0, 1], [1, 0]])  # clockwise
    with pytest.raises(InvalidPolygon):
        ConvexPolygon([[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]])  # reflex


def test_square_metrics(square):
    assert square.area == pytest.approx(1.0, abs=EPS)
    assert square.perimeter == pytest.approx(4.0, abs=EPS)
    assert square.diameter == pytest.approx(np.sqrt(2.0), abs=EPS)
    assert np.allclose(square.centroid, [0.5, 0.5], atol=EPS)


def test_support_and_width(square, hexagon):
    assert support(square, [1.0, 0.0]) == pytest.approx(1.0)
    assert support(square, unit(np.pi / 4)) == pytest.approx(np.sqrt(2.0))
    # width along w is support(w) + support(-w)
    assert support(square, [0.0, 1.0]) + support(square, [0.0, -1.0]) == pytest.approx(1.0)
    # hexagon: width is 2*apothem across edge normals, 2 across vertices
    assert support(hexagon, [1.0, 0.0]) + support(hexagon, [-1.0, 0.0]) == pytest.approx(2.0)
    assert support(hexagon, [0.0, 1.0]) + support(hexagon, [0.0, -1.0]) == pytest.approx(np.sqrt(3.0))


def test_shadow_and_chord(square):
    # shadow coordinate runs along perp(omega) = (-1, 0) for omega = (0, 1)
    lo, hi = shadow_interval(square, [0.0, 1.0])
    assert (lo, hi) == pytest.approx((-1.0, 0.0))
    iv = chord(square, -0.25, [0.0, 1.0])
    assert iv == pytest.approx((0.0, 1.0))
    assert chord(square, 0.5, [0.0, 1.0]) is None


def test_line_interval_misses_body(square):
    assert line_interval(square, [5.0, 5.0], [0.0, 1.0]) is None


def test_clip_square():
    sq = bodies.square()
    r = clip(sq, HalfPlane(np.array([1.0, 0.0]), 0.5))
    assert r.kind == "polygon"
    assert r.area == pytest.approx(0.5, abs=EPS)
    # clip down to the boundary edge: degenerates to a segment
    r = clip(sq, HalfPlane(np.array([1.0, 0.0]), 0.0))
    assert r.kind == "segment"
    r = clip(sq, HalfPlane(np.array([1.0, 0.0]), -0.5))
    assert r.is_empty


def test_halfplane_intersection_box():
    planes = np.array([
        [1.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 1.0],
        [0.0, -1.0, 0.0],
    ])
    # every cut is moved out by eps
    r = halfplane_intersection(planes, (-2, 2, -2, 2), 1e-9)
    assert r.kind == "polygon"
    assert r.area == pytest.approx((1.0 + 2e-9) ** 2, rel=1e-12)


def test_chebyshev_square(square):
    c = chebyshev_center(square)
    assert np.allclose(c.center, [0.5, 0.5], atol=1e-9)
    assert c.radius == pytest.approx(0.5, abs=1e-9)
    assert c.unique
    assert square.incircle is square.incircle
    assert square.incircle.radius == c.radius
    assert np.array_equal(square.incircle.center, c.center)


def test_chebyshev_right_triangle(right_tri):
    c = chebyshev_center(right_tri)
    r = (2.0 - np.sqrt(2.0)) / 2.0
    assert c.radius == pytest.approx(r, abs=1e-9)
    assert np.allclose(c.center, [r, r], atol=1e-9)


def test_chebyshev_every_edge_touches():
    # every edge of the regular polygon touches the incircle, so every
    # plane of the optimal-set intersection is cut first
    poly = bodies.regular_ngon(512)
    c = chebyshev_center(poly)
    assert np.hypot(*c.center) <= poly.eps
    assert abs(c.radius - np.cos(np.pi / 512)) <= poly.eps
    assert c.unique


def test_chebyshev_oblong_tie(rect21):
    # deepest set of the 2x1 rectangle is a segment; reported center is its midpoint
    c = chebyshev_center(rect21)
    assert c.radius == pytest.approx(0.5, abs=1e-9)
    assert not c.unique
    assert np.allclose(c.center, [1.0, 0.5], atol=1e-9)


def test_region_point_distance(square):
    r = clip(square, HalfPlane(np.array([1.0, 0.0]), 2.0))
    assert region_point_distance(r, [0.5, 0.5]) == 0.0
    assert region_point_distance(r, [2.0, 0.5]) == pytest.approx(1.0)


def test_region_point_distance_segment_point_and_vertex(square):
    seg = Region("segment", np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert region_point_distance(seg, [1.0, 3.0]) == pytest.approx(3.0, abs=EPS)
    assert region_point_distance(seg, [3.0, 4.0]) == pytest.approx(np.sqrt(17.0), abs=EPS)
    assert region_point_distance(seg, [-3.0, -4.0]) == pytest.approx(5.0, abs=EPS)
    point = Region("point", np.array([[1.0, 1.0]]))
    assert region_point_distance(point, [4.0, 5.0]) == pytest.approx(5.0, abs=EPS)
    stub = Region("segment", np.array([[1.0, 1.0], [1.0, 1.0]]))  # zero length
    assert region_point_distance(stub, [4.0, 5.0]) == pytest.approx(5.0, abs=EPS)
    poly = clip(square, HalfPlane(np.array([1.0, 0.0]), 2.0))
    # nearest boundary points are the vertices (1, 1) and (0, 0)
    assert region_point_distance(poly, [2.0, 3.0]) == pytest.approx(np.sqrt(5.0), abs=EPS)
    assert region_point_distance(poly, [-0.5, -0.5]) == pytest.approx(np.sqrt(0.5), abs=EPS)


def test_boundary_distance(square):
    assert boundary_distance(square, [0.5, 0.5]) == pytest.approx(0.5)
    assert boundary_distance(square, [0.1, 0.4]) == pytest.approx(0.1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=20))
def test_random_polygon_sanity(seed, n):
    poly = bodies.random_convex_polygon(np.random.default_rng(seed), n)
    assert poly.area > 0.0
    assert point_in(poly, poly.centroid)
    assert boundary_distance(poly, poly.centroid) > 0.0
    assert all(point_in(poly, v) for v in poly.vertices)
    # support is subadditive over vertex directions
    for k in range(len(poly)):
        v = poly.vertices[k]
        d = np.linalg.norm(v - poly.centroid)
        assert d <= poly.diameter + poly.eps


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=2 * np.pi),
    st.floats(min_value=-0.5, max_value=1.5),
)
def test_clip_area_never_grows(seed, theta, frac):
    poly = bodies.random_convex_polygon(np.random.default_rng(seed), 8)
    w = unit(theta)
    lo, hi = (support(poly, -w) * -1.0, support(poly, w))
    c = lo + frac * (hi - lo)
    r = clip(poly, HalfPlane(w, c))
    assert r.area <= poly.area + poly.eps
    if r.kind == "polygon":
        assert all(point_in(poly, v) for v in ConvexPolygon(r.points).vertices)
