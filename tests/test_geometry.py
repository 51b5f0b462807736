import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import polyheart.geometry as geometry
from polyheart import bodies
from polyheart.bounds import minimal_reciprocal_support_integral
from polyheart.errors import InvalidPolygon, NoConvergence
from polyheart.geometry import (
    EMPTY_REGION,
    _VERTEX_ULPS,
    ChebyshevResult,
    ConvexPolygon,
    Region,
    _classify,
    _clip_ring,
    _dedupe_ring,
    _farthest_pair,
    boundary_distance,
    chebyshev_center,
    chord,
    halfplane_intersection,
    line_interval,
    perp,
    region_point_distance,
    shadow_interval,
    support,
    unit,
)
from polyheart.polar import santalo_point

from conftest import point_in, random_bodies, rotated

EPS = 1e-12


def clip_intersection(planes, bbox, eps):
    """Reference for halfplane_intersection: the bounding box clipped by one cut
    at a time, each moved out by eps, with the ring deduped as it grows.

    It shares no code with the sorted sweep; both hand their ring to the
    same classification.
    """
    xmin, xmax, ymin, ymax = bbox
    ring = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=float)
    for nx, ny, c in planes:
        ring = _clip_ring(ring, np.array([nx, ny]), c + eps)
        if len(ring) == 0:
            return EMPTY_REGION
        if len(ring) > 8:
            ring = _dedupe_ring(ring, 0.25 * eps)
    return _classify(ring, eps)


def all_pairs_farthest(points):
    """Reference farthest pair: the first in row-major order over every pair."""
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
    return int(i), int(j), float(np.sqrt(d2[i, j]))


def lp_inradius(poly):
    """Reference inradius for bodies too large to enumerate: the linear
    program max r s.t. n_e . x + r <= c_e, by scipy's HiGHS."""
    n, c = poly.edge_normals, poly.edge_offsets
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.column_stack([n, np.ones(len(c))]), b_ub=c,
                  bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    assert res.success, res.message
    return float(res.x[2])


# two edges on one line (a straight angle): as given, their normals are
# equal; turned, those of the last two differ by rounding, to either side,
# and turned by pi, those of the last body lie on either side of -pi = pi
STRAIGHT_ANGLE_BODIES = [*(rotated(v, theta)
                           for v in ([[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]],
                                     [[0, 0], [1, 0], [1, 1], [0.5, 1], [0, 1]],
                                     [[0, 0], [2, 0], [2, 1], [0.7, 1], [0, 1]])
                           for theta in (0.0, 0.7, 2.1)),
                         rotated([[0, 0], [3, 0], [3, 0.61], [3, 1], [0, 1]], np.pi - 4e-16)]

# a short edge turned right (reflex) far beyond rounding: its line,
# extended, cuts into the body.  The edge cross product L_i L_{i+1} sin(theta)
# stays within 1e-9 diam^2, so only a bound on the turn angle rejects them
REFLEX_RINGS = ([[0, 0], [0.9, 0], [0.900001, -2e-9], [1, 0], [1, 1], [0, 1]],
                [[0, 0], [0.5, 0], [0.5, -1.5e-9], [1, -1.5e-9], [1, 1], [0, 1]])


def kinked_bodies(seed, count):
    """Random convex polygons with a 3e-9 to 1e-4 * diam edge put into edge
    0, turned right by 0.1 to 0.5 of the most that ConvexPolygon admits,
    so that the rounding of the new vertices stays within the rest."""
    gen = np.random.default_rng(seed)
    out = []
    for poly in random_bodies(seed, count, 3, 16):
        a, e, d = poly.vertices[0], poly.edges[0], poly.diameter
        u = e / np.hypot(*e)
        length = d * gen.choice([3e-9, 1e-7, 1e-4])
        # the turn at q may be delta (1 / L_0 + 1 / L_1) right, so the far
        # end may sit delta (1 + L_1 / L_0) below edge 0's line
        delta = _VERTEX_ULPS * np.finfo(float).eps * np.abs(poly.vertices).max()
        depth = gen.uniform(0.1, 0.5) * delta * (1.0 + 2.0 * length / np.hypot(*e))
        q = a + 0.5 * e
        kinked = np.insert(poly.vertices, 1, [q, q + length * u + depth * np.array([u[1], -u[0]])], axis=0)
        out.append(ConvexPolygon(kinked))
    return out


def vertex_incircle(poly):
    """Reference incircle by enumeration: the optimum of max r s.t.
    n_e . x + r <= c_e lies where three of the constraints are tight.  The
    center is the middle of the points of the tight triples at the largest
    r: one point, or the two ends of a segment of optima in a tie."""
    a = np.column_stack([poly.edge_normals, np.ones(len(poly))])
    c = poly.edge_offsets - poly.edge_normals @ poly.centroid
    t = np.array(list(itertools.combinations(range(len(poly)), 3)))
    t = t[np.abs(np.linalg.det(a[t])) > 1e-12]
    x = np.linalg.solve(a[t], c[t][..., None])[..., 0]
    x = x[(x @ a.T - c).max(axis=1) <= 1e-14 * poly.diameter]
    top = x[x[:, 2] >= x[:, 2].max() - 1e-14 * poly.diameter, :2]
    return ChebyshevResult(poly.centroid + 0.5 * (top.min(axis=0) + top.max(axis=0)), x[:, 2].max())


def assert_incircle_inside(poly, inc):
    """Every edge line lies at least the inradius from the center, to 1e-12 * diam."""
    gaps = poly.edge_offsets - poly.edge_normals @ inc.center
    assert gaps.min() >= inc.radius - 1e-12 * poly.diameter


def support_gap(r1, r2):
    """Largest difference of the two regions' supports over 64 directions."""
    theta = 2.0 * np.pi * np.arange(64) / 64
    w = np.column_stack([np.cos(theta), np.sin(theta)])
    return float(np.abs((r1.points @ w.T).max(axis=0) - (r2.points @ w.T).max(axis=0)).max())


def test_rejects_degenerate_inputs():
    with pytest.raises(InvalidPolygon):
        ConvexPolygon([[0, 0], [1, 0]])
    with pytest.raises(InvalidPolygon):
        ConvexPolygon([[0, 0], [1, 0], [2, 0]])  # collinear
    with pytest.raises(InvalidPolygon):
        ConvexPolygon([[0, 0], [0, 1], [1, 0]])  # clockwise
    with pytest.raises(InvalidPolygon):
        ConvexPolygon([[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]])  # reflex


@pytest.mark.parametrize("theta", [0.0, 0.7, 2.1])
@pytest.mark.parametrize("ring", REFLEX_RINGS, ids=["turn_2e-3", "turn_pi_2"])
def test_rejects_short_edge_right_turn(ring, theta):
    # a right turn of 2e-3 or pi / 2 rad at an edge 1e-6 or 1.5e-9 long
    # is no rounding of its edge directions, however short the edge
    c, s = np.cos(theta), np.sin(theta)
    with pytest.raises(InvalidPolygon, match=r"not convex: it turns right by (0\.002|1\.57) rad at vertex 1,"):
        ConvexPolygon(np.asarray(ring, dtype=float) @ np.array([[c, s], [-s, c]]))


@pytest.mark.parametrize("theta", [0.0, 0.7, 2.1])
def test_rejects_needle_tips(theta):
    # interior angles of 2e-14 rad at (0, 0) and (1, 0): a direction in
    # the middle of such a tip's normal cone has no edge facing it
    c, s = np.cos(theta), np.sin(theta)
    with pytest.raises(InvalidPolygon, match=r"needle tip at vertex 1: its interior angle 2(\.\d+)?e-14 rad"):
        ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14]]) @ np.array([[c, s], [-s, c]]))


def star_ring(n: int, step: int) -> np.ndarray:
    """Vertices of the regular n-gon visited step at a time: the star {n/step}."""
    ang = 2.0 * np.pi * (step * np.arange(n) % n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def test_rejects_multiply_wound_rings():
    # every turn is left and the signed area positive (1.469 for the
    # pentagram), yet the ring winds twice around the center
    for n, step in ((5, 2), (7, 2), (7, 3)):
        with pytest.raises(InvalidPolygon, match=r"winds more than once: its exterior angles sum to "
                                                 rf"{2.0 * np.pi * step:.6g}, above 3 pi"):
            ConvexPolygon(star_ring(n, step))
        ConvexPolygon(star_ring(n, 1))


@st.composite
def generator_specs(draw):
    """A --body shorthand for one of the named generators, with arguments
    inside each generator's own domain."""
    size = st.floats(min_value=1e-3, max_value=1e3)
    name = draw(st.sampled_from(["square", "rectangle", "regular_ngon", "ellipse_approx", "halfdisc", "triangle"]))
    if name == "square":
        return name
    if name == "rectangle":
        args = [draw(size), draw(size)]
    elif name == "regular_ngon":
        args = [draw(st.integers(3, 2048)), draw(size)]
    elif name == "ellipse_approx":
        a = draw(size)
        args = [a, a * draw(st.floats(min_value=0.05, max_value=20.0)), draw(st.integers(8, 2048))]
    elif name == "halfdisc":
        r = draw(size)
        args = [r, r * draw(st.floats(min_value=-0.95, max_value=0.95)), draw(st.integers(8, 1024))]
    else:
        args = [0.0, 0.0, 1.0, 0.0, draw(st.floats(min_value=-3.0, max_value=3.0)),
                draw(st.floats(min_value=0.01, max_value=3.0))]
    return f"{name}:" + ",".join(repr(float(a)) for a in args)


@settings(max_examples=200, deadline=None)
@given(generator_specs(), st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=512))
def test_generated_bodies_wind_once(spec, seed, n):
    # every body the package generates passes the winding check
    for poly in (bodies.parse_body_arg(spec)[0], bodies.random_convex_polygon(np.random.default_rng(seed), n)):
        assert poly.area > 0.0


def test_area_and_edge_lengths_kept_from_validation(monkeypatch):
    # the constructor's orientation check takes the shoelace area and its
    # duplicate-vertex check the edge lengths; reading them must not
    # compute either again
    calls = []
    orig = geometry._polygon_area
    monkeypatch.setattr(geometry, "_polygon_area", lambda points: calls.append(1) or orig(points))
    poly = ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    assert len(calls) == 1
    hypot = []
    orig_hypot = np.hypot
    monkeypatch.setattr(np, "hypot", lambda *a: hypot.append(1) or orig_hypot(*a))
    assert poly.area == 2.0 and poly.perimeter == 6.0
    assert poly.edge_lengths.tolist() == [2.0, 1.0, 2.0, 1.0] and not poly.edge_lengths.flags.writeable
    assert (len(calls), len(hypot)) == (1, 0)


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


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_near_miss_is_none_at_every_scale(scale):
    # a line 1e-5 diameters past the vertex (0, scale) misses the body
    # whatever its size; a graze slack floored at one unit length made it
    # a zero-length chord below unit diameter
    poly = bodies.rectangle(scale, scale)
    w = unit(np.pi / 4)
    hi = shadow_interval(poly, w)[1]
    assert chord(poly, hi + 1e-5 * poly.diameter, w) is None


def test_clip_square():
    sq = bodies.square()
    r = _classify(_clip_ring(sq.vertices, np.array([1.0, 0.0]), 0.5), sq.eps)
    assert r.kind == "polygon"
    assert geometry._polygon_area(r.points) == pytest.approx(0.5, abs=EPS)
    # clip down to the boundary edge: degenerates to a segment
    r = _classify(_clip_ring(sq.vertices, np.array([1.0, 0.0]), 0.0), sq.eps)
    assert r.kind == "segment"
    r = _classify(_clip_ring(sq.vertices, np.array([1.0, 0.0]), -0.5), sq.eps)
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
    assert geometry._polygon_area(r.points) == pytest.approx((1.0 + 2e-9) ** 2, rel=1e-12)


def test_chebyshev_square(square):
    c = chebyshev_center(square)
    assert np.allclose(c.center, [0.5, 0.5], atol=1e-9)
    assert c.radius == pytest.approx(0.5, abs=1e-9)
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
    # plane of the optimal-set intersection meets the optimal point
    poly = bodies.regular_ngon(512)
    c = chebyshev_center(poly)
    assert np.hypot(*c.center) <= poly.eps
    assert abs(c.radius - np.cos(np.pi / 512)) <= poly.eps


def test_chebyshev_oblong_tie(rect21):
    # deepest set of the 2x1 rectangle is a segment; reported center is its midpoint
    c = chebyshev_center(rect21)
    assert c.radius == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(c.center, [1.0, 0.5], atol=1e-9)


def test_incircle_matches_lp_reference():
    # the center is the optimum itself, or the middle of a segment of optima
    enumerated = [
        *random_bodies(16, 300, 3, 63),
        *(bodies.regular_ngon(n) for n in (3, 4, 5, 7, 64)),
        bodies.rectangle(2.0, 1.0),  # antiparallel sides: tied events, a segment of centers
        bodies.rectangle(1000.0, 1.0),
        *(rotated(bodies.rectangle(2.0, 1.0).vertices, theta) for theta in (0.3, 0.7, 2.1)),
        bodies.halfdisc(1.0, 0.0, 64),
        *STRAIGHT_ANGLE_BODIES,
    ]
    for poly in enumerated:
        got, want = chebyshev_center(poly), vertex_incircle(poly)
        assert abs(got.radius - want.radius) <= 1e-12 * poly.diameter
        assert np.hypot(*(got.center - want.center)) <= 1e-12 * poly.diameter
        assert_incircle_inside(poly, got)
    gen = np.random.default_rng(17)
    large = [
        *(bodies.regular_ngon(n) for n in (512, 1024)),
        bodies.ellipse_approx(2.0, 1.0, 256),
        *(bodies.random_convex_polygon(gen, 512) for _ in range(5)),
    ]
    for poly in large:
        got = chebyshev_center(poly)
        assert abs(got.radius - lp_inradius(poly)) <= 1e-11 * poly.diameter
        assert_incircle_inside(poly, got)
    for poly in STRAIGHT_ANGLE_BODIES:
        assert chebyshev_center(poly).radius == pytest.approx(0.5, abs=1e-12)


def test_incircle_on_reflex_kinks():
    # HiGHS keeps its constraints only to ~1e-7, too loose for these cuts
    # and for near-straight vertices, so the reference enumerates the LP's
    # vertices
    near_straight = [rotated(v, theta)
                     for v in ([[0, 0], [1, 0], [2, 1e-10], [2, 1], [0, 1]],
                               [[0, 0], [1, -1e-12], [2, 0], [2, 1], [0, 1]])
                     for theta in (0.0, 0.7)]
    for poly in kinked_bodies(18, 60) + near_straight:
        inc, want = chebyshev_center(poly), vertex_incircle(poly)
        assert abs(inc.radius - want.radius) <= 1e-14 * poly.diameter
        assert_incircle_inside(poly, inc)
        if poly not in near_straight:  # there the optimum moves 1e-5 * diam per rounding error
            assert np.hypot(*(inc.center - want.center)) <= 1e-12 * poly.diameter


@st.composite
def plane_sets(draw):
    """(planes, bbox, eps): random cuts around a center, one of four shapes,
    with optional exact duplicates, antiparallel pairs, normals at +-pi
    (among them a pair 6e-14 rad apart a hair below pi) and pairs 1e-11
    rad apart."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["general", "point", "segment", "empty"]))
    center = gen.uniform(-1.0, 1.0, 2)
    ang = gen.uniform(-np.pi, np.pi, draw(st.integers(0, 30)))
    n = np.column_stack([np.cos(ang), np.sin(ang)])
    c = n @ center + (gen.uniform(0.0, 1.0, len(ang)) if shape != "point" else 0.0)
    if shape == "point":  # every plane through the center
        n = np.vstack([n, [[1.0, 0.0], [-0.5, 0.8660254037844386], [-0.5, -0.8660254037844386]]])
        c = n @ center
    elif shape in ("segment", "empty"):  # two slabs, the first of width 0 or -0.02
        u = np.array([np.cos(ang[0]), np.sin(ang[0])]) if len(ang) else np.array([0.6, 0.8])
        slabs = np.array([u, -u, perp(u), -perp(u)])
        width = 0.0 if shape == "segment" else -0.01
        half = np.array([width, width, 0.5, 0.5])
        n, c = np.vstack([slabs, n]), np.concatenate([slabs @ center + half, c + 1.0])
    if draw(st.booleans()) and len(c):  # exact duplicates
        k = gen.integers(0, len(n), 3)
        n, c = np.vstack([n, n[k]]), np.concatenate([c, c[k]])
    if draw(st.booleans()) and len(c):  # antiparallel partners, loose enough to keep the shape
        k = gen.integers(0, len(n), 2)
        n, c = np.vstack([n, -n[k]]), np.concatenate([c, -n[k] @ center + 1.0])
    if draw(st.booleans()):  # normals on both sides of the +-pi seam
        below = np.pi - np.array([2.2e-13, 2.8e-13])
        seam = np.vstack([[[-1.0, 0.0], [-1.0, -0.0], [-1.0, 1e-17], [-1.0, -1e-17]],
                          np.column_stack([np.cos(below), np.sin(below)])])
        n, c = np.vstack([n, seam]), np.concatenate([c, seam @ center + (shape != "point") * 0.3])
    if draw(st.booleans()) and len(c):  # each plane's twin 1e-11 rad away, through the same point
        k = gen.integers(0, len(n), 3)
        a = np.arctan2(n[k, 1], n[k, 0]) + 1e-11
        twin = np.column_stack([np.cos(a), np.sin(a)])
        foot = center + (c[k] - n[k] @ center)[:, None] * n[k]
        n, c = np.vstack([n, twin]), np.concatenate([c, np.sum(twin * foot, axis=1)])
    planes = np.column_stack([n, c])[gen.permutation(len(c))]
    s = gen.uniform(2.0, 4.0)
    bbox = (center[0] - s, center[0] + s, center[1] - 0.9 * s, center[1] + 1.1 * s)
    return planes, bbox, 1e-9


@settings(max_examples=300, deadline=None)
@given(plane_sets())
def test_sweep_matches_clip_reference(case):
    planes, bbox, eps = case
    got = halfplane_intersection(planes, bbox, eps)
    want = clip_intersection(planes, bbox, eps)
    assert got.kind == want.kind
    if not got.is_empty:
        assert support_gap(got, want) <= 3.0 * eps
    if got.kind == "segment":
        assert support_gap(got, want) <= eps


def test_seam_pair_is_one_line():
    # two normals 3e-14 rad apart just below pi share a direction, however
    # they straddle any cut of the angles: the square has 4 vertices
    a = np.pi - np.array([3.7e-13, 3.4e-13])
    planes = np.array([[np.cos(a[0]), np.sin(a[0]), 1.0], [np.cos(a[1]), np.sin(a[1]), 1.0],
                       [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    square = halfplane_intersection(planes, (-2.0, 2.0, -2.0, 2.0), 1e-9)
    assert square.kind == "polygon" and len(square.points) == 4
    assert np.abs(np.abs(square.points) - 1.0).max() <= 2e-9


def test_seam_run_keeps_its_inner_line():
    # normals 0.5e-13 and 1.2e-13 rad below pi: the first is shifted to the
    # -pi end of the sort, the second stays at the +pi end, and the two are
    # one run across the seam, of which only the inner line (offset 0.2) stays
    a = np.pi - np.array([0.5e-13, 1.2e-13])
    planes = np.array([[np.cos(a[0]), np.sin(a[0]), 0.5], [np.cos(a[1]), np.sin(a[1]), 0.2],
                       [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    assert sorted(geometry._by_normal_angle(planes[:, :2], planes[:, 2]).tolist()) == [1, 2, 3, 4]
    eps = 1e-9
    region = halfplane_intersection(planes, (-2.0, 2.0, -2.0, 2.0), eps)
    assert region.kind == "polygon" and len(region.points) == 4
    # each cut moves out by eps; the outer line would put x_min at -0.5
    assert abs(region.points[:, 0].min() + 0.2) <= 2.0 * eps


def test_newton_stop_states_decrement_and_tolerance(monkeypatch):
    # one Newton step leaves the decrement above its tolerance on this
    # 12-gon, for both objectives; the error names both numbers
    monkeypatch.setattr(geometry, "_NEWTON_ITERATIONS", 1)
    poly = bodies.random_convex_polygon(np.random.default_rng(3), 12)
    for solve in (santalo_point, minimal_reciprocal_support_integral):
        with pytest.raises(NoConvergence) as info:
            solve(poly)
        got = re.fullmatch(r"Newton decrement (\S+) above tolerance (\S+)", str(info.value))
        assert got and float(got.group(1)) > float(got.group(2))


def test_segment_ends_on_slab_axis():
    # A zero-width slab with perpendicular caps: each cut moves out by eps,
    # so the ring is a 2 eps-wide rectangle around the slab's axis, and
    # the segment's ends belong on that axis, not on one of its diagonals.
    eps = 1e-9
    for seed in range(3000):
        gen = np.random.default_rng([16, seed])
        center = gen.uniform(-1.0, 1.0, 2)
        u = unit(gen.uniform(-np.pi, np.pi))
        n = np.array([perp(u), -perp(u), u, -u])
        c = n @ center + np.array([0.0, 0.0, 1.0, 1.0]) * gen.uniform(0.1, 1.0)
        bbox = (center[0] - 2.0, center[0] + 2.0, center[1] - 2.0, center[1] + 2.0)
        seg = halfplane_intersection(np.column_stack([n, c]), bbox, eps)
        assert seg.kind == "segment", seed
        assert np.abs((seg.points - center) @ perp(u)).max() <= 0.01 * eps, seed


@pytest.mark.parametrize("n", [3, 4, 5, 17, 64, 255, 1024])
def test_farthest_pair_matches_all_pairs(n):
    gen = np.random.default_rng([15, n])
    rings = [bodies.random_convex_polygon(gen, n).vertices for _ in range(5)]
    rings.append(bodies.regular_ngon(n).vertices)
    for v in rings:
        assert _farthest_pair(v) == all_pairs_farthest(v)


def test_region_point_distance(square):
    r = _classify(_clip_ring(square.vertices, np.array([1.0, 0.0]), 2.0), square.eps)
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
    poly = _classify(_clip_ring(square.vertices, np.array([1.0, 0.0]), 2.0), square.eps)
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
    assert point_in(poly, poly.centroid, poly.eps)
    assert boundary_distance(poly, poly.centroid) > 0.0
    assert all(point_in(poly, v, poly.eps) for v in poly.vertices)
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
    r = _classify(_clip_ring(poly.vertices, w, c), poly.eps)
    if r.kind == "polygon":
        assert geometry._polygon_area(r.points) <= poly.area + poly.eps
        assert all(point_in(poly, v, poly.eps) for v in ConvexPolygon(r.points).vertices)
