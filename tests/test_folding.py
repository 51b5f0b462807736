"""Folding function and heart construction.

The discrete folding value is cross-checked against a bisection oracle
that works straight from the definition (smallest offset whose reflected
cap stays inside).  On bodies whose worst-case contact is transversal the
two agree to the bisection tolerance; inscribed smooth bodies make
tangential contact at a shadow extreme, where the oracle itself only
resolves the offset to about sqrt(eps), hence the looser bound there.
"""

import bisect
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheart import bodies, folding
from polyheart.errors import InconsistentHeart, OutsideShadow, ToleranceTooSmall
from polyheart.folding import (
    _CENTROID_TOL,
    _CONTAINMENT_TOL,
    chord_midpoint,
    folding_offset,
    folding_offset_bisection,
    folding_profile,
    heart_ball_radius,
    heart_directions,
    heart_region,
    heart_width_bound,
)
from polyheart.geometry import (
    EMPTY_REGION,
    PARALLEL_TOL,
    ConvexPolygon,
    Region,
    check_direction,
    halfplane_intersection,
    perp,
    region_point_distance,
    shadow_interval,
    support,
    unit,
)

from conftest import far_bodies, point_in, random_bodies
from normal_cone import normal_cone_check

ORACLE_TOL = 1e-8
TANGENTIAL_TOL = 5e-5  # sqrt(eps * curvature scale), see module docstring


def tableau_chord_midpoints(poly, w):
    """Reference chord midpoints f over every vertex projection from the
    full edges x vertices tableau, O(n^2), for one direction w, or one row
    each for a (k, 2) array of directions.

    Every edge with n_i . w above 1e-13 bounds the chord over each vertex
    projection from above, every edge with n_i . w below -1e-13 from
    below; a non-finite or inverted pair falls back to the vertex's own
    coordinate.  An edge's line meets its own endpoints at their own
    coordinates, which are taken as they are: an edge nearly parallel to
    w puts its line's value there off by about eps * |v| / |n_i . w|.
    """
    w = np.asarray(w, dtype=float)
    ws = np.atleast_2d(w)
    n = len(poly)
    incident = np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=1)  # edge i, vertices i, i + 1
    block = max(1, (1 << 18) // n ** 2)  # directions x edges x vertices cells
    rows = []
    for k in range(0, len(ws), block):
        wb = ws[k:k + block]
        u = np.column_stack([-wb[:, 1], wb[:, 0]])
        s = u @ poly.vertices.T
        own = wb @ poly.vertices.T
        a = (wb @ poly.edge_normals.T)[:, :, None]
        b = poly.edge_offsets[None, :, None] - (u @ poly.edge_normals.T)[:, :, None] * s[:, None, :]
        line = np.repeat(own[:, None, :], n, axis=1)
        np.divide(b, a, out=line, where=~incident & (np.abs(a) > 1e-13))
        hi = np.where(a > 1e-13, line, np.inf).min(axis=1)
        lo = np.where(a < -1e-13, line, -np.inf).max(axis=1)
        f = 0.5 * (lo + hi)
        bad = ~np.isfinite(f) | (lo > hi)
        f[bad] = own[bad]
        rows.append(f)
    f = np.concatenate(rows)
    return f[0] if w.ndim == 1 else f


def every_cell_lower_ends(s, own, a, du, c):
    """The kernel's chain search (folding._lower_ends) at every cell of a
    block, and the vertex's own coordinate at a vertex with an edge on the
    bottom chain, where folding_profile runs no search."""
    bottom = a < -PARALLEL_TOL
    lo = folding._lower_ends(s, a, bottom, du, c, np.arange(s.size)).reshape(s.shape)
    return np.where(bottom[:, :-1] | bottom[:, 1:], own, lo)


def vertex_chord_midpoints(poly, omega):
    """Chord midpoints f over every vertex projection from the kernel's
    one chain search, run at every vertex, at omega for the lower chord
    ends and at -omega for the upper ones: top(omega) = -bottom(-omega),
    here in the frame at the origin.  Degenerate chords at shadow-extreme
    vertices contribute the vertex's own omega-coordinate."""
    w = check_direction(omega)[None, :]
    u = perp(w[0])[None, :]
    s = u @ poly.vertices.T
    own = w @ poly.vertices.T
    normals, c = folding._wrapped_edges(poly, poly.vertices)
    a, du = w @ normals.T, u @ normals.T
    lo = every_cell_lower_ends(s, own, a, du, c)
    hi = -every_cell_lower_ends(-s, -own, -a, -du, c)
    f = 0.5 * (lo + hi)
    f[lo > hi] = own[lo > hi]
    return f[0]


def every_cell_profile(poly, dirs):
    """(values, witness_vertex) as folding_profile computes them, in its
    frame and on its blocks, but with the lower chord end searched at every
    vertex and the maximum taken over the top-chain vertices."""
    v0 = poly.vertices[0]
    frame = poly.vertices - v0
    normals, c = folding._wrapped_edges(poly, frame)
    block = max(1, folding._BLOCK_CELLS // len(frame))
    values, witness = [], []
    for k in range(0, len(dirs), block):
        wb = dirs[k:k + block]
        u = np.column_stack([-wb[:, 1], wb[:, 0]])
        own = wb @ frame.T
        a = wb @ normals.T
        lo = every_cell_lower_ends(u @ frame.T, own, a, u @ normals.T, c)
        f = 0.5 * (np.minimum(lo, own) + own)
        f[(a[:, :-1] <= PARALLEL_TOL) & (a[:, 1:] <= PARALLEL_TOL)] = -np.inf
        j = np.argmax(f, axis=1)
        values.append(f[np.arange(len(j)), j] + wb @ v0)
        witness.append(j)
    return np.concatenate(values), np.concatenate(witness)


def ellipse_folding(a: float, b: float, theta: float) -> float:
    """Closed-form folding offset of the ellipse x^2/a^2 + y^2/b^2 = 1."""
    w1, w2 = np.cos(theta), np.sin(theta)
    return (a * a - b * b) * abs(w1 * w2) / np.hypot(b * w1, a * w2)


def test_chord_midpoint_square(square):
    # vertical chords of the square all have midpoint 1/2
    for s in (-0.8, -0.5, -0.2):
        assert chord_midpoint(square, [0.0, 1.0], s) == pytest.approx(0.5)
    with pytest.raises(OutsideShadow):
        chord_midpoint(square, [0.0, 1.0], 0.5)


def test_chord_midpoint_array_matches_scalar():
    # the array form gives each scalar call's value bit for bit, grazing
    # lines at the shadow ends included, and names the first line that
    # misses the body
    gen = np.random.default_rng(38)
    for n in (3, 5, 12, 48):
        poly = bodies.random_convex_polygon(gen, n)
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], *(unit(a) for a in gen.uniform(0.0, 2.0 * np.pi, 3))])
        dirs = np.concatenate([dirs, poly.edges[:2] / poly.edge_lengths[:2, None]])
        lo, hi = shadow_interval(poly, dirs)
        ys = lo[:, None] + np.array([0.0, 0.1, 0.35, 0.5, 0.65, 1.0]) * (hi - lo)[:, None]
        got = chord_midpoint(poly, dirs, ys)
        want = [[chord_midpoint(poly, w, y) for y in row] for w, row in zip(dirs, ys)]
        assert got.shape == ys.shape and got.tolist() == want
    ys[1, 2] = hi[1] + 1e-3 * poly.diameter
    with pytest.raises(OutsideShadow, match=f"shadow coordinate {ys[1, 2]} misses"):
        chord_midpoint(poly, dirs, ys)


def test_square_offsets(square):
    assert folding_offset(square, [0.0, 1.0]) == pytest.approx(0.5, abs=1e-12)
    assert folding_offset(square, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
    d = unit(np.pi / 4)
    assert folding_offset(square, d) == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)


def test_offset_below_support(square, hexagon, right_tri):
    for poly in (square, hexagon, right_tri):
        for theta in np.linspace(0.0, 2.0 * np.pi, 37):
            w = unit(theta)
            assert folding_offset(poly, w) <= support(poly, w) + poly.eps


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 199),
    theta=st.floats(0.0, 2.0 * np.pi),
    log_scale=st.floats(-4.0, 4.0),
    shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
def test_profile_at_most_support(seed, n, theta, log_scale, shift):
    # each folding offset is the midpoint of a chord whose upper end is a
    # vertex, so it exceeds the support value by rounding at most: that of
    # the frame at vertex 0 and that of support's own product
    base = _turned(bodies.random_convex_polygon(np.random.default_rng(seed), n), theta)
    poly = ConvexPolygon(10.0 ** log_scale * base.vertices + np.array(shift))
    dirs = heart_directions(poly, 720)
    over = folding_profile(poly, dirs).values - [support(poly, w) for w in dirs]
    assert over.max() <= 4.0 * np.spacing(np.abs(poly.vertices).max())


def test_bisection_tolerance_floor(square):
    with pytest.raises(ToleranceTooSmall):
        folding_offset_bisection(square, [1.0, 0.0], 1e-15)


def test_oracle_agreement_random():
    gen = np.random.default_rng(7)
    for poly in random_bodies(seed=42, count=12):
        for _ in range(8):
            w = unit(gen.uniform(0.0, 2.0 * np.pi))
            fast = folding_offset(poly, w)
            slow = folding_offset_bisection(poly, w, ORACLE_TOL)
            assert abs(fast - slow) <= max(ORACLE_TOL, 1e-7 * poly.diameter)


def test_oracle_agreement_far_from_the_origin():
    # bodies scaled by 1e-4 to 1e4 and shifted by up to 1e3: with its clip
    # and reflection in absolute coordinates the oracle raised
    # InconsistentHeart on 17 of these 120 calls, its feasibility slack of
    # 1e-13 diam being below their rounding, and missed the folding offset
    # by up to 0.44 diam where it returned
    gen = np.random.default_rng(5)
    for poly in far_bodies(40):
        tol = 1e-8 * poly.diameter
        for _ in range(3):
            w = unit(gen.uniform(0.0, 2.0 * np.pi))
            slow = folding_offset_bisection(poly, w, tol)
            assert abs(slow - folding_offset(poly, w)) <= tol + 1e-11 * poly.diameter


def test_oracle_agreement_tangential():
    # inscribed ellipse polygon: contact at the shadow extreme is tangential
    ell = bodies.ellipse_approx(2.0, 1.0, 256)
    for deg in (20.0, 32.0, 45.0, 58.0, 70.0):
        w = unit(np.radians(deg))
        fast = folding_offset(ell, w)
        slow = folding_offset_bisection(ell, w, ORACLE_TOL)
        assert abs(fast - slow) <= TANGENTIAL_TOL


def test_ellipse_closed_form_converges():
    """Inscribed m-gons approach the smooth closed form at first order.

    The worst direction error is dominated by the phase of the vertex
    nearest the tangential shadow extreme, so it decays like 1/m; the
    assertions pin that decay on a fixed direction sample.
    """
    thetas = np.radians(np.linspace(1.0, 89.0, 30))

    def sweep(m):
        poly = bodies.ellipse_approx(2.0, 1.0, m)
        errs = [
            abs(folding_offset(poly, unit(t)) - ellipse_folding(2.0, 1.0, t))
            for t in thetas
        ]
        return max(errs)

    e256 = sweep(256)
    e1024 = sweep(1024)
    e4096 = sweep(4096)
    assert e1024 < 8e-3
    assert e4096 < 2e-3
    assert e1024 <= e256 / 2.5
    assert e4096 <= e1024 / 2.5


def test_ellipse_diagonal_value():
    # a=2, b=1 at 45 degrees: closed form gives 3/sqrt(10)
    assert ellipse_folding(2.0, 1.0, np.pi / 4) == pytest.approx(3.0 / np.sqrt(10.0))
    ell = bodies.ellipse_approx(2.0, 1.0, 4096)
    got = folding_offset(ell, unit(np.pi / 4))
    assert got == pytest.approx(3.0 / np.sqrt(10.0), abs=2e-3)


def test_heart_square_collapses(square):
    heart, profile = heart_region(square, 360)
    assert heart.kind == "point"
    assert np.allclose(heart.points[0], [0.5, 0.5], atol=1e-9)
    assert len(profile.values) >= 360


def test_heart_halfdisc_segment(halfdisc64):
    heart, _ = heart_region(halfdisc64, 720)
    assert heart.kind == "segment"
    ys = np.sort(heart.points[:, 1])
    assert abs(heart.points[:, 0]).max() < 1e-6
    assert ys[0] == pytest.approx(0.0, abs=1e-6)
    assert ys[1] == pytest.approx(0.5, abs=2e-3)


def test_heart_inside_body():
    for poly in random_bodies(seed=5, count=10):
        heart, profile = heart_region(poly, 180)
        for v in heart.points:
            assert point_in(poly, v, eps=1e-7 * poly.diameter)
        assert region_point_distance(heart, poly.centroid) <= 1e-7 * poly.diameter


@pytest.mark.parametrize("region, message", [
    (EMPTY_REGION, r"came out empty \(slack {eps} per cut\)"),
    (Region("point", np.array([[3.5, 4.5]])), r"centroid lies 5.000e\+00 outside the heart \(tolerance {centroid}\)"),
    # inside the body and through the centroid, but 0.2 beyond the plane x <= 0.5
    (Region("segment", np.array([[0.5, 0.5], [0.7, 0.5]])),
     r"exceeds a folding offset by 2.000e-01 \(tolerance {containment}\)"),
], ids=["empty", "far", "beyond_plane"])
def test_heart_failures_state_gap_and_tolerance(monkeypatch, square, region, message):
    monkeypatch.setattr(folding, "halfplane_intersection", lambda *args: region)
    eps = square.eps
    want = message.format(eps=f"{eps:.3e}", centroid=f"{_CENTROID_TOL * eps:.3e}",
                          containment=f"{_CONTAINMENT_TOL * eps:.3e}")
    with pytest.raises(InconsistentHeart, match=want):
        heart_region(square, 720)


def heart_workload_bodies():
    """The benchmark's heart bodies: three named ones and seeded 128-384-gons."""
    named = [bodies.ellipse_approx(2.0, 1.0, 256), bodies.regular_ngon(512), bodies.halfdisc(1.0, 0.0, 64)]
    seeded = [bodies.random_convex_polygon(np.random.default_rng([2, 1, 0, j]), n)
              for j, n in enumerate((128, 192, 256, 320, 384))]
    return named + seeded


STRAIGHT_ANGLE = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
SUPPORT_DIRS = np.array([unit(a) for a in 2.0 * np.pi * np.arange(64) / 64])


@pytest.mark.parametrize("n_dirs", [4, 720])
def test_heart_edges_implied_by_folding_planes(n_dirs):
    # cutting by the body's edges as well as the folding planes gives the same set
    for poly in heart_workload_bodies() + [STRAIGHT_ANGLE]:
        heart, profile = heart_region(poly, n_dirs)
        planes = np.column_stack([profile.directions, profile.values])
        edges = np.column_stack([poly.edge_normals, poly.edge_offsets])
        with_edges = halfplane_intersection(np.vstack([planes, edges]), poly.bbox, poly.eps)
        assert heart.kind == with_edges.kind
        gap = (heart.points @ SUPPORT_DIRS.T).max(axis=0) - (with_edges.points @ SUPPORT_DIRS.T).max(axis=0)
        assert np.abs(gap).max() <= 2.0 * poly.eps


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    n_dirs=st.sampled_from([4, 8, 12, 60, 120, 360]),
    turns=st.integers(0, 359),
    scale=st.floats(0.05, 20.0),
    shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_heart_properties(seed, n, n_dirs, turns, scale, shift):
    # heart inside the body, centroid in the heart, and equivariance under
    # similarities whose rotation maps the direction grid onto itself (n_dirs
    # is a multiple of 4, so the grid also holds the coordinate axes)
    poly = bodies.random_convex_polygon(np.random.default_rng(seed), n)
    heart, _ = heart_region(poly, n_dirs)
    out = (heart.points @ poly.edge_normals.T - poly.edge_offsets).max()
    assert out <= _CONTAINMENT_TOL * poly.eps
    assert region_point_distance(heart, poly.centroid) <= _CENTROID_TOL * poly.eps
    angle = 2.0 * np.pi * (turns % n_dirs) / n_dirs
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    t = np.array(shift)
    moved = ConvexPolygon(scale * poly.vertices @ rot.T + t)
    moved_heart, _ = heart_region(moved, n_dirs)
    assert moved_heart.kind == heart.kind
    want = scale * (heart.points @ rot.T) + t
    gap = (moved_heart.points @ SUPPORT_DIRS.T).max(axis=0) - (want @ SUPPORT_DIRS.T).max(axis=0)
    assert np.abs(gap).max() <= 10.0 * moved.eps + 1e-12 * np.abs(t).max()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), k=st.integers(4, 360))
def test_heart_direction_monotonicity(seed, n, k):
    # more cutting planes can only shrink the outer approximation: 2k
    # uniform angles hold the k ones, so the heart at 2k directions keeps
    # to every plane of the heart at k
    poly = bodies.random_convex_polygon(np.random.default_rng(seed), n)
    _, coarse = heart_region(poly, k)
    fine, _ = heart_region(poly, 2 * k)
    gaps = fine.points @ coarse.directions.T - coarse.values
    assert gaps.max() <= _CONTAINMENT_TOL * poly.eps


def test_width_and_ball_bounds():
    for poly in random_bodies(seed=23, count=6):
        heart, _ = heart_region(poly, 240)
        for theta in np.linspace(0.0, np.pi, 13):
            wb = heart_width_bound(poly, unit(theta), heart)
            assert wb.heart_width <= wb.bound + 1e-7 * poly.diameter
        radius = heart_ball_radius(poly, heart)
        d = np.linalg.norm(heart.points - poly.centroid, axis=1)
        assert d.max() <= radius + 1e-7 * poly.diameter


def test_heart_directions_contain_axes(square):
    dirs = heart_directions(square, 360)
    angles = np.degrees(np.arctan2(dirs[:, 1], dirs[:, 0])) % 360.0
    for axis in (0.0, 45.0, 90.0, 135.0):
        assert np.min(np.abs(angles - axis)) < 1e-9


def test_heart_directions_hold_every_edge_normal(halfdisc64):
    # the chord's normal (0, -1) is 1.8e-16 rad from a uniform angle; both stay
    rows = {tuple(d) for d in heart_directions(halfdisc64, 720).tolist()}
    normals = halfdisc64.edge_normals / np.hypot(*halfdisc64.edge_normals.T)[:, None]
    assert all(tuple(n) in rows for n in normals.tolist())


@pytest.mark.parametrize("poly", [bodies.rectangle(2.0, 1.0), bodies.regular_ngon(6), bodies.regular_ngon(8),
                                  *random_bodies(9, 5, 9, 9)], ids=lambda p: f"{len(p)}-gon")
def test_heart_of_turned_body_is_turned_heart(poly):
    # lambda jumps at an edge normal, so a uniform angle a hair off it must
    # not stand in for it: turned by up to 3e-10 rad, the heart keeps its
    # kind (the 2 x 1 rectangle's is the point (1, 0.5)) and its place
    probe = np.array([unit(t) for t in np.arange(97) * 2.0 * np.pi / 97])
    base = heart_region(poly, 720)[0]
    for theta in (1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 3e-10):
        heart = heart_region(_turned(poly, theta), 720)[0]
        assert heart.kind == base.kind, theta
        c, s = np.cos(theta), np.sin(theta)
        turned_base = base.points @ np.array([[c, s], [-s, c]])  # as _turned
        gap = (heart.points @ probe.T).max(axis=0) - (turned_base @ probe.T).max(axis=0)
        assert np.abs(gap).max() <= poly.eps, theta


def test_normal_cone_holds_at_witness():
    theta = np.linspace(0.1, 2.0 * np.pi, 9)
    for poly in random_bodies(seed=31, count=8):
        profile = folding_profile(poly, np.column_stack([np.cos(theta), np.sin(theta)]))
        for row in zip(profile.directions, profile.values, profile.witness_vertex):
            assert normal_cone_check(poly, *row)


@pytest.mark.parametrize("delta", [1e-3, -1e-3, 0.07, -0.07])
@pytest.mark.parametrize("body", ["right_tri", "square", "rect21", "hexagon", "halfdisc64", "disc256"])
def test_normal_cone_negative_control(request, body, delta):
    # a fold value moved off the witness leaves the lower contact off the boundary
    poly = request.getfixturevalue(body)
    w = unit(0.3)
    profile = folding_profile(poly, [w])
    assert not normal_cone_check(poly, w, profile.values[0] + delta * poly.diameter, profile.witness_vertex[0])


def _similar_row(w, value, vertex, rot, scale, t):
    """(omega, value, vertex) of a profile row's image under x -> scale * rot x + t."""
    w = rot @ w
    return w, scale * value + w @ t, vertex


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    rotation=st.floats(0.0, 2.0 * np.pi),
    scale=st.floats(0.1, 10.0),
    shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_normal_cone_similarity_invariant(seed, n, rotation, scale, shift):
    poly = bodies.random_convex_polygon(np.random.default_rng(seed), n)
    c, s = np.cos(rotation), np.sin(rotation)
    rot = np.array([[c, -s], [s, c]])
    t = np.array(shift)
    moved = ConvexPolygon(scale * poly.vertices @ rot.T + t)
    profile = folding_profile(poly, heart_directions(poly, 16))
    for w, offset, j in zip(profile.directions, profile.values, profile.witness_vertex):
        for delta in (0.0, 1e-3, -1e-3, 0.07, -0.07):
            value = offset + delta * poly.diameter
            want = normal_cone_check(poly, w, value, j)
            assert normal_cone_check(moved, *_similar_row(w, value, j, rot, scale, t)) == want
            if delta == 0.0:
                assert want


@pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("h", [3e-9, 5e-9, 10e-9])
def test_normal_cone_sliver_rotation_invariant(a, h):
    # a few eps thick, so a contact point can lie within tolerance of every
    # edge; the verdict must not depend on how the sliver is turned.  Along
    # the long edge (k = 0, 32) a chord end is where two edges about h
    # radians apart cross, and rounding moves it by about 1e-16 / h along
    # the chord, past the contact tolerance: the check finds the contacts
    # from the edge lines that bound the chord, whose gaps only round
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [a, h]])
    poly = ConvexPolygon(pts)
    theta = 2.0 * np.pi * np.arange(64) / 64
    profile = folding_profile(poly, np.column_stack([np.cos(theta), np.sin(theta)]))
    rows = list(zip(profile.directions, profile.values, profile.witness_vertex))
    want = [normal_cone_check(poly, *row) for row in rows]
    for phi in (0.7, 2.1, 3.5, 5.0):
        c, s = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        moved = ConvexPolygon(pts @ rot.T)
        got = [normal_cone_check(moved, *_similar_row(*row, rot, 1.0, np.zeros(2))) for row in rows]
        assert got == want, phi


def test_too_few_directions(square):
    with pytest.raises(ValueError):
        heart_region(square, 3)


def test_profile_matches_tableau():
    # edge-normal directions put whole edges at a shadow extreme, parallel
    # to the direction; the chain search must skip them as the tableau does
    gen = np.random.default_rng(606)
    suite = [
        bodies.rectangle(2.0, 1.0),
        ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]),
        bodies.triangle([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]),
        bodies.regular_ngon(512),
    ] + [bodies.random_convex_polygon(gen, n) for n in (3, 7, 40, 200)]
    for poly in suite:
        tol = 1e-11 * poly.diameter
        dirs = heart_directions(poly, 720)
        profile = folding_profile(poly, dirs)
        assert len(profile.values) == len(dirs)
        assert np.array_equal(profile.directions, dirs)
        for k, w in enumerate(dirs):
            f = tableau_chord_midpoints(poly, w)
            assert abs(profile.values[k] - f.max()) <= tol, (len(poly), w)
            assert abs(f[profile.witness_vertex[k]] - f.max()) <= tol
        for w in dirs[::37]:
            assert np.abs(vertex_chord_midpoints(poly, w) - tableau_chord_midpoints(poly, w)).max() <= tol


def _assert_profile_matches_tableau(poly, dirs):
    tol = 1e-11 * poly.diameter
    profile = folding_profile(poly, dirs)
    for k, w in enumerate(dirs):
        f = tableau_chord_midpoints(poly, w)
        assert abs(profile.values[k] - f.max()) <= tol, (len(poly), w)
        assert abs(f[profile.witness_vertex[k]] - f.max()) <= tol
        assert np.abs(vertex_chord_midpoints(poly, w) - f).max() <= tol, (len(poly), w)


def _turned(poly, theta):
    c, s = np.cos(theta), np.sin(theta)
    return ConvexPolygon(poly.vertices @ np.array([[c, s], [-s, c]]))


TIE_BODIES = {
    "square": bodies.square(),
    "rect21": bodies.rectangle(2.0, 1.0),
    **{f"ngon{n}": bodies.regular_ngon(n) for n in (4, 6, 8, 12)},
    "straight_bottom": ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]),
    "straight_top": ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0], [0.0, 1.0]]),
}
TIE_TURNS = [0.0, 0.5 * np.pi, 0.7]


def _edge_directions(poly):
    """The edge directions +-e_i/|e_i|: along each, an edge is parallel to omega."""
    e = poly.edges / poly.edge_lengths[:, None]
    return np.concatenate([e, -e])


@pytest.mark.parametrize("theta", TIE_TURNS)
@pytest.mark.parametrize("body", TIE_BODIES.values(), ids=TIE_BODIES.keys())
def test_profile_matches_tableau_on_ties(body, theta):
    # many projections tie exactly here, so the shared sort's tie order
    # decides which chain edge brackets a vertex; along the edge
    # directions an edge is parallel to omega and leaves its chain
    poly = _turned(body, theta)
    _assert_profile_matches_tableau(poly, np.concatenate([heart_directions(poly, 720), _edge_directions(poly)]))


@pytest.mark.parametrize("suite", ["heart", "ties", "tie_edges"])
def test_profile_is_every_cell_maximum(suite):
    # folding_profile searches lower chord ends at the strict top-chain
    # vertices only; its rows must be, bit for bit, the maximum over the
    # top-chain vertices of the search run at every vertex in its frame
    if suite == "heart":
        cases = [(poly, heart_directions(poly, 720)) for poly in heart_workload_bodies()]
    else:
        polys = [_turned(body, theta) for body in TIE_BODIES.values() for theta in TIE_TURNS]
        pick = heart_directions if suite == "ties" else lambda poly, _: _edge_directions(poly)
        cases = [(poly, pick(poly, 720)) for poly in polys]
    for poly, dirs in cases:
        profile = folding_profile(poly, dirs)
        values, witness = every_cell_profile(poly, dirs)
        assert np.array_equal(profile.values, values), len(poly)
        assert np.array_equal(profile.witness_vertex, witness), len(poly)


def exact_chord_midpoints(poly, w):
    """Chord midpoints over every vertex projection in rational arithmetic
    on the float vertices and w: each edge whose s-range holds a vertex
    projection gives a chord end there by linear interpolation, and the
    midpoint is half the sum of the largest and smallest end."""
    v = [(Fraction(x), Fraction(y)) for x, y in poly.vertices.tolist()]
    wx, wy = Fraction(w[0]), Fraction(w[1])
    s = [wx * y - wy * x for x, y in v]
    h = [wx * x + wy * y for x, y in v]
    order = sorted(range(len(v)), key=s.__getitem__)
    keys = [s[k] for k in order]
    ends = [[] for _ in v]
    for p in range(len(v)):
        q = (p + 1) % len(v)
        lo, hi = sorted((s[p], s[q]))
        for k in order[bisect.bisect_left(keys, lo):bisect.bisect_right(keys, hi)]:
            if s[p] == s[q]:
                ends[k] += [h[p], h[q]]
            else:
                ends[k].append(h[p] + (s[k] - s[p]) * (h[q] - h[p]) / (s[q] - s[p]))
    return np.array([float((max(e) + min(e)) / 2) for e in ends])


def test_chord_ends_near_edge_directions():
    # 1e-6 rad off an edge direction that edge is nearly parallel to omega,
    # and its line's value at its own endpoints is off by up to 1e-10 diam;
    # the kernel and the tableau take a vertex's own coordinate there, and
    # both must agree with rational arithmetic to rounding
    turns = [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) for t in (1e-6, -1e-6)]
    for poly in random_bodies(1906, 6, 12, 36):
        tol = 1e-12 * poly.diameter
        e = poly.edges / poly.edge_lengths[:, None]
        for w in np.concatenate([sign * e @ turn.T for turn in turns for sign in (1.0, -1.0)]):
            w = w / np.linalg.norm(w)
            f = exact_chord_midpoints(poly, w)
            assert np.abs(vertex_chord_midpoints(poly, w) - f).max() <= tol, (len(poly), w)
            assert np.abs(tableau_chord_midpoints(poly, w) - f).max() <= tol, (len(poly), w)
            assert abs(folding_offset(poly, w) - f.max()) <= tol, (len(poly), w)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    rotation=st.floats(0.0, 2.0 * np.pi),
    scale=st.floats(0.05, 20.0),
    shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_profile_is_top_chain_maximum(seed, n, rotation, scale, shift):
    # the kernel evaluates only top-chain vertices, since the chord midpoint
    # is a concave upper end plus a convex lower one; its values must still
    # be the tableau's maximum over every vertex, also along and 1e-6 rad
    # off the edge directions, where edges leave and join the chains
    poly = bodies.random_convex_polygon(np.random.default_rng(seed), n)
    c, s = np.cos(rotation), np.sin(rotation)
    poly = ConvexPolygon(scale * poly.vertices @ np.array([[c, s], [-s, c]]) + np.array(shift))
    e = poly.edges / poly.edge_lengths[:, None]
    dirs = [heart_directions(poly, 720), e, -e]
    for t in (1e-6, -1e-6):
        turn = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        dirs += [e @ turn, -e @ turn]
    dirs = np.concatenate(dirs)
    dirs /= np.hypot(dirs[:, 0], dirs[:, 1])[:, None]
    profile = folding_profile(poly, dirs)
    assert np.abs(profile.values - tableau_chord_midpoints(poly, dirs).max(axis=1)).max() <= 1e-11 * poly.diameter
    j = profile.witness_vertex
    a = np.einsum("ij,ij->i", poly.edge_normals[j], dirs)
    a_before = np.einsum("ij,ij->i", poly.edge_normals[j - 1], dirs)
    assert np.all(np.maximum(a, a_before) > PARALLEL_TOL)


@pytest.mark.parametrize("cells", [lambda n: 7 * n + 3, lambda n: 1], ids=["7n+3", "one_row"])
def test_profile_independent_of_block_split(monkeypatch, cells):
    # blocks of 7 rows and a ragged last block, or one row each: every row
    # must come out as the single direction does, whatever block it is in.
    # On the triangle 366 of the 736 rows have no strict top-chain vertex,
    # so one-row blocks search no lower chord end at all
    gen = np.random.default_rng(907)
    suite = [bodies.triangle([0.0, 0.0], [1.0, 0.0], [0.3, 0.8]), bodies.regular_ngon(12),
             bodies.halfdisc(1.0, 0.0, 64)] + [bodies.random_convex_polygon(gen, n) for n in (5, 40, 150)]
    for poly in suite:
        dirs = np.concatenate([heart_directions(poly, 720), _edge_directions(poly), poly.edge_normals])
        monkeypatch.setattr(folding, "_BLOCK_CELLS", cells(len(poly)))
        profile = folding_profile(poly, dirs)
        for k, w in enumerate(dirs):
            one = folding_offset(poly, w)
            assert abs(profile.values[k] - one) <= 1e-12 * poly.diameter, (len(poly), w)
            f = tableau_chord_midpoints(poly, w)
            assert abs(f[profile.witness_vertex[k]] - f.max()) <= 1e-11 * poly.diameter


def test_profile_peak_memory():
    # folding_profile drops each block-sized temporary once spent; the
    # kernel that searched a lower chord end at every vertex peaked at
    # 1885 kB (tracemalloc) on this call, with numpy 2.4.6 on x86_64, and
    # the compacted one must stay at or below that
    poly = bodies.regular_ngon(512)
    dirs = heart_directions(poly, 720)
    folding_profile(poly, dirs)
    tracemalloc.start()
    try:
        folding_profile(poly, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1885 * 1024


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    rotation=st.floats(0.0, 2.0 * np.pi),
    scale=st.floats(0.05, 20.0),
    shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_folding_offset_similarity_equivariant(seed, n, rotation, scale, shift, theta):
    # offset(sRP + t, Rw) = s offset(P, w) + t . Rw
    poly = bodies.random_convex_polygon(np.random.default_rng(seed), n)
    c, s = np.cos(rotation), np.sin(rotation)
    rot = np.array([[c, -s], [s, c]])
    t = np.array(shift)
    moved = ConvexPolygon(scale * poly.vertices @ rot.T + t)
    w = unit(theta)
    rw = rot @ w
    rw /= np.hypot(*rw)
    want = scale * folding_offset(poly, w) + t @ rw
    got = folding_offset(moved, rw)
    assert abs(got - want) <= 1e-9 * moved.diameter + 1e-12 * np.abs(t).max()


@pytest.mark.parametrize("key, n", [([2, 21, 4, 0], 128), ([2, 10, 3, 2], 256), ([2, 15, 15, 3], 320)])
def test_ball_radius_covers_intersection_slack(key, n):
    # heart vertices sit up to one eps beyond a folding plane (the cut
    # slack); a radius built from the offsets alone fell short of them
    poly = bodies.random_convex_polygon(np.random.default_rng(key), n)
    heart, _ = heart_region(poly, 720)
    radius = heart_ball_radius(poly, heart)
    assert np.hypot(*(heart.points - poly.centroid).T).max() <= radius + 1e-12 * poly.diameter


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 64),
    n_dirs=st.sampled_from([4, 8, 60, 720]),
)
def test_ball_is_farthest_heart_vertex(seed, n, n_dirs):
    # the centroid-centered ball holds every heart vertex with no tolerance,
    # and its radius is attained at one of them
    poly = bodies.random_convex_polygon(np.random.default_rng(seed), n)
    heart, _ = heart_region(poly, n_dirs)
    radius = heart_ball_radius(poly, heart)
    dist = np.hypot(*(heart.points - poly.centroid).T)
    assert np.all(dist <= radius)
    assert dist.max() == radius


def test_folding_profile_rejects_non_unit_direction(square):
    dirs = heart_directions(square, 60)
    dirs[17] *= 1.0 + 1e-9
    norm = np.hypot(*dirs[17])
    with pytest.raises(ValueError, match=re.escape(f"direction must be unit length, got norm {norm!r}")):
        folding_profile(square, dirs)
    dirs[17] = [np.nan, 1.0]
    with pytest.raises(ValueError, match="direction must be a finite 2-vector"):
        folding_profile(square, dirs)
