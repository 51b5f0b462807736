"""Transform identities and inversion-based chord reconstruction.

The boundary vertex-sum formula is cross-checked against a plain area
quadrature: fan-triangulate the body and integrate exp(-i x . xi) with a
tensor Gauss-Legendre rule per triangle.  Different discretization,
different error mechanism, same analytic object.
"""

import math

import numpy as np
import pytest

from polyheart import bodies, fourier
from polyheart.errors import DenominatorTooSmall, FrequencyNotOrthogonal
from polyheart.folding import chord_midpoint
from polyheart.fourier import (
    _SERIES_CUT,
    _inversion_nodes,
    _line_transform,
    _prelude,
    _sinc,
    _transform,
    _transform_deriv,
    chord_via_transform,
    indicator_transform,
    indicator_transform_deriv,
    midpoint_via_transform,
)
from polyheart.geometry import ConvexPolygon, chord, perp, shadow_interval, unit

from conftest import random_bodies

_GL_NODES, _GL_WTS = np.polynomial.legendre.leggauss(48)
_T = 0.5 * (_GL_NODES + 1.0)  # [0, 1]
_W = 0.5 * _GL_WTS


def transform_area_quadrature(poly: ConvexPolygon, xi: np.ndarray) -> complex:
    """Independent oracle: 2-D quadrature of exp(-i x . xi) over the body."""
    c = poly.centroid
    total = 0.0 + 0.0j
    u, v = np.meshgrid(_T, _T, indexing="ij")
    wts = np.outer(_W, _W)
    for k in range(len(poly)):
        a = poly.vertices[k]
        b = poly.vertices[(k + 1) % len(poly)]
        jac = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        # map the unit square onto the triangle (a, b, c), collapsing one edge
        x = a[0] + u * (b[0] - a[0]) + u * v * (c[0] - b[0])
        y = a[1] + u * (b[1] - a[1]) + u * v * (c[1] - b[1])
        phase = np.exp(-1j * (x * xi[0] + y * xi[1]))
        total += jac * np.sum(wts * u * phase)
    return complex(total)


def test_transform_at_zero_is_area():
    for poly in random_bodies(seed=2, count=10):
        assert indicator_transform(poly, [0.0, 0.0]) == pytest.approx(
            poly.area, abs=1e-12 * max(1.0, poly.area)
        )


@pytest.mark.parametrize("x", [0.0, 1e-8, -1e-8, 0.0999, -0.0999, 0.1, 1.0, 123.4])
def test_sinc_within_4_ulp(x):
    want = 1.0 if x == 0.0 else math.sin(x) / x
    assert abs(float(_sinc(np.array([x]))[0]) - want) <= 4.0 * math.ulp(want)


def test_rectangle_closed_form(rect21):
    gen = np.random.default_rng(10)
    for _ in range(20):
        xi = gen.uniform(-8.0, 8.0, size=2)
        got = indicator_transform(rect21, xi)
        want = (
            2.0
            * np.sinc(2.0 * xi[0] / (2.0 * np.pi))
            * np.sinc(xi[1] / (2.0 * np.pi))
            * np.exp(-1j * (xi[0] + 0.5 * xi[1]))
        )
        assert got == pytest.approx(want, abs=1e-13)


def test_against_area_quadrature():
    gen = np.random.default_rng(6)
    for poly in random_bodies(seed=9, count=5):
        for _ in range(4):
            xi = gen.uniform(-6.0, 6.0, size=2) / poly.diameter * 4.0
            got = indicator_transform(poly, xi)
            want = transform_area_quadrature(poly, xi)
            assert abs(got - want) <= 1e-8


def test_conjugate_symmetry_and_shift(square):
    gen = np.random.default_rng(3)
    xi = gen.uniform(-5.0, 5.0, size=2)
    assert indicator_transform(square, -xi) == pytest.approx(
        np.conj(indicator_transform(square, xi)), abs=1e-14
    )
    shifted = ConvexPolygon(square.vertices + np.array([0.3, -1.2]))
    want = indicator_transform(square, xi) * np.exp(-1j * (0.3 * xi[0] - 1.2 * xi[1]))
    assert indicator_transform(shifted, xi) == pytest.approx(want, abs=1e-13)


def test_derivative_against_finite_difference():
    gen = np.random.default_rng(77)
    for poly in random_bodies(seed=14, count=4):
        w = unit(gen.uniform(0.0, 2.0 * np.pi))
        eta = gen.uniform(0.5, 3.0) * perp(w)
        got = indicator_transform_deriv(poly, eta, w)
        h = 1e-6
        fd = (
            indicator_transform(poly, eta + h * w) - indicator_transform(poly, eta - h * w)
        ) / (2.0 * h)
        assert abs(got - fd) <= 1e-7


def test_derivative_at_zero_is_moment(square):
    w = np.array([1.0, 0.0])
    got = indicator_transform_deriv(square, np.zeros(2), w)
    want = -1j * square.area * float(square.centroid @ w)
    assert got == pytest.approx(want, abs=1e-14)


def test_derivative_requires_orthogonal_frequency(square):
    with pytest.raises(FrequencyNotOrthogonal):
        indicator_transform_deriv(square, np.array([1.0, 0.5]), np.array([1.0, 0.0]))


def test_chord_reconstruction(square):
    w = np.array([0.0, 1.0])
    lo, hi = shadow_interval(square, w)
    y = 0.5 * (lo + hi)
    direct = chord(square, y, w)
    got = chord_via_transform(square, w, y, 400.0)
    assert got == pytest.approx(direct[1] - direct[0], abs=2e-3)
    # outside the shadow the inversion integrates to ~0
    assert abs(chord_via_transform(square, w, hi + 0.5, 400.0)) < 2e-3


def test_midpoint_reconstruction_bodies(square, halfdisc64):
    for poly in (square, bodies.regular_ngon(7), halfdisc64):
        for theta in (0.0, 1.0, 2.2):
            w = unit(theta)
            lo, hi = shadow_interval(poly, w)
            for frac in (0.3, 0.5, 0.7):
                y = lo + frac * (hi - lo)
                direct = chord_midpoint(poly, w, y)
                got = midpoint_via_transform(poly, w, y, 400.0)
                assert abs(got - direct) <= 5e-4 * poly.diameter


def test_midpoint_rejects_shadow_edge(square):
    w = np.array([0.0, 1.0])
    lo, hi = shadow_interval(square, w)
    with pytest.raises(DenominatorTooSmall):
        midpoint_via_transform(square, w, hi - 1e-6, 400.0)


def test_error_decays_with_cutoff(halfdisc64):
    w = unit(0.7)
    lo, hi = shadow_interval(halfdisc64, w)
    ys = lo + np.linspace(0.25, 0.75, 9) * (hi - lo)
    errs = {}
    for cutoff in (100.0, 200.0):
        e = [
            abs(midpoint_via_transform(halfdisc64, w, y, cutoff=cutoff)
                - chord_midpoint(halfdisc64, w, y))
            for y in ys
        ]
        errs[cutoff] = float(np.median(e))
    assert errs[200.0] <= 0.7 * errs[100.0]


def full_line_midpoint(poly: ConvexPolygon, w: np.ndarray, y: float, cutoff: float = 400.0):
    """Reference: the midpoint ratio over the whole segment [-S, S] in the
    origin's frame, on a node set of its own for this one point, with T
    and T' evaluated directly at every node.

    Returns the midpoint and the number of panels.  At least 4096 nodes,
    more when 8 per oscillation at y need it (T's phases run to the
    vertices), in panels of 8.
    """
    u = perp(w)
    s_max = cutoff * 2.0 * np.pi / poly.diameter
    freq = abs(y) + float(np.abs(poly.vertices @ u).max()) + 1e-9
    total = max(4096, int(np.ceil(8.0 * s_max * freq / np.pi)))
    panels = max(8, int(np.ceil(total / 8.0)))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    ends = np.linspace(-s_max, s_max, panels + 1)
    half = 0.5 * (ends[1:] - ends[:-1])
    centers = 0.5 * (ends[1:] + ends[:-1])
    s = (centers[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    pre = _prelude(poly, s[:, None] * u[None, :])
    swing = np.exp(1j * y * s)
    denom = np.real(wts @ (_transform(poly, pre) * swing))
    numer = np.real(wts @ (1j * _transform_deriv(poly, w, pre) * swing))
    return float(numer / denom), panels


def node_counts(monkeypatch) -> list:
    """Record the number of nodes of every fourier._line_transform call."""
    sizes = []
    orig = fourier._line_transform

    def spy(poly, w, yc, cutoff):
        out = orig(poly, w, yc, cutoff)
        sizes.append(len(out[0]))
        return out

    monkeypatch.setattr(fourier, "_line_transform", spy)
    return sizes


def centred(poly: ConvexPolygon) -> ConvexPolygon:
    return ConvexPolygon(poly.vertices - poly.centroid)


def test_half_line_rule_is_full_rule_folded():
    # The half-line keeps the full rule's panels over [0, S] when their
    # count is even, so on a body centred at the origin it is the full
    # rule folded in half.  The points near the shadow ends need more than
    # the 4096-node floor.
    cases = [
        (bodies.regular_ngon(7), 1.0, (0.3, 0.5, 0.7, 0.8)),
        (centred(bodies.halfdisc(1.0, 0.0, 64)), 2.2, (0.06, 0.3, 0.8, 0.94)),
    ]
    grown = 0
    for poly, theta, fracs in cases:
        w = unit(theta)
        lo, hi = shadow_interval(poly, w)
        for frac in fracs:
            y = lo + frac * (hi - lo)
            want, panels = full_line_midpoint(poly, w, y)
            assert panels % 2 == 0
            grown += panels * 8 > 4096
            got = midpoint_via_transform(poly, w, y, 400.0)
            assert abs(got - want) <= 1e-11 * poly.diameter
    assert grown >= 5


def line_gap(poly: ConvexPolygon, w: np.ndarray, yc: np.ndarray) -> tuple:
    """Largest gaps between _line_transform and T, T' and e^{i s y}
    evaluated directly on its nodes, in units of area, area*diameter and 1."""
    u = perp(w)
    s, _, t, dt, swing = _line_transform(poly, w, yc, 400.0)
    centred = ConvexPolygon(poly.vertices - poly.centroid)
    pre = _prelude(centred, s[:, None] * u[None, :])
    return (
        np.max(np.abs(t - _transform(centred, pre))) / poly.area,
        np.max(np.abs(dt - _transform_deriv(centred, w, pre))) / (poly.area * poly.diameter),
        np.max(np.abs(swing - np.exp(1j * np.outer(yc, s)))),
    )


# Both sides round phase angles of up to S*diam = 2*pi*400 rad and more,
# so they may part by about 1e-13 in each unit-modulus phase; measured,
# the gaps stay below 2e-13.
_LINE_TOL = 1e-12


def test_line_transform_matches_direct(halfdisc64):
    # test_fourier's panels, the square along its edges (D_j = 0 exactly
    # on two of them) and one random body of each `analyses` size
    polys = [bodies.square(), bodies.regular_ngon(7), halfdisc64, *random_bodies(seed=5, count=3)]
    polys += [bodies.random_convex_polygon(np.random.default_rng(n), n) for n in (5, 6, 8, 10, 12, 48)]
    flat = 0
    for poly in polys:
        for theta in (0.0, 1.0, 2.2, 0.5 * np.pi):
            w = unit(theta)
            flat += int(np.any(poly.edges @ perp(w) == 0.0))
            lo, hi = shadow_interval(poly, w)
            yc = lo + np.array([0.35, 0.5, 0.65]) * (hi - lo) - float(poly.centroid @ perp(w))
            assert max(line_gap(poly, w, yc)) <= _LINE_TOL
    assert flat >= 2


@pytest.mark.parametrize("excess", [-1e-9, 1e-9, None])
def test_line_transform_at_the_series_cut(excess):
    # turn omega so that |s_k D_0 / 2| on edge 0 sits just below or just
    # above _SERIES_CUT at node k = 100, or (None) so that edge 0 is 1e-9
    # rad from parallel and every node of it takes the series
    poly = bodies.regular_ngon(7)
    yc = np.zeros(1)
    panels = _inversion_nodes(poly, perp(unit(0.0)), yc, 400.0)
    s_k = _line_transform(poly, unit(0.0), yc, 400.0)[0][100]
    edge = poly.edges[0] / poly.edge_lengths[0]
    if excess is None:
        turn = 1e-9
    else:
        turn = math.asin(2.0 * _SERIES_CUT * (1.0 + excess) / (s_k * poly.edge_lengths[0]))
    w = np.array([edge[0] * math.cos(turn) - edge[1] * math.sin(turn),
                  edge[0] * math.sin(turn) + edge[1] * math.cos(turn)])
    x = abs(0.5 * float(poly.edges[0] @ perp(w))) * s_k
    assert _inversion_nodes(poly, perp(w), yc, 400.0) == panels
    if excess is not None:
        assert (x < _SERIES_CUT) == (excess < 0.0) and abs(x / _SERIES_CUT - 1.0) < 1e-8
    assert max(line_gap(poly, w, yc)) <= _LINE_TOL


def test_node_budget_reaches_the_vertices():
    # T's phases run to the vertices, so 8 nodes per oscillation must count
    # them.  Sized by the edge midpoints, the half-line rule sat 2.1e-12 to
    # 4.2e-12 diam from the full rule here, and the batch up to 3.7e-12
    # diam from its scalar calls; sized by the vertices, both gaps are at
    # most 2e-13 diam.  From 88% on, the full rule has an odd panel count,
    # so its middle panel straddles 0 and the two rules differ.
    poly = bodies.regular_ngon(7)
    w = unit(1.0)
    lo, hi = shadow_interval(poly, w)
    ys = lo + np.linspace(0.80, 0.94, 15) * (hi - lo)
    batch = midpoint_via_transform(poly, w, ys, 400.0)
    odd = 0
    for y, got in zip(ys, batch):
        single = midpoint_via_transform(poly, w, y, 400.0)
        want, panels = full_line_midpoint(poly, w, y)
        odd += panels % 2
        assert abs(single - want) <= 1e-12 * poly.diameter
        assert abs(got - single) <= 1e-12 * poly.diameter
    assert odd >= 5


def test_midpoint_batch_matches_scalar(monkeypatch, halfdisc64):
    # Points whose own node set is the batch's one: then batching changes
    # only the order of the sums.  A point that needs fewer nodes than the
    # batch's largest |y| gets the batch's finer rule instead.
    sizes = node_counts(monkeypatch)
    for poly in (bodies.square(), bodies.regular_ngon(7), halfdisc64, *random_bodies(seed=5, count=3)):
        for theta in (0.0, 1.0, 2.2):
            w = unit(theta)
            lo, hi = shadow_interval(poly, w)
            mid = float(poly.centroid @ perp(w))
            ys = mid + np.array([-0.1, 0.0, 0.05, 0.1]) * (hi - lo)
            sizes.clear()
            got = midpoint_via_transform(poly, w, ys, 400.0)
            singles = [midpoint_via_transform(poly, w, y, 400.0) for y in ys]
            assert len(set(sizes)) == 1 and len(sizes) == 1 + len(ys)
            assert isinstance(got, np.ndarray) and got.shape == ys.shape
            assert all(isinstance(v, float) for v in singles)
            assert np.max(np.abs(got - singles)) <= 1e-13 * poly.diameter


def test_node_budget_ignores_translation(monkeypatch, square):
    sizes = node_counts(monkeypatch)
    far = ConvexPolygon(square.vertices + 1000.0)
    for theta in (0.0, 1.0, 2.2):
        w = unit(theta)
        errs = []
        for poly in (square, far):
            lo, hi = shadow_interval(poly, w)
            ys = lo + np.array([0.3, 0.5, 0.7]) * (hi - lo)
            got = midpoint_via_transform(poly, w, ys, 400.0)
            errs.append(got - np.array([chord_midpoint(poly, w, y) for y in ys]))
        assert sizes[0] == sizes[1]
        assert np.max(np.abs(errs[0] - errs[1])) <= 1e-12
        sizes.clear()
    at_origin = chord_via_transform(square, unit(1.0), 0.2, 400.0)
    shifted = chord_via_transform(far, unit(1.0), 0.2 + 1000.0 * float(perp(unit(1.0)).sum()), 400.0)
    assert sizes[0] == sizes[1]
    assert abs(at_origin - shifted) <= 1e-12


def test_node_budget_ignores_scale():
    # the oscillation is sized by lengths of the body alone; an absolute
    # 1e-9 added to them gave the square scaled by 1e-12 283027 panels
    def panels(s):
        poly = bodies.rectangle(s, s)
        u = perp(unit(1.0))
        lo, hi = shadow_interval(poly, unit(1.0))
        yc = lo + np.array([0.35, 0.5, 0.65]) * (hi - lo) - float(poly.centroid @ u)
        return _inversion_nodes(poly, u, yc, 400.0)[0]

    assert [panels(s) for s in (1e-12, 1.0, 1e6)] == [panels(1.0)] * 3


def test_margin_error_names_first_bad_point(monkeypatch, square):
    sizes = node_counts(monkeypatch)
    w = np.array([0.0, 1.0])
    lo, hi = shadow_interval(square, w)
    ys = np.array([lo + 0.5, hi - 0.01, lo + 0.02])
    with pytest.raises(DenominatorTooSmall) as info:
        midpoint_via_transform(square, w, ys, 400.0)
    msg = str(info.value)
    assert f"shadow coordinate {ys[1]} " in msg
    assert "0.01" in msg and "margin 0.05" in msg
    assert sizes == []


def test_short_chord_error_states_value_and_bound():
    thin = bodies.rectangle(10.0, 0.1)
    w = np.array([0.0, 1.0])
    lo, hi = shadow_interval(thin, w)
    ys = lo + np.array([0.5, 0.6]) * (hi - lo)
    with pytest.raises(DenominatorTooSmall) as info:
        midpoint_via_transform(thin, w, ys, 400.0)
    msg = str(info.value)
    bound = 0.05 * thin.diameter * 2.0 * np.pi
    assert f"shadow coordinate {ys[0]} " in msg
    assert f"= {bound}" in msg
    value = float(msg.split("2*pi*chord ")[1].split()[0])
    assert abs(value) == pytest.approx(2.0 * np.pi * 0.1, rel=0.05)
