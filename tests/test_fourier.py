"""Transform identities and inversion-based chord reconstruction.

The boundary vertex-sum formula is cross-checked against a plain area
quadrature: fan-triangulate the body and integrate exp(-i x . xi) with a
tensor Gauss-Legendre rule per triangle.  Different discretization,
different error mechanism, same analytic object.  The derivative
transform T' along a direction is evaluated directly at arbitrary
frequencies by indicator_transform_deriv below; full_line_midpoint
inverts T and T' by Gauss quadrature on a node set of its own, the
reference for the closed-form inversion of fourier._line_sums.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sici

from polyheart import bodies, fourier
from polyheart.errors import DenominatorTooSmall, PolyheartError
from polyheart.folding import chord_midpoint
from polyheart.fourier import (
    _SHORT_EDGE,
    _SI_SERIES_CUT,
    _prelude,
    _si_tail,
    _sinc,
    _transform,
    chord_via_transform,
    indicator_transform,
    midpoint_via_transform,
)
from polyheart.geometry import PARALLEL_TOL, ConvexPolygon, check_direction, chord, perp, shadow_interval, unit

from conftest import random_bodies


class FrequencyNotOrthogonal(PolyheartError):
    """Directional-derivative frequency must be orthogonal to the direction."""


# sinc' switches to its series below this |x| (_series_filled): cos x -
# sin x / x cancels there, losing digits that the series keeps.
_SERIES_CUT = 0.1


def _series_filled(x: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """closed, the closed form of sinc' at x, with the series of sinc' in
    its place where |x| < _SERIES_CUT."""
    x2 = x * x
    series = -(x / 3.0) * (1.0 - x2 / 10.0 * (1.0 - 3.0 * x2 / 84.0))
    return np.where(np.abs(x) < _SERIES_CUT, series, closed)


def _sinc_prime(x: np.ndarray) -> np.ndarray:
    """Derivative of sin(x)/x, series-filled near zero."""
    x = np.asarray(x, dtype=float)
    safe = np.where(np.abs(x) < _SERIES_CUT, 1.0, x)
    return _series_filled(x, np.cos(safe) / safe - np.sin(safe) / (safe * safe))


def _transform_deriv(poly: ConvexPolygon, w: np.ndarray, pre) -> np.ndarray:
    """T' along w at the nonzero frequencies of a _prelude, all orthogonal to w."""
    safe2, _, mids, half_d, sinc_d, phase, proj = pre
    edges = poly.edges
    bracket = (
        ((poly.edge_normals * poly.edge_lengths[:, None]) @ w)[None, :] * sinc_d
        + proj * _sinc_prime(half_d) * (0.5 * (edges @ w))[None, :]
        - 1j * proj * sinc_d * (mids @ w)[None, :]
    )
    return 1j / safe2 * np.sum(bracket * phase, axis=1)


def indicator_transform_deriv(poly: ConvexPolygon, eta, omega) -> complex | np.ndarray:
    """Directional derivative of the transform along omega, on omega-perp.

    Differentiating the sinc form of the transform at xi = eta + tau*omega
    in tau (the 1/|xi|^2 prefactor is flat there since eta . omega = 0):

      (i/|eta|^2) sum_j |e_j| [ (nu_j . w) sinc(D_j/2)
                               + (nu_j . eta) sinc'(D_j/2) (e_j . w)/2
                               - i (nu_j . eta) sinc(D_j/2) (m_j . w) ] e^{-i m_j . eta}

    At eta = 0 the limit is -i * area * (centroid . omega), the first
    moment of the body along omega.
    """
    w = check_direction(omega)
    eta_arr = np.atleast_2d(np.asarray(eta, dtype=float))
    dots = eta_arr @ w
    scale = np.linalg.norm(eta_arr, axis=1)
    if np.any(np.abs(dots) > PARALLEL_TOL * np.maximum(scale, 1.0)):
        raise FrequencyNotOrthogonal("eta must be orthogonal to omega")
    pre = _prelude(poly, eta_arr)
    moment = -1j * poly.area * float(poly.centroid @ w)
    vals = np.where(pre[1], moment, _transform_deriv(poly, w, pre))
    if np.ndim(eta) == 1:
        return complex(vals[0])
    return vals


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


def line_calls(monkeypatch) -> list:
    """Record the shadow coordinates of every fourier._line_sums call."""
    calls = []
    orig = fourier._line_sums

    def spy(poly, w, ys, cutoff):
        calls.append(ys)
        return orig(poly, w, ys, cutoff)

    monkeypatch.setattr(fourier, "_line_sums", spy)
    return calls


def centred(poly: ConvexPolygon) -> ConvexPolygon:
    return ConvexPolygon(poly.vertices - poly.centroid)


def test_closed_form_matches_full_line_near_shadow_ends():
    # The closed-form midpoints against full_line_midpoint's quadrature at
    # points from 6% to 94% of the shadow, on a 7-gon and on a half-disc
    # centred at the origin.  The reference's panel count is even at every
    # point here, and at 5 or more of them, near the shadow ends, its 8
    # nodes per oscillation need more than its 4096-node floor.
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


def test_midpoints_match_full_line(halfdisc64):
    # test_fourier's panel, the square along its edges (beta_j = 0 exactly
    # on two of them) and one random body of each `analyses` size; the
    # closed form sits within 4.2e-16 diam of a 50-digit evaluation of the
    # same sums here, so the gap is the quadrature's, at most 1.6e-13 diam
    polys = [bodies.square(), bodies.regular_ngon(7), halfdisc64, *random_bodies(seed=5, count=3)]
    polys += [bodies.random_convex_polygon(np.random.default_rng(n), n) for n in (5, 6, 8, 10, 12, 48)]
    flat = 0
    for poly in polys:
        for theta in (0.0, 1.0, 2.2, 0.5 * np.pi):
            w = unit(theta)
            flat += int(np.any(poly.edges @ perp(w) == 0.0))
            lo, hi = shadow_interval(poly, w)
            ys = lo + np.array([0.35, 0.5, 0.65]) * (hi - lo)
            got = midpoint_via_transform(poly, w, ys, 400.0)
            want = [full_line_midpoint(poly, w, y)[0] for y in ys]
            assert np.max(np.abs(got - want)) <= 1e-12 * poly.diameter
    assert flat >= 2


def test_k_directions_match_one_direction_calls(monkeypatch, halfdisc64):
    # the bodies and directions of test_midpoints_match_full_line in one
    # call per body: one _line_sums over the 4 directions x 3 points, each
    # row within 1e-15 diam of that direction's own call
    polys = [bodies.square(), bodies.regular_ngon(7), halfdisc64, *random_bodies(seed=5, count=3)]
    polys += [bodies.random_convex_polygon(np.random.default_rng(n), n) for n in (5, 6, 8, 10, 12, 48)]
    dirs = np.array([unit(theta) for theta in (0.0, 1.0, 2.2, 0.5 * np.pi)])
    calls = line_calls(monkeypatch)
    for poly in polys:
        lo, hi = shadow_interval(poly, dirs)
        ys = lo[:, None] + np.array([0.35, 0.5, 0.65]) * (hi - lo)[:, None]
        calls.clear()
        got = midpoint_via_transform(poly, dirs, ys, 400.0)
        assert [c.shape for c in calls] == [(4, 3)] and got.shape == (4, 3)
        for w, y_row, got_row in zip(dirs, ys, got):
            assert np.max(np.abs(got_row - midpoint_via_transform(poly, w, y_row, 400.0))) <= 1e-15 * poly.diameter


def test_k_direction_errors_name_the_first_bad_point(square):
    # rows in order: the margin error names row 1's point; y must be one
    # row of points per direction
    dirs = np.array([[0.0, 1.0], [1.0, 0.0]])
    lo, hi = shadow_interval(square, dirs)
    ys = lo[:, None] + np.array([[0.5, 0.5], [0.5, 0.99]]) * (hi - lo)[:, None]
    with pytest.raises(DenominatorTooSmall, match=f"shadow coordinate {ys[1, 1]} "):
        midpoint_via_transform(square, dirs, ys, 400.0)
    with pytest.raises(ValueError, match=r"shape \(2, p\)"):
        midpoint_via_transform(square, dirs, ys[0], 400.0)


@pytest.mark.parametrize("excess", [-1e-9, 1e-9, None])
def test_midpoints_at_the_short_edge_cut(excess):
    # turn omega so that |beta_0| S on edge 0 of the 7-gon sits just below
    # or just above _SHORT_EDGE, or (None) so that edge 0 is 1e-9 rad from
    # omega: the Gauss rule and the end differences both hold the midpoint
    poly = bodies.regular_ngon(7)
    s_max = 400.0 * 2.0 * np.pi / poly.diameter
    edge = poly.edges[0] / poly.edge_lengths[0]
    if excess is None:
        turn = 1e-9
    else:
        turn = math.asin(2.0 * _SHORT_EDGE * (1.0 + excess) / (s_max * poly.edge_lengths[0]))
    w = np.array([edge[0] * math.cos(turn) - edge[1] * math.sin(turn),
                  edge[0] * math.sin(turn) + edge[1] * math.cos(turn)])
    x = abs(0.5 * float(poly.edges[0] @ perp(w))) * s_max
    if excess is not None:
        assert (x <= _SHORT_EDGE) == (excess < 0.0) and abs(x / _SHORT_EDGE - 1.0) < 1e-8
    lo, hi = shadow_interval(poly, w)
    ys = lo + np.array([0.1, 0.35, 0.5, 0.65, 0.9]) * (hi - lo)
    got = midpoint_via_transform(poly, w, ys, 400.0)
    want = [full_line_midpoint(poly, w, y)[0] for y in ys]
    assert np.max(np.abs(got - want)) <= 1e-12 * poly.diameter


def test_sine_integral():
    # both sides of the series cut, 0, and |x| up to 3000, past the
    # largest S * diameter of a cutoff of 400
    cut = _SI_SERIES_CUT
    x = np.concatenate([
        np.linspace(-3000.0, 3000.0, 200001),
        np.linspace(-2.0 * cut, 2.0 * cut, 20001),
        [0.0, cut, -cut, np.nextafter(cut, 0.0), -np.nextafter(cut, 0.0), 1e-300, -1e-300],
    ])
    got = _si_tail(x, np.cos(x), np.sin(x)) + np.sign(x) * (0.5 * np.pi)
    assert np.max(np.abs(got - sici(x)[0])) <= 2e-15
    assert _si_tail(np.zeros(1), np.ones(1), np.zeros(1))[0] == 0.0


_MOVES = st.tuples(
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(-20, 20), st.floats(0.0, 2.0 * np.pi)
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 48), theta=st.floats(0.0, 2.0 * np.pi),
       fracs=st.lists(st.floats(0.3, 0.7), min_size=1, max_size=4), move=_MOVES)
def test_midpoints_equivariant(seed, n, theta, fracs, move):
    # translating the body by up to 1e3 diameters, scaling it by a power
    # of two, or turning body and omega together moves the midpoints with it
    poly = bodies.random_convex_polygon(np.random.default_rng(seed), n)
    w = unit(theta)
    lo, hi = shadow_interval(poly, w)
    ys = lo + np.array(fracs) * (hi - lo)
    base = midpoint_via_transform(poly, w, ys, 400.0)
    tx, ty, power, phi = move
    shift = np.array([tx, ty]) * poly.diameter
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    cases = [
        (ConvexPolygon(poly.vertices + shift), w, ys + shift @ perp(w), base + shift @ w),
        (ConvexPolygon(poly.vertices * 2.0**power), w, ys * 2.0**power, base * 2.0**power),
        (ConvexPolygon(poly.vertices @ rot.T), rot @ w, ys, base),
    ]
    for moved, w_moved, ys_moved, want in cases:
        got = midpoint_via_transform(moved, w_moved, ys_moved, 400.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * moved.diameter


def test_closed_form_matches_full_line_at_one_shadow_end():
    # From 80% to 94% of the 7-gon's shadow, each point's closed-form
    # midpoint on its own and in the batch of all 15 holds
    # full_line_midpoint within 1e-12 diam.  From 88% on the reference has
    # an odd panel count, so its middle panel straddles s = 0; the closed
    # form has no panels, and agrees with the reference at either parity.
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
    # every point's sums are the same closed form: batching changes only
    # the order of the sums over the edges
    calls = line_calls(monkeypatch)
    for poly in (bodies.square(), bodies.regular_ngon(7), halfdisc64, *random_bodies(seed=5, count=3)):
        for theta in (0.0, 1.0, 2.2):
            w = unit(theta)
            lo, hi = shadow_interval(poly, w)
            mid = float(poly.centroid @ perp(w))
            ys = mid + np.array([-0.1, 0.0, 0.05, 0.1]) * (hi - lo)
            calls.clear()
            got = midpoint_via_transform(poly, w, ys, 400.0)
            singles = [midpoint_via_transform(poly, w, y, 400.0) for y in ys]
            assert [c.shape for c in calls] == [(1, len(ys))] + [(1, 1)] * len(ys)
            assert isinstance(got, np.ndarray) and got.shape == ys.shape
            assert all(isinstance(v, float) for v in singles)
            assert np.max(np.abs(got - singles)) <= 1e-13 * poly.diameter


def test_node_budget_ignores_translation(square):
    # the inversion takes the same closed form in the centroid's frame
    # wherever the body lies; so do its errors
    far = ConvexPolygon(square.vertices + 1000.0)
    for theta in (0.0, 1.0, 2.2):
        w = unit(theta)
        errs = []
        for poly in (square, far):
            lo, hi = shadow_interval(poly, w)
            ys = lo + np.array([0.3, 0.5, 0.7]) * (hi - lo)
            got = midpoint_via_transform(poly, w, ys, 400.0)
            errs.append(got - np.array([chord_midpoint(poly, w, y) for y in ys]))
        assert np.max(np.abs(errs[0] - errs[1])) <= 1e-12
    at_origin = chord_via_transform(square, unit(1.0), 0.2, 400.0)
    shifted = chord_via_transform(far, unit(1.0), 0.2 + 1000.0 * float(perp(unit(1.0)).sum()), 400.0)
    assert abs(at_origin - shifted) <= 1e-12


def test_margin_error_names_first_bad_point(monkeypatch, square):
    calls = line_calls(monkeypatch)
    w = np.array([0.0, 1.0])
    lo, hi = shadow_interval(square, w)
    ys = np.array([lo + 0.5, hi - 0.01, lo + 0.02])
    with pytest.raises(DenominatorTooSmall) as info:
        midpoint_via_transform(square, w, ys, 400.0)
    msg = str(info.value)
    assert f"shadow coordinate {ys[1]} " in msg
    assert "0.01" in msg and "margin 0.05" in msg
    assert calls == []


def test_short_chord_error_states_value_and_bound():
    # a chord of 2 resolution lengths diameter / cutoff, below the 3 allowed
    thin = bodies.rectangle(10.0, 0.05)
    w = np.array([0.0, 1.0])
    lo, hi = shadow_interval(thin, w)
    ys = lo + np.array([0.5, 0.6]) * (hi - lo)
    with pytest.raises(DenominatorTooSmall) as info:
        midpoint_via_transform(thin, w, ys, 400.0)
    msg = str(info.value)
    bound = 3.0 * thin.diameter / 400.0 * 2.0 * np.pi
    assert f"shadow coordinate {ys[0]} " in msg
    assert f"= {bound}" in msg
    value = float(msg.split("2*pi*chord ")[1].split()[0])
    assert abs(value) == pytest.approx(2.0 * np.pi * 0.05, rel=0.05)
