"""Fourier transform of the polygon indicator, and chord reconstruction.

The transform of the indicator of a polygon is a finite sum over edges.
Writing D_j = e_j . xi for the edge vector e_j and m_j for the edge
midpoint, the stable form used here is

    T(xi) = (i/|xi|^2) sum_j |e_j| (nu_j . xi) sinc(D_j/2) exp(-i m_j . xi)

with sinc(x) = sin(x)/x.  The sinc form is the raw difference quotient
with its removable singularity at edge-orthogonal frequencies already
cancelled, so no per-edge threshold switching is needed; only xi = 0
remains special, where the value is the sum's limit, the area.

Restricting to the line orthogonal to a direction omega and inverting the
one-dimensional transform reconstructs the chord length above each shadow
point, and the ratio with the derivative transform reconstructs the chord
midpoint.  The inversion integrals are truncated to |s| <= S, and for a
polygon the truncated integrals are finite sums: on the line xi = s u
each edge contributes sinc(beta_j s) e^{i d_j s} over a power of s, whose
integral over [-S, S] is a combination of the sine integral Si, cos and
sin at the two end projections d_j +- beta_j of the edge (_line_sums).
They are taken in a frame centred on the body's centroid, and each edge's
part is split into its S -> infinity limit, exact arithmetic on d_j and
beta_j, and a remainder of order 1/S, so no two parts of the size of the
diameter cancel.  Si is computed here, by its power series near 0 and by
a continued fraction of E1(ix) beyond (_si_tail), within 1.4e-15 of a
reference.  The midpoints so obtained agree with a 50-digit evaluation of
the same sums to 4.2e-16 diameters, and with a fine Gauss quadrature of
the truncated integrals to 1.6e-13 diameters, the quadrature's own error.
indicator_transform evaluates T at arbitrary frequencies directly.
These reconstructions are truncated oscillatory integrals: at the CLI's
cutoff of 400 (units of 2 pi / diameter) the midpoints on perfbench's
analyses bodies hold the direct ones to 1e-4 of the diameter, the worst
at 5.2e-5 (test_fourier_check_midpoints_on_analyses_bodies).  They exist
to cross-check the geometric pipeline through an entirely different
route, not to compete with it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DenominatorTooSmall
from .geometry import ConvexPolygon, check_direction, check_directions, dots, perp

# Si's power series serves below this |x| (_si_tail), the continued
# fraction of E1(ix) at and beyond it: at 4 the series' largest term is
# 3.6, so it keeps Si within 1.1e-15.
_SI_SERIES_CUT = 4.0

# The Taylor coefficients of Si(x)/x in x^2 that |x| < 4 needs: the next
# term is below 1e-19.
_SI_SERIES = np.array([(-1.0) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(17)])

# The continued fraction runs 2 + ceil(_FRACTION_REACH / min |x|) steps
# backward: measured against a 400-step fraction, that keeps the tail of
# Si within 1e-15 / |x| on 4 <= |x| <= 3000.
_FRACTION_REACH = 170.0

# Edges with |beta| S at most this take the Gauss rule over the edge's
# projection (_gauss_terms): their end differences would cancel.
_SHORT_EDGE = 1.0
_EDGE_NODES, _EDGE_WEIGHTS = np.polynomial.legendre.leggauss(10)

# midpoint_via_transform rejects shadow points this close to the shadow
# ends, as a share of the shadow's width, and reconstructed chords shorter
# than this many resolution lengths diameter / cutoff.
_SHADOW_MARGIN = 0.05
_MIN_CHORD = 3.0


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x, with the value 1 at x = 0 (numpy's sinc is sin(pi x)/(pi x))."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def _prelude(poly: ConvexPolygon, xi: np.ndarray):
    """Terms T and T' share at the rows of xi:
    |xi|^2 (1 at xi = 0), the mask of xi = 0, the edge midpoints m_j,
    and (k, m) arrays D_j/2, sinc(D_j/2), exp(-i m_j . xi), |e_j| (nu_j . xi)."""
    norm2 = np.einsum("ij,ij->i", xi, xi)
    zero = norm2 == 0.0
    safe2 = np.where(zero, 1.0, norm2)
    mids = poly.vertices + 0.5 * poly.edges
    half_d = 0.5 * (xi @ poly.edges.T)
    phase = np.exp(-1j * (xi @ mids.T))
    proj = xi @ (poly.edge_normals * poly.edge_lengths[:, None]).T
    return safe2, zero, mids, half_d, _sinc(half_d), phase, proj


def _transform(poly: ConvexPolygon, pre) -> np.ndarray:
    """T at the frequencies of a _prelude.  At xi = 0 it is the sum's own
    limit, (1/2) sum_j |e_j| nu_j . (m_j - v_0) by the divergence theorem,
    which is the area when the edge data describe the polygon."""
    safe2, zero, _, _, sinc_d, phase, proj = pre
    vals = 1j / safe2 * np.sum(proj * sinc_d * phase, axis=1)
    mids_v0 = poly.vertices - poly.vertices[0] + 0.5 * poly.edges  # m_j - v_0
    limit = 0.5 * np.sum(poly.edge_normals * poly.edge_lengths[:, None] * mids_v0)
    return np.where(zero, limit + 0.0j, vals)


def indicator_transform(poly: ConvexPolygon, xi) -> complex | np.ndarray:
    """Transform of the polygon indicator at one or many frequencies.

    Accepts a single (2,) frequency or an (k, 2) batch; returns complex
    scalar or (k,) array.  The zero frequency returns the edge sum's limit, the area.
    """
    xi_arr = np.atleast_2d(np.asarray(xi, dtype=float))
    vals = _transform(poly, _prelude(poly, xi_arr))
    if np.ndim(xi) == 1:
        return complex(vals[0])
    return vals


def _si_tail(x: np.ndarray, cos_x: np.ndarray, sin_x: np.ndarray) -> np.ndarray:
    """Si(x) - sign(x) pi/2, the sine integral less its limit, at x, given
    cos x and sin x.

    Below |x| = _SI_SERIES_CUT it is Si's power series less the limit,
    beyond it the continued fraction of _fraction_tail, which computes the
    tail itself rather than Si minus pi/2, so the tail keeps its relative
    accuracy as it decays like cos(x)/x.
    """
    near = np.abs(x) < _SI_SERIES_CUT
    if not near.any():
        return _fraction_tail(x, cos_x, sin_x)
    out = np.empty_like(x)
    xn = x[near]
    x2 = xn * xn
    acc = np.full_like(xn, _SI_SERIES[-1])
    for coef in _SI_SERIES[-2::-1]:
        acc *= x2
        acc += coef
    out[near] = acc * xn - np.sign(xn) * (0.5 * np.pi)
    far = ~near
    if far.any():
        out[far] = _fraction_tail(x[far], cos_x[far], sin_x[far])
    return out


def _fraction_tail(x: np.ndarray, cos_x: np.ndarray, sin_x: np.ndarray) -> np.ndarray:
    """Si(x) - sign(x) pi/2 for |x| >= _SI_SERIES_CUT: the imaginary part of
    E1(ix) = e^{-ix} h, with h = 1/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) at
    z = ix, evaluated backward from a depth that the smallest |x| sets
    (the fraction converges faster for larger |x|)."""
    depth = 2 + math.ceil(_FRACTION_REACH / float(np.abs(x).min()))
    steps = np.add.outer(2.0 * np.arange(depth + 1) + 1.0, 1j * x)  # z + 2k + 1
    h = np.zeros_like(steps[0])
    for k in range(depth, 0, -1):
        h += steps[k]
        np.divide(-(k * k), h, out=h)
    h += steps[0]
    np.divide(1.0, h, out=h)
    return h.imag * cos_x - h.real * sin_x


def _vertex_terms(a: np.ndarray, s_max: float) -> np.ndarray:
    """cos(a S), sin(a S), a tail(a S), F(a) - pi |a|/2 and a (F(a) - pi |a|/2)
    at the end projections a, stacked on a new first axis: tail is
    _si_tail, and F(a) = a Si(a S) - (1 - cos a S)/S as in _line_sums."""
    x = a * s_max
    out = np.empty((5, *a.shape))
    cos_x, sin_x, a_tail, rest, a_rest = out
    np.cos(x, out=cos_x)
    np.sin(x, out=sin_x)
    np.multiply(a, _si_tail(x, cos_x, sin_x), out=a_tail)
    np.subtract(cos_x, 1.0, out=rest)
    rest /= s_max
    rest += a_tail
    np.multiply(a, rest, out=a_rest)
    return out


def _end_terms(d: np.ndarray, beta: np.ndarray, plus: np.ndarray, minus: np.ndarray, s_max: float):
    """P, Q and dQ of _line_sums at the offsets d of edges with
    half-projections beta (broadcast against d), from the _vertex_terms at
    their end projections d + beta (plus) and d - beta (minus).

    Each is its S -> infinity limit, exact arithmetic on d and beta, plus
    a remainder of order 1/S that the tails of Si carry, so the parts of
    order diameter never cancel in floating point."""
    cos_sum, _, a_tail_sum, _, _ = plus + minus
    _, sin_diff, _, rest_diff, a_rest_diff = plus - minus
    inv = 1.0 / beta
    r = np.maximum(np.abs(d), np.abs(beta))
    t = d / r  # clip(d / |beta|, -1, 1)
    dt = d * t
    p = np.pi * t + rest_diff * inv
    q_rest = (sin_diff / (s_max * s_max) + a_rest_diff) * (-0.5 * inv) - 1.0 / s_max
    q = q_rest - 0.5 * np.pi * (dt + r)
    dq = (0.5 * np.pi * (dt - r) - a_tail_sum - cos_sum / s_max - q_rest) * inv
    return p, q, dq


def _gauss_terms(d: np.ndarray, beta: np.ndarray, s_max: float):
    """P, Q and dQ of _line_sums at the offsets d of edges with
    |beta| S <= _SHORT_EDGE (beta broadcast against d), as integrals over
    t = d + beta x, x in [-1, 1], on the Gauss rule _EDGE_NODES: no
    division by beta."""
    t = d[..., None] + beta[..., None] * _EDGE_NODES
    x = t * s_max
    cos_x, sin_x = np.cos(x), np.sin(x)
    si = _si_tail(x, cos_x, sin_x) + np.sign(x) * (0.5 * np.pi)
    p = si @ _EDGE_WEIGHTS
    q = -((t * si + cos_x / s_max) @ _EDGE_WEIGHTS)
    dq = 0.5 * s_max * beta * ((_sinc(x) * (_EDGE_NODES * _EDGE_NODES - 1.0)) @ _EDGE_WEIGHTS)
    return p, q, dq


def _line_sums(poly: ConvexPolygon, w: np.ndarray, ys: np.ndarray, cutoff: float):
    """The inversion integrals Re Int_{-S}^{S} T(s u) e^{i s y'} ds and
    Re Int_{-S}^{S} i T'(s u) e^{i s y'} ds for each shadow coordinate y of
    row i of ys (k, p) along direction w[i] of w (k, 2), u = perp(w[i]),
    S = cutoff 2 pi / diameter, y' = y - c . u in the frame centred on the
    centroid c, in closed form; both are (k, p) arrays.  Every
    (direction, edge) pair's terms are taken in one pass.

    On xi = s u in that frame T(s u) = (i/s) sum_j g_j sinc(beta_j s)
    e^{-i mu_j s}, with g_j = |e_j| nu_j . u, beta_j = e_j . u / 2 and
    mu_j = (m_j - c) . u; T' brings g'_j = |e_j| nu_j . w,
    beta'_j = e_j . w / 2 and mu'_j = (m_j - c) . w.  With d_j = y' - mu_j
    the integrals are denom = -sum_j g_j P_j and
    numer = -sum_j (g'_j Q_j + g_j beta'_j dQ_j + g_j mu'_j P_j), where
    P = Int sinc(beta s) sin(d s)/s ds, Q is the finite part of
    Int sinc(beta s) cos(d s)/s^2 ds (its pole cancels in the sum, since
    sum_j g'_j = 0) and dQ = dQ/dbeta.  With F(a) = a Si(a S) - (1 - cos a S)/S,
    H(a) = -sin(a S)/S^2 - a/S - a F(a) and H'(a) = -2 (a Si(a S) + cos(a S)/S),
    P = (F(d + beta) - F(d - beta))/beta, Q = (H(d + beta) - H(d - beta))/(2 beta)
    and dQ = (H'(d + beta) + H'(d - beta))/(2 beta) - Q/beta (_end_terms).
    The end projections d + beta and d - beta of edge j are y' less the
    projections of vertices j and j + 1, so Si, cos and sin are evaluated
    once per vertex (_vertex_terms).  Where |beta| S <= _SHORT_EDGE the
    differences cancel, and the same integrals are taken as
    P = Int Si(t S) dx, Q = (1/2) Int H'(t) dx and
    dQ = (beta S/2) Int (x^2 - 1) sinc(t S) dx over t = d + beta x,
    x in [-1, 1] (_gauss_terms).
    """
    if not 0.0 < cutoff < np.inf:
        raise ValueError(f"fourier cutoff must be finite and positive, got {cutoff!r}")
    s_max = cutoff * 2.0 * np.pi / poly.diameter
    c = poly.centroid
    u = perp(w)
    ring = np.concatenate((poly.vertices, poly.vertices[:1])) - c
    # (k, n + 1) projections of the closed ring on u and on w
    ring_u, ring_w = u @ ring.T, w @ ring.T
    beta, beta_w = 0.5 * (ring_u[:, 1:] - ring_u[:, :-1]), 0.5 * (ring_w[:, 1:] - ring_w[:, :-1])
    mu, mu_w = 0.5 * (ring_u[:, 1:] + ring_u[:, :-1]), 0.5 * (ring_w[:, 1:] + ring_w[:, :-1])
    normals = poly.edge_normals * poly.edge_lengths[:, None]
    g, g_w = u @ normals.T, w @ normals.T
    # (k, n, p) layout: a (k, n) edge mask picks (direction, edge) pairs
    y = (ys - (u @ c)[:, None])[:, None, :]
    d = y - mu[..., None]
    vals = _vertex_terms(y - ring_u[..., None], s_max)
    plus, minus = vals[:, :, :-1], vals[:, :, 1:]
    long = np.abs(beta) * s_max > _SHORT_EDGE
    if long.all():
        p, q, dq = _end_terms(d, beta[..., None], plus, minus, s_max)
    else:
        p, q, dq = np.empty((3, *d.shape))
        p[long], q[long], dq[long] = _end_terms(d[long], beta[long][:, None], plus[:, long], minus[:, long], s_max)
        short = ~long
        p[short], q[short], dq[short] = _gauss_terms(d[short], beta[short][:, None], s_max)
    denom = -(g[:, None, :] @ p)
    numer = -(g_w[:, None, :] @ q + (g * beta_w)[:, None, :] @ dq + (g * mu_w)[:, None, :] @ p)
    return denom[:, 0], numer[:, 0]


def chord_via_transform(poly: ConvexPolygon, omega, y: float, cutoff: float) -> float:
    """Chord length above shadow coordinate y, via the inverse transform.

    (1/(2 pi)) Int_{-S}^{S} T(s u) e^{i y s} ds equals the chord length
    inside the shadow and 0 outside, up to truncation error.  It is
    evaluated in closed form (_line_sums, one direction and one point),
    with T and y taken in the frame centred on the centroid.
    """
    denom, _ = _line_sums(poly, check_direction(omega)[None], np.array([[float(y)]]), cutoff)
    return float(denom[0, 0]) / (2.0 * np.pi)


def midpoint_via_transform(poly: ConvexPolygon, omega, y, cutoff: float) -> float | np.ndarray:
    """Chord midpoints above shadow coordinates y, via the transform ratio.

    omega is one direction (2,) with y one shadow coordinate (the result
    is a float) or a 1-D array of them (the result is an array), or omega
    is (k, 2) directions with y of shape (k, p), p coordinates per
    direction (the result is (k, p)).  Numerator inverts the derivative
    transform (giving (b^2 - a^2)/2), denominator the plain transform
    (giving b - a); their ratio is the midpoint.  Both are inverted in
    closed form, in the frame centred on the centroid, by one _line_sums
    for all the directions and points.  Points within 5 percent of the
    shadow ends are rejected before any transform work: the denominator
    degenerates with the chord there.  Either rejection names the first
    bad point in row order.
    """
    one = np.ndim(omega) == 1
    w = check_direction(omega)[None] if one else check_directions(omega)
    y_arr = np.asarray(y, dtype=float)
    if one and (y_arr.ndim > 1 or y_arr.size == 0):
        raise ValueError(f"y must be a scalar or a non-empty 1-D array, got shape {y_arr.shape}")
    if not one and (y_arr.ndim != 2 or len(y_arr) != len(w) or y_arr.size == 0):
        raise ValueError(f"y must have shape ({len(w)}, p), p > 0, for {len(w)} directions, got shape {y_arr.shape}")
    ys = y_arr.reshape(len(w), -1)
    shadow = dots(poly.vertices, perp(w))  # shadow_interval, with omega checked once
    lo, hi = shadow.min(axis=1, keepdims=True), shadow.max(axis=1, keepdims=True)
    margin = _SHADOW_MARGIN * (hi - lo)
    bad = ~((lo + margin <= ys) & (ys <= hi - margin))
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        yb, lob, hib = float(ys[i, j]), float(lo[i, 0]), float(hi[i, 0])
        raise DenominatorTooSmall(
            f"shadow coordinate {yb} lies {min(yb - lob, hib - yb)} from the shadow ends"
            f" [{lob}, {hib}], inside the {_SHADOW_MARGIN:.0%} margin {float(margin[i, 0])}"
        )
    denom, numer = _line_sums(poly, w, ys, cutoff)
    bound = _MIN_CHORD * poly.diameter / cutoff * 2.0 * np.pi
    short = ~(np.abs(denom) >= bound)
    if short.any():
        i, j = np.unravel_index(np.argmax(short), short.shape)
        raise DenominatorTooSmall(
            f"reconstructed 2*pi*chord {denom[i, j]} at shadow coordinate {ys[i, j]} is below"
            f" {_MIN_CHORD}*2*pi*diameter/cutoff = {bound}"
        )
    mids = numer / denom + (w @ poly.centroid)[:, None]
    if not one:
        return mids
    return float(mids[0, 0]) if y_arr.ndim == 0 else mids[0]
