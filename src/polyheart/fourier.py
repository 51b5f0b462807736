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
midpoint.  The inversions run in a frame centred on the body's centroid,
so their cost does not grow with the body's distance from the origin.
The indicator is real, so T(-xi) = conj T(xi) and T'(-eta) = -conj T'(eta):
the inversion integrals over [-S, S] are twice the real part of those over
[0, S], and only the half-line is evaluated.  One evaluation of T and T'
on the half-line serves every shadow point of a direction.  On that line
xi = s u every transcendental is exp(i s r) for a fixed rate r (the edge
midpoint phase, the half-edge phase whose parts are sin and cos of D_j/2,
and the swing e^{i s y}).  On uniform Gauss panels each one factors into
phases per panel and per node offset, so the line costs a few dozen
exponentials per rate and products, not one per node (_line_transform).
indicator_transform and indicator_transform_deriv evaluate arbitrary
frequencies directly.  These reconstructions are deliberately crude
(truncated oscillatory integrals, a few percent accuracy): they exist to
cross-check the geometric pipeline through an entirely different route,
not to compete with it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DenominatorTooSmall, FrequencyNotOrthogonal
from .geometry import PARALLEL_TOL, ConvexPolygon, check_direction, perp, shadow_interval

# sinc' switches to its series below this |x| (_series_filled): cos x -
# sin x / x cancels there, losing digits that the series keeps.
_SERIES_CUT = 0.1

# The inversions use at least this many Gauss nodes over [-S, S] (512
# panels of 8), enough for the few-percent accuracy these cross-checks
# aim at; the half-line rule takes the half of them over [0, S].
_INVERSION_POINTS = 4096

# The Gauss-Legendre rule on each inversion panel.
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# midpoint_via_transform rejects shadow points this close to the shadow
# ends, as a share of the shadow's width, and reconstructed chords below
# this share of the diameter.
_SHADOW_MARGIN = 0.05
_MIN_CHORD = 0.05


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x, with the value 1 at x = 0 (numpy's sinc is sin(pi x)/(pi x))."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def _sinc_prime(x: np.ndarray) -> np.ndarray:
    """Derivative of sin(x)/x, series-filled near zero."""
    x = np.asarray(x, dtype=float)
    safe = np.where(np.abs(x) < _SERIES_CUT, 1.0, x)
    return _series_filled(x, np.cos(safe) / safe - np.sin(safe) / (safe * safe))


def _series_filled(x: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """closed, the closed form of sinc' at x, with the series of sinc' in
    its place where |x| < _SERIES_CUT."""
    x2 = x * x
    series = -(x / 3.0) * (1.0 - x2 / 10.0 * (1.0 - 3.0 * x2 / 84.0))
    return np.where(np.abs(x) < _SERIES_CUT, series, closed)


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


def _inversion_nodes(poly: ConvexPolygon, u: np.ndarray, y: np.ndarray, cutoff: float):
    """Gauss panels over the frequency half-line [0, S] on omega-perp: their
    count P and common half-width h.  Panel p is centred at (2p + 1) h, so
    its nodes are (2p + 1 + x_q) h for the _PANEL_NODES x_q.

    y are the shadow coordinates along u in the frame centred on the
    centroid.  cutoff is in units of 2*pi/diameter.  The node budget over
    [-S, S] is at least _INVERSION_POINTS, grown if needed to keep at least
    8 points per oscillation of the integrand at the largest |y|.  That
    oscillation is e^{i s y} times T's phases, which run to the vertices,
    so it is sized by max |y| + max_k |(v_k - centroid) . u|.  The
    half-line gets half of the full rule's panels of 8 points, rounded up:
    for an even count this is the full rule folded in half, for an odd one
    (whose middle panel straddles 0) its panels are slightly narrower.
    """
    if not 0.0 < cutoff < np.inf:
        raise ValueError(f"fourier cutoff must be finite and positive, got {cutoff!r}")
    s_max = cutoff * 2.0 * np.pi / poly.diameter
    reach = float(np.abs((poly.vertices - poly.centroid) @ u).max())
    freq = float(np.abs(y).max()) + reach
    needed = int(np.ceil(8.0 * s_max * freq / np.pi))
    panels = max(4, int(np.ceil(max(_INVERSION_POINTS, needed) / 16.0)))
    return panels, 0.5 * s_max / panels


def _panel_exp(panels: int, half: float, rates: np.ndarray) -> np.ndarray:
    """exp(i s r) for every rate r (rows) at every node s of the panels of
    _inversion_nodes (columns, panel by panel).

    With B = ceil(sqrt(P)) and panel p = a B + b, the node (2p + 1 + x_q) h
    is 2 B h a + (2 b + 1) h + h x_q, so exp(i s r) is the product of three
    factors taken from (P / B + B + 8) x rates complex exponentials, not
    8 P x rates.  Each factor is rounded once, so the product is within a
    few ulp of the direct exponential.
    """
    block = math.isqrt(panels - 1) + 1
    far = _cis(np.multiply.outer(rates, 2.0 * block * half * np.arange((panels + block - 1) // block)))
    near = _cis(np.multiply.outer(rates, half * (2.0 * np.arange(block) + 1.0)))
    centre = (far[:, :, None] * near[:, None, :]).reshape(len(rates), -1)[:, :panels]
    inner = _cis(np.multiply.outer(rates, half * _PANEL_NODES))
    return (centre[:, :, None] * inner[:, None, :]).reshape(len(rates), -1)


def _cis(angle: np.ndarray) -> np.ndarray:
    """exp(i angle) from one cos and one sin, cheaper than a complex exp."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _weighted(terms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j terms_j over the rows of the complex (m, N) terms for
    real weights, as one real einsum over their interleaved parts."""
    return np.einsum("jn,j->n", terms.view(float), weights).view(complex)


def _line_transform(poly: ConvexPolygon, w: np.ndarray, yc: np.ndarray, cutoff: float):
    """T(s u) and T'(s u) along w, u = perp(w), in the frame centred on the
    centroid c, at the nodes s of one panel set over the half-line [0, S]
    (_inversion_nodes) fine enough for the shadow coordinates yc, given in
    that frame.  Returns the nodes, their weights (doubled for the
    half-line), T, T' and the swings e^{i s y} (one row per y of yc).

    On this line every transcendental of T and T' is exp(i s r) for a
    fixed rate r: the midpoint phases M_j (r = -(m_j - c) . u), the
    half-edge phases (r = e_j . u / 2, whose imaginary and real parts are
    sin and cos of x = D_j/2), and the swings, so one _panel_exp gives them
    all.  sinc(x) is sin/x (1 at x = 0) and sinc'(x) is (cos - sinc)/x, or
    the series of _series_filled for |x| < _SERIES_CUT.  T and T' are then
    per-edge weighted sums of sinc M and sinc' M.  The sums are einsum's,
    not BLAS calls, which would spread over threads.
    """
    u = perp(w)
    c = poly.centroid
    panels, half = _inversion_nodes(poly, u, yc, cutoff)
    s = ((2.0 * np.arange(panels) + 1.0)[:, None] + _PANEL_NODES[None, :]).ravel() * half
    wts = np.tile(2.0 * half * _PANEL_WEIGHTS, panels)
    mids = poly.vertices + 0.5 * poly.edges - c
    beta = 0.5 * (poly.edges @ u)
    m = len(beta)
    phases = _panel_exp(panels, half, np.concatenate([-(mids @ u), beta, yc]))
    mid_phase, half_phase, swing = phases[:m], phases[m : 2 * m], phases[2 * m :]
    flat = beta == 0.0
    inv_beta = np.divide(1.0, beta, out=np.zeros(m), where=~flat)[:, None]
    inv_s = 1.0 / s
    # in place where the operands allow: fresh pages cost as much as the arithmetic
    sinc_d = half_phase.imag * inv_beta
    sinc_d *= inv_s
    sinc_d[flat] = 1.0
    dsinc = half_phase.real - sinc_d
    dsinc *= inv_beta
    dsinc *= inv_s
    # |x| < _SERIES_CUT on a prefix of each edge's nodes, as s ascends
    count = np.searchsorted(s, _SERIES_CUT * np.abs(inv_beta[:, 0]))
    rows = np.repeat(np.arange(m), count)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    dsinc[rows, cols] = _series_filled(beta[rows] * s[cols], dsinc[rows, cols])
    scaled = poly.edge_normals * poly.edge_lengths[:, None]
    g = scaled @ u
    sinc_m = np.multiply(mid_phase, sinc_d, out=half_phase)
    dsinc_m = np.multiply(mid_phase, dsinc, out=mid_phase)
    t_val = _weighted(sinc_m, g)
    d_val = _weighted(sinc_m, scaled @ w) + s * (
        -1j * _weighted(sinc_m, g * (mids @ w)) + _weighted(dsinc_m, 0.5 * g * (poly.edges @ w))
    )
    return s, wts, 1j * t_val / s, 1j * d_val / (s * s), swing


def _line_sums(poly: ConvexPolygon, w: np.ndarray, ys: np.ndarray, cutoff: float):
    """The inversion integrals Re Int_{-S}^{S} T(s u) e^{i s y'} ds and
    Re Int_{-S}^{S} i T'(s u) e^{i s y'} ds for each shadow coordinate y of
    ys, with y' = y - c . u in the frame centred on the centroid c: twice
    the real parts of the half-line rule of _line_transform."""
    yc = ys - float(poly.centroid @ perp(w))
    _, wts, t, dt, swing = _line_transform(poly, w, yc, cutoff)
    denom = np.einsum("kn,n->k", swing, wts * t).real
    numer = np.einsum("kn,n->k", swing, wts * (1j * dt)).real
    return denom, numer


def chord_via_transform(poly: ConvexPolygon, omega, y: float, cutoff: float) -> float:
    """Chord length above shadow coordinate y, via the inverse transform.

    (1/(2 pi)) Int_{-S}^{S} T(s u) e^{i y s} ds equals the chord length
    inside the shadow and 0 outside, up to truncation error.  It is
    evaluated as twice the real part of the integral over [0, S], with T
    and y taken in the frame centred on the centroid.
    """
    denom, _ = _line_sums(poly, check_direction(omega), np.array([float(y)]), cutoff)
    return float(denom[0]) / (2.0 * np.pi)


def midpoint_via_transform(poly: ConvexPolygon, omega, y, cutoff: float) -> float | np.ndarray:
    """Chord midpoints above shadow coordinates y, via the transform ratio.

    y is one shadow coordinate (the result is a float) or a 1-D array of
    them (the result is an array).  Numerator inverts the derivative
    transform (giving (b^2 - a^2)/2), denominator the plain transform
    (giving b - a); their ratio is the midpoint.  Both are inverted in the
    frame centred on the centroid and over the half-line [0, S] only, from
    one _line_transform on one node set, fine enough for the largest |y|;
    only the factor exp(i y s) differs between the points.  Points within 5
    percent of the shadow ends are rejected before any transform work: the
    denominator degenerates with the chord there.
    """
    w = check_direction(omega)
    y_arr = np.asarray(y, dtype=float)
    if y_arr.ndim > 1 or y_arr.size == 0:
        raise ValueError(f"y must be a scalar or a non-empty 1-D array, got shape {y_arr.shape}")
    ys = np.atleast_1d(y_arr)
    lo, hi = shadow_interval(poly, w)
    margin = _SHADOW_MARGIN * (hi - lo)
    bad = ~((lo + margin <= ys) & (ys <= hi - margin))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DenominatorTooSmall(
            f"shadow coordinate {ys[k]} lies {min(ys[k] - lo, hi - ys[k])} from the shadow ends"
            f" [{lo}, {hi}], inside the {_SHADOW_MARGIN:.0%} margin {margin}"
        )
    denom, numer = _line_sums(poly, w, ys, cutoff)
    bound = _MIN_CHORD * poly.diameter * 2.0 * np.pi
    short = ~(np.abs(denom) >= bound)
    if np.any(short):
        k = int(np.argmax(short))
        raise DenominatorTooSmall(
            f"reconstructed 2*pi*chord {denom[k]} at shadow coordinate {ys[k]} is below"
            f" {_MIN_CHORD}*2*pi*diameter = {bound}"
        )
    mids = numer / denom + float(poly.centroid @ w)
    return float(mids[0]) if y_arr.ndim == 0 else mids
