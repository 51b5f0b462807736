"""Fourier transform of the polygon indicator, and chord reconstruction.

The transform of the indicator of a polygon is a finite sum over edges.
Writing D_j = e_j . xi for the edge vector e_j and m_j for the edge
midpoint, the stable form used here is

    T(xi) = (i/|xi|^2) sum_j |e_j| (nu_j . xi) sinc(D_j/2) exp(-i m_j . xi)

with sinc(x) = sin(x)/x.  The sinc form is the raw difference quotient
with its removable singularity at edge-orthogonal frequencies already
cancelled, so no per-edge threshold switching is needed; only xi = 0
remains special, where the value is the area.

Restricting to the line orthogonal to a direction omega and inverting the
one-dimensional transform reconstructs the chord length above each shadow
point, and the ratio with the derivative transform reconstructs the chord
midpoint.  The inversions run in a frame centred on the body's centroid,
so their cost does not grow with the body's distance from the origin.
The indicator is real, so T(-xi) = conj T(xi) and T'(-eta) = -conj T'(eta):
the inversion integrals over [-S, S] are twice the real part of those over
[0, S], and only the half-line is evaluated.  One evaluation of T and T'
on the half-line serves every shadow point of a direction.  These
reconstructions are deliberately crude (truncated oscillatory integrals,
a few percent accuracy): they exist to cross-check the geometric pipeline
through an entirely different route, not to compete with it.
"""

from __future__ import annotations

import numpy as np

from .errors import DenominatorTooSmall, FrequencyNotOrthogonal
from .geometry import ConvexPolygon, check_direction, perp, shadow_interval

# _sinc_prime switches to its series below this |x|: cos x - sin x / x
# cancels there, losing digits that the series keeps.
_SERIES_CUT = 0.1

# The inversions use at least this many Gauss nodes over [-S, S] (512
# panels of 8), enough for the few-percent accuracy these cross-checks
# aim at; the half-line rule takes the half of them over [0, S].
_INVERSION_POINTS = 4096

# The Gauss-Legendre rule on each inversion panel.
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# indicator_transform_deriv rejects eta with |eta . omega| above this
# times max(|eta|, 1).
_ORTHOGONAL_TOL = 1e-12

# midpoint_via_transform rejects shadow points this close to the shadow
# ends, as a share of the shadow's width, and reconstructed chords below
# this share of the diameter.
_SHADOW_MARGIN = 0.05
_MIN_CHORD = 0.05

_ORIGIN = np.zeros(2)
_ORIGIN.setflags(write=False)


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x, with the value 1 at x = 0 (numpy's sinc is sin(pi x)/(pi x))."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def _sinc_prime(x: np.ndarray) -> np.ndarray:
    """Derivative of sin(x)/x, series-filled near zero."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    safe = np.where(small, 1.0, x)
    out = np.cos(safe) / safe - np.sin(safe) / (safe * safe)
    x2 = x * x
    series = -(x / 3.0) * (1.0 - x2 / 10.0 * (1.0 - 3.0 * x2 / 84.0))
    return np.where(small, series, out)


def _prelude(poly: ConvexPolygon, xi: np.ndarray, origin: np.ndarray):
    """Terms T and T' of the body seen from origin share at the rows of xi:
    |xi|^2 (1 at xi = 0), the mask of xi = 0, the edge midpoints m_j - origin,
    and (k, m) arrays D_j/2, sinc(D_j/2), exp(-i (m_j - origin) . xi), |e_j| (nu_j . xi)."""
    norm2 = np.einsum("ij,ij->i", xi, xi)
    zero = norm2 == 0.0
    safe2 = np.where(zero, 1.0, norm2)
    mids = poly.vertices + 0.5 * poly.edges - origin
    half_d = 0.5 * (xi @ poly.edges.T)
    phase = np.exp(-1j * (xi @ mids.T))
    proj = xi @ (poly.edge_normals * poly.edge_lengths[:, None]).T
    return safe2, zero, mids, half_d, _sinc(half_d), phase, proj


def _transform(poly: ConvexPolygon, pre) -> np.ndarray:
    """T at the frequencies of a _prelude."""
    safe2, zero, _, _, sinc_d, phase, proj = pre
    vals = 1j / safe2 * np.sum(proj * sinc_d * phase, axis=1)
    return np.where(zero, poly.area + 0.0j, vals)


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
    scalar or (k,) array.  The zero frequency returns the area.
    """
    xi_arr = np.atleast_2d(np.asarray(xi, dtype=float))
    vals = _transform(poly, _prelude(poly, xi_arr, _ORIGIN))
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
    if np.any(np.abs(dots) > _ORTHOGONAL_TOL * np.maximum(scale, 1.0)):
        raise FrequencyNotOrthogonal("eta must be orthogonal to omega")
    pre = _prelude(poly, eta_arr, _ORIGIN)
    moment = -1j * poly.area * float(poly.centroid @ w)
    vals = np.where(pre[1], moment, _transform_deriv(poly, w, pre))
    if np.ndim(eta) == 1:
        return complex(vals[0])
    return vals


def _inversion_nodes(poly: ConvexPolygon, u: np.ndarray, y: np.ndarray, cutoff: float):
    """Gauss panels over the frequency half-line [0, S] on omega-perp, weights doubled.

    y are the shadow coordinates along u in the frame centred on the
    centroid.  cutoff is in units of 2*pi/diameter.  The node budget over
    [-S, S] is at least _INVERSION_POINTS, grown if needed to keep at least
    8 points per oscillation of the integrand at the largest |y|.  The
    half-line gets half of the full rule's panels of 8 points, rounded up:
    for an even count this is the full rule folded in half, for an odd one
    (whose middle panel straddles 0) its panels are slightly narrower.
    """
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    s_max = cutoff * 2.0 * np.pi / poly.diameter
    mids = poly.vertices + 0.5 * poly.edges - poly.centroid
    freq = float(np.abs(y).max()) + float(np.abs(mids @ u).max()) + 1e-9
    needed = int(np.ceil(8.0 * s_max * freq / np.pi))
    total = max(_INVERSION_POINTS, needed)
    panels = max(4, int(np.ceil(total / 16.0)))
    bounds = np.linspace(0.0, s_max, panels + 1)
    half = 0.5 * (bounds[1:] - bounds[:-1])
    centers = 0.5 * (bounds[1:] + bounds[:-1])
    s = (centers[:, None] + half[:, None] * _PANEL_NODES[None, :]).ravel()
    wts = (2.0 * half[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    return s, wts


def chord_via_transform(poly: ConvexPolygon, omega, y: float, cutoff: float = 400.0) -> float:
    """Chord length above shadow coordinate y, via the inverse transform.

    (1/(2 pi)) Int_{-S}^{S} T(s u) e^{i y s} ds equals the chord length
    inside the shadow and 0 outside, up to truncation error.  It is
    evaluated as twice the real part of the integral over [0, S], with T
    and y taken in the frame centred on the centroid.
    """
    u = perp(check_direction(omega))
    c = poly.centroid
    yc = float(y) - float(c @ u)
    s, wts = _inversion_nodes(poly, u, np.array([yc]), cutoff)
    vals = _transform(poly, _prelude(poly, s[:, None] * u[None, :], c))
    return float(np.real(wts @ (vals * np.exp(1j * yc * s))) / (2.0 * np.pi))


def midpoint_via_transform(
    poly: ConvexPolygon, omega, y, cutoff: float = 400.0
) -> float | np.ndarray:
    """Chord midpoints above shadow coordinates y, via the transform ratio.

    y is one shadow coordinate (the result is a float) or a 1-D array of
    them (the result is an array).  Numerator inverts the derivative
    transform (giving (b^2 - a^2)/2), denominator the plain transform
    (giving b - a); their ratio is the midpoint.  Both are inverted in the
    frame centred on the centroid and over the half-line [0, S] only, from
    one _prelude on one node set, fine enough for the largest |y|; only
    the factor exp(i y s) differs between the points.  Points within 5
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
    u = perp(w)
    c = poly.centroid
    yc = ys - float(c @ u)
    s, wts = _inversion_nodes(poly, u, yc, cutoff)
    pre = _prelude(poly, s[:, None] * u[None, :], c)
    swing = np.exp(1j * np.outer(s, yc)) * wts[:, None]
    denom = np.real(_transform(poly, pre) @ swing)
    numer = np.real((1j * _transform_deriv(poly, w, pre)) @ swing)
    bound = _MIN_CHORD * poly.diameter * 2.0 * np.pi
    short = ~(np.abs(denom) >= bound)
    if np.any(short):
        k = int(np.argmax(short))
        raise DenominatorTooSmall(
            f"reconstructed 2*pi*chord {denom[k]} at shadow coordinate {ys[k]} is below"
            f" {_MIN_CHORD}*2*pi*diameter = {bound}"
        )
    mids = numer / denom + float(c @ w)
    return float(mids[0]) if y_arr.ndim == 0 else mids
