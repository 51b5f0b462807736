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
midpoint.  These reconstructions are deliberately crude (truncated
oscillatory integrals, a few percent accuracy): they exist to cross-check
the geometric pipeline through an entirely different route, not to
compete with it.
"""

from __future__ import annotations

import numpy as np

from .errors import DenominatorTooSmall, FrequencyNotOrthogonal
from .geometry import ConvexPolygon, check_direction, perp, shadow_interval

# _sinc_prime switches to its series below this |x|: cos x - sin x / x
# cancels there, losing digits that the series keeps.
_SERIES_CUT = 0.1

# The inversions use at least this many Gauss nodes (512 panels of 8),
# enough for the few-percent accuracy these cross-checks aim at.
_INVERSION_POINTS = 4096


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


def _prelude(poly: ConvexPolygon, xi: np.ndarray):
    """Terms T and T' share at the rows of xi: |xi|^2 (1 at xi = 0), the mask
    of xi = 0, and (k, m) arrays D_j/2, sinc(D_j/2), exp(-i m_j . xi), |e_j| (nu_j . xi)."""
    norm2 = np.einsum("ij,ij->i", xi, xi)
    zero = norm2 == 0.0
    safe2 = np.where(zero, 1.0, norm2)
    half_d = 0.5 * (xi @ poly.edges.T)
    phase = np.exp(-1j * (xi @ (poly.vertices + 0.5 * poly.edges).T))
    proj = xi @ (poly.edge_normals * poly.edge_lengths[:, None]).T
    return safe2, zero, half_d, _sinc(half_d), phase, proj


def _transform(poly: ConvexPolygon, pre) -> np.ndarray:
    """T at the frequencies of a _prelude."""
    safe2, zero, _, sinc_d, phase, proj = pre
    vals = 1j / safe2 * np.sum(proj * sinc_d * phase, axis=1)
    return np.where(zero, poly.area + 0.0j, vals)


def _transform_deriv(poly: ConvexPolygon, w: np.ndarray, pre) -> np.ndarray:
    """T' along w at the frequencies of a _prelude, all orthogonal to w."""
    safe2, zero, half_d, sinc_d, phase, proj = pre
    edges = poly.edges
    mids = poly.vertices + 0.5 * edges
    bracket = (
        ((poly.edge_normals * poly.edge_lengths[:, None]) @ w)[None, :] * sinc_d
        + proj * _sinc_prime(half_d) * (0.5 * (edges @ w))[None, :]
        - 1j * proj * sinc_d * (mids @ w)[None, :]
    )
    vals = 1j / safe2 * np.sum(bracket * phase, axis=1)
    moment = -1j * poly.area * float(poly.centroid @ w)
    return np.where(zero, moment, vals)


def indicator_transform(poly: ConvexPolygon, xi) -> complex | np.ndarray:
    """Transform of the polygon indicator at one or many frequencies.

    Accepts a single (2,) frequency or an (k, 2) batch; returns complex
    scalar or (k,) array.  The zero frequency returns the area.
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
    if np.any(np.abs(dots) > 1e-12 * np.maximum(scale, 1.0)):
        raise FrequencyNotOrthogonal("eta must be orthogonal to omega")
    vals = _transform_deriv(poly, w, _prelude(poly, eta_arr))
    if np.ndim(eta) == 1:
        return complex(vals[0])
    return vals


def _inversion_nodes(poly: ConvexPolygon, omega, y: float, cutoff: float):
    """Gauss panels over the frequency segment [-S, S] on omega-perp.

    cutoff is in units of 2*pi/diameter.  Panels carry 8 points each and
    the node budget grows past _INVERSION_POINTS if needed to keep at
    least 8 points per oscillation of the integrand at this y.
    """
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    u = perp(check_direction(omega))
    s_max = cutoff * 2.0 * np.pi / poly.diameter
    mids = poly.vertices + 0.5 * poly.edges
    freq = abs(y) + float(np.abs(mids @ u).max()) + 1e-9
    needed = int(np.ceil(8.0 * s_max * freq / np.pi))
    total = max(_INVERSION_POINTS, needed)
    panels = max(8, int(np.ceil(total / 8.0)))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    bounds = np.linspace(-s_max, s_max, panels + 1)
    half = 0.5 * (bounds[1:] - bounds[:-1])
    centers = 0.5 * (bounds[1:] + bounds[:-1])
    s = (centers[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return u, s, wts


def chord_via_transform(poly: ConvexPolygon, omega, y: float, cutoff: float = 400.0) -> float:
    """Chord length above shadow coordinate y, via the inverse transform.

    (1/(2 pi)) Int_{-S}^{S} T(s u) e^{i y s} ds equals the chord length
    inside the shadow and 0 outside, up to truncation error.
    """
    u, s, wts = _inversion_nodes(poly, omega, y, cutoff)
    vals = indicator_transform(poly, s[:, None] * u[None, :])
    integrand = vals * np.exp(1j * y * s)
    return float(np.real(wts @ integrand) / (2.0 * np.pi))


def midpoint_via_transform(poly: ConvexPolygon, omega, y: float, cutoff: float = 400.0) -> float:
    """Chord midpoint above shadow coordinate y, via the transform ratio.

    Numerator inverts the derivative transform (giving (b^2 - a^2)/2),
    denominator the plain transform (giving b - a); their ratio is the
    midpoint.  Both come from one _prelude on the same nodes.  Points
    within 5 percent of the shadow ends are rejected: the denominator
    degenerates with the chord there.
    """
    w = check_direction(omega)
    lo, hi = shadow_interval(poly, w)
    margin = 0.05 * (hi - lo)
    if not (lo + margin <= y <= hi - margin):
        raise DenominatorTooSmall(
            f"shadow coordinate {y} within 5% of the shadow ends [{lo}, {hi}]"
        )
    u, s, wts = _inversion_nodes(poly, w, y, cutoff)
    pre = _prelude(poly, s[:, None] * u[None, :])
    swing = np.exp(1j * y * s)
    denom = np.real(wts @ (_transform(poly, pre) * swing))
    numer = np.real(wts @ (1j * _transform_deriv(poly, w, pre) * swing))
    if abs(denom) < 0.05 * poly.diameter * 2.0 * np.pi:
        raise DenominatorTooSmall("reconstructed chord too short to divide by")
    return float(numer / denom)
