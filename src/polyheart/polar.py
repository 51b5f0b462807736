"""Polar bodies about an interior center, and the Santalo point.

The polar of a polygon about an interior point p collects every y with
(x - p) . (y - p) <= 1 over x in the body.  With the edge gaps
d_i = c_i - n_i . p of the body {n_i . x <= c_i}, the polar is
conv{p + n_i / d_i}: edges and vertices swap roles, so the polar of an
n-gon is again an n-gon, explicit and already in counterclockwise order.
Its area is the closed form 1/2 sum (n_i x n_{i+1}) / (d_i d_{i+1})
(polar_area), the one way the package computes it: the polar polygon
itself is built only where its vertices are wanted (polar_polygon).
The area blows up like 1/dist(p, boundary) as p approaches the boundary,
which is what makes the area inequalities here informative: a small
polar area certifies that the center sits well inside the body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CenterTooCloseToBoundary
from .geometry import EPS_REL, ConvexPolygon, _dedupe_ring, _next_rows, edge_gaps, newton_minimize

# the polar rejects a center within this many eps of an edge line: the
# polar vertex n_i / d_i grows like 1/d_i, so there the polar is unbounded
# to within rounding.
_POLAR_GAP_TOL = 10.0

# polar_area_eigen_check's relative slack: the hot-spot limit and lam1
# both come from a first-order grid, not from closed forms.
_EIGEN_AREA_SLACK = 0.02


def _polar_gaps(poly: ConvexPolygon, center) -> np.ndarray:
    return edge_gaps(poly, center, _POLAR_GAP_TOL * poly.eps, CenterTooCloseToBoundary)


def _area_terms(normals: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """q_i = 1/2 (n_i x n_{i+1}) / (d_i d_{i+1}), whose sum is the polar area.

    Edges that share a normal (a straight-angle vertex) give q_i = 0.
    """
    n_next = _next_rows(normals)
    cross = normals[:, 0] * n_next[:, 1] - normals[:, 1] * n_next[:, 0]
    return 0.5 * cross / (gaps * _next_rows(gaps))


def polar_area(poly: ConvexPolygon, center) -> float:
    """Area of the polar body about an interior center, in closed form."""
    return float(_area_terms(poly.edge_normals, _polar_gaps(poly, center)).sum())


def polar_polygon(poly: ConvexPolygon, center) -> ConvexPolygon:
    """Polar body about an interior center, positioned around that center.

    Edge i of the base gives the polar vertex center + n_i / d_i.  Edges
    that share a normal (a straight-angle vertex of the base) give the
    same polar vertex, and the repeats are merged.
    """
    p = np.asarray(center, dtype=float)
    gaps = _polar_gaps(poly, p)
    # the polar's diameter is at most 2 / min(gaps): merge what ConvexPolygon
    # would reject as duplicate vertices
    ring = _dedupe_ring(poly.edge_normals / gaps[:, None], 2.0 * EPS_REL / gaps.min())
    return ConvexPolygon(ring + p)


def santalo_point(poly: ConvexPolygon) -> np.ndarray:
    """Interior point minimizing the polar area, by damped Newton.

    With u_i = n_i / d_i, the area terms q_i (_area_terms) and
    a_i = u_i + u_{i+1}, the area has gradient sum q_i a_i and Hessian
    sum q_i (a_i a_i^T + u_i u_i^T + u_{i+1} u_{i+1}^T); it is strictly
    convex with an interior minimum.  At the minimizer the polar body's
    centroid is the center itself (Santalo 1949).
    """
    n = poly.edge_normals

    def area_with_derivatives(gaps):
        u = n / gaps[:, None]
        u_next = _next_rows(u)
        q = _area_terms(n, gaps)
        a = u + u_next
        hess = (a.T * q) @ a + (u.T * q) @ u + (u_next.T * q) @ u_next
        return float(q.sum()), q @ a, hess

    return newton_minimize(poly, area_with_derivatives)[1]


@dataclass(frozen=True)
class AreaCheck:
    lhs: float
    rhs: float
    ok: bool


def polar_area_lower_check(poly: ConvexPolygon, center) -> AreaCheck:
    """Polar area about an interior center against its reciprocal-distance
    lower envelope.

    In the plane the polar area is at least 1/(R * d) with R the farthest
    boundary distance from the center and d the nearest; the bound blows
    up as the center drifts toward the boundary, exactly like the area.
    """
    p = np.asarray(center, dtype=float)
    lhs = polar_area(poly, p)
    far = float(np.linalg.norm(poly.vertices - p, axis=1).max())
    # from an interior center the nearest boundary point lies on the
    # nearest edge line
    near = float(_polar_gaps(poly, p).min())
    rhs = 1.0 / (far * near)
    # the bound holds exactly: the slack only absorbs the rounding of the
    # closed-form polar area and of R and d
    return AreaCheck(lhs, rhs, lhs >= rhs * (1.0 - EPS_REL))


def polar_area_eigen_check(poly: ConvexPolygon, hot_spot_limit, lam1: float) -> AreaCheck:
    """Polar area at the hot-spot limit against (lam1/2)^2 * area.

    Both inputs normally come from discretized computations, hence the
    _EIGEN_AREA_SLACK (2 percent) on the comparison.
    """
    lhs = polar_area(poly, hot_spot_limit)
    rhs = (lam1 / 2.0) ** 2 * poly.area
    return AreaCheck(lhs, rhs, lhs <= rhs * (1.0 + _EIGEN_AREA_SLACK))
