"""Polar bodies about an interior center, and the Santalo point.

The polar of a polygon about an interior point p collects every y with
(x - p) . (y - p) <= 1 over x in the body.  With the edge gaps
d_i = c_i - n_i . p of the body {n_i . x <= c_i}, the polar is
conv{p + n_i / d_i}: edges and vertices swap roles, so the polar of an
n-gon is again an n-gon, explicit and already in counterclockwise order.
Its area, 1/2 sum (n_i x n_{i+1}) / (d_i d_{i+1}), blows up like
1/dist(p, boundary) as p approaches the boundary, which is what makes the
area inequalities here informative: a small polar area certifies that the
center sits well inside the body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CenterTooCloseToBoundary
from .geometry import EPS_REL, ConvexPolygon, _dedupe_ring, boundary_distance, edge_gaps, newton_minimize

# polar_polygon rejects a center within this many eps of an edge line:
# the polar vertex n_i / d_i grows like 1/d_i, so there the polar is
# unbounded to within rounding.
_POLAR_GAP_TOL = 10.0

# polar_area_eigen_check's relative slack: the hot-spot limit and lam1
# both come from a first-order grid, not from closed forms.
_EIGEN_AREA_SLACK = 0.02


@dataclass(frozen=True)
class PolarBody:
    base: ConvexPolygon
    center: np.ndarray
    body: ConvexPolygon

    @property
    def area(self) -> float:
        return self.body.area


def gauge(poly: ConvexPolygon, center, x) -> float:
    """Minkowski gauge of the body about an interior center.

    0 at the center, 1 on the boundary, linear along rays.
    """
    p = np.asarray(center, dtype=float)
    z = np.asarray(x, dtype=float) - p
    gaps = edge_gaps(poly, p, poly.eps, CenterTooCloseToBoundary)
    return float(max(0.0, (poly.edge_normals @ z / gaps).max()))


def polar_polygon(poly: ConvexPolygon, center) -> PolarBody:
    """Polar body about an interior center, positioned around that center.

    Edge i of the base gives the polar vertex center + n_i / d_i.  Edges
    that share a normal (a straight-angle vertex of the base) give the
    same polar vertex, and the repeats are merged.
    """
    p = np.asarray(center, dtype=float)
    gaps = edge_gaps(poly, p, _POLAR_GAP_TOL * poly.eps, CenterTooCloseToBoundary)
    # the polar's diameter is at most 2 / min(gaps): merge what ConvexPolygon
    # would reject as duplicate vertices
    ring = _dedupe_ring(poly.edge_normals / gaps[:, None], 2.0 * EPS_REL / gaps.min())
    return PolarBody(poly, p, ConvexPolygon(ring + p))


def santalo_point(poly: ConvexPolygon) -> np.ndarray:
    """Interior point minimizing the polar area, by damped Newton.

    With u_i = n_i / d_i, the area terms q_i = 1/2 (n_i x n_{i+1}) / (d_i d_{i+1})
    and a_i = u_i + u_{i+1}, the area has gradient sum q_i a_i and Hessian
    sum q_i (a_i a_i^T + u_i u_i^T + u_{i+1} u_{i+1}^T); it is strictly
    convex with an interior minimum.  At the minimizer the polar body's
    centroid is the center itself (Santalo 1949).
    """
    n = poly.edge_normals
    n_next = np.roll(n, -1, axis=0)
    cross = n[:, 0] * n_next[:, 1] - n[:, 1] * n_next[:, 0]

    def polar_area(gaps):
        u = n / gaps[:, None]
        u_next = np.roll(u, -1, axis=0)
        q = 0.5 * cross / (gaps * np.roll(gaps, -1))
        a = u + u_next
        hess = (a.T * q) @ a + (u.T * q) @ u + (u_next.T * q) @ u_next
        return float(q.sum()), q @ a, hess

    return newton_minimize(poly, polar_area)[1]


@dataclass(frozen=True)
class AreaCheck:
    lhs: float
    rhs: float
    ok: bool


def polar_area_lower_check(polar: PolarBody) -> AreaCheck:
    """Polar area against its reciprocal-distance lower envelope.

    In the plane the polar area is at least 1/(R * d) with R the farthest
    boundary distance from the center and d the nearest; the bound blows
    up as the center drifts toward the boundary, exactly like the area.
    """
    poly, p = polar.base, polar.center
    lhs = polar.area
    far = float(np.linalg.norm(poly.vertices - p, axis=1).max())
    near = boundary_distance(poly, p)
    rhs = 1.0 / (far * near)
    # the bound holds exactly: the slack only absorbs the rounding of the
    # closed-form polar area and of R and d
    return AreaCheck(lhs, rhs, lhs >= rhs * (1.0 - EPS_REL))


def polar_area_eigen_check(poly: ConvexPolygon, hot_spot_limit, lam1: float) -> AreaCheck:
    """Polar area at the hot-spot limit against (lam1/2)^2 * area.

    Both inputs normally come from discretized computations, hence the
    _EIGEN_AREA_SLACK (2 percent) on the comparison.
    """
    lhs = polar_polygon(poly, hot_spot_limit).area
    rhs = (lam1 / 2.0) ** 2 * poly.area
    return AreaCheck(lhs, rhs, lhs <= rhs * (1.0 + _EIGEN_AREA_SLACK))
