"""Lower bounds on the distance from the hot-spot limit to the boundary.

Everything here is computable from elementary geometry of the body: area,
perimeter, diameter, inradius and the minimal reciprocal support integral,
plus the first Dirichlet eigenvalue of the unit disc.  Eigenvalues of the
body itself only ever enter through UPPER bounds, which keeps the distance
estimates valid lower bounds without solving any eigenproblem.

The paper states each estimate for a convex body in R^N; the formulas
below are their planar (N = 2) closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureUnstable
from .geometry import ConvexPolygon, edge_gaps, newton_minimize

# First Dirichlet eigenvalue of the unit disc: j_{0,1}^2, the square of the
# first positive zero of the Bessel function J0.
DISC_EIGENVALUE = 5.783185962946783


@dataclass(frozen=True)
class EigenvalueBounds:
    """Upper bounds for the body's first Dirichlet eigenvalue.

    support_integral is always best, up to rounding.  At the incenter c
    every support distance d_i is at least r, so the minimized integral
    W <= sum |e_i| / d_i(c) <= |bd| / r, and r^2 sum |e_i| / d_i(c) <=
    sum |e_i| d_i(c) = 2 |body| gives W <= 2 |body| / r^2.  With |bd| / r
    or 2 |body| / r^2 in place of W it reads as each of the other two.
    """

    perimeter_over_inradius: float  # lambda1(B1)/2 * |bd|/(r |body|)
    monotone: float                 # lambda1(B1)/r^2, disc inside body
    support_integral: float         # lambda1(B1)/2 * W/|body|

    @property
    def best(self) -> float:
        return min(self.perimeter_over_inradius, self.monotone, self.support_integral)


def eigenvalue_upper_bounds(poly: ConvexPolygon, w_val: float) -> EigenvalueBounds:
    """The three upper bounds, W = w_val being the minimized reciprocal
    support integral (:func:`minimal_reciprocal_support_integral`)."""
    r = poly.incircle.radius
    fk = DISC_EIGENVALUE / 2.0 * poly.perimeter / (r * poly.area)
    mono = DISC_EIGENVALUE / r**2
    return EigenvalueBounds(fk, mono, DISC_EIGENVALUE / 2.0 * w_val / poly.area)


@dataclass(frozen=True)
class DistanceBounds:
    precise: float
    coarse: float


def distance_bounds_general(poly: ConvexPolygon, lam1: float) -> DistanceBounds:
    """Distance lower bounds needing only area, diameter, and an eigenvalue.

    precise: 4 / (|body| d lam1^2)
    coarse:  16 / (pi d^3 lam1^2)

    Any UPPER bound for the body's eigenvalue is a valid input: both
    formulas decrease in lam1, so overestimating it only weakens the
    result.  The coarse variant replaces the area by the isodiametric
    envelope pi d^2 / 4 and is therefore never larger than the precise one.
    """
    if not lam1 > 0.0:
        raise ValueError("lam1 must be positive")
    d = poly.diameter
    precise = 4.0 / (poly.area * d * lam1**2)
    coarse = 16.0 / (np.pi * d**3 * lam1**2)
    return DistanceBounds(precise, coarse)


def distance_bounds_convex(poly: ConvexPolygon) -> DistanceBounds:
    """Fully geometric distance lower bounds for convex bodies.

    precise: 16 r^2 |body| / (lam1(B1)^2 |bd|^2 d)
    coarse:  16 r^4 / (pi lam1(B1)^2 d^3)
    """
    r, d = poly.incircle.radius, poly.diameter
    lam_sq = DISC_EIGENVALUE**2
    precise = 16.0 * r**2 * poly.area / (lam_sq * poly.perimeter**2 * d)
    coarse = 16.0 * r**4 / (np.pi * lam_sq * d**3)
    return DistanceBounds(precise, coarse)


def reciprocal_support_integral(poly: ConvexPolygon, center) -> float:
    """Boundary integral of 1/((x - center) . nu(x)) for a fixed center.

    On a straight edge the support distance d_i = c_i - n_i . center is
    constant, so the integral is exactly sum |e_i| / d_i.
    """
    gaps = edge_gaps(poly, center, poly.eps, QuadratureUnstable)
    return float(poly.edge_lengths @ (1.0 / gaps))


def minimal_reciprocal_support_integral(poly: ConvexPolygon) -> tuple[float, np.ndarray]:
    """Infimum over interior centers of the reciprocal support integral,
    with the center that attains it: (value, center).

    The objective sum |e_i| / d_i is a sum of reciprocals of positive
    affine functions of the center, hence strictly convex with an interior
    minimum; its gradient is sum |e_i| n_i / d_i^2 and its Hessian
    sum 2 |e_i| n_i n_i^T / d_i^3, and damped Newton locates it.
    """
    n, lengths = poly.edge_normals, poly.edge_lengths

    def support_integral(gaps):
        w = lengths / gaps**2
        return float(lengths @ (1.0 / gaps)), w @ n, (n.T * (2.0 * w / gaps)) @ n

    return newton_minimize(poly, support_integral)
