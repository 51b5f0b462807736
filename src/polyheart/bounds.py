"""Lower bounds on the distance from the hot-spot limit to the boundary.

Everything here is computable from elementary geometry of the body: area,
perimeter, diameter, inradius, plus the first Dirichlet eigenvalue of the
unit disc.  Eigenvalues of the body itself only ever enter through UPPER
bounds, which keeps the distance estimates valid lower bounds without
solving any eigenproblem.  The finite-difference module can supply a
numeric eigenvalue for cross-checks but is never required.

Dimension is kept as a parameter so the formulas read like their general-N
statements, but only N = 2 is supported (the disc eigenvalue constant is
the blocker; see :func:`disc_dirichlet_eigenvalue`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureUnstable, UnsupportedDimension
from .geometry import ConvexPolygon, chebyshev_center, edge_gaps, newton_minimize

# volume of the unit ball in R^k
BALL_VOLUME = {0: 1.0, 1: 2.0, 2: float(np.pi), 3: float(4.0 * np.pi / 3.0)}


def bessel_j0(x: float) -> float:
    """J0 by its power series; plenty for arguments below ~10."""
    x = float(x)
    if abs(x) > 12.0:
        raise ValueError("power series truncation not validated beyond |x| = 12")
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        term *= q / (k * k)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


@lru_cache(maxsize=None)
def disc_dirichlet_eigenvalue(n_dim: int = 2) -> float:
    """First Dirichlet eigenvalue of the unit ball; N = 2 only.

    Equals the square of the first zero of J0, bracketed in [2, 3] and
    bisected to 1e-12.
    """
    if n_dim != 2:
        raise UnsupportedDimension(f"unit-ball eigenvalue implemented for n_dim=2 only, got {n_dim}")
    lo, hi = 2.0, 3.0
    flo = bessel_j0(lo)
    if not (flo > 0.0 > bessel_j0(hi)):
        raise ValueError("J0 bracket lost")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return root * root


@dataclass(frozen=True)
class BodyStats:
    """Scalar geometry of a body, enough to evaluate every bound here."""

    area: float
    perimeter: float
    diameter: float
    inradius: float
    n_dim: int = 2

    def __post_init__(self):
        for name in ("area", "perimeter", "diameter", "inradius"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def isoperimetric_ratio(self) -> float:
        return self.perimeter * self.area ** (1.0 / self.n_dim - 1.0)

    @classmethod
    def from_polygon(cls, poly: ConvexPolygon) -> "BodyStats":
        inr = chebyshev_center(poly).radius
        return cls(poly.area, poly.perimeter, poly.diameter, inr)


@dataclass(frozen=True)
class EigenvalueBounds:
    """Upper bounds for the body's first Dirichlet eigenvalue."""

    perimeter_over_inradius: float  # lambda1(B1)/N * |bd|/(r |body|)
    monotone: float                 # lambda1(B1)/r^2, ball inside body
    ball: float                     # lambda1(B1) itself, for reference
    numeric: float | None = None    # optional finite-difference value

    @property
    def best(self) -> float:
        cands = [self.perimeter_over_inradius, self.monotone]
        if self.numeric is not None:
            cands.append(self.numeric)
        return min(cands)


def eigenvalue_upper_bounds(stats: BodyStats, numeric: float | None = None) -> EigenvalueBounds:
    lam_ball = disc_dirichlet_eigenvalue(stats.n_dim)
    fk = lam_ball / stats.n_dim * stats.perimeter / (stats.inradius * stats.area)
    mono = lam_ball / stats.inradius**2
    return EigenvalueBounds(fk, mono, lam_ball, numeric)


@dataclass(frozen=True)
class GeneralDistanceBounds:
    precise: float
    coarse: float


def distance_bounds_general(stats: BodyStats, lam1: float) -> GeneralDistanceBounds:
    """Distance lower bounds needing only area, diameter, and an eigenvalue.

    Any UPPER bound for the body's eigenvalue is a valid input: both
    formulas decrease in lam1, so overestimating it only weakens the
    result.  The coarse variant replaces the area by the isodiametric
    envelope and is therefore never larger than the precise one.
    """
    if not lam1 > 0.0:
        raise ValueError("lam1 must be positive")
    n = stats.n_dim
    if n - 1 not in BALL_VOLUME or n not in BALL_VOLUME:
        raise UnsupportedDimension(f"ball volume table covers n_dim <= 3, got {n}")
    w_lower, w_self = BALL_VOLUME[n - 1], BALL_VOLUME[n]
    d = stats.diameter
    precise = n ** (n - 1) * w_lower * d / (stats.area ** (1.0 / n) * d * lam1) ** n
    coarse = 2**n * n ** (n - 1) * (w_lower / w_self) * d / (d * d * lam1) ** n
    return GeneralDistanceBounds(precise, coarse)


@dataclass(frozen=True)
class ConvexDistanceBounds:
    precise: float
    coarse: float
    improved: float


def distance_bounds_convex(stats: BodyStats) -> ConvexDistanceBounds:
    """Fully geometric distance lower bounds for convex bodies.

    precise: inradius * [w_{N-1} N^(2N-1) / lam1(B1)^N * IPR^-N * (r/d)^(N-1)]
    coarse:  inradius * [(2^N N)^(N-1) / lam1(B1)^N * w_{N-1}/w_N * (r/d)^(N^2-1)]
    improved: inradius * [2^N N^(N-1) / lam1(B1)^N * w_{N-1}/w_N * (r/d)^(2N-1)]

    The improved variant only beats the coarse one for N >= 3; at N = 2 the
    two expressions coincide identically.
    """
    n = stats.n_dim
    lam_ball = disc_dirichlet_eigenvalue(n)
    if n - 1 not in BALL_VOLUME or n not in BALL_VOLUME:
        raise UnsupportedDimension(f"ball volume table covers n_dim <= 3, got {n}")
    w_lower, w_self = BALL_VOLUME[n - 1], BALL_VOLUME[n]
    r = stats.inradius
    ratio = r / stats.diameter
    precise = r * (
        w_lower * n ** (2 * n - 1) / lam_ball**n
        * stats.isoperimetric_ratio ** (-n)
        * ratio ** (n - 1)
    )
    coarse = r * ((2**n * n) ** (n - 1) / lam_ball**n * (w_lower / w_self) * ratio ** (n * n - 1))
    improved = r * (2**n * n ** (n - 1) / lam_ball**n * (w_lower / w_self) * ratio ** (2 * n - 1))
    return ConvexDistanceBounds(precise, coarse, improved)


def reciprocal_support_integral(poly: ConvexPolygon, center) -> float:
    """Boundary integral of 1/((x - center) . nu(x)) for a fixed center.

    On a straight edge the support distance d_i = c_i - n_i . center is
    constant, so the integral is exactly sum |e_i| / d_i.
    """
    gaps = edge_gaps(poly, center, poly.eps, QuadratureUnstable)
    return float(poly.edge_lengths @ (1.0 / gaps))


def minimal_reciprocal_support_integral(poly: ConvexPolygon, return_center: bool = False):
    """Infimum over interior centers of the reciprocal support integral.

    The objective sum |e_i| / d_i is a sum of reciprocals of positive
    affine functions of the center, hence strictly convex with an interior
    minimum; its gradient is sum |e_i| n_i / d_i^2 and its Hessian
    sum 2 |e_i| n_i n_i^T / d_i^3, and damped Newton locates it.
    """
    n, lengths = poly.edge_normals, poly.edge_lengths

    def support_integral(gaps):
        w = lengths / gaps**2
        return float(lengths @ (1.0 / gaps)), w @ n, (n.T * (2.0 * w / gaps)) @ n

    best, center = newton_minimize(poly, support_integral)
    if return_center:
        return best, center
    return best


def eigenvalue_upper_starshaped(poly: ConvexPolygon) -> float:
    """Eigenvalue upper bound lam1(B1)/N * W/|body| from the support integral."""
    w_val = minimal_reciprocal_support_integral(poly)
    return disc_dirichlet_eigenvalue(2) / 2.0 * w_val / poly.area


def distance_bound_starshaped(poly: ConvexPolygon) -> float:
    """Distance lower bound driven by the reciprocal support integral.

    Substituting the support-integral eigenvalue bound into the precise
    general estimate gives, with W the minimized integral,

        dist >= N^(2N-1) w_{N-1} / lam1(B1)^N * (|body|/(diam W))^(N-1) / W.

    Sharper than the convex precise bound: the minimized integral never
    exceeds perimeter/inradius, with equality when the incircle touches
    every edge.
    """
    n = 2
    w_val = minimal_reciprocal_support_integral(poly)
    lam_ball = disc_dirichlet_eigenvalue(n)
    frac = poly.area / (poly.diameter * w_val)
    return n ** (2 * n - 1) * BALL_VOLUME[n - 1] / lam_ball**n * frac ** (n - 1) / w_val
